package service

import (
	"fmt"
	"math"
	"strings"

	"hhcw/internal/cluster"
	"hhcw/internal/compose"
	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/metrics"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
	"hhcw/internal/statediff"
)

// Tenant is one workload stream sharing the service's cluster.
type Tenant struct {
	// ID names the tenant; workflows are registered as "ID/wf-N", so IDs
	// must not contain '/'.
	ID string
	// Weight is the fair-share weight (<= 0 means 1): the fair-share
	// strategy equalizes usedCoreSec/Weight across tenants.
	Weight float64
	// Arrivals drives the tenant's workflow arrival process.
	Arrivals Arrivals
	// Workload generates the compiled workflow of one admission. It must be
	// a pure function of rng; it is invoked only for ADMITTED arrivals, so a
	// rejected or deferred arrival costs O(1) state, never a compile.
	Workload func(rng *randx.Source) compose.Compiler
	// MaxInFlight bounds concurrently admitted workflows (admission budget).
	// 0 means the default of 8; negative disables admission (reject all).
	MaxInFlight int
	// MaxDeferred bounds the backpressure queue of arrivals waiting for an
	// in-flight slot. 0 means the default of 16; negative disables deferral
	// (overflow arrivals are rejected outright).
	MaxDeferred int
	// QuotaCores caps the tenant's concurrently allocated cores under the
	// fair-share strategy (0 = no quota; ignored under FIFO).
	QuotaCores int
}

// Config describes one service session.
type Config struct {
	Nodes        int
	CoresPerNode int
	MemPerNode   float64 // 0 means 1e12 (memory out of the way)

	Tenants []Tenant

	// FairShare selects the deficit-weighted fair-share strategy; false runs
	// the plain FIFO baseline (the §6 starvation pathology).
	FairShare bool

	// FairShareDecaySec is the time constant of the exponential decay
	// applied to per-tenant usage (0 means 1800 s). Without decay the
	// deficit has an infinite window and stale imbalances — one tenant's
	// big workflow an hour ago — distort priorities long after the episode;
	// the decay makes the deficit track *recent* consumption, which is what
	// fair share is supposed to equalize.
	FairShareDecaySec float64

	// HorizonSec stops every arrival process at this virtual time; the
	// service then drains admitted work and the run ends.
	HorizonSec float64

	// Faults overlays a deterministic failure profile; Retry is the shared
	// recovery policy armed when faults are enabled.
	Faults fault.Profile
	Retry  fault.RetryPolicy

	// Compact retires provenance task records into running aggregates,
	// keeping store memory O(process names + tenants) over any horizon.
	Compact bool

	// inspect, when set (tests only), sees the drained serviceRun before it
	// is reduced to a Result — the hook white-box invariant checks attach to.
	inspect func(sv *serviceRun)
}

// TenantResult is one tenant's accounting and SLO view of a run.
type TenantResult struct {
	Tenant string
	Weight float64

	Arrivals  int // arrival events in [0, HorizonSec]
	Admitted  int // workflows admitted (incl. via deferral)
	Deferred  int // arrivals that waited in the backpressure queue
	Rejected  int // arrivals dropped by admission control
	Completed int // workflows that ran to completion
	WfFailed  int // workflows that terminally failed

	TasksStarted  int // task attempts that reached a node
	PendingAborts int // attempts terminated while still queued

	UsedCoreSec float64 // Σ cores × runtime over successful attempts

	MeanWaitSec     float64 // mean task queue wait
	P50WaitSec      float64
	P99WaitSec      float64 // the per-tenant SLO headline
	MeanDeferSec    float64 // mean admission deferral wait
	MeanMakespanSec float64 // mean workflow makespan

	RejectionRate float64 // Rejected / Arrivals (0 when no arrivals)

	// Solo-baseline comparison, filled by RunWithBaselines: the same tenant
	// stream alone on the same cluster under FIFO.
	SoloP99WaitSec      float64
	SoloMeanMakespanSec float64
	// WaitInflationP99 is P99WaitSec / SoloP99WaitSec (0 when the solo p99
	// is 0 — an uncontended stream with no queueing to inflate).
	WaitInflationP99  float64
	MakespanInflation float64
}

// Result is one service run.
type Result struct {
	Strategy     string
	Seed         int64
	HorizonSec   float64
	DrainedAtSec float64 // virtual time when the last admitted task finished
	Utilization  float64 // Σ tenant usedCoreSec / (total cores × DrainedAtSec)
	Tenants      []TenantResult
}

// tenantState is the live accounting of one tenant during a run.
type tenantState struct {
	spec   Tenant
	weight float64
	arrRNG *randx.Source
	wfRNG  *randx.Source

	maxInFlight int
	maxDeferred int

	arrivals  int
	admitted  int
	rejected  int
	deferrals int
	completed int
	wfFailed  int

	inFlight  int
	deferredQ []sim.Time // arrival times of deferred admissions, FIFO

	seq           int
	runningCores  int
	usedCoreSec   float64 // total, for accounting (never decays)
	fairUsage     float64 // decayed, for the fair-share deficit
	tasksStarted  int
	pendingAborts int
	waits         []float64
	deferWaits    []float64
	makespans     []float64
}

// serviceRun is one in-flight execution of a Config.
type serviceRun struct {
	cfg     Config
	eng     *sim.Engine
	cl      *cluster.Cluster
	cws     *cwsi.CWS
	inj     *fault.Injector
	tenants []*tenantState
	byID    map[string]*tenantState

	only          int // -1 = all tenants; otherwise the sole armed tenant
	activeChains  int
	inFlightTotal int
	decayTau      float64  // fair-share usage decay time constant
	lastDecay     sim.Time // last uniform decay instant (all tenants share it)
	err           error
}

// decayUsage applies the uniform exponential decay to every tenant's
// fair-share usage up to now. All tenants decay at the same instants by the
// same factor, so pairwise priority order is a pure function of the
// accounting history — not of which tenant happened to update last.
func (sv *serviceRun) decayUsage(now sim.Time) {
	dt := float64(now - sv.lastDecay)
	if dt <= 0 {
		return
	}
	f := math.Exp(-dt / sv.decayTau)
	for _, ts := range sv.tenants {
		ts.fairUsage *= f
	}
	sv.lastDecay = now
}

// tenantOf resolves a "tenant/wf-N" workflow ID to its state (nil if alien).
func (sv *serviceRun) tenantOf(wfID string) *tenantState {
	i := strings.IndexByte(wfID, '/')
	if i < 0 {
		return nil
	}
	return sv.byID[wfID[:i]]
}

// Substrate is a warm service substrate: one engine + cluster + task manager
// + CWS instance, reusable across any number of runs that share the same
// cluster shape (Nodes, CoresPerNode, MemPerNode). Between runs the
// substrate is reset in place — event queues truncated, node capacities
// restored, scheduler and provenance state cleared — instead of rebuilt, so
// an ensemble's steady-state construction cost is near zero. The determinism
// contract is the same as core.Session's: a warm run is bit-identical to a
// cold one, so reuse affects wall-clock and allocation only, never Results.
// A Substrate is single-goroutine: share nothing, one per worker.
type Substrate struct {
	nodes, cores int
	mem          float64

	eng  *sim.Engine
	cl   *cluster.Cluster
	mgr  *rm.TaskManager
	cws  *cwsi.CWS
	warm bool `statediff:"keep"` // the one intentional divergence from a fresh substrate
}

// NewSubstrate builds a cold substrate for the given cluster shape.
// memPerNode <= 0 means the 1e12 default (memory out of the way). Returns
// nil for a non-positive shape — runs on a nil Substrate fall back to the
// cold path, where config validation reports the error.
func NewSubstrate(nodes, coresPerNode int, memPerNode float64) *Substrate {
	if nodes <= 0 || coresPerNode <= 0 {
		return nil
	}
	if memPerNode <= 0 {
		memPerNode = 1e12
	}
	eng := sim.NewEngine()
	cl := cluster.New(eng, "svc", cluster.Spec{
		Type:  cluster.NodeType{Name: "svc-node", Cores: coresPerNode, GPUs: 2, MemBytes: memPerNode},
		Count: nodes,
	})
	mgr := rm.NewTaskManager(cl, nil)
	// The per-run strategy is installed by cws.Reset at the top of each run;
	// Baseline here is just the construction placeholder.
	cws := cwsi.New(mgr, cwsi.Baseline{}, nil)
	return &Substrate{nodes: nodes, cores: coresPerNode, mem: memPerNode, eng: eng, cl: cl, mgr: mgr, cws: cws}
}

// matches reports whether the substrate's cluster shape serves cfg.
func (sub *Substrate) matches(cfg *Config) bool {
	if sub == nil {
		return false
	}
	mem := cfg.MemPerNode
	if mem <= 0 {
		mem = 1e12
	}
	return sub.nodes == cfg.Nodes && sub.cores == cfg.CoresPerNode && sub.mem == mem
}

// reset truncates the engine/cluster/manager in place. The CWS is reset
// separately (cws.Reset) because the per-run strategy is installed there.
func (sub *Substrate) reset() {
	sub.eng.Reset()
	sub.cl.Reset()
	sub.mgr.Reset()
}

// Audit resets the substrate and deep-diffs it against a freshly constructed
// one, returning one "path: detail" line per leaked field (nil when clean) —
// the service-mode arm of the warm-run dirty-state auditor. Fields that
// legitimately survive a reset (capacity pools, memoization caches) carry a
// `statediff:"keep"` tag at their declaration.
func (sub *Substrate) Audit() []string {
	sub.reset()
	sub.cws.Reset(cwsi.Baseline{}, nil)
	fresh := NewSubstrate(sub.nodes, sub.cores, sub.mem)
	return statediff.Diff(sub, fresh, statediff.Config{})
}

// Run executes the service session and returns per-tenant accounting. It is
// a pure function of (cfg, seed): bit-identical Results for equal inputs.
func Run(cfg Config, seed int64) (*Result, error) {
	return run(nil, cfg, seed, -1)
}

// Run executes the session on the warm substrate — bit-identical to the
// package-level Run, minus the per-run substrate construction.
func (sub *Substrate) Run(cfg Config, seed int64) (*Result, error) {
	return run(sub, cfg, seed, -1)
}

// RunSolo executes the session with only tenant index `only` armed, on the
// identical per-tenant random streams a full Run would use — the solo
// baseline that makespan-inflation and wait-inflation SLOs compare against.
// The solo run always schedules under FIFO: it measures the tenant's
// uncontended behavior, not the strategy's.
func RunSolo(cfg Config, seed int64, only int) (*Result, error) {
	return runSolo(nil, cfg, seed, only)
}

// RunSolo is the warm-substrate form of the package-level RunSolo.
func (sub *Substrate) RunSolo(cfg Config, seed int64, only int) (*Result, error) {
	return runSolo(sub, cfg, seed, only)
}

func runSolo(sub *Substrate, cfg Config, seed int64, only int) (*Result, error) {
	if only < 0 || only >= len(cfg.Tenants) {
		return nil, fmt.Errorf("service: RunSolo tenant index %d out of range", only)
	}
	cfg.FairShare = false
	return run(sub, cfg, seed, only)
}

func run(sub *Substrate, cfg Config, seed int64, only int) (*Result, error) {
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("service: config needs at least one tenant")
	}
	if cfg.Nodes <= 0 || cfg.CoresPerNode <= 0 {
		return nil, fmt.Errorf("service: config needs nodes and cores per node")
	}
	if cfg.HorizonSec <= 0 {
		return nil, fmt.Errorf("service: config needs a positive horizon")
	}

	// Resolve the substrate: the caller's warm one when its shape serves the
	// config, else a one-shot cold build (also the path of the package-level
	// Run functions).
	if !sub.matches(&cfg) {
		sub = NewSubstrate(cfg.Nodes, cfg.CoresPerNode, cfg.MemPerNode)
	} else if sub.warm {
		sub.reset()
	}
	sub.warm = true

	sv := &serviceRun{
		cfg:      cfg,
		eng:      sub.eng,
		cl:       sub.cl,
		byID:     map[string]*tenantState{},
		only:     only,
		decayTau: cfg.FairShareDecaySec,
	}
	if sv.decayTau <= 0 {
		sv.decayTau = 1800
	}

	// Fixed fork order — part of the determinism contract, and shared with
	// solo runs so tenant i sees the identical arrival/workload streams
	// whether or not anyone else is on the cluster: one arrival fork and one
	// workload fork per configured tenant (armed or not), then the fault
	// forks.
	rng := randx.New(seed)
	for i := range cfg.Tenants {
		t := cfg.Tenants[i]
		if t.ID == "" || strings.ContainsRune(t.ID, '/') {
			return nil, fmt.Errorf("service: tenant %d: ID %q must be non-empty without '/'", i, t.ID)
		}
		if t.Arrivals == nil || t.Workload == nil {
			return nil, fmt.Errorf("service: tenant %q needs Arrivals and Workload", t.ID)
		}
		if _, dup := sv.byID[t.ID]; dup {
			return nil, fmt.Errorf("service: duplicate tenant ID %q", t.ID)
		}
		ts := &tenantState{
			spec:        t,
			weight:      t.Weight,
			arrRNG:      rng.Fork(),
			wfRNG:       rng.Fork(),
			maxInFlight: t.MaxInFlight,
			maxDeferred: t.MaxDeferred,
		}
		if ts.weight <= 0 {
			ts.weight = 1
		}
		if ts.maxInFlight == 0 {
			ts.maxInFlight = 8
		}
		if ts.maxDeferred == 0 {
			ts.maxDeferred = 16
		}
		sv.tenants = append(sv.tenants, ts)
		sv.byID[t.ID] = ts
	}

	var strat cwsi.Strategy = cwsi.Baseline{}
	if cfg.FairShare {
		strat = &FairShare{sv: sv}
	}
	// Reset installs the per-run strategy; on a fresh substrate it is the
	// identity apart from that, so warm and cold runs see the same CWS.
	sub.cws.Reset(strat, nil)
	sv.cws = sub.cws
	sv.cws.Provenance().SetTenantResolver(func(wfID string) string {
		if i := strings.IndexByte(wfID, '/'); i >= 0 {
			return wfID[:i]
		}
		return wfID
	})
	if cfg.Compact {
		sv.cws.Provenance().SetCompact(true)
	}
	sv.cws.SetTaskObserver(sv.observe)

	if cfg.Faults.Enabled() {
		retry := cfg.Retry
		if retry == (fault.RetryPolicy{}) {
			retry = fault.DefaultRetryPolicy()
		}
		sv.inj = fault.NewInjector(sub.cl, rng.Fork(), cfg.Faults)
		sv.cws.SetRecovery(retry, rng.Fork())
		sv.inj.Start()
	}

	for i, ts := range sv.tenants {
		if only >= 0 && i != only {
			continue
		}
		sv.activeChains++
		sv.armArrivals(ts)
	}
	sub.eng.Run()
	if sv.err != nil {
		return nil, sv.err
	}
	if cfg.inspect != nil {
		cfg.inspect(sv)
	}
	return sv.result(seed), nil
}

// armArrivals schedules the tenant's next arrival, ending the chain past the
// horizon.
func (sv *serviceRun) armArrivals(ts *tenantState) {
	d := ts.spec.Arrivals.Next(sv.eng.Now(), ts.arrRNG)
	if d < 0 {
		d = 0
	}
	at := sv.eng.Now() + d
	if float64(at) > sv.cfg.HorizonSec {
		sv.chainDone()
		return
	}
	sv.eng.At(at, func() {
		if sv.err != nil {
			sv.chainDone()
			return
		}
		sv.arrive(ts)
		sv.armArrivals(ts)
	})
}

// arrive applies admission control to one arrival: admit within the
// in-flight budget, defer into the bounded backpressure queue, or reject.
// Rejected and deferred arrivals cost O(1) state — the workflow is neither
// generated nor compiled until an in-flight slot is granted, so service
// state stays O(in-flight + deferred), never O(arrivals).
func (sv *serviceRun) arrive(ts *tenantState) {
	ts.arrivals++
	switch {
	case ts.inFlight < ts.maxInFlight:
		sv.admit(ts, sv.eng.Now())
	case len(ts.deferredQ) < ts.maxDeferred:
		ts.deferrals++
		ts.deferredQ = append(ts.deferredQ, sv.eng.Now())
	default:
		ts.rejected++
	}
}

// admit compiles and starts one workflow for an arrival that entered at
// arrivedAt (possibly earlier than now, for deferred admissions).
func (sv *serviceRun) admit(ts *tenantState, arrivedAt sim.Time) {
	now := sv.eng.Now()
	ts.admitted++
	ts.inFlight++
	sv.inFlightTotal++
	if now > arrivedAt {
		ts.deferWaits = append(ts.deferWaits, float64(now-arrivedAt))
	}
	ts.seq++
	wfID := fmt.Sprintf("%s/wf-%05d", ts.spec.ID, ts.seq)
	w, err := ts.spec.Workload(ts.wfRNG).Compile()
	if err != nil {
		sv.fail(fmt.Errorf("service: tenant %s workload compile: %w", ts.spec.ID, err))
		return
	}
	if err := sv.cws.RegisterWorkflow(wfID, w); err != nil {
		sv.fail(fmt.Errorf("service: %w", err))
		return
	}
	var plan []int
	if sv.cfg.Faults.TaskFailProb > 0 {
		// One plan fork per admission, drawn from the tenant's workload
		// stream right after the workflow itself — the fixed order that keeps
		// solo and contended runs on identical per-workflow fault plans.
		plan = sv.cfg.Faults.PlanTaskFailures(w.Len(), ts.wfRNG.Fork())
	}
	err = sv.cws.StartWorkflow(wfID, plan, func(ms sim.Time, err error) {
		if err != nil {
			ts.wfFailed++
		} else {
			ts.completed++
			ts.makespans = append(ts.makespans, float64(ms))
		}
		// The workflow is fully accounted: release its scheduler and
		// provenance structure so session state stays bounded.
		sv.cws.ReleaseWorkflow(wfID)
		ts.inFlight--
		sv.inFlightTotal--
		// Deterministic requeue: the freed slot goes to the oldest deferred
		// arrival, at the completion timestamp.
		if len(ts.deferredQ) > 0 {
			at := ts.deferredQ[0]
			ts.deferredQ = ts.deferredQ[1:]
			sv.admit(ts, at)
			return
		}
		sv.maybeStopInjector()
	})
	if err != nil {
		sv.fail(fmt.Errorf("service: %w", err))
	}
}

// fail aborts the run at the next opportunity; arrival chains stop re-arming.
func (sv *serviceRun) fail(err error) {
	if sv.err == nil {
		sv.err = err
		sv.eng.Halt()
	}
}

func (sv *serviceRun) chainDone() {
	sv.activeChains--
	sv.maybeStopInjector()
}

// maybeStopInjector stops the fault processes once no arrivals remain and
// all admitted work has drained, so the engine can run dry.
func (sv *serviceRun) maybeStopInjector() {
	if sv.inj != nil && sv.activeChains == 0 && sv.inFlightTotal == 0 {
		sv.inj.Stop()
	}
}

// observe is the CWS task observer: per-tenant accounting for every terminal
// task attempt, after provenance capture. It fires at exactly the moments
// the priority-cache generation advances, so the fair-share deficits it
// maintains are never read stale by a memoized priority.
func (sv *serviceRun) observe(wfID string, _ dag.TaskID, _ int, r rm.Result) {
	ts := sv.tenantOf(wfID)
	if ts == nil {
		return
	}
	if r.Node == nil {
		ts.pendingAborts++ // aborted while queued: no placement to account
		return
	}
	if sv.cfg.FairShare {
		ts.runningCores -= r.Submission.Cores // quota release
	}
	ts.tasksStarted++
	ts.waits = append(ts.waits, float64(r.StartedAt-r.SubmittedAt))
	if !r.Failed {
		used := float64(r.Submission.Cores) * float64(r.FinishedAt-r.StartedAt)
		ts.usedCoreSec += used
		if sv.cfg.FairShare {
			sv.decayUsage(sv.eng.Now())
			ts.fairUsage += used
		}
	}
}

// result freezes the run into a Result.
func (sv *serviceRun) result(seed int64) *Result {
	res := &Result{
		Strategy:     "fifo",
		Seed:         seed,
		HorizonSec:   sv.cfg.HorizonSec,
		DrainedAtSec: float64(sv.eng.Now()),
	}
	if sv.cfg.FairShare {
		res.Strategy = "fairshare"
	}
	totalCores := float64(sv.cfg.Nodes * sv.cfg.CoresPerNode)
	var usedTotal float64
	for i, ts := range sv.tenants {
		if sv.only >= 0 && i != sv.only {
			continue
		}
		tr := TenantResult{
			Tenant:          ts.spec.ID,
			Weight:          ts.weight,
			Arrivals:        ts.arrivals,
			Admitted:        ts.admitted,
			Deferred:        ts.deferrals,
			Rejected:        ts.rejected,
			Completed:       ts.completed,
			WfFailed:        ts.wfFailed,
			TasksStarted:    ts.tasksStarted,
			PendingAborts:   ts.pendingAborts,
			UsedCoreSec:     ts.usedCoreSec,
			MeanWaitSec:     mean(ts.waits),
			P50WaitSec:      metrics.Quantile(ts.waits, 0.5),
			P99WaitSec:      metrics.Quantile(ts.waits, 0.99),
			MeanDeferSec:    mean(ts.deferWaits),
			MeanMakespanSec: mean(ts.makespans),
		}
		if ts.arrivals > 0 {
			tr.RejectionRate = float64(ts.rejected) / float64(ts.arrivals)
		}
		usedTotal += ts.usedCoreSec
		res.Tenants = append(res.Tenants, tr)
	}
	if res.DrainedAtSec > 0 {
		res.Utilization = usedTotal / (totalCores * res.DrainedAtSec)
	}
	return res
}

// RunWithBaselines runs the configured session and, per tenant, the solo
// FIFO baseline on the identical streams, filling each TenantResult's
// Solo*/inflation fields — the §6 pathology metric (contended p99 wait vs
// solo) and the fairness SLO read straight off the returned Result.
func RunWithBaselines(cfg Config, seed int64) (*Result, error) {
	return runWithBaselines(nil, cfg, seed)
}

// RunWithBaselines is the warm-substrate form: the contended run and all N
// solo baselines execute on the one reused substrate — 1+N resets instead of
// 1+N constructions.
func (sub *Substrate) RunWithBaselines(cfg Config, seed int64) (*Result, error) {
	return runWithBaselines(sub, cfg, seed)
}

func runWithBaselines(sub *Substrate, cfg Config, seed int64) (*Result, error) {
	res, err := run(sub, cfg, seed, -1)
	if err != nil {
		return nil, err
	}
	for i := range res.Tenants {
		solo, err := runSolo(sub, cfg, seed, i)
		if err != nil {
			return nil, err
		}
		attachBaseline(&res.Tenants[i], &solo.Tenants[0])
	}
	return res, nil
}

func attachBaseline(tr *TenantResult, solo *TenantResult) {
	tr.SoloP99WaitSec = solo.P99WaitSec
	tr.SoloMeanMakespanSec = solo.MeanMakespanSec
	if solo.P99WaitSec > 0 {
		tr.WaitInflationP99 = tr.P99WaitSec / solo.P99WaitSec
	}
	if solo.MeanMakespanSec > 0 {
		tr.MakespanInflation = tr.MeanMakespanSec / solo.MeanMakespanSec
	}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
