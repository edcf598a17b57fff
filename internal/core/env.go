package core

import (
	"fmt"
	"math"

	"hhcw/internal/cloud"
	"hhcw/internal/cluster"
	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/pilot"
	"hhcw/internal/predict"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

// Result is one workflow execution on an environment.
type Result struct {
	Environment string
	MakespanSec float64
	// UtilizationCore is time-averaged core utilization during the run.
	UtilizationCore float64
	TasksRun        int

	// Failure/recovery accounting — all zero on fault-free runs.
	FailedAttempts   int     // attempts that ended in failure (recovered or not)
	Retries          int     // policy-scheduled resubmissions
	TerminalFailures int     // tasks abandoned after exhausting the policy (incl. skipped descendants)
	BackoffSec       float64 // total recovery backoff injected

	// Prediction-loop accounting — all zero unless the environment ran with
	// an online predictor (KubernetesEnv.Predict).
	PredSamples int     // successful attempts placed with a warm prediction
	PredMAESec  float64 // mean absolute runtime prediction error, seconds
	PredMREPct  float64 // mean relative runtime prediction error, percent

	// Provenance is the CWS store when the environment is CWSI-enabled.
	Provenance any
}

// Fingerprint encodes the result's deterministic fields — environment name,
// the exact IEEE-754 bits of makespan, utilization and backoff, and the
// task/failure counts — as a string. Two runs are bit-identical iff their
// fingerprints are equal, which is the equality the sweep engine's
// determinism contract is stated in; Provenance is deliberately excluded
// (substrate-internal pointers).
func (r *Result) Fingerprint() string {
	fp := fmt.Sprintf("%s/%016x/%016x/%d/%d/%d/%d/%016x",
		r.Environment,
		math.Float64bits(r.MakespanSec),
		math.Float64bits(r.UtilizationCore),
		r.TasksRun,
		r.FailedAttempts,
		r.Retries,
		r.TerminalFailures,
		math.Float64bits(r.BackoffSec))
	// The prediction suffix appears only once predictions engaged, so every
	// fingerprint from before the prediction loop existed — the frozen
	// goldens included — is unchanged, and a cold predictor-on run is
	// bit-comparable to a predictor-off run up to the environment name.
	if r.PredSamples > 0 {
		fp += fmt.Sprintf("/p%d/%016x/%016x",
			r.PredSamples,
			math.Float64bits(r.PredMAESec),
			math.Float64bits(r.PredMREPct))
	}
	return fp
}

// Environment executes compiled workflows. Each Run uses a fresh simulated
// substrate so results are independent and reproducible.
type Environment interface {
	Name() string
	Run(w *dag.Workflow) (*Result, error)
}

// SeededEnvironment is implemented by environments whose substrate itself
// consumes randomness — fault injection, most importantly. The sweep engine
// hands each run a fork of the job's seeded source so chaos sweeps stay a
// pure function of (workflow, environment, seed) regardless of worker count.
type SeededEnvironment interface {
	Environment
	RunSeeded(w *dag.Workflow, rng *randx.Source) (*Result, error)
}

// KubernetesEnv is a Kubernetes-like cluster of identical nodes, optionally
// workflow-aware via a CWS strategy (§3), and optionally chaos-tested via a
// fault profile.
type KubernetesEnv struct {
	Nodes        int
	CoresPerNode int
	MemPerNode   float64
	// Strategy enables the Common Workflow Scheduler; nil = plain FIFO.
	Strategy cwsi.Strategy
	// Predictor optionally feeds CWS strategies with learned runtimes.
	Predictor func() predict.RuntimePredictor
	// Predict closes the full prediction loop (§3.4) by name: "mean",
	// "regression" or "lotaru" wraps Strategy (Baseline if nil) in
	// cwsi.Predictive and arms online training from provenance, memory
	// right-sizing, predicted-duration backfill and walltime-overrun
	// enforcement. "" or "off" leaves everything as configured above.
	Predict string
	// PredictMinSamples is the per-task-name warmth gate for the prediction
	// loop; 0 means 3. Until a name has that many observations every
	// decision falls back to the unpredicted path.
	PredictMinSamples int
	// Heterogeneous swaps the uniform node pool for cluster.Heterogeneous:
	// Nodes nodes each of three machine types (8c/1.0×, 16c/1.4×, 32c/2.0×).
	// CoresPerNode and MemPerNode are ignored.
	Heterogeneous bool
	// Faults, when an enabled profile, arms deterministic fault injection:
	// node crashes/reclaims/I/O episodes on the substrate, transient task
	// failures in the workload, all recovered under Retry.
	Faults fault.Profile
	// Retry is the recovery policy for fault runs; the zero value selects
	// fault.DefaultRetryPolicy.
	Retry fault.RetryPolicy
	// Sites partitions the event engine's pending queue into that many
	// shards (sim.Engine.SetShards) — the extreme-scale configuration.
	// Results are bit-identical at any value; <= 1 keeps the monolithic
	// queue.
	Sites int
	// StreamWindow bounds the executor's resident tasks (emitted but not
	// yet terminal) on every run path; 0 = unthrottled, the eager schedule.
	// StreamingEnv and lazy expansion set it to keep memory O(window).
	StreamWindow int
}

// Name implements Environment. Fault-injected, heterogeneous and
// prediction-loop variants all carry their configuration in the name so
// their results never alias each other's.
func (e *KubernetesEnv) Name() string {
	name := "kubernetes"
	if strat := e.effectiveStrategy(); strat != nil {
		name = "kubernetes+cws/" + strat.Name()
	}
	if e.predictOn() {
		name += "+predict/" + e.Predict
	}
	if e.Heterogeneous {
		name += "+hetero"
	}
	if e.Faults.Enabled() {
		name += "+faults/" + e.Faults.Name
	}
	return name
}

func (e *KubernetesEnv) predictOn() bool { return e.Predict != "" && e.Predict != "off" }

// effectiveStrategy is the strategy the run actually installs: the
// configured one, wrapped in cwsi.Predictive when the prediction loop is on
// (Baseline supplies FIFO-like inner semantics if none was configured).
func (e *KubernetesEnv) effectiveStrategy() cwsi.Strategy {
	if !e.predictOn() {
		return e.Strategy
	}
	inner := e.Strategy
	if inner == nil {
		inner = cwsi.Baseline{}
	}
	return cwsi.Predictive{Inner: inner}
}

// Run implements Environment. Fault-free runs consume no randomness; with an
// enabled fault profile this is RunSeeded under a fixed substrate seed (use
// RunSeeded directly to tie the faults to the workflow's seed, as the sweep
// engine does).
func (e *KubernetesEnv) Run(w *dag.Workflow) (*Result, error) {
	return e.RunSeeded(w, randx.New(1))
}

// RunSeeded implements SeededEnvironment: rng drives the fault processes (and
// only those — fault-free configurations ignore it entirely). It is the cold
// fallback of the session contract: a one-shot Session built and discarded,
// so cold and warm runs execute literally the same code (see session.go).
func (e *KubernetesEnv) RunSeeded(w *dag.Workflow, rng *randx.Source) (*Result, error) {
	s, err := e.NewSession()
	if err != nil {
		return nil, err
	}
	return s.RunSeeded(w, rng)
}

// HPCEnv executes through a pilot job on a Frontier-like allocation (§4):
// tasks become node-granular pilot tasks.
type HPCEnv struct {
	Nodes        int
	CoresPerNode int
	// Resource shaping (zero values = no agent overhead / unlimited rates).
	BootstrapSec          float64
	SchedRate, LaunchRate float64
	WalltimeSec           float64
}

// Name implements Environment.
func (e *HPCEnv) Name() string { return "hpc-pilot" }

// Run implements Environment.
func (e *HPCEnv) Run(w *dag.Workflow) (*Result, error) {
	if e.Nodes <= 0 {
		return nil, fmt.Errorf("core: hpc env needs nodes")
	}
	cores := e.CoresPerNode
	if cores <= 0 {
		cores = 56
	}
	wall := e.WalltimeSec
	if wall <= 0 {
		wall = 24 * 3600
	}
	eng := sim.NewEngine()
	cl := cluster.New(eng, "hpc", cluster.Spec{
		Type:  cluster.NodeType{Name: "hpc", Cores: cores, GPUs: 8, MemBytes: 512e9},
		Count: e.Nodes,
	})
	bm := rm.NewBatchManager(cl, nil)
	p, err := pilot.Submit(bm, cl, pilot.Config{
		Nodes:        e.Nodes,
		Walltime:     sim.Time(wall),
		Account:      "core",
		BootstrapSec: e.BootstrapSec,
		SchedRate:    e.SchedRate,
		LaunchRate:   e.LaunchRate,
	})
	if err != nil {
		return nil, err
	}

	x, err := dag.NewWorkflowExpander(w)
	if err != nil {
		return nil, err
	}
	remaining := w.Len()
	var failErr error
	var submit func(t *dag.Task)
	submitReady := func() {
		for t, _, ok := x.Next(); ok; t, _, ok = x.Next() {
			submit(t)
		}
	}
	submit = func(t *dag.Task) {
		task := t
		nodes := (task.Cores + cores - 1) / cores
		if nodes < 1 {
			nodes = 1
		}
		err := p.SubmitTask(&pilot.Task{
			ID:          string(task.ID),
			Nodes:       nodes,
			DurationSec: task.NominalDur,
			Done: func(r pilot.TaskResult) {
				if r.Failed {
					failErr = r.Err
					return
				}
				remaining--
				x.TaskDone(task.ID)
				submitReady()
			},
		})
		if err != nil {
			failErr = err
		}
	}
	p.OnActive(submitReady)
	eng.Run()
	if failErr != nil {
		return nil, fmt.Errorf("core: hpc run failed: %w", failErr)
	}
	if remaining != 0 {
		return nil, fmt.Errorf("core: hpc run stalled with %d tasks", remaining)
	}
	ms := p.Overhead() + p.TTX()
	res := &Result{
		Environment: e.Name(),
		MakespanSec: float64(ms),
		TasksRun:    w.Len(),
	}
	if ms > 0 {
		res.UtilizationCore = p.BusyNodesSeries().Integral(p.StartedAt(), p.StartedAt()+ms) /
			(float64(e.Nodes) * float64(ms))
	}
	p.Release()
	return res, nil
}

// CloudEnv executes on an elastic instance fleet (§5): each ready task runs
// on an instance; the fleet scales to MaxInstances.
type CloudEnv struct {
	MaxInstances int
	Instance     cloud.InstanceType
}

// Name implements Environment.
func (e *CloudEnv) Name() string { return "cloud" }

// Run implements Environment.
func (e *CloudEnv) Run(w *dag.Workflow) (*Result, error) {
	if e.MaxInstances <= 0 {
		return nil, fmt.Errorf("core: cloud env needs instances")
	}
	itype := e.Instance
	if itype.Name == "" {
		itype = cloud.T3Medium
	}
	eng := sim.NewEngine()
	env := cloud.NewEnv(eng)

	// Elastic fleet: instances launch on demand up to the cap, park when
	// idle (tasks may become ready later), and terminate when the
	// workflow drains.
	x, err := dag.NewWorkflowExpander(w)
	if err != nil {
		return nil, err
	}
	// Readiness comes from the expander; ready is the fleet's own FIFO of
	// tasks waiting for an instance.
	var ready []*dag.Task
	takeReady := func() {
		for t, _, ok := x.Next(); ok; t, _, ok = x.Next() {
			ready = append(ready, t)
		}
	}
	takeReady()
	remaining := w.Len()
	busySec := 0.0

	launched := 0
	var idle []func() // parked instance continuations
	var instances []*cloud.Instance

	var dispatch func()
	startWorker := func() {
		var loop func()
		loop = func() {
			if len(ready) == 0 {
				idle = append(idle, loop)
				return
			}
			t := ready[0]
			ready = ready[1:]
			dur := t.NominalDur / instSpeed(itype)
			eng.After(sim.Time(dur), func() {
				busySec += dur
				remaining--
				x.TaskDone(t.ID)
				takeReady()
				dispatch()
				loop()
			})
		}
		loop()
	}
	dispatch = func() {
		// Wake parked instances first, then launch up to the cap.
		for len(ready) > 0 && len(idle) > 0 {
			wake := idle[0]
			idle = idle[1:]
			wake()
		}
		for demand := len(ready); demand > 0 && launched < e.MaxInstances; demand-- {
			launched++
			inst := env.Launch(itype, func(*cloud.Instance) { startWorker() })
			instances = append(instances, inst)
		}
	}
	dispatch()
	eng.Run()
	for _, inst := range instances {
		env.Terminate(inst)
	}
	if remaining != 0 {
		return nil, fmt.Errorf("core: cloud run stalled with %d tasks", remaining)
	}
	res := &Result{
		Environment: e.Name(),
		MakespanSec: float64(eng.Now()),
		TasksRun:    w.Len(),
	}
	allocated := 0.0
	for _, inst := range env.Instances() {
		allocated += inst.UptimeSec(eng.Now())
	}
	if allocated > 0 {
		res.UtilizationCore = busySec / allocated
	}
	return res, nil
}

func instSpeed(t cloud.InstanceType) float64 {
	if t.SpeedFactor <= 0 {
		return 1
	}
	return t.SpeedFactor
}
