// Package cwsi implements the Common Workflow Scheduler (CWS) and its
// interface (CWSI) from §3: a component that lives inside the resource
// manager, receives workflow structure and task metadata from any WMS, and
// uses that information for workflow-aware scheduling, centralized
// provenance, and runtime prediction.
//
// The CWS plugs into rm.TaskManager as its Strategy, so a resource manager
// implements the CWS once and every CWSI-speaking workflow engine benefits
// ("a workflow engine needs to implement support for CWSI to work with all
// resource managers already offering CWSI").
//
// There is one way in. A WMS registers a workflow's DAG (RegisterWorkflow);
// its tasks then reach the CWS only as attempts of the one executor
// (rm.StreamRunner), through the rm.Submitter the CWS installs on the
// manager — whether a core session drives the runner or StartWorkflow does.
// Injected transient failures ride the same path: the executor's FailPlan.
package cwsi

import (
	"fmt"
	"sort"
	"strconv"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/predict"
	"hhcw/internal/provenance"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

// Context gives strategies access to everything the CWS knows: the DAG, the
// provenance store, and the trained predictor.
type Context struct {
	cws *CWS
}

// Workflow returns the registered workflow for id, or nil.
func (c *Context) Workflow(id string) *dag.Workflow {
	if st := c.cws.workflows[id]; st != nil {
		return st.wf
	}
	return nil
}

// Rank returns the upward rank of a task within its workflow (0 when the
// workflow is unknown). Ranks are computed at registration from nominal
// durations — the static DAG knowledge only a workflow-aware scheduler has.
func (c *Context) Rank(wfID string, taskID dag.TaskID) float64 {
	if st := c.cws.workflows[wfID]; st != nil {
		return st.ranks[taskID]
	}
	return 0
}

// PredictRuntime estimates the runtime of a task (by process name and input
// size) on a node, using the online predictor when trained and the declared
// nominal duration as fallback.
func (c *Context) PredictRuntime(wfID string, taskID dag.TaskID, n *cluster.Node) float64 {
	st := c.cws.workflows[wfID]
	if st == nil {
		return 0
	}
	t := st.wf.Task(taskID)
	if t == nil {
		return 0
	}
	if c.cws.predictor != nil {
		// Prefer Kubestone-style measured machine characteristics over the
		// declared spec (§3.4); they coincide unless hardware misbehaves.
		if sec, ok := c.cws.predictor.Predict(t.Name, t.InputBytes, c.MeasuredSpeed(n)); ok {
			return sec
		}
	}
	return rm.DefaultRuntime(t, n)
}

// ObservedMeanRuntime returns the provenance-store mean reference runtime
// for a process name (ok=false before any successful execution). The store
// maintains the mean as a running aggregate, so this is O(1) per call.
func (c *Context) ObservedMeanRuntime(name string) (float64, bool) {
	return c.cws.prov.MeanRefRuntime(name)
}

// Strategy is a workflow-aware scheduling policy.
type Strategy interface {
	Name() string
	// Priority scores a pending submission; higher runs first.
	Priority(s *rm.Submission, ctx *Context) float64
	// PickNode chooses among feasible nodes (nil = skip this pass).
	PickNode(s *rm.Submission, candidates []*cluster.Node, ctx *Context) *cluster.Node
}

type wfState struct {
	wf    *dag.Workflow
	ranks map[dag.TaskID]float64

	// Predicted-critical-path ranks, memoized under the priority-cache
	// generation (see Context.PredictedRank); nil while the model is cold.
	predGen   uint64
	predRanks map[dag.TaskID]float64
	// overruns counts walltime-overrun kills per task, inflating the next
	// attempt's budget (see SetOverrunPolicy). Lazily allocated.
	overruns map[dag.TaskID]int
}

// CWS is the Common Workflow Scheduler.
type CWS struct {
	mgr       *rm.TaskManager
	prov      *provenance.Store
	predictor predict.RuntimePredictor
	memPred   *predict.MemPredictor
	strategy  Strategy
	workflows map[string]*wfState
	ctx       *Context

	// Data-plane model (see locality.go).
	dataBW  float64
	outputs map[outKey]*cluster.Node

	// prioGen is the priority-cache generation: strategies' Priority values
	// are memoized per submission under this generation and recomputed only
	// after it advances — which happens whenever the knowledge Priority may
	// depend on changes (provenance records, data locality, new workflows).
	prioGen uint64
	// idScratch builds submission IDs without fmt.
	idScratch []byte `statediff:"keep"`
	// freeRuns recycles taskRun attempt records: an attempt is dead once its
	// Done hook returns (the manager drops every reference before invoking
	// it), so steady-state submission allocates only at peak concurrency.
	freeRuns []*taskRun `statediff:"keep"`
	// freeExecs recycles finished StartWorkflow executions with their
	// executor's attempt pool and expander maps, so a service admitting
	// workflow after workflow reuses them.
	freeExecs []*workflowExec `statediff:"keep"`

	// Measured machine characteristics (see profiling.go).
	measuredSpeed map[string]float64

	// Shared recovery policy (see SetRecovery); nil gives every task one
	// attempt, and the first terminal failure fails its workflow.
	recovery    *fault.RetryPolicy
	recoveryTag string // recovery.String(), rendered once for provenance
	recoveryRNG *randx.Source
	recStats    rm.RunStats

	// observer, when set, sees every terminal task attempt right after
	// provenance capture (see SetTaskObserver).
	observer func(wfID string, taskID dag.TaskID, attempt int, r rm.Result)

	// Prediction-loop knobs and accounting (see predictive.go).
	minPredSamples int     // warmth gate; <1 means 1
	overrunSlack   float64 // kill budget = predicted × slack; 0 disarms
	overrunInfl    float64 // per-overrun budget inflation; >= 1
	overrunKills   int
	predErr        predict.Errors
}

// New creates a CWS over mgr with the given strategy and installs it as the
// manager's scheduling policy. predictor may be nil (no learned runtimes).
func New(mgr *rm.TaskManager, strategy Strategy, predictor predict.RuntimePredictor) *CWS {
	c := &CWS{
		mgr:       mgr,
		prov:      provenance.NewStore(),
		predictor: predictor,
		strategy:  strategy,
		workflows: map[string]*wfState{},
		prioGen:   1, // generation 0 is the rm.Submission "never cached" sentinel
	}
	c.ctx = &Context{cws: c}
	// The provenance→predict feed (§3.4): every record folds into the online
	// models as it is captured, including records ingested through paths that
	// bypass the scheduler's own completion hook.
	c.prov.SetTaskObserver(c.train)
	mgr.SetStrategy(&rmAdapter{cws: c})
	mgr.Cluster().OnNodeDown(func(n *cluster.Node) {
		c.prov.AddNodeEvent(provenance.NodeEvent{At: mgr.Cluster().Engine().Now(), Node: n.Name(), Kind: "down"})
	})
	return c
}

// Reset returns the scheduler to its just-constructed state over the same
// manager, installing the strategy and predictor the next run will use (the
// arguments New would have received). Every per-run knob — memory predictor,
// data bandwidth, recovery policy, task observer, prediction gates — reverts
// to its construction default, the provenance store truncates in place, and
// the priority-cache generation restarts at 1 exactly as New sets it.
// Construction wiring survives untouched: the provenance→predict observer,
// the rmAdapter installed as the manager's strategy, and the cluster
// OnNodeDown trace subscription are registered once in New and must not be
// registered again on a warm substrate. Pooled attempt records and
// scratch buffers are retained.
func (c *CWS) Reset(strategy Strategy, predictor predict.RuntimePredictor) {
	c.prov.Reset()
	c.predictor = predictor
	c.memPred = nil
	c.strategy = strategy
	clear(c.workflows)
	c.dataBW = 0
	clear(c.outputs)
	c.prioGen = 1
	clear(c.measuredSpeed)
	c.recovery = nil
	c.recoveryTag = ""
	c.recoveryRNG = nil
	c.recStats = rm.RunStats{}
	c.observer = nil
	c.minPredSamples = 0
	c.overrunSlack, c.overrunInfl = 0, 0
	c.overrunKills = 0
	c.predErr = predict.Errors{}
}

// Provenance exposes the central provenance store (§3.3).
func (c *CWS) Provenance() *provenance.Store { return c.prov }

// SetMemPredictor enables memory right-sizing (§3.4, §6.1): first attempts
// of a task are submitted with the predicted peak (plus the predictor's
// safety margin) instead of the user's — typically inflated — request, so
// more tasks pack per node. An under-prediction manifests as an OOM kill;
// the retry falls back to the full declared request.
func (c *CWS) SetMemPredictor(p *predict.MemPredictor) { c.memPred = p }

// SetRecovery installs the shared fault.RetryPolicy: StartWorkflow then
// hands it to the executor, which derives the retry budget from it, delays
// resubmissions by its capped exponential backoff (deterministic jitter from
// rng, which may be nil), bounds attempts by its timeout, circuit-breaks on
// its threshold, and degrades gracefully — a terminally failed task abandons
// its unreachable descendants instead of failing the whole workflow. Every
// scheduled retry is annotated into provenance with the policy.
func (c *CWS) SetRecovery(p fault.RetryPolicy, rng *randx.Source) {
	c.recovery = &p
	c.recoveryTag = p.String()
	c.recoveryRNG = rng
}

// RecoveryStats returns the recovery accounting of the workflows driven
// through StartWorkflow, folded in as each one finishes or fails.
func (c *CWS) RecoveryStats() rm.RunStats { return c.recStats }

// SetTaskObserver installs a hook invoked once per terminal task attempt,
// immediately after provenance capture and before the executor hears of the
// result. The service layer uses it for per-tenant accounting (queue
// waits, core-seconds, quota release): the observer fires at exactly the
// moments the priority-cache generation advances, so a fair-share strategy
// whose priorities derive from observer-maintained state is never stale.
// r.Submission must not be retained past the call (see rm.Result).
func (c *CWS) SetTaskObserver(fn func(wfID string, taskID dag.TaskID, attempt int, r rm.Result)) {
	c.observer = fn
}

// ReleaseWorkflow drops a finished workflow's scheduler state (DAG, ranks,
// attempt counters) and the provenance store's registered-workflow entry, so
// a long-running service that registers workflows per arrival keeps
// O(in-flight) rather than O(arrivals) state. Task records already captured
// are untouched (retention stays governed by provenance.SetCompact). It is
// the caller's responsibility to release only workflows with no tasks still
// pending or running; the entry simply disappears for strategy Context
// lookups. Releasing an unknown id is a no-op.
func (c *CWS) ReleaseWorkflow(id string) {
	if _, ok := c.workflows[id]; !ok {
		return
	}
	delete(c.workflows, id)
	c.prov.ReleaseWorkflow(id)
	c.prioGen++ // Context lookups for id now miss; memoized priorities may be stale
}

// RegisterWorkflow is the CWSI registration call (§3.1): the WMS transfers
// the workflow DAG — task dependencies, resource requests, data sizes and
// task-specific parameters — before any of its tasks run. Upward ranks are
// computed here from nominal durations.
func (c *CWS) RegisterWorkflow(id string, w *dag.Workflow) error {
	if _, dup := c.workflows[id]; dup {
		return fmt.Errorf("cwsi: workflow %q already registered", id)
	}
	if err := w.Validate(); err != nil {
		return fmt.Errorf("cwsi: workflow %q: %w", id, err)
	}
	c.workflows[id] = &wfState{wf: w, ranks: w.UpwardRanks(dag.NominalDur)}
	c.prov.RegisterWorkflow(id, w)
	c.prioGen++
	return nil
}

// newRun pops a pooled taskRun for one attempt of t and fills its
// submission.
func (c *CWS) newRun(wfID string, t *dag.Task, attempt int) *taskRun {
	// Memory right-sizing: predicted peak on the first attempt (once the
	// model is warm for the name), the full declared request after an OOM
	// retry.
	mem := t.MemBytes
	if attempt == 1 && c.memWarmFor(t.Name) {
		if pred, ok := c.memPred.Predict(t.Name); ok && pred < mem {
			mem = pred
		}
	}
	var tr *taskRun
	if n := len(c.freeRuns); n > 0 {
		tr = c.freeRuns[n-1]
		c.freeRuns = c.freeRuns[:n-1]
	} else {
		tr = new(taskRun)
	}
	*tr = taskRun{
		c: c, wfID: wfID, t: t, attempt: attempt,
		grantedMem: mem, submittedAt: c.mgr.Cluster().Engine().Now(),
	}
	tr.sub = rm.Submission{
		ID:         c.subID(wfID, t.ID, attempt),
		WorkflowID: wfID,
		TaskID:     t.ID,
		Name:       t.Name,
		Cores:      t.Cores,
		GPUs:       t.GPUs,
		Mem:        mem,
		InputBytes: t.InputBytes,
		Hooks:      tr,
	}
	return tr
}

// taskRun bundles one CWSI task attempt — the rm.Submission plus every
// callback's state — into a single allocation implementing
// rm.SubmissionHooks, replacing three per-task closures and their captures.
// Every attempt comes from the executor (inner), whose hooks it wraps.
type taskRun struct {
	c           *CWS
	wfID        string
	t           *dag.Task
	attempt     int
	grantedMem  float64
	submittedAt sim.Time
	inner       *rm.Attempt
	sub         rm.Submission

	// Prediction-loop state for this attempt: the warm prediction made at
	// placement (0 when cold) and whether the overrun policy truncated the
	// attempt at its kill budget.
	predicted float64
	overrun   bool
	budget    float64
}

// RuntimeOn implements rm.SubmissionHooks: the executor's execution time
// plus staging of non-local input bytes when the data-plane model is on.
// With an armed overrun policy and a warm model, an attempt that would exceed its
// predicted walltime budget is truncated at the budget — it occupies the
// node only that long — and fails validation as a walltime-overrun kill.
func (tr *taskRun) RuntimeOn(n *cluster.Node) float64 {
	c := tr.c
	d := tr.inner.RuntimeOn(n)
	if c.dataBW > 0 {
		d += c.remoteInputBytes(tr.wfID, tr.t, n) / c.dataBW
	}
	if c.warmFor(tr.t.Name) {
		if sec, ok := c.predictor.Predict(tr.t.Name, tr.t.InputBytes, c.ctx.MeasuredSpeed(n)); ok {
			tr.predicted = sec
			if c.overrunSlack > 0 {
				budget := sec * c.overrunSlack
				if st := c.workflows[tr.wfID]; st != nil {
					for i := 0; i < st.overruns[tr.t.ID]; i++ {
						budget *= c.overrunInfl
					}
				}
				if d > budget {
					tr.overrun, tr.budget = true, budget
					return budget
				}
			}
		}
	}
	return d
}

// ValidateOn implements rm.SubmissionHooks: walltime-overrun kills, OOM
// enforcement, and the transient failures the executor's fault plan injects.
func (tr *taskRun) ValidateOn(n *cluster.Node) error {
	if tr.overrun {
		c := tr.c
		c.overrunKills++
		if st := c.workflows[tr.wfID]; st != nil {
			if st.overruns == nil {
				st.overruns = map[dag.TaskID]int{}
			}
			st.overruns[tr.t.ID]++
		}
		return fmt.Errorf("cwsi: task %s walltime-overrun killed at %.1fs (predicted %.1fs, attempt %d)",
			tr.t.ID, tr.budget, tr.predicted, tr.attempt)
	}
	if tr.grantedMem < tr.t.PeakMem() {
		return fmt.Errorf("cwsi: task %s OOM-killed: granted %.0fB, peak %.0fB",
			tr.t.ID, tr.grantedMem, tr.t.PeakMem())
	}
	if tr.inner.ValidateOn(n) != nil {
		return fmt.Errorf("cwsi: injected transient failure of %s (attempt %d)", tr.t.ID, tr.attempt)
	}
	return nil
}

// Done implements rm.SubmissionHooks: provenance capture, locality notes,
// then the executor's completion handling.
func (tr *taskRun) Done(r rm.Result) {
	c := tr.c
	if !r.Failed {
		c.noteOutput(tr.wfID, tr.t.ID, r.Node)
		if tr.predicted > 0 {
			c.predErr.Observe(tr.predicted, float64(r.FinishedAt-r.StartedAt))
		}
	}
	c.record(tr.wfID, tr.t, tr.attempt, tr.submittedAt, r)
	tr.inner.Done(r)
	// The attempt is dead: the manager dropped its references before calling
	// Done and the completion handling has returned (r.Submission must not
	// be retained past it — see rm.Result). Recycle the record so
	// steady-state submission allocates only at peak concurrency.
	*tr = taskRun{}
	c.freeRuns = append(c.freeRuns, tr)
}

// subID renders "wf/task#attempt" on a reusable scratch buffer — one string
// allocation instead of fmt's boxing and formatting.
func (c *CWS) subID(wfID string, taskID dag.TaskID, attempt int) string {
	b := append(c.idScratch[:0], wfID...)
	b = append(b, '/')
	b = append(b, taskID...)
	b = append(b, '#')
	b = strconv.AppendInt(b, int64(attempt), 10)
	c.idScratch = b
	return string(b)
}

func (c *CWS) record(wfID string, t *dag.Task, attempt int, submittedAt sim.Time, r rm.Result) {
	errMsg := ""
	if r.Err != nil {
		errMsg = r.Err.Error()
	}
	// A submission aborted while still pending (attempt timeout) never got a
	// node; record it with an empty placement.
	nodeName, machineType, speedFactor := "", "", 0.0
	if r.Node != nil {
		nodeName, machineType, speedFactor = r.Node.Name(), r.Node.Type.Name, r.Node.Type.SpeedFactor
	}
	rec := provenance.TaskRecord{
		WorkflowID:  wfID,
		TaskID:      t.ID,
		Name:        t.Name,
		Attempt:     attempt,
		SubmittedAt: submittedAt,
		StartedAt:   r.StartedAt,
		FinishedAt:  r.FinishedAt,
		Node:        nodeName,
		MachineType: machineType,
		SpeedFactor: speedFactor,
		Cores:       t.Cores,
		MemRequest:  t.MemBytes,
		PeakMem:     t.PeakMem(),
		InputBytes:  t.InputBytes,
		OutputBytes: t.OutputBytes,
		Failed:      r.Failed,
		Error:       errMsg,
		Params:      t.Params,
	}
	// AddTask triggers the provenance→predict observer (CWS.train), which
	// folds the record into the online models before the generation bump
	// below invalidates memoized priorities.
	c.prov.AddTask(rec)
	c.prioGen++ // provenance advanced; memoized priorities may be stale
	if c.observer != nil {
		c.observer(wfID, t.ID, attempt, r)
	}
}

// rmAdapter bridges the CWS strategy into rm.Strategy. It doubles as the
// sort.Interface over (subs, keys) so a dispatch round sorts the manager's
// scratch slice in place with memoized priority keys — no per-round slice
// allocations and no O(n²) insertion sort.
type rmAdapter struct {
	cws  *CWS
	subs []*rm.Submission
	keys []float64 `statediff:"keep"`
}

func (a *rmAdapter) Name() string { return "cws/" + a.cws.strategy.Name() }

func (a *rmAdapter) Len() int { return len(a.subs) }
func (a *rmAdapter) Swap(i, j int) {
	a.subs[i], a.subs[j] = a.subs[j], a.subs[i]
	a.keys[i], a.keys[j] = a.keys[j], a.keys[i]
}

// Less orders by descending priority; sort.Stable keeps equal keys in
// submission order — the same (priority desc, submission order asc) total
// order the historical insertion sort produced.
func (a *rmAdapter) Less(i, j int) bool { return a.keys[i] > a.keys[j] }

func (a *rmAdapter) Prioritize(pending []*rm.Submission) []*rm.Submission {
	if len(pending) <= 1 {
		return pending // nothing to order; skip key filling entirely
	}
	gen := a.cws.prioGen
	if cap(a.keys) < len(pending) {
		a.keys = make([]float64, len(pending))
	}
	a.keys = a.keys[:len(pending)]
	for i, s := range pending {
		k, ok := s.PriorityCache(gen)
		if !ok {
			k = a.cws.strategy.Priority(s, a.cws.ctx)
			s.SetPriorityCache(k, gen)
		}
		a.keys[i] = k
	}
	a.subs = pending
	sort.Stable(a)
	a.subs = nil
	return pending
}

func (a *rmAdapter) PickNode(s *rm.Submission, candidates []*cluster.Node) *cluster.Node {
	return a.cws.strategy.PickNode(s, candidates, a.cws.ctx)
}

// SubmitAttempt implements rm.Submitter: the attempt goes onto the manager
// as a pooled taskRun, with the executor's hooks nested inside.
func (a *rmAdapter) SubmitAttempt(at *rm.Attempt) string {
	c := a.cws
	tr := c.newRun(at.WorkflowID(), at.Task(), at.Number())
	tr.inner = at
	c.mgr.Submit(&tr.sub)
	return tr.sub.ID
}

// RetryScheduled implements rm.Submitter: it annotates the retry into
// provenance under the installed policy (SetRecovery).
func (a *rmAdapter) RetryScheduled(at *rm.Attempt, d sim.Time) {
	if c := a.cws; c.recovery != nil {
		c.prov.AnnotateRetry(at.WorkflowID(), at.Task().ID, float64(d), c.recoveryTag)
	}
}

// StartWorkflow begins driving a registered workflow through the executor
// (rm.StreamRunner) without running the engine, so several workflows can
// share one cluster concurrently (the multi-tenant setting the CWS
// evaluation uses). onDone fires once with the workflow's makespan or an
// error.
//
// plan is the workflow's transient-failure plan — how many leading attempts
// of the task at each eager insertion index fail with an injected error
// (fault.Profile.PlanTaskFailures output); nil injects none.
//
// Without a recovery policy (SetRecovery), every task gets one attempt and
// the first terminal failure fails the workflow. With a policy, failed
// attempts are resubmitted within its attempt budget after its backoff
// (recorded into provenance), the breaker can abandon retries workflow-wide,
// and a terminal failure degrades gracefully: the task's unreachable
// descendants are abandoned and the rest of the workflow completes on the
// healthy capacity.
func (c *CWS) StartWorkflow(id string, plan []int, onDone func(sim.Time, error)) error {
	st := c.workflows[id]
	if st == nil {
		return fmt.Errorf("cwsi: workflow %q not registered", id)
	}
	ex := c.grabExec()
	if err := ex.x.Reset(st.wf); err != nil {
		c.freeExecs = append(c.freeExecs, ex)
		return fmt.Errorf("cwsi: workflow %q: %w", id, err)
	}
	ex.plan, ex.failed, ex.onDone = plan, false, onDone
	sr := &ex.sr
	sr.Source, sr.WorkflowID, sr.OnComplete = &ex.x, id, ex.completeFn
	if plan != nil {
		sr.FailPlan = ex.failPlanFn
	}
	if c.recovery != nil {
		sr.Retry, sr.RetryRNG, sr.Breaker = c.recovery, c.recoveryRNG, c.recovery.NewBreaker()
	} else {
		sr.Observe = ex.observeFn
	}
	sr.Start()
	return nil
}

// workflowExec is one StartWorkflow execution: the executor over the
// workflow's expander plus the glue that reports the outcome to the caller.
// Dependency release, retries, skips and fault injection all happen in the
// executor.
type workflowExec struct {
	c          *CWS
	plan       []int
	failed     bool // a terminal failure already failed the workflow
	onDone     func(sim.Time, error)
	x          dag.WorkflowExpander
	sr         rm.StreamRunner
	completeFn func()
	observeFn  func(*dag.Task, rm.Result)
	failPlanFn func(int) int
}

// grabExec pops a recycled execution or builds one with its executor hooks
// bound once.
func (c *CWS) grabExec() *workflowExec {
	if n := len(c.freeExecs); n > 0 {
		ex := c.freeExecs[n-1]
		c.freeExecs = c.freeExecs[:n-1]
		return ex
	}
	ex := &workflowExec{c: c}
	ex.sr.Manager = c.mgr
	ex.completeFn = ex.complete
	ex.observeFn = ex.observe
	ex.failPlanFn = ex.failPlan
	return ex
}

// failPlan is the executor's FailPlan: the planned transient failures of the
// task at eager insertion index i.
func (ex *workflowExec) failPlan(i int) int {
	if i < len(ex.plan) {
		return ex.plan[i]
	}
	return 0
}

// observe fails the workflow at its first terminal task failure; it is
// installed only when no recovery policy is.
func (ex *workflowExec) observe(t *dag.Task, r rm.Result) {
	if !r.Failed || ex.failed {
		return
	}
	ex.failed = true
	ex.c.recStats.Add(ex.sr.Stats())
	ex.onDone(0, fmt.Errorf("cwsi: task %s failed: %v", t.ID, r.Err))
}

// complete is the executor's OnComplete: fold the recovery accounting and
// report the makespan (unless a terminal failure already failed the
// workflow), then recycle the execution.
func (ex *workflowExec) complete() {
	c, onDone, failed := ex.c, ex.onDone, ex.failed
	ms := ex.sr.Makespan()
	if !failed {
		c.recStats.Add(ex.sr.Stats())
	}
	ex.x.Reset(nil)
	ex.sr.Reset()
	ex.plan, ex.onDone = nil, nil
	c.freeExecs = append(c.freeExecs, ex)
	if !failed {
		onDone(ms, nil)
	}
}

// RunWorkflow drives a registered workflow through the CWS (StartWorkflow,
// with no fault plan) and runs the engine until the workflow finishes,
// returning the makespan.
func (c *CWS) RunWorkflow(id string) (sim.Time, error) {
	eng := c.mgr.Cluster().Engine()
	var makespan sim.Time
	var runErr error
	done := false
	err := c.StartWorkflow(id, nil, func(ms sim.Time, err error) {
		makespan, runErr = ms, err
		done = true
		if err != nil {
			eng.Halt()
		}
	})
	if err != nil {
		return 0, err
	}
	eng.Run()
	if runErr != nil {
		return 0, runErr
	}
	if !done {
		return 0, fmt.Errorf("cwsi: workflow %q stalled (cluster too small for a request?)", id)
	}
	return makespan, nil
}
