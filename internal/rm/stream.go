package rm

import (
	"errors"
	"fmt"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

// StreamRunner is the DAG executor: it drives a dag.Expander through a
// TaskManager, submitting tasks as their dependencies complete, and owns the
// run's dependency release, retry/backoff/breaker handling, cascade-skip and
// completion accounting. Every workflow run in the repository goes through
// it — an eager run is a dag.WorkflowExpander with MaxResident 0, a streaming
// run is a lazy expander under a residency window, and a CWS run is either
// of these on a manager whose strategy owns the submit side (Submitter). A
// pilot-job run (EnTK, the HPC environment) is one whose submitter is the
// pilot's agent.
//
// Tasks are pulled from the expander as the MaxResident window allows and
// retired — observed by the Observe hook, reported to the expander, then
// recycled by it — the moment they turn terminal, so resident state is O(in-flight), not
// O(tasks). With Retry set it is also the chaos harness: failed attempts
// (node loss, injected transient faults, timeouts) are resubmitted under the
// policy's capped exponential backoff until the attempt budget is exhausted
// or the Breaker opens; a terminally failed task cascade-skips its
// unreachable descendants so the rest of the workflow degrades gracefully on
// the healthy capacity instead of stalling.
//
// MaxResident == 0 leaves admission unthrottled: every ready task is
// submitted immediately. A positive MaxResident bounds emitted-but-not-
// terminal tasks; scheduling is still deterministic, and for workloads whose
// concurrently-ready tasks share one resource shape (scatter shards) the
// schedule is provably identical to the unthrottled one as long as the
// window exceeds the cluster's concurrency (see docs/scale.md).
type StreamRunner struct {
	Manager *TaskManager
	Source  dag.Expander
	// Runtime maps a task and node to an execution time. If nil, nominal
	// duration scaled by node speed is used.
	Runtime func(t *dag.Task, n *cluster.Node) float64
	// WorkflowID labels submissions for CWSI-aware strategies.
	WorkflowID string

	// Retry, when non-nil, is the recovery policy applied to every failed
	// attempt; nil is fail-fast (one attempt, then cascade-skip). A zero
	// backoff resubmits inside the failed attempt's completion callback.
	Retry *fault.RetryPolicy
	// RetryRNG supplies deterministic backoff jitter (may be nil).
	RetryRNG *randx.Source
	// Breaker, when non-nil, circuit-breaks retries across the whole run
	// after consecutive failures. Use Retry.NewBreaker() for the policy's
	// threshold.
	Breaker *fault.Breaker
	// FailPlan returns how many leading attempts of the task at eager
	// insertion index idx fail with an injected transient error
	// (fault.Profile.PlanTaskFailures output), keyed by index so the fault
	// plan needs no materialized task list.
	FailPlan func(idx int) int
	// OnComplete fires once, when the last task turns terminal — the hook
	// that stops a fault.Injector so the engine can drain. It is the last
	// thing the runner does for the run, so the hook may reuse the runner.
	OnComplete func()
	// Observe, when non-nil, sees every task's terminal result just before
	// the expander hears of it — the hook that folds records into provenance's
	// running aggregates. The Task and Result are only valid for the call.
	Observe func(t *dag.Task, r Result)
	// MaxResident caps tasks emitted but not yet terminal (0 = unlimited).
	MaxResident int

	total        int
	doneCount    int
	resident     int
	peakResident int
	startAt      sim.Time
	finishAt     sim.Time
	stats        RunStats
	// submitter is the manager strategy's submit side, resolved at Start.
	submitter Submitter
	// freeAttempts is the free list of Attempt records; an attempt stays live
	// across its own retries and is recycled at its task's terminal result.
	// Records are carved in blocks (carved counts them), so a run allocates
	// O(log peak in-flight) times rather than once per in-flight task.
	freeAttempts *Attempt `statediff:"keep"`
	carved       int      `statediff:"keep"`
	// idMemo caches first-attempt submission IDs per task on unthrottled
	// runs, whose residency is O(tasks) anyway. An ID is a pure function of
	// (WorkflowID, TaskID), so the memo survives Reset as a capacity cache
	// and is cleared only when WorkflowID changes — warm sessions replaying
	// the same workflow shape re-derive zero ID strings.
	idMemo   map[dag.TaskID]string `statediff:"keep"`
	idMemoWf string                `statediff:"keep"`
}

// Submitter is the submit side of a workflow-aware scheduling strategy. When
// the manager's Strategy implements it, the executor hands it every attempt
// instead of queueing the attempt's own Submission: the strategy shapes the
// request (ID, memory), wraps the attempt's hooks with its own checks and
// bookkeeping, and delivers the terminal result to a.Done exactly once. This
// is how the CWS plugs into the one executor (§3.1: the scheduling happens
// inside the resource manager). A strategy may also run the attempt outside
// the manager altogether: a pilot job's agent (internal/pilot) queues,
// places and times attempts inside its own allocation, and the manager only
// carries the engine and the strategy binding.
type Submitter interface {
	// SubmitAttempt queues attempt a.Number() of a.Task() — on the manager or
	// on the strategy's own runtime — and returns the submission ID, the
	// handle attempt timeouts abort (only attempts queued on the manager can
	// be aborted). The attempt's run time and validity must come from
	// a.RuntimeOn and a.ValidateOn. The result must not reach a.Done from
	// inside SubmitAttempt.
	SubmitAttempt(a *Attempt) string
	// RetryScheduled reports that a's failed attempt will be resubmitted
	// after backoff d.
	RetryScheduled(a *Attempt, d sim.Time)
}

// Attempt is one task's submission state inside a StreamRunner: the
// Submission and every per-attempt callback bundled into a single pooled
// allocation. It carries the task across retries (Number counts them) plus
// the eager insertion index and the resolved fault-plan count.
type Attempt struct {
	sr         *StreamRunner
	task       *dag.Task
	idx        int
	n          int
	failN      int
	timeoutEv  *sim.Event
	resubmitFn func()
	next       *Attempt // free-list link
	sub        Submission
}

// resubmit starts the task's next attempt.
func (a *Attempt) resubmit() {
	a.n++
	a.sr.start(a)
}

// Task returns the task being attempted.
func (a *Attempt) Task() *dag.Task { return a.task }

// Number returns the 1-based attempt number.
func (a *Attempt) Number() int { return a.n }

// WorkflowID returns the running workflow's submission label.
func (a *Attempt) WorkflowID() string { return a.sr.WorkflowID }

// RuntimeOn implements SubmissionHooks: the runner's Runtime model.
func (a *Attempt) RuntimeOn(n *cluster.Node) float64 { return a.sr.Runtime(a.task, n) }

// ValidateOn implements SubmissionHooks: it fails the attempt when the fault
// plan injects a transient failure into it, and accepts it otherwise.
func (a *Attempt) ValidateOn(n *cluster.Node) error {
	if a.n <= a.failN {
		return fmt.Errorf("rm: injected transient failure of %s (attempt %d)", a.task.ID, a.n)
	}
	return nil
}

// Done implements SubmissionHooks: recovery accounting, then a retry, a
// cascade-skip, or the release of the task's successors.
func (a *Attempt) Done(r Result) {
	sr := a.sr
	if a.timeoutEv != nil {
		a.timeoutEv.Cancel()
		a.timeoutEv = nil
	}
	r.Submission = nil
	sr.stats.Attempts++
	if r.Failed {
		sr.stats.Failures++
		if errors.Is(r.Err, fault.ErrTimeout) {
			sr.stats.Timeouts++
		}
		sr.Breaker.Record(true)
		if sr.Retry != nil && sr.Retry.ShouldRetry(a.n) && !sr.Breaker.Open() {
			d := sr.Retry.Backoff(a.n, sr.RetryRNG)
			sr.stats.Retries++
			sr.stats.BackoffSec += float64(d)
			if sr.submitter != nil {
				sr.submitter.RetryScheduled(a, d)
			}
			if d == 0 {
				a.resubmit()
				return
			}
			if a.resubmitFn == nil {
				a.resubmitFn = a.resubmit // bound once per pooled record
			}
			sr.Manager.eng.After(d, a.resubmitFn)
			return
		}
		sr.stats.TerminalFailures++
		task := a.task
		sr.recycle(a)
		if sr.Observe != nil {
			sr.Observe(task, r)
		}
		// Observe, report, Retire: the dag.Expander call discipline.
		skipped := sr.Source.TaskFailed(task.ID)
		sr.retire(task)
		sr.stats.Skipped += skipped
		sr.pull()
		sr.taskDone(1 + skipped)
		return
	}
	sr.Breaker.Record(false)
	task := a.task
	sr.recycle(a)
	if sr.Observe != nil {
		sr.Observe(task, r)
	}
	// The source learns of the completion before completion accounting runs:
	// a dynamic expander (EnTK PostExec, ref splices) may grow Total here,
	// and taskDone must see the grown denominator or it would declare the
	// run complete with stages still pending.
	sr.Source.TaskDone(task.ID)
	sr.retire(task)
	sr.pull()
	sr.taskDone(1)
}

// RunStats aggregates one run's failure/recovery accounting.
type RunStats struct {
	Attempts         int     // attempts that reached a terminal Result
	Failures         int     // failed attempts, recovered or not
	Retries          int     // resubmissions scheduled by the policy
	TerminalFailures int     // tasks that exhausted the policy (or broke the circuit)
	Skipped          int     // descendants cancelled by terminal failures
	Timeouts         int     // attempts ended by the virtual-time timeout
	BackoffSec       float64 // total backoff delay injected
}

// Add folds o into s.
func (s *RunStats) Add(o RunStats) {
	s.Attempts += o.Attempts
	s.Failures += o.Failures
	s.Retries += o.Retries
	s.TerminalFailures += o.TerminalFailures
	s.Skipped += o.Skipped
	s.Timeouts += o.Timeouts
	s.BackoffSec += o.BackoffSec
}

// DefaultRuntime scales nominal duration by the node's speed/IO factors.
func DefaultRuntime(t *dag.Task, n *cluster.Node) float64 {
	cpu := t.NominalDur * (1 - t.IOFrac) / n.Type.SpeedFactor
	io := t.NominalDur * t.IOFrac / n.Type.IOFactor
	return cpu + io
}

// Start begins the run without driving the engine — submitting the
// expansion's ready tasks — so several runs can share one engine. Progress
// is reported through OnComplete; after the engine drains, Err tells a
// finished run from a stalled one. A runner is reusable: Start zeroes every
// per-run accumulator.
func (sr *StreamRunner) Start() {
	if sr.Runtime == nil {
		sr.Runtime = DefaultRuntime
	}
	sr.submitter, _ = sr.Manager.strategy.(Submitter)
	sr.doneCount, sr.resident, sr.peakResident = 0, 0, 0
	sr.finishAt, sr.stats = 0, RunStats{}
	if sr.WorkflowID != sr.idMemoWf {
		clear(sr.idMemo)
		sr.idMemoWf = sr.WorkflowID
	}
	sr.total = sr.Source.Total()
	sr.startAt = sr.Manager.eng.Now()
	sr.pull()
	if sr.total == 0 {
		sr.taskDone(0)
	}
}

// Run starts the run, drives the engine until it drains and returns the
// makespan in virtual seconds. Err reports whether the run stalled.
func (sr *StreamRunner) Run() sim.Time {
	sr.Start()
	sr.Manager.eng.Run()
	return sr.Makespan()
}

// Makespan returns the virtual time from Start to the last task's terminal
// result (0 until the run completes).
func (sr *StreamRunner) Makespan() sim.Time {
	if sr.doneCount != sr.total {
		return 0
	}
	return sr.finishAt - sr.startAt
}

// Err reports a stalled run once the engine has drained: some task never
// turned terminal, typically because it requests more than any node offers.
func (sr *StreamRunner) Err() error {
	if sr.doneCount == sr.total {
		return nil
	}
	return fmt.Errorf("rm: workflow %s stalled: %d/%d tasks done (cluster too small for some request?)",
		sr.Source.Name(), sr.doneCount, sr.total)
}

// Reset clears every per-run field — source, policy, hooks, window and
// accounting — so a pooled runner audits identically to a fresh one. The
// Manager binding, pooled attempt records and the submission-ID memo
// survive.
func (sr *StreamRunner) Reset() {
	*sr = StreamRunner{
		Manager:      sr.Manager,
		freeAttempts: sr.freeAttempts,
		carved:       sr.carved,
		idMemo:       sr.idMemo,
		idMemoWf:     sr.idMemoWf,
	}
}

// pull admits ready tasks while the residency window allows.
func (sr *StreamRunner) pull() {
	for sr.MaxResident <= 0 || sr.resident < sr.MaxResident {
		t, idx, ok := sr.Source.Next()
		if !ok {
			return
		}
		sr.resident++
		if sr.resident > sr.peakResident {
			sr.peakResident = sr.resident
		}
		sr.submit(t, idx)
	}
}

// submit queues the first attempt of t.
func (sr *StreamRunner) submit(t *dag.Task, idx int) {
	if sr.freeAttempts == nil {
		// Carve a block as large as everything carved so far (8 to 1024).
		n := min(max(sr.carved, 8), 1024)
		sr.carved += n
		block := make([]Attempt, n)
		for i := range block {
			block[i].next = sr.freeAttempts
			sr.freeAttempts = &block[i]
		}
	}
	a := sr.freeAttempts
	sr.freeAttempts, a.next = a.next, nil
	a.sr, a.task, a.idx, a.n = sr, t, idx, 1
	a.failN = 0
	if sr.FailPlan != nil {
		a.failN = sr.FailPlan(idx)
	}
	sr.start(a)
}

// start submits the attempt currently described by a.
func (sr *StreamRunner) start(a *Attempt) {
	var id string
	if sr.submitter != nil {
		id = sr.submitter.SubmitAttempt(a)
	} else {
		id = sr.subID(a)
		a.sub = Submission{
			ID:         id,
			WorkflowID: sr.WorkflowID,
			TaskID:     a.task.ID,
			Name:       a.task.Name,
			Cores:      a.task.Cores,
			GPUs:       a.task.GPUs,
			Mem:        a.task.MemBytes,
			InputBytes: a.task.InputBytes,
			Hooks:      a,
		}
		sr.Manager.Submit(&a.sub)
	}
	if sr.Retry != nil && sr.Retry.TimeoutSec > 0 {
		attempt := a.n
		a.timeoutEv = sr.Manager.eng.After(sim.Time(sr.Retry.TimeoutSec), func() {
			sr.Manager.Abort(id, fmt.Errorf("rm: %s attempt %d exceeded %.0fs: %w",
				id, attempt, sr.Retry.TimeoutSec, fault.ErrTimeout))
		})
	}
}

// subID renders "wf/task" for first attempts and "wf/task#n" for retries.
func (sr *StreamRunner) subID(a *Attempt) string {
	memo := sr.MaxResident <= 0
	id, ok := sr.idMemo[a.task.ID]
	if !memo || !ok {
		id = sr.WorkflowID + "/" + string(a.task.ID)
		if memo {
			if sr.idMemo == nil {
				sr.idMemo = make(map[dag.TaskID]string, sr.total)
			}
			sr.idMemo[a.task.ID] = id
		}
	}
	if a.n > 1 {
		id = fmt.Sprintf("%s#%d", id, a.n)
	}
	return id
}

// retire hands a reported task back to the expander for recycling and frees
// its residency slot.
func (sr *StreamRunner) retire(t *dag.Task) {
	sr.resident--
	sr.Source.Retire(t)
}

// recycle returns a dead attempt record to the free list, keeping its bound
// resubmit closure.
func (sr *StreamRunner) recycle(a *Attempt) {
	*a = Attempt{resubmitFn: a.resubmitFn, next: sr.freeAttempts}
	sr.freeAttempts = a
}

// taskDone advances the terminal count by n and fires OnComplete when the
// whole expansion has settled. Total is re-read per terminal task because
// dynamic sources grow it as the run progresses; for static sources it is
// the same constant every time.
func (sr *StreamRunner) taskDone(n int) {
	sr.doneCount += n
	sr.total = sr.Source.Total()
	if sr.doneCount == sr.total {
		sr.finishAt = sr.Manager.eng.Now()
		if sr.OnComplete != nil {
			sr.OnComplete()
		}
	}
}

// PeakResident returns the high-water mark of tasks emitted but not yet
// terminal — the number the memory-ceiling regression gates.
func (sr *StreamRunner) PeakResident() int { return sr.peakResident }

// Stats returns the run's failure/recovery accounting.
func (sr *StreamRunner) Stats() RunStats { return sr.stats }
