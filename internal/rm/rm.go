// Package rm simulates the resource managers the paper's workflow systems
// talk to (§3: "such as SLURM, Kubernetes, or OpenPBS").
//
// Two managers are provided:
//
//   - TaskManager ("KubeSim"): a Kubernetes-like, task-granular manager that
//     places individual task submissions onto nodes. Its scheduling policy is
//     pluggable via Strategy — this is exactly where the Common Workflow
//     Scheduler (internal/cwsi) attaches workflow awareness.
//   - BatchManager: a SLURM-like, node-granular manager with whole-node
//     jobs, walltime limits and fair-share ordering, used by pilots (§4) and
//     the Atlas HPC runs (§5).
//
// Both run entirely in virtual time on a sim.Engine.
package rm

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/metrics"
	"hhcw/internal/sim"
)

// Submission is one task handed to a TaskManager, carrying the resource
// requests and (via CWSI) workflow identity the scheduler may exploit.
type Submission struct {
	ID         string
	WorkflowID string
	TaskID     dag.TaskID
	Name       string // process/tool name

	// The resource request must not change while the submission is
	// pending: a pass that found it blocked narrows the next pass's query
	// to nodes that gained capacity since (see schedule).
	Cores int
	GPUs  int
	Mem   float64

	// InputBytes is visible to size-aware strategies (§3.5's "file size"
	// strategy).
	InputBytes float64

	// Runtime returns the task's execution time on the given node; the
	// manager calls it once at placement. Ignored when Hooks is set.
	Runtime func(n *cluster.Node) float64

	// Validate, when non-nil, is consulted at completion; a non-nil error
	// turns the execution into a failure (e.g. an OOM kill when the
	// granted memory was below the task's true peak). Ignored when Hooks
	// is set.
	Validate func(n *cluster.Node) error

	// Done is invoked exactly once with the terminal result. Ignored when
	// Hooks is set.
	Done func(Result)

	// Hooks, when non-nil, replaces the Runtime/Validate/Done fields with a
	// single callback object. Submitters on hot paths use it to bundle all
	// per-task state into one allocation instead of three closures.
	Hooks SubmissionHooks

	submittedAt sim.Time
	// seq numbers submissions in arrival order; next links a pending
	// submission into its shape bucket on the bucketed path (bucket.go).
	seq  uint64
	next *Submission
	// placed marks the submission as dispatched within the current schedule
	// pass — a flag on the submission itself so the pass needs no per-round
	// map allocation.
	placed bool
	// prioKey/prioGen memoize a scheduler's priority for this submission
	// (see PriorityCache); gen 0 means "never cached".
	prioKey float64
	prioGen uint64
	// blockedAt is the cluster's capacity-gain clock when the last pass
	// found no node able to fit the submission, or 0. The next pass then
	// queries only nodes that gained capacity since (see schedule).
	blockedAt uint64
}

// PriorityCache returns the priority memoized under generation gen, if any.
// Schedulers that sort the pending queue by a derived key use this to
// compute each submission's priority once and reuse it every round until
// their knowledge changes (bumping the generation invalidates all entries
// at once). Generation 0 is reserved and never matches.
func (s *Submission) PriorityCache(gen uint64) (float64, bool) {
	if gen != 0 && s.prioGen == gen {
		return s.prioKey, true
	}
	return 0, false
}

// SetPriorityCache memoizes the submission's priority under generation gen.
func (s *Submission) SetPriorityCache(v float64, gen uint64) {
	s.prioKey, s.prioGen = v, gen
}

// SubmissionHooks bundles a submission's callbacks into one object, the
// allocation-lean alternative to the three closure fields.
type SubmissionHooks interface {
	// RuntimeOn returns the execution time on the given node (Submission.Runtime).
	RuntimeOn(n *cluster.Node) float64
	// ValidateOn is consulted at completion (Submission.Validate semantics).
	ValidateOn(n *cluster.Node) error
	// Done receives the terminal result exactly once.
	Done(Result)
}

func (s *Submission) runtimeOn(n *cluster.Node) float64 {
	if s.Hooks != nil {
		return s.Hooks.RuntimeOn(n)
	}
	return s.Runtime(n)
}

func (s *Submission) validateOn(n *cluster.Node) error {
	if s.Hooks != nil {
		return s.Hooks.ValidateOn(n)
	}
	if s.Validate != nil {
		return s.Validate(n)
	}
	return nil
}

func (s *Submission) done(r Result) {
	if s.Hooks != nil {
		s.Hooks.Done(r)
		return
	}
	if s.Done != nil {
		s.Done(r)
	}
}

// Result is the terminal record for a submission.
type Result struct {
	// Submission is the submission this result terminates. It is valid for
	// the duration of the Done callback; runners that pool their submission
	// records (StreamRunner, the CWSI) recycle it afterwards, so callbacks
	// must copy any fields they keep rather than retain the pointer.
	Submission  *Submission
	Node        *cluster.Node
	SubmittedAt sim.Time
	StartedAt   sim.Time
	FinishedAt  sim.Time
	Failed      bool
	Err         error
}

// ErrNegativeRequest fails a submission that asks for negative GPUs or
// memory, or for NaN memory: no node can ever grant it.
var ErrNegativeRequest = errors.New("rm: negative resource request")

// QueueWait returns time spent pending.
func (r Result) QueueWait() sim.Time { return r.StartedAt - r.SubmittedAt }

// Strategy orders the pending queue and picks nodes — the policy surface the
// CWS replaces (§3.1: "workflow engines with CWSI support do not need their
// own scheduler component ... the scheduling happens there").
type Strategy interface {
	Name() string
	// Prioritize returns the pending submissions in scheduling order. It
	// must return a permutation of pending (same elements). The manager
	// passes a scratch copy of its queue, so implementations may reorder
	// the slice in place and return it without copying; the slice is only
	// valid until the pass ends.
	Prioritize(pending []*Submission) []*Submission
	// PickNode chooses among nodes that can currently fit s. Returning nil
	// skips s this pass.
	PickNode(s *Submission, candidates []*cluster.Node) *cluster.Node
}

// FIFO is the baseline workflow-oblivious strategy: submission order,
// first-fit placement. This is how plain Kubernetes/SLURM treat workflow
// tasks (§3.2: "Kubernetes then schedules them in a FIFO manner").
type FIFO struct{}

// Name implements Strategy.
func (FIFO) Name() string { return "fifo" }

// Prioritize implements Strategy: submission order.
func (FIFO) Prioritize(p []*Submission) []*Submission { return p }

// PickNode implements Strategy: first fit.
func (FIFO) PickNode(s *Submission, candidates []*cluster.Node) *cluster.Node {
	if len(candidates) == 0 {
		return nil
	}
	return candidates[0]
}

// TaskManager is the Kubernetes-like task-granular resource manager.
type TaskManager struct {
	eng      *sim.Engine
	cl       *cluster.Cluster
	strategy Strategy

	// pending is the queue on the walk path: every live submission in
	// arrival order. The bucketed path keeps it empty and queues in buckets.
	pending []*Submission
	// live counts queued submissions; stale counts those cancelled or
	// aborted since the last pass began. The queue gauge reports their sum
	// between passes, as if a withdrawn entry lingered until the next pass.
	live, stale int
	seq         uint64
	// bucketed selects the shape-bucketed FIFO path (bucket.go). buckets
	// hold its queue, one FIFO list per shape; order lists the slots of the
	// queued shapes sorted by shape, awake those not blocked, and freeSlots
	// the unused ones. passClock is the capacity-gain clock at the last pass.
	bucketed  bool
	buckets   []shapeBucket
	order     []int32
	awake     []int32
	freeSlots []int32
	passClock uint64
	// running is the executing set; each record knows its own slot, so
	// start appends and finish swap-removes without hashing an ID.
	running []*running

	queueLen  *metrics.Gauge
	runningN  *metrics.Gauge
	completed *metrics.Counter
	failed    *metrics.Counter
	waits     []float64
	// lean drops O(tasks) observational state for extreme-scale runs: the
	// gauge/counter series fold to running aggregates and per-start queue
	// waits stop being recorded. Scheduling decisions are untouched.
	lean bool

	// oracle, when set, arms EASY-style predicted-duration backfill in the
	// dispatch pass (see SetDurationOracle in backfill.go).
	oracle DurationOracle

	schedulePending bool
	// Steady-state scratch, reused across schedule passes so dispatch
	// allocates nothing once warm.
	kickFn       func()
	orderScratch []*Submission `statediff:"keep"`
	// candScratch holds the walk's candidates and the bucketed pass's
	// gained nodes.
	candScratch []*cluster.Node `statediff:"keep"`
	freeRunning []*running      `statediff:"keep"`
	resScratch  []*running      `statediff:"keep"`
	heapScratch []int32         `statediff:"keep"`
}

type running struct {
	sub *Submission
	// slot is the record's index in TaskManager.running while it executes.
	slot  int
	alloc *cluster.Alloc
	endEv *sim.Event
	start sim.Time
	// end is the scheduled completion time, recorded so backfill can
	// simulate capacity releases without touching the event queue.
	end sim.Time
	// allocBox backs alloc: the reservation record is embedded here so a
	// recycled running record carries its Alloc along instead of
	// heap-allocating one per placement.
	allocBox cluster.Alloc
	// endFn is the completion callback, bound to this record once and
	// reused across recycles (steady-state dispatch allocates no closure
	// per task).
	endFn func()
}

// NewTaskManager builds a manager over cl using the given strategy (FIFO if
// nil). It subscribes to node failures (failing affected submissions) and
// repairs (kicking the scheduler, so work queued while capacity was down
// resumes when it returns).
func NewTaskManager(cl *cluster.Cluster, strategy Strategy) *TaskManager {
	if strategy == nil {
		strategy = FIFO{}
	}
	m := &TaskManager{
		eng:       cl.Engine(),
		cl:        cl,
		strategy:  strategy,
		running:   make([]*running, 0, 32),
		waits:     make([]float64, 0, 64),
		queueLen:  metrics.NewGauge("rm.queue"),
		runningN:  metrics.NewGauge("rm.running"),
		completed: metrics.NewCounter("rm.completed"),
		failed:    metrics.NewCounter("rm.failed"),
	}
	m.kickFn = func() {
		m.schedulePending = false
		m.schedule()
	}
	m.choosePath()
	cl.OnNodeDown(m.handleNodeDown)
	cl.OnNodeUp(func(*cluster.Node) { m.kick() })
	return m
}

// Reset returns the manager to its just-constructed state over the same
// cluster and engine: the pending queue, running set, recorded waits, and all
// gauges/counters are cleared in place with their capacity retained, and any
// duration oracle is disarmed. Construction identity survives: the strategy,
// lean mode, scratch buffers, pooled running records, and — critically — the
// OnNodeDown/OnNodeUp subscriptions made by NewTaskManager, which must not be
// re-registered on a warm cluster.
func (m *TaskManager) Reset() {
	clear(m.pending)
	m.pending = m.pending[:0]
	m.clearBuckets()
	m.live, m.stale, m.seq = 0, 0, 0
	clear(m.running)
	m.running = m.running[:0]
	m.waits = m.waits[:0]
	m.queueLen.Reset()
	m.runningN.Reset()
	m.completed.Reset()
	m.failed.Reset()
	m.oracle = nil
	m.choosePath()
	m.schedulePending = false
}

// Strategy returns the active scheduling strategy.
func (m *TaskManager) Strategy() Strategy { return m.strategy }

// SetStrategy replaces the scheduling strategy (takes effect next pass).
func (m *TaskManager) SetStrategy(s Strategy) {
	m.strategy = s
	m.choosePath()
}

// Cluster returns the underlying cluster.
func (m *TaskManager) Cluster() *cluster.Cluster { return m.cl }

// QueueLen returns the number of pending submissions, counting those
// withdrawn since the last pass began (the queue gauge's value).
func (m *TaskManager) QueueLen() int { return m.live + m.stale }

// RunningCount returns the number of executing submissions.
func (m *TaskManager) RunningCount() int { return len(m.running) }

// Completed returns the count of successful completions.
func (m *TaskManager) Completed() int { return int(m.completed.Value()) }

// Failed returns the count of failed submissions.
func (m *TaskManager) Failed() int { return int(m.failed.Value()) }

// QueueWaits returns a copy of the observed queue waits (seconds) of started
// submissions. Returning a copy keeps callers from mutating manager state
// through the shared backing array. A lean manager records none.
func (m *TaskManager) QueueWaits() []float64 {
	return append([]float64(nil), m.waits...)
}

// SetLean switches the manager to lean observation for extreme-scale runs:
// the queue/running gauges and completion counters fold to running
// aggregates (Completed/Failed/Max stay exact) and queue waits stop being
// recorded, so manager-side memory is O(in-flight) at any task count.
// Scheduling behavior is bit-identical. Must be called before any Submit.
func (m *TaskManager) SetLean() {
	m.lean = true
	m.queueLen.Fold()
	m.runningN.Fold()
	m.completed.Fold()
	m.failed.Fold()
}

// RunningSeries exposes the running-task gauge for concurrency plots.
func (m *TaskManager) RunningSeries() *metrics.Gauge { return m.runningN }

// QueueSeries exposes the pending-queue gauge.
func (m *TaskManager) QueueSeries() *metrics.Gauge { return m.queueLen }

// Submit queues a submission for scheduling. A submission asking for
// negative GPUs, negative memory or NaN memory is never queued: it fails
// with ErrNegativeRequest at the current virtual time.
func (m *TaskManager) Submit(s *Submission) {
	if s.ID == "" {
		panic("rm: submission with empty ID")
	}
	if s.Runtime == nil && s.Hooks == nil {
		panic(fmt.Sprintf("rm: submission %s without Runtime or Hooks", s.ID))
	}
	if s.Cores <= 0 {
		s.Cores = 1
	}
	s.submittedAt = m.eng.Now()
	s.placed = false
	s.prioGen = 0
	s.blockedAt = 0
	s.next = nil
	if s.GPUs < 0 || !(s.Mem >= 0) {
		err := fmt.Errorf("%w: %s asks %d gpus, %.0f mem", ErrNegativeRequest, s.ID, s.GPUs, s.Mem)
		// A zero-delay event rather than a direct call, so no submitter has
		// its Done re-entered from inside its own Submit.
		m.eng.After(0, func() { m.failUnplaced(s, err) })
		return
	}
	s.seq = m.seq
	m.seq++
	if m.bucketed {
		m.enqueue(s)
	} else {
		m.pending = append(m.pending, s)
	}
	m.live++
	m.queueLen.Set(m.eng.Now(), float64(m.live+m.stale))
	m.kick()
}

// Cancel removes a pending submission (running ones are not preempted). It
// reports whether the submission was found pending. The entry leaves the
// queue at once, so the caller may reuse the record; the queue gauge
// reflects the cancellation immediately — admission-control thresholds read
// it between events — and a schedule pass is kicked.
func (m *TaskManager) Cancel(id string) bool {
	return m.withdraw(id) != nil
}

// withdraw unlinks the earliest pending submission with the given ID,
// updates the queue accounting and kicks a pass. It returns the submission,
// or nil when none is pending.
func (m *TaskManager) withdraw(id string) *Submission {
	var s *Submission
	if m.bucketed {
		s = m.unlinkBucketed(id)
	} else {
		for i, p := range m.pending {
			if p.ID == id && !p.placed {
				s = p
				m.pending = slices.Delete(m.pending, i, i+1)
				break
			}
		}
	}
	if s == nil {
		return nil
	}
	m.live--
	m.stale++
	m.queueLen.Set(m.eng.Now(), float64(m.live))
	m.kick()
	return s
}

// Abort terminates a pending or running submission with a failure carrying
// err — the enforcement hook for the recovery layer's virtual-time attempt
// timeouts. It reports whether the submission was found. The lookup is an
// O(running + pending) scan: the running set is indexed by slot, not ID, so
// per-task dispatch never hashes a string. For a submission aborted while
// still pending, Result.Node is nil and StartedAt equals the abort time.
func (m *TaskManager) Abort(id string, err error) bool {
	for _, r := range m.running {
		if r.sub.ID == id {
			r.endEv.Cancel()
			m.finish(r, true, err)
			return true
		}
	}
	if s := m.withdraw(id); s != nil {
		m.failUnplaced(s, err)
		return true
	}
	return false
}

// failUnplaced counts s failed and delivers its terminal result without a
// node: StartedAt and FinishedAt are both the current time.
func (m *TaskManager) failUnplaced(s *Submission, err error) {
	now := m.eng.Now()
	m.failed.Inc(now, 1)
	s.done(Result{
		Submission:  s,
		SubmittedAt: s.submittedAt,
		StartedAt:   now,
		FinishedAt:  now,
		Failed:      true,
		Err:         err,
	})
}

// kick coalesces schedule passes into one per event timestamp.
func (m *TaskManager) kick() {
	if m.schedulePending {
		return
	}
	m.schedulePending = true
	m.eng.After(0, m.kickFn)
}

// schedule is the dispatch hot path: one pass over the queue on the
// bucketed or the walk path, then a gauge refresh when the pass changed the
// queue depth — placement or withdrawn entries alike.
func (m *TaskManager) schedule() {
	before := m.live + m.stale
	m.stale = 0
	if m.live == 0 {
		return
	}
	if m.bucketed {
		m.dispatchBuckets()
	} else {
		m.walk()
	}
	if m.live != before {
		m.queueLen.Set(m.eng.Now(), float64(m.live))
	}
}

// walk is the general dispatch pass: one prioritized placement sweep over
// the pending queue driven by the cluster's free-capacity index (no
// per-submission node rescan, and for a submission still blocked from the
// last pass only the nodes that gained capacity since), and one placed-entry
// compaction — all on reusable scratch, so a steady-state pass allocates
// nothing.
func (m *TaskManager) walk() {
	m.orderScratch = append(m.orderScratch[:0], m.pending...)
	ordered := m.strategy.Prioritize(m.orderScratch)
	anyPlaced := false
	// Backfill reservation state for this pass (see backfill.go): the first
	// capacity-blocked submission the oracle can predict reserves the node
	// where its capacity frees earliest; later submissions may use that
	// node's hole only if predicted to finish before the shadow time.
	var resNode *cluster.Node
	var shadow sim.Time
	now := m.eng.Now()
	for _, s := range ordered {
		// A submission that fit nowhere at clock blockedAt can only fit a
		// node that gained capacity since, so the query skips the rest and
		// still returns the full feasible set (cluster/index.go).
		m.candScratch = m.cl.AppendCandidatesSince(m.candScratch[:0], s.Cores, s.GPUs, s.Mem, s.blockedAt)
		if len(m.candScratch) == 0 {
			s.blockedAt = m.cl.CapacityClock()
		} else {
			s.blockedAt = 0
		}
		if resNode != nil {
			m.candScratch = m.filterReserved(m.candScratch, s, resNode, shadow, now)
		}
		if len(m.candScratch) == 0 {
			if resNode == nil && m.oracle != nil {
				resNode, shadow = m.reserve(s)
			}
			continue
		}
		node := m.strategy.PickNode(s, m.candScratch)
		if node == nil {
			continue
		}
		r := m.grabRunning()
		if err := m.cl.AllocateInto(&r.allocBox, node, s.Cores, s.GPUs, s.Mem); err != nil {
			m.freeRunning = append(m.freeRunning, r)
			continue // raced with nothing (single-threaded), but be safe
		}
		s.placed = true
		anyPlaced = true
		m.live--
		m.start(s, r)
	}
	if anyPlaced {
		rest := m.pending[:0]
		for _, s := range m.pending {
			if !s.placed {
				rest = append(rest, s)
			}
		}
		clear(m.pending[len(rest):])
		m.pending = rest
	}
}

// grabRunning pops a recycled running record or allocates a fresh one whose
// completion callback is bound exactly once.
func (m *TaskManager) grabRunning() *running {
	if n := len(m.freeRunning); n > 0 {
		r := m.freeRunning[n-1]
		m.freeRunning = m.freeRunning[:n-1]
		return r
	}
	r := &running{}
	r.endFn = func() {
		if err := r.sub.validateOn(r.alloc.Node); err != nil {
			m.finish(r, true, err)
			return
		}
		m.finish(r, false, nil)
	}
	return r
}

// start dispatches s on the reservation already written into r.allocBox.
func (m *TaskManager) start(s *Submission, r *running) {
	now := m.eng.Now()
	dur := s.runtimeOn(r.allocBox.Node)
	if dur < 0 {
		dur = 0
	}
	r.sub, r.alloc, r.start = s, &r.allocBox, now
	r.end = now + sim.Time(dur)
	r.slot = len(m.running)
	m.running = append(m.running, r)
	m.runningN.AddDelta(now, 1)
	if !m.lean {
		m.waits = append(m.waits, float64(now-s.submittedAt))
	}
	r.endEv = m.eng.After(sim.Time(dur), r.endFn)
}

func (m *TaskManager) finish(r *running, failed bool, err error) {
	now := m.eng.Now()
	last := len(m.running) - 1
	moved := m.running[last]
	m.running[r.slot], moved.slot = moved, r.slot
	m.running[last] = nil
	m.running = m.running[:last]
	m.cl.Release(r.alloc)
	m.runningN.AddDelta(now, -1)
	if failed {
		m.failed.Inc(now, 1)
	} else {
		m.completed.Inc(now, 1)
	}
	res := Result{
		Submission:  r.sub,
		Node:        r.alloc.Node,
		SubmittedAt: r.sub.submittedAt,
		StartedAt:   r.start,
		FinishedAt:  now,
		Failed:      failed,
		Err:         err,
	}
	sub := r.sub
	// r is finished exactly once (Abort and node-down cancel endEv before
	// calling finish), so the record can be recycled for a future start —
	// keeping its bound endFn and allocBox. Recycle before the Done
	// callback: Done may submit follow-up work that schedules immediately.
	r.sub, r.alloc, r.endEv, r.start = nil, nil, nil, 0
	m.freeRunning = append(m.freeRunning, r)
	sub.done(res)
	m.kick()
}

func (m *TaskManager) handleNodeDown(n *cluster.Node) {
	var victims []*running
	for _, r := range m.running {
		if r.alloc.Node == n {
			victims = append(victims, r)
		}
	}
	// The running set is in swap-remove order; sort for a deterministic one.
	sort.Slice(victims, func(i, j int) bool { return victims[i].sub.ID < victims[j].sub.ID })
	for _, r := range victims {
		r.endEv.Cancel()
		m.finish(r, true, fmt.Errorf("rm: node %s failed", n.Name()))
	}
	m.kick()
}
