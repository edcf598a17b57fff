package dag

// Expander is the streaming alternative to a materialized Workflow: a lazy
// frontier that hands out ready tasks one at a time and learns about
// completions, so a runner never needs more than the currently runnable slice
// of a workflow in memory. This is what makes 100k-node / million-task runs
// feasible — scatter shards and successor stages come into existence only as
// their predecessors finish, and retired tasks can be recycled.
//
// The emission contract is exact, not approximate: Next must yield tasks in
// precisely the order the equivalent Workflow's WorkflowExpander would —
// roots in insertion order, then, per successful completion, newly ready
// successors in edge-creation (ChildIDs) order. Every run path drives its
// expander through the one executor (rm.StreamRunner), so a lazy expansion
// and the eager materialized run are bit-identical (same fingerprints), which
// the equivalence tests in internal/sweep assert over seeds, fault profiles,
// and worker counts.
//
// Call discipline: Next until it reports no ready task; report each terminal
// task via exactly one of TaskDone/TaskFailed (which may make more tasks
// ready); Retire a task only after its terminal report. Implementations are
// single-goroutine, like the engine that drives them.
type Expander interface {
	// Name labels the expansion (the workflow name).
	Name() string
	// Total returns the number of tasks the expansion will emit plus the
	// number it will write off via TaskFailed — the denominator for
	// completion accounting.
	Total() int
	// Next returns the next ready task and its eager insertion index — the
	// position the task would occupy in the equivalent Workflow's insertion
	// order, which keyes per-task fault plans (fault.Profile.PlanTaskFailures)
	// without materializing the task list. ok is false when nothing is
	// currently ready (more may become ready after TaskDone).
	Next() (t *Task, idx int, ok bool)
	// TaskDone records a successful completion, unlocking successors.
	TaskDone(id TaskID)
	// TaskFailed records a terminal failure and writes off every not-yet
	// emitted transitive successor, returning how many were newly skipped.
	TaskFailed(id TaskID) int
	// Retire releases a task handed out by Next after its terminal report;
	// implementations may recycle the Task struct. The caller must drop all
	// references to t first.
	Retire(t *Task)
}

// WorkflowExpander adapts a materialized Workflow to the Expander interface.
// It is the eager run path — the executor over a WorkflowExpander with an
// unthrottled window is the FIFO runner — and the reference the lazy
// expanders are tested against; deliberately O(tasks) resident, since the
// workflow already is. A zero WorkflowExpander is empty; Reset loads a
// workflow into it, reusing its maps, so a warm session replays workflow
// after workflow without reallocating dependency state.
type WorkflowExpander struct {
	w *Workflow
	// idx maps a task to its eager insertion index, which keys deps and
	// ready.
	idx       map[TaskID]int
	deps      []expDeps
	ready     []int
	readyNext int
}

// expDeps is one task's dependency state during a replay.
type expDeps struct {
	remaining int  // unfinished dependencies
	skipped   bool // written off by an ancestor's terminal failure
}

// NewWorkflowExpander validates w and returns an expander that replays its
// eager submission order.
func NewWorkflowExpander(w *Workflow) (*WorkflowExpander, error) {
	x := &WorkflowExpander{}
	if err := x.Reset(w); err != nil {
		return nil, err
	}
	return x, nil
}

// Reset validates w and rewinds the expander to w's start, clearing the
// previous run's state in place. A nil w empties the expander.
func (x *WorkflowExpander) Reset(w *Workflow) error {
	clear(x.idx)
	x.deps, x.ready, x.readyNext, x.w = x.deps[:0], x.ready[:0], 0, nil
	if w == nil {
		return nil
	}
	if err := w.Validate(); err != nil {
		return err
	}
	n := w.Len()
	if x.idx == nil {
		x.idx = make(map[TaskID]int, n)
	}
	if cap(x.deps) < n {
		x.deps = make([]expDeps, 0, n)
		x.ready = make([]int, 0, n)
	}
	x.w = w
	for i, id := range w.order {
		x.idx[id] = i
		x.deps = append(x.deps, expDeps{remaining: len(w.tasks[id].Deps)})
	}
	for i := range x.deps {
		if x.deps[i].remaining == 0 {
			x.ready = append(x.ready, i)
		}
	}
	return nil
}

// Name implements Expander.
func (x *WorkflowExpander) Name() string { return x.w.Name }

// Total implements Expander.
func (x *WorkflowExpander) Total() int { return x.w.Len() }

// Next implements Expander: the ready FIFO preserves eager submission order.
func (x *WorkflowExpander) Next() (*Task, int, bool) {
	if x.readyNext >= len(x.ready) {
		x.ready = x.ready[:0]
		x.readyNext = 0
		return nil, 0, false
	}
	i := x.ready[x.readyNext]
	x.readyNext++
	return x.w.tasks[x.w.order[i]], i, true
}

// TaskDone implements Expander, readying successors in ChildIDs order.
func (x *WorkflowExpander) TaskDone(id TaskID) {
	for _, cid := range x.w.ChildIDs(id) {
		i := x.idx[cid]
		d := &x.deps[i]
		d.remaining--
		if d.remaining == 0 && !d.skipped {
			x.ready = append(x.ready, i)
		}
	}
}

// TaskFailed implements Expander: the transitive write-off marks every
// descendant, whatever its other dependencies, because one of them can now
// never be satisfied.
func (x *WorkflowExpander) TaskFailed(id TaskID) int {
	n := 0
	for _, cid := range x.w.ChildIDs(id) {
		d := &x.deps[x.idx[cid]]
		if d.skipped {
			continue
		}
		d.skipped = true
		n += 1 + x.TaskFailed(cid)
	}
	return n
}

// Retire implements Expander. Tasks belong to the underlying workflow, so
// nothing is recycled; the method exists so the executor can treat every
// expander uniformly.
func (x *WorkflowExpander) Retire(*Task) {}
