package rm

import (
	"errors"
	"math"
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

func testCluster(eng *sim.Engine, nodes, cores int) *cluster.Cluster {
	return cluster.New(eng, "t", cluster.Spec{
		Type:  cluster.NodeType{Name: "n", Cores: cores, GPUs: 2, MemBytes: 1e12},
		Count: nodes,
	})
}

func fixedRuntime(d float64) func(*cluster.Node) float64 {
	return func(*cluster.Node) float64 { return d }
}

// eagerRun is the eager makespan runner the runner tests exercise: the
// executor over w's WorkflowExpander, unthrottled, with every task's
// terminal result recorded through Observe.
type eagerRun struct {
	*StreamRunner
	results map[dag.TaskID]Result
}

func newEagerRun(t testing.TB, m *TaskManager, w *dag.Workflow, wfID string) *eagerRun {
	t.Helper()
	x, err := dag.NewWorkflowExpander(w)
	if err != nil {
		t.Fatal(err)
	}
	er := &eagerRun{
		StreamRunner: &StreamRunner{Manager: m, Source: x, WorkflowID: wfID},
		results:      map[dag.TaskID]Result{},
	}
	er.Observe = func(task *dag.Task, r Result) { er.results[task.ID] = r }
	return er
}

// run drives the workflow to completion, failing the test on a stall.
func (er *eagerRun) run(t testing.TB) sim.Time {
	t.Helper()
	ms := er.Run()
	if err := er.Err(); err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestTaskManagerRunsTask(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(testCluster(eng, 1, 4), nil)
	var res Result
	m.Submit(&Submission{ID: "a", Cores: 2, Runtime: fixedRuntime(10), Done: func(r Result) { res = r }})
	eng.Run()
	if res.Submission == nil || res.Failed {
		t.Fatalf("task did not complete: %+v", res)
	}
	if res.FinishedAt != 10 {
		t.Fatalf("finished at %v, want 10", res.FinishedAt)
	}
	if m.Completed() != 1 || m.RunningCount() != 0 {
		t.Fatalf("completed=%d running=%d", m.Completed(), m.RunningCount())
	}
}

func TestTaskManagerQueuesWhenFull(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(testCluster(eng, 1, 4), nil)
	var order []string
	done := func(r Result) { order = append(order, r.Submission.ID) }
	// Two 3-core tasks cannot run together on a 4-core node.
	m.Submit(&Submission{ID: "a", Cores: 3, Runtime: fixedRuntime(10), Done: done})
	m.Submit(&Submission{ID: "b", Cores: 3, Runtime: fixedRuntime(10), Done: done})
	eng.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v", order)
	}
	if eng.Now() != 20 {
		t.Fatalf("makespan = %v, want 20 (serialized)", eng.Now())
	}
}

func TestTaskManagerParallelWhenFits(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(testCluster(eng, 2, 4), nil)
	n := 0
	for _, id := range []string{"a", "b"} {
		m.Submit(&Submission{ID: id, Cores: 4, Runtime: fixedRuntime(10), Done: func(Result) { n++ }})
	}
	eng.Run()
	if n != 2 || eng.Now() != 10 {
		t.Fatalf("parallel run: n=%d end=%v, want 2 tasks at t=10", n, eng.Now())
	}
}

func TestTaskManagerCancel(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(testCluster(eng, 1, 1), nil)
	ran := false
	m.Submit(&Submission{ID: "hold", Cores: 1, Runtime: fixedRuntime(5), Done: func(Result) {}})
	m.Submit(&Submission{ID: "x", Cores: 1, Runtime: fixedRuntime(5), Done: func(Result) { ran = true }})
	if !m.Cancel("x") {
		t.Fatal("Cancel returned false for pending submission")
	}
	eng.Run()
	if ran {
		t.Fatal("cancelled submission ran")
	}
	if m.Cancel("ghost") {
		t.Fatal("Cancel returned true for unknown id")
	}
}

func TestTaskManagerNodeFailureFailsRunning(t *testing.T) {
	eng := sim.NewEngine()
	cl := testCluster(eng, 2, 4)
	m := NewTaskManager(cl, nil)
	var failedIDs []string
	var okIDs []string
	done := func(r Result) {
		if r.Failed {
			failedIDs = append(failedIDs, r.Submission.ID)
		} else {
			okIDs = append(okIDs, r.Submission.ID)
		}
	}
	m.Submit(&Submission{ID: "a", Cores: 4, Runtime: fixedRuntime(100), Done: done})
	m.Submit(&Submission{ID: "b", Cores: 4, Runtime: fixedRuntime(100), Done: done})
	eng.At(50, func() {
		// Fail the node running "a".
		for _, r := range m.running {
			if r.sub.ID == "a" {
				cl.FailNode(r.alloc.Node)
				return
			}
		}
		t.Error("task a not running at t=50")
	})
	eng.Run()
	if len(failedIDs) != 1 || failedIDs[0] != "a" {
		t.Fatalf("failed = %v, want [a]", failedIDs)
	}
	if len(okIDs) != 1 || okIDs[0] != "b" {
		t.Fatalf("ok = %v, want [b]", okIDs)
	}
	if m.Failed() != 1 {
		t.Fatalf("Failed() = %d", m.Failed())
	}
}

func TestTaskManagerResubmitAfterFailure(t *testing.T) {
	eng := sim.NewEngine()
	cl := testCluster(eng, 2, 4)
	m := NewTaskManager(cl, nil)
	attempts := 0
	var submit func(id string)
	submit = func(id string) {
		m.Submit(&Submission{ID: id, Cores: 1, Runtime: fixedRuntime(100), Done: func(r Result) {
			attempts++
			if r.Failed && attempts < 3 {
				submit(id + "r")
			}
		}})
	}
	submit("a")
	eng.At(10, func() { cl.FailNode(cl.Nodes()[0]) })
	eng.Run()
	if attempts < 2 {
		t.Fatalf("attempts = %d, want retry after failure", attempts)
	}
}

func TestMakespanRunnerChain(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(testCluster(eng, 4, 8), nil)
	w := dag.New("w")
	w.Add(&dag.Task{ID: "a", NominalDur: 10})
	w.Add(&dag.Task{ID: "b", NominalDur: 20, Deps: []dag.TaskID{"a"}})
	w.Add(&dag.Task{ID: "c", NominalDur: 30, Deps: []dag.TaskID{"b"}})
	mr := newEagerRun(t, m, w, "w")
	ms := mr.run(t)
	if ms != 60 {
		t.Fatalf("makespan = %v, want 60", ms)
	}
	if len(mr.results) != 3 {
		t.Fatalf("results = %d", len(mr.results))
	}
}

func TestMakespanRunnerParallelBranches(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(testCluster(eng, 4, 8), nil)
	w := dag.New("w")
	w.Add(&dag.Task{ID: "s", NominalDur: 5})
	w.Add(&dag.Task{ID: "l", NominalDur: 10, Deps: []dag.TaskID{"s"}})
	w.Add(&dag.Task{ID: "r", NominalDur: 40, Deps: []dag.TaskID{"s"}})
	w.Add(&dag.Task{ID: "t", NominalDur: 5, Deps: []dag.TaskID{"l", "r"}})
	ms := newEagerRun(t, m, w, "w").run(t)
	if ms != 50 { // 5 + max(10,40) + 5
		t.Fatalf("makespan = %v, want 50", ms)
	}
}

func TestMakespanRunnerHeterogeneousSpeed(t *testing.T) {
	eng := sim.NewEngine()
	cl := cluster.New(eng, "h", cluster.Spec{
		Type:  cluster.NodeType{Name: "fast", Cores: 4, SpeedFactor: 2, IOFactor: 1, MemBytes: 1e12},
		Count: 1,
	})
	m := NewTaskManager(cl, nil)
	w := dag.New("w")
	w.Add(&dag.Task{ID: "a", NominalDur: 100, IOFrac: 0}) // pure CPU
	ms := newEagerRun(t, m, w, "w").run(t)
	if ms != 50 { // speed factor 2 halves CPU time
		t.Fatalf("makespan = %v, want 50", ms)
	}
}

func TestMakespanRunnerRandomWorkflow(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(testCluster(eng, 8, 16), nil)
	rng := randx.New(5)
	w := dag.RandomLayered(rng, 5, 8, dag.GenOpts{MeanDur: 60})
	mr := newEagerRun(t, m, w, "rand")
	ms := mr.run(t)
	cp, _ := w.CriticalPath(dag.NominalDur)
	if float64(ms) < cp-1e-6 {
		t.Fatalf("makespan %v below critical path %v", ms, cp)
	}
	if len(mr.results) != w.Len() {
		t.Fatalf("results = %d, want %d", len(mr.results), w.Len())
	}
	for id, r := range mr.results {
		if r.Failed {
			t.Fatalf("task %s failed", id)
		}
	}
}

func TestBatchManagerGrantAndRelease(t *testing.T) {
	eng := sim.NewEngine()
	cl := testCluster(eng, 4, 8)
	m := NewBatchManager(cl, nil)
	var alloc *BatchAlloc
	err := m.Submit(&BatchJob{ID: "j1", Account: "a", Nodes: 2, Walltime: 1000,
		OnStart: func(a *BatchAlloc) { alloc = a }})
	if err != nil {
		t.Fatal(err)
	}
	eng.At(10, func() {
		if alloc == nil {
			t.Error("job not started by t=10")
			return
		}
		if len(alloc.Nodes) != 2 {
			t.Errorf("granted %d nodes", len(alloc.Nodes))
		}
		alloc.Release()
	})
	eng.Run()
	if m.RunningJobs() != 0 || m.Started() != 1 {
		t.Fatalf("running=%d started=%d", m.RunningJobs(), m.Started())
	}
	if got := m.AccountUsage("a"); got != 20 { // 2 nodes × 10s
		t.Fatalf("usage = %v, want 20", got)
	}
}

func TestBatchManagerWalltimeExpiry(t *testing.T) {
	eng := sim.NewEngine()
	m := NewBatchManager(testCluster(eng, 2, 8), nil)
	expired := false
	if err := m.Submit(&BatchJob{ID: "j", Account: "a", Nodes: 2, Walltime: 50,
		OnExpire: func() { expired = true }}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !expired || m.Expired() != 1 {
		t.Fatalf("expired=%v count=%d", expired, m.Expired())
	}
	if eng.Now() != 50 {
		t.Fatalf("expiry at %v, want 50", eng.Now())
	}
}

func TestBatchManagerQueueing(t *testing.T) {
	eng := sim.NewEngine()
	m := NewBatchManager(testCluster(eng, 2, 8), nil)
	var starts []sim.Time
	mk := func(id string) *BatchJob {
		return &BatchJob{ID: id, Account: "a", Nodes: 2, Walltime: 100,
			OnStart: func(a *BatchAlloc) {
				starts = append(starts, eng.Now())
				eng.After(30, a.Release)
			}}
	}
	m.Submit(mk("j1"))
	m.Submit(mk("j2"))
	eng.Run()
	if len(starts) != 2 || starts[0] != 0 || starts[1] != 30 {
		t.Fatalf("starts = %v, want [0 30]", starts)
	}
}

func TestBatchManagerFairShare(t *testing.T) {
	eng := sim.NewEngine()
	m := NewBatchManager(testCluster(eng, 2, 8), nil)
	var order []string
	run := func(id, account string) *BatchJob {
		return &BatchJob{ID: id, Account: account, Nodes: 2, Walltime: 1000,
			OnStart: func(a *BatchAlloc) {
				order = append(order, id)
				eng.After(10, a.Release)
			}}
	}
	// heavy uses the machine first; then both queue — light should win.
	m.Submit(run("h1", "heavy"))
	eng.At(1, func() {
		m.Submit(run("h2", "heavy"))
		m.Submit(run("l1", "light"))
	})
	eng.Run()
	if len(order) != 3 || order[1] != "l1" {
		t.Fatalf("order = %v, want light before heavy's second job", order)
	}
}

func TestBatchManagerRejects(t *testing.T) {
	eng := sim.NewEngine()
	m := NewBatchManager(testCluster(eng, 2, 8), FrontierPolicy)
	if err := m.Submit(&BatchJob{ID: "big", Account: "a", Nodes: 5}); err == nil {
		t.Fatal("oversized job accepted")
	}
	if err := m.Submit(&BatchJob{ID: "zero", Account: "a", Nodes: 0}); err == nil {
		t.Fatal("zero-node job accepted")
	}
	if err := m.Submit(&BatchJob{ID: "long", Account: "a", Nodes: 1, Walltime: 100 * 3600}); err == nil {
		t.Fatal("over-walltime job accepted")
	}
}

func TestFrontierPolicyTiers(t *testing.T) {
	if FrontierPolicy(8000) != 24*3600 {
		t.Fatal("full-machine tier wrong")
	}
	if FrontierPolicy(10) != 2*3600 {
		t.Fatal("small tier wrong")
	}
	if FrontierPolicy(125) != 6*3600 {
		t.Fatal("mid tier wrong")
	}
	if FrontierPolicy(2000) != 12*3600 {
		t.Fatal("upper-mid tier wrong")
	}
}

func TestResultQueueWait(t *testing.T) {
	r := Result{SubmittedAt: 5, StartedAt: 12}
	if r.QueueWait() != 7 {
		t.Fatalf("QueueWait = %v", r.QueueWait())
	}
}

// Regression: Cancel must update the queue gauge immediately — admission
// control reads QueueSeries between events, and the pre-fix code left the
// gauge stale until the next unrelated schedule pass.
func TestCancelUpdatesQueueGaugeImmediately(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(testCluster(eng, 1, 1), nil)
	done := func(Result) {}
	m.Submit(&Submission{ID: "hold", Cores: 1, Runtime: fixedRuntime(5), Done: done})
	m.Submit(&Submission{ID: "p1", Cores: 1, Runtime: fixedRuntime(5), Done: done})
	m.Submit(&Submission{ID: "p2", Cores: 1, Runtime: fixedRuntime(5), Done: done})
	// No schedule pass has run yet: all three count as queued.
	if got := m.QueueSeries().Value(); got != 3 {
		t.Fatalf("gauge before cancel = %v, want 3", got)
	}
	if !m.Cancel("p1") {
		t.Fatal("Cancel(p1) = false")
	}
	if got := m.QueueSeries().Value(); got != 2 {
		t.Fatalf("gauge immediately after Cancel = %v, want 2 (stale gauge)", got)
	}
	// Mid-run cancel inside an event: hold is running, p2 pending.
	eng.At(1, func() {
		if got := m.QueueSeries().Value(); got != 1 {
			t.Errorf("gauge at t=1 = %v, want 1", got)
		}
		if !m.Cancel("p2") {
			t.Error("Cancel(p2) = false")
		}
		if got := m.QueueSeries().Value(); got != 0 {
			t.Errorf("gauge immediately after mid-run Cancel = %v, want 0", got)
		}
	})
	eng.Run()
	if m.Completed() != 1 {
		t.Fatalf("completed = %d, want 1 (only hold)", m.Completed())
	}
	if got := m.QueueSeries().Value(); got != 0 {
		t.Fatalf("final gauge = %v, want 0", got)
	}
}

// Regression: Abort of a still-pending submission must update the queue
// gauge too (same stale-gauge bug as Cancel, on the other exit path).
func TestAbortPendingUpdatesQueueGauge(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(testCluster(eng, 1, 1), nil)
	var res Result
	errAbort := errors.New("attempt deadline")
	m.Submit(&Submission{ID: "hold", Cores: 1, Runtime: fixedRuntime(5), Done: func(Result) {}})
	m.Submit(&Submission{ID: "p", Cores: 1, Runtime: fixedRuntime(5), Done: func(r Result) { res = r }})
	eng.At(2, func() {
		if got := m.QueueSeries().Value(); got != 1 {
			t.Errorf("gauge before abort = %v, want 1", got)
		}
		if !m.Abort("p", errAbort) {
			t.Error("Abort(p) = false")
		}
		if got := m.QueueSeries().Value(); got != 0 {
			t.Errorf("gauge immediately after pending Abort = %v, want 0", got)
		}
	})
	eng.Run()
	if !res.Failed || res.Node != nil {
		t.Fatalf("pending abort result: %+v", res)
	}
	// Documented contract: abort-while-pending counts the full pending span
	// as queue wait, with StartedAt pinned to the abort time.
	if res.StartedAt != 2 || res.QueueWait() != 2 {
		t.Fatalf("StartedAt=%v QueueWait=%v, want 2 and 2", res.StartedAt, res.QueueWait())
	}
}

// Regression: a negative GPU or memory request used to be rejected by the
// cluster on every pass, so it stayed pending forever, Done never fired and
// the run ended in an anonymous stall. Submit now fails it at the submit
// time with ErrNegativeRequest, and the queue never holds it.
func TestNegativeRequestFailsAtSubmit(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(testCluster(eng, 1, 4), nil)
	results := map[string]Result{}
	done := func(r Result) { results[r.Submission.ID] = r }
	eng.At(3, func() {
		m.Submit(&Submission{ID: "gpu", Cores: 1, GPUs: -1, Runtime: fixedRuntime(5), Done: done})
		m.Submit(&Submission{ID: "mem", Cores: 1, Mem: -1e9, Runtime: fixedRuntime(5), Done: done})
		m.Submit(&Submission{ID: "ok", Cores: 1, Runtime: fixedRuntime(5), Done: done})
		if m.QueueLen() != 1 {
			t.Errorf("queue holds %d submissions, want only ok", m.QueueLen())
		}
	})
	eng.Run()
	for _, id := range []string{"gpu", "mem"} {
		r, ok := results[id]
		if !ok {
			t.Fatalf("%s: Done never fired", id)
		}
		if !r.Failed || !errors.Is(r.Err, ErrNegativeRequest) || r.Node != nil {
			t.Fatalf("%s: result %+v, want a node-less failure wrapping ErrNegativeRequest", id, r)
		}
		if r.SubmittedAt != 3 || r.StartedAt != 3 || r.FinishedAt != 3 {
			t.Fatalf("%s: times %v/%v/%v, want all 3", id, r.SubmittedAt, r.StartedAt, r.FinishedAt)
		}
	}
	if r := results["ok"]; r.Failed || r.FinishedAt != 8 {
		t.Fatalf("ok: result %+v, want success at 8", r)
	}
	if m.Failed() != 2 || m.Completed() != 1 || m.QueueLen() != 0 {
		t.Fatalf("failed=%d completed=%d pending=%d, want 2/1/0", m.Failed(), m.Completed(), m.QueueLen())
	}
}

// Regression: Submit tested Mem < 0, which is false for NaN, so a NaN
// memory request was placed and left its node's free memory NaN; from then
// on the node accepted any memory request, and a 10 GB node ran two 8 GB
// tasks at once. NaN now fails at submit like a negative request, and the
// two 8 GB tasks run one after the other, on both dispatch paths.
func TestNaNMemoryRequestFailsAtSubmit(t *testing.T) {
	forBothPaths(func(eng *sim.Engine, strat Strategy) {
		cl := cluster.New(eng, "t", cluster.Spec{Type: cluster.NodeType{Name: "n", Cores: 4, MemBytes: 10e9}, Count: 1})
		m := NewTaskManager(cl, strat)
		results := map[string]Result{}
		done := func(r Result) { results[r.Submission.ID] = r }
		m.Submit(&Submission{ID: "nan", Cores: 1, Mem: math.NaN(), Runtime: fixedRuntime(5), Done: done})
		m.Submit(&Submission{ID: "a", Cores: 1, Mem: 8e9, Runtime: fixedRuntime(5), Done: done})
		m.Submit(&Submission{ID: "b", Cores: 1, Mem: 8e9, Runtime: fixedRuntime(5), Done: done})
		eng.Run()
		if r := results["nan"]; !r.Failed || !errors.Is(r.Err, ErrNegativeRequest) || r.Node != nil {
			t.Fatalf("%s nan: result %+v, want a node-less failure wrapping ErrNegativeRequest", strat.Name(), r)
		}
		if a, b := results["a"], results["b"]; a.StartedAt != 0 || b.StartedAt != 5 || b.Failed {
			t.Fatalf("%s: 8 GB tasks started at %v and %v on a 10 GB node, want 0 and 5", strat.Name(), a.StartedAt, b.StartedAt)
		}
	})
}
