package rm

import (
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

// Satellite regression: a node failure must revoke the BatchManager's live
// allocations on that node and notify the owning job. Before the reap path a
// "down" node kept its whole-node reservation and its pilot work ran to
// completion.
func TestBatchAllocReapsFailedNode(t *testing.T) {
	eng := sim.NewEngine()
	cl := testCluster(eng, 3, 8)
	m := NewBatchManager(cl, nil)
	var alloc *BatchAlloc
	var failedNode *cluster.Node
	err := m.Submit(&BatchJob{
		ID: "j", Account: "a", Nodes: 3, Walltime: 10000,
		OnStart:    func(a *BatchAlloc) { alloc = a },
		OnNodeFail: func(a *BatchAlloc, n *cluster.Node) { failedNode = n },
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.At(100, func() {
		if alloc == nil {
			t.Fatal("job not started")
		}
		cl.FailNode(alloc.Nodes[1])
	})
	eng.At(200, func() {
		if failedNode != alloc.Nodes[1] {
			t.Errorf("OnNodeFail got %v, want node 1", failedNode)
		}
		if alloc.DownNodes() != 1 || alloc.UpNodes() != 2 {
			t.Errorf("down=%d up=%d, want 1/2", alloc.DownNodes(), alloc.UpNodes())
		}
		cl.RepairNode(alloc.Nodes[1])
	})
	eng.At(300, func() { alloc.Release() })
	eng.Run()
	// Releasing the job after the failed node was reaped and repaired must
	// not over-credit capacity: every node ends exactly full.
	for _, n := range cl.Nodes() {
		if n.FreeCores() != n.Type.Cores {
			t.Fatalf("node %s free cores %d, want %d (revoked alloc double-released)",
				n.Name(), n.FreeCores(), n.Type.Cores)
		}
	}
}

// A stale alloc released after its node failed and was repaired must settle
// gauges only — crediting it would push free capacity past physical capacity.
func TestRevokedAllocNoOverCredit(t *testing.T) {
	eng := sim.NewEngine()
	cl := testCluster(eng, 1, 8)
	n := cl.Nodes()[0]
	a, err := cl.Allocate(n, 4, 0, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	cl.FailNode(n)
	cl.RepairNode(n) // resets counters to full
	if !a.Revoked() {
		t.Fatal("alloc should be revoked after its node failed")
	}
	cl.Release(a)
	if n.FreeCores() != 8 {
		t.Fatalf("free cores = %d, want 8", n.FreeCores())
	}
	eng.Run()
}

// planFor keys a per-task injected-failure count by eager insertion index,
// the form the executor's FailPlan takes.
func planFor(w *dag.Workflow, byID map[dag.TaskID]int) func(int) int {
	plan := make([]int, w.Len())
	for i, task := range w.Tasks() {
		plan[i] = byID[task.ID]
	}
	return func(i int) int { return plan[i] }
}

// The e2e robustness contract at the rm layer: a task running on a node that
// fails mid-flight fails its attempt, backs off under the configured policy,
// and succeeds on a healthy node.
func TestMakespanRunnerRecoversFromNodeFailure(t *testing.T) {
	eng := sim.NewEngine()
	cl := testCluster(eng, 2, 8)
	m := NewTaskManager(cl, nil)
	w := dag.New("w")
	w.Add(&dag.Task{ID: "a", NominalDur: 100})
	retry := &fault.RetryPolicy{MaxAttempts: 3, BaseDelaySec: 7, Multiplier: 2}
	mr := newEagerRun(t, m, w, "w")
	mr.Retry = retry
	var victim *cluster.Node
	eng.At(50, func() {
		for _, r := range m.running {
			victim = r.alloc.Node
			cl.FailNode(victim)
			return
		}
		t.Error("task not running at t=50")
	})
	ms := mr.run(t)
	// 50s on the doomed node + 7s backoff + 100s clean run.
	if ms != 157 {
		t.Fatalf("makespan = %v, want 157", ms)
	}
	res := mr.results["a"]
	if res.Failed {
		t.Fatal("task did not recover")
	}
	if res.Node == victim {
		t.Fatal("retry landed on the failed node")
	}
	st := mr.Stats()
	if st.Failures != 1 || st.Retries != 1 || st.BackoffSec != 7 || st.TerminalFailures != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMakespanRunnerInjectedTransientFailures(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(testCluster(eng, 2, 8), nil)
	w := dag.New("w")
	w.Add(&dag.Task{ID: "a", NominalDur: 10})
	w.Add(&dag.Task{ID: "b", NominalDur: 10, Deps: []dag.TaskID{"a"}})
	retry := &fault.RetryPolicy{MaxAttempts: 5, BaseDelaySec: 5, Multiplier: 2}
	mr := newEagerRun(t, m, w, "w")
	mr.Retry = retry
	mr.FailPlan = planFor(w, map[dag.TaskID]int{"a": 2})
	ms := mr.run(t)
	// a: 10 fail + 5 backoff + 10 fail + 10 backoff + 10 ok; b: 10.
	if ms != 55 {
		t.Fatalf("makespan = %v, want 55", ms)
	}
	st := mr.Stats()
	if st.Attempts != 4 || st.Failures != 2 || st.Retries != 2 || st.BackoffSec != 15 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMakespanRunnerTerminalFailureSkipsDescendants(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(testCluster(eng, 2, 8), nil)
	w := dag.New("w")
	w.Add(&dag.Task{ID: "a", NominalDur: 10})
	w.Add(&dag.Task{ID: "b", NominalDur: 10, Deps: []dag.TaskID{"a"}})
	w.Add(&dag.Task{ID: "c", NominalDur: 10, Deps: []dag.TaskID{"b"}})
	w.Add(&dag.Task{ID: "d", NominalDur: 30}) // independent branch
	retry := &fault.RetryPolicy{MaxAttempts: 2, BaseDelaySec: 5}
	mr := newEagerRun(t, m, w, "w")
	mr.Retry = retry
	mr.FailPlan = planFor(w, map[dag.TaskID]int{"a": 99})
	ms := mr.run(t)
	// The independent branch keeps the run alive: makespan is d's 30s.
	if ms != 30 {
		t.Fatalf("makespan = %v, want 30", ms)
	}
	st := mr.Stats()
	if st.TerminalFailures != 1 || st.Skipped != 2 {
		t.Fatalf("stats = %+v, want 1 terminal + 2 skipped", st)
	}
	if !mr.results["a"].Failed {
		t.Fatal("a should be terminally failed")
	}
	if _, ran := mr.results["b"]; ran {
		t.Fatal("b ran despite unreachable dependency")
	}
	if mr.results["d"].Failed {
		t.Fatal("independent branch failed")
	}
}

func TestMakespanRunnerAttemptTimeout(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(testCluster(eng, 1, 8), nil)
	w := dag.New("w")
	w.Add(&dag.Task{ID: "slow", NominalDur: 1000})
	retry := &fault.RetryPolicy{MaxAttempts: 2, BaseDelaySec: 10, TimeoutSec: 50}
	mr := newEagerRun(t, m, w, "w")
	mr.Retry = retry
	ms := mr.run(t)
	// Two 50s timeouts + one 10s backoff.
	if ms != 110 {
		t.Fatalf("makespan = %v, want 110", ms)
	}
	st := mr.Stats()
	if st.Timeouts != 2 || st.TerminalFailures != 1 {
		t.Fatalf("stats = %+v, want 2 timeouts, 1 terminal", st)
	}
}

func TestMakespanRunnerBreakerStopsRetries(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(testCluster(eng, 2, 8), nil)
	w := dag.New("w")
	w.Add(&dag.Task{ID: "a", NominalDur: 10})
	retry := &fault.RetryPolicy{MaxAttempts: 10, BaseDelaySec: 1, BreakThreshold: 2}
	mr := newEagerRun(t, m, w, "w")
	mr.Retry = retry
	mr.Breaker = retry.NewBreaker()
	mr.FailPlan = planFor(w, map[dag.TaskID]int{"a": 99})
	mr.run(t)
	st := mr.Stats()
	if st.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (breaker threshold)", st.Attempts)
	}
	if st.TerminalFailures != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if !mr.Breaker.Open() {
		t.Fatal("breaker should be open")
	}
}

// Regression for the repair path: work queued while all capacity was down
// must start when a node comes back, via the OnNodeUp → kick subscription.
func TestTaskManagerRunsQueuedWorkAfterRepair(t *testing.T) {
	eng := sim.NewEngine()
	cl := testCluster(eng, 1, 8)
	m := NewTaskManager(cl, nil)
	n := cl.Nodes()[0]
	cl.FailNode(n)
	var res Result
	m.Submit(&Submission{ID: "queued", Cores: 2, Runtime: fixedRuntime(10), Done: func(r Result) { res = r }})
	eng.At(100, func() { cl.RepairNode(n) })
	eng.Run()
	if res.Submission == nil || res.Failed {
		t.Fatalf("queued task never ran after repair: %+v", res)
	}
	if res.StartedAt != 100 || res.FinishedAt != 110 {
		t.Fatalf("task ran at [%v,%v], want [100,110]", res.StartedAt, res.FinishedAt)
	}
}

// Determinism: the same FailAttempts plan and retry policy give bit-identical
// makespans and stats.
func TestMakespanRunnerChaosDeterministic(t *testing.T) {
	run := func() (sim.Time, RunStats) {
		eng := sim.NewEngine()
		m := NewTaskManager(testCluster(eng, 4, 8), nil)
		rng := randx.New(77)
		w := dag.RandomLayered(rng.Fork(), 4, 6, dag.GenOpts{MeanDur: 60})
		prof := fault.Profile{TaskFailProb: 0.3, TaskFailPersist: 2}
		plan := prof.PlanTaskFailures(w.Len(), rng.Fork())
		retry := fault.DefaultRetryPolicy()
		mr := newEagerRun(t, m, w, "w")
		mr.Retry, mr.RetryRNG = &retry, rng.Fork()
		mr.FailPlan = func(i int) int { return plan[i] }
		return mr.run(t), mr.Stats()
	}
	ms1, st1 := run()
	ms2, st2 := run()
	if ms1 != ms2 || st1 != st2 {
		t.Fatalf("chaos run not deterministic: %v/%+v vs %v/%+v", ms1, st1, ms2, st2)
	}
	if st1.Failures == 0 {
		t.Fatal("plan injected no failures; test is vacuous")
	}
}
