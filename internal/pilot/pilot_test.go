package pilot

import (
	"fmt"
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

func setup(nodes int) (*sim.Engine, *cluster.Cluster, *rm.BatchManager) {
	eng := sim.NewEngine()
	cl := cluster.New(eng, "t", cluster.Spec{
		Type:  cluster.NodeType{Name: "n", Cores: 8, GPUs: 1, MemBytes: 1e12},
		Count: nodes,
	})
	return eng, cl, rm.NewBatchManager(cl, nil)
}

// spec is one independent test task: its ID, node count and duration.
type spec struct {
	id    string
	nodes int
	dur   float64
}

// run is a workflow of independent tasks driven through the executor on a
// pilot, with every task's terminal result recorded in completion order.
type run struct {
	sr      *rm.StreamRunner
	order   []string
	results map[string]rm.Result
}

// start submits specs through an rm.StreamRunner whose manager's submit side
// is p. Submitting before the agent is active is deliberate: the tasks queue
// and flow once bootstrapping completes. failFirst names tasks whose first
// attempt fails with an injected application error.
func start(t *testing.T, p *Pilot, cl *cluster.Cluster, specs []spec, failFirst ...string) *run {
	t.Helper()
	w := dag.New("w")
	for _, s := range specs {
		w.Add(&dag.Task{ID: dag.TaskID(s.id), Cores: s.nodes, NominalDur: s.dur})
	}
	x, err := dag.NewWorkflowExpander(w)
	if err != nil {
		t.Fatal(err)
	}
	r := &run{results: map[string]rm.Result{}}
	r.sr = &rm.StreamRunner{
		Manager: rm.NewTaskManager(cl, p),
		Source:  x,
		Runtime: Runtime,
		Observe: func(task *dag.Task, res rm.Result) {
			r.order = append(r.order, string(task.ID))
			r.results[string(task.ID)] = res
		},
		FailPlan: func(idx int) int {
			for _, id := range failFirst {
				if specs[idx].id == id {
					return 1
				}
			}
			return 0
		},
	}
	r.sr.Start()
	return r
}

func TestPilotLifecycle(t *testing.T) {
	eng, cl, bm := setup(4)
	p, err := Submit(bm, cl, Config{Nodes: 4, Walltime: 10000, BootstrapSec: 85})
	if err != nil {
		t.Fatal(err)
	}
	if p.State() != Pending {
		t.Fatalf("state = %v, want pending", p.State())
	}
	activeAt := sim.Time(-1)
	p.OnActive(func() { activeAt = eng.Now() })
	r := start(t, p, cl, []spec{{"t1", 2, 100}})
	eng.Run()
	if activeAt != 85 {
		t.Fatalf("agent active at %v, want 85", activeAt)
	}
	if p.Overhead() != 85 {
		t.Fatalf("Overhead = %v, want 85", p.Overhead())
	}
	res := r.results["t1"]
	if res.Failed || res.StartedAt != 85 || res.FinishedAt != 185 {
		t.Fatalf("task result: failed=%v started=%v finished=%v, want 85..185", res.Failed, res.StartedAt, res.FinishedAt)
	}
	if err := r.sr.Err(); err != nil || r.sr.Stats().Failures != 0 {
		t.Fatalf("run: err=%v stats=%+v", err, r.sr.Stats())
	}
	p.Release()
	if p.State() != Done {
		t.Fatal("Release did not finish pilot")
	}
}

func TestPilotQueuesUntilNodesFree(t *testing.T) {
	eng, cl, bm := setup(2)
	p, _ := Submit(bm, cl, Config{Nodes: 2, Walltime: 10000})
	r := start(t, p, cl, []spec{{"a", 2, 50}, {"b", 2, 50}})
	eng.Run()
	if len(r.order) != 2 || r.results["a"].FinishedAt != 50 || r.results["b"].FinishedAt != 100 {
		t.Fatalf("results = %v, want a at 50, b at 100", r.results)
	}
}

func TestPilotSkipOverScheduling(t *testing.T) {
	// A 2-node task blocked behind a 4-node task should not starve when
	// only 2 nodes are free.
	eng, cl, bm := setup(4)
	p, _ := Submit(bm, cl, Config{Nodes: 4, Walltime: 10000})
	r := start(t, p, cl, []spec{{"hog", 2, 100}, {"big", 4, 10}, {"small", 2, 10}})
	eng.Run()
	// small (2 nodes) fits alongside hog; big must wait for all 4.
	if len(r.order) != 3 || r.order[0] != "small" {
		t.Fatalf("order = %v, want small first", r.order)
	}
}

func TestPilotNodeCountFromCores(t *testing.T) {
	// With CoresPerNode set, a task occupies ceil(Cores/CoresPerNode) nodes:
	// 9 cores on 8-core nodes is 2 nodes, so two such tasks serialize on a
	// 3-node pilot while a 0-core task still takes one node.
	eng, cl, bm := setup(3)
	p, _ := Submit(bm, cl, Config{Nodes: 3, Walltime: 10000, CoresPerNode: 8})
	r := start(t, p, cl, []spec{{"a", 9, 10}, {"b", 9, 10}, {"zero", 0, 10}})
	eng.Run()
	if r.results["a"].FinishedAt != 10 || r.results["b"].FinishedAt != 20 || r.results["zero"].FinishedAt != 10 {
		t.Fatalf("results = %v, want a/zero at 10, b at 20", r.results)
	}
	if got := p.BusyNodesSeries().Integral(0, 20); got != 2*10+1*10+2*10 {
		t.Fatalf("busy-node integral = %v, want 50", got)
	}
}

func TestPilotSchedulingRate(t *testing.T) {
	eng, cl, bm := setup(10)
	p, _ := Submit(bm, cl, Config{Nodes: 10, Walltime: 1e6, SchedRate: 10}) // 10 tasks/s
	n := 100
	specs := make([]spec, n)
	for i := range specs {
		specs[i] = spec{fmt.Sprintf("t%03d", i), 1, 0.001}
	}
	r := start(t, p, cl, specs)
	eng.Run()
	// 100 tasks at 10/s ≈ 10s of scheduling.
	last := p.ScheduledSeries().Last()
	if last.T < 9.5 || last.T > 11 {
		t.Fatalf("last scheduling event at %v, want ~10s", last.T)
	}
	if len(r.order) != n || r.sr.Stats().Failures != 0 {
		t.Fatalf("completed = %d, stats %+v", len(r.order), r.sr.Stats())
	}
}

func TestPilotLaunchRateBoundsConcurrencyRamp(t *testing.T) {
	eng, cl, bm := setup(100)
	p, _ := Submit(bm, cl, Config{Nodes: 100, Walltime: 1e6, SchedRate: 0, LaunchRate: 2})
	specs := make([]spec, 50)
	for i := range specs {
		specs[i] = spec{fmt.Sprintf("t%03d", i), 1, 1000}
	}
	start(t, p, cl, specs)
	eng.RunUntil(10)
	// At 2 launches/s, ~20 tasks running after 10 s despite 100 free nodes.
	running := p.RunningSeries().Value()
	if running < 18 || running > 22 {
		t.Fatalf("running after 10s = %v, want ~20", running)
	}
	eng.Run()
}

func TestPilotNodeFailureKillsTask(t *testing.T) {
	eng, cl, bm := setup(4)
	p, _ := Submit(bm, cl, Config{Nodes: 4, Walltime: 1e6})
	r := start(t, p, cl, []spec{{"a", 2, 100}, {"b", 2, 100}})
	eng.At(50, func() {
		// Fail one node of task a.
		for _, q := range p.running {
			if q.a.Task().ID == "a" {
				cl.FailNode(q.alloc[0])
				return
			}
		}
		t.Error("task a not running at t=50")
	})
	eng.Run()
	if a := r.results["a"]; !a.Failed || a.FinishedAt != 50 {
		t.Fatalf("a: failed=%v at %v, want a node-loss kill at 50", a.Failed, a.FinishedAt)
	}
	if b := r.results["b"]; b.Failed || b.FinishedAt != 100 {
		t.Fatalf("b: failed=%v at %v, want success at 100", b.Failed, b.FinishedAt)
	}
	// The dead node left the pool; the other three are free again.
	if len(p.freeNodes) != 3 {
		t.Fatalf("free nodes = %d, want 3", len(p.freeNodes))
	}
}

func TestPilotResubmitAfterNodeFailure(t *testing.T) {
	eng, cl, bm := setup(4)
	p, _ := Submit(bm, cl, Config{Nodes: 4, Walltime: 1e6})
	r := start(t, p, cl, []spec{{"a", 1, 100}})
	// The executor's retry policy resubmits the killed attempt to the agent.
	r.sr.Retry = &fault.RetryPolicy{MaxAttempts: 2}
	eng.At(10, func() {
		for _, q := range p.running {
			cl.FailNode(q.alloc[0])
		}
	})
	eng.Run()
	st := r.sr.Stats()
	if st.Attempts != 2 || st.Failures != 1 || st.Retries != 1 {
		t.Fatalf("stats = %+v, want 2 attempts (fail + success)", st)
	}
	if a := r.results["a"]; a.Failed || a.FinishedAt != 110 {
		t.Fatalf("a: failed=%v at %v, want success at 110", a.Failed, a.FinishedAt)
	}
}

func TestPilotWalltimeExpiryFailsEverything(t *testing.T) {
	eng, cl, bm := setup(2)
	p, _ := Submit(bm, cl, Config{Nodes: 2, Walltime: 50})
	r := start(t, p, cl, []spec{{"run", 2, 100}, {"wait", 2, 100}})
	eng.Run()
	if !r.results["run"].Failed || !r.results["wait"].Failed {
		t.Fatalf("walltime expiry should fail all tasks: %v", r.results)
	}
	if p.State() != Done {
		t.Fatal("pilot not done after expiry")
	}
}

// Expiry kills running attempts in submission-label order, whatever order
// they launched in.
func TestPilotExpiryKillOrder(t *testing.T) {
	eng, cl, bm := setup(3)
	p, _ := Submit(bm, cl, Config{Nodes: 3, Walltime: 50})
	r := start(t, p, cl, []spec{{"c", 1, 100}, {"a", 1, 100}, {"b", 1, 100}})
	eng.Run()
	if fmt.Sprint(r.order) != "[a b c]" {
		t.Fatalf("kill order = %v, want [a b c]", r.order)
	}
}

func TestPilotSubmitErrors(t *testing.T) {
	eng, cl, bm := setup(2)
	p, _ := Submit(bm, cl, Config{Nodes: 2, Walltime: 1e6})
	r := start(t, p, cl, []spec{{"big", 5, 1}, {"ok", 1, 1}})
	if len(r.order) != 0 {
		t.Fatalf("a rejection reached the runner inside its own submit: %v", r.order)
	}
	eng.Run()
	if !r.results["big"].Failed || r.results["ok"].Failed {
		t.Fatalf("results = %v, want only the oversized task rejected", r.results)
	}
	p.Release()
	late := start(t, p, cl, []spec{{"late", 1, 1}})
	eng.Run()
	if res := late.results["late"]; !res.Failed || res.FinishedAt != eng.Now() {
		t.Fatalf("submit after release: %+v, want a rejection", res)
	}
}

func TestPilotTTX(t *testing.T) {
	eng, cl, bm := setup(2)
	p, _ := Submit(bm, cl, Config{Nodes: 2, Walltime: 1e6, BootstrapSec: 10})
	start(t, p, cl, []spec{{"a", 1, 30}, {"b", 1, 50}})
	eng.Run()
	if p.TTX() != 50 { // both start at 10, last ends at 60
		t.Fatalf("TTX = %v, want 50", p.TTX())
	}
}

func TestPilotUtilizationSeries(t *testing.T) {
	eng, cl, bm := setup(4)
	p, _ := Submit(bm, cl, Config{Nodes: 4, Walltime: 1e6})
	start(t, p, cl, []spec{{"a", 4, 100}})
	eng.Run()
	// Busy-node integral: 4 nodes × 100s.
	got := p.BusyNodesSeries().Integral(0, 100)
	if got != 400 {
		t.Fatalf("busy-node integral = %v, want 400", got)
	}
}

// Two runners submitting same-named tasks to one pilot keep both attempts:
// a node loss kills exactly the attempt on that node.
func TestPilotSameNamedTasksBothTracked(t *testing.T) {
	eng, cl, bm := setup(2)
	p, _ := Submit(bm, cl, Config{Nodes: 2, Walltime: 1e6})
	r1 := start(t, p, cl, []spec{{"t", 1, 100}})
	r2 := start(t, p, cl, []spec{{"t", 1, 100}})
	eng.At(50, func() { cl.FailNode(p.running[0].alloc[0]) })
	eng.Run()
	if !r1.results["t"].Failed || r2.results["t"].Failed {
		t.Fatalf("first=%+v second=%+v, want only the first killed", r1.results["t"], r2.results["t"])
	}
}
