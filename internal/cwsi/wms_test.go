package cwsi

import (
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

func flatCluster(nodes, cores int) *cluster.Cluster {
	return cluster.New(sim.NewEngine(), "flat", cluster.Spec{
		Type:  cluster.NodeType{Name: "n", Cores: cores, MemBytes: 64e9},
		Count: nodes,
	})
}

func TestRunConcurrentAllComplete(t *testing.T) {
	cl := flatCluster(2, 8)
	opts := dag.GenOpts{MeanDur: 100, CVDur: 0.5}
	wfs := []*dag.Workflow{
		dag.Chain(randx.New(1), 5, opts),
		dag.Diamond(randx.New(2), opts),
		dag.ForkJoin(randx.New(3), 2, 4, opts),
	}
	res, err := RunConcurrent(cl, wfs, Rank{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Makespans) != 3 {
		t.Fatalf("makespans = %d", len(res.Makespans))
	}
	for i, ms := range res.Makespans {
		if ms <= 0 {
			t.Fatalf("workflow %d makespan = %v", i, ms)
		}
		if ms > res.MaxMakespan {
			t.Fatal("MaxMakespan wrong")
		}
	}
	if res.MeanMakespan <= 0 || res.MeanMakespan > res.MaxMakespan {
		t.Fatalf("mean = %v max = %v", res.MeanMakespan, res.MaxMakespan)
	}
	if res.Strategy != "rank" {
		t.Fatalf("strategy = %q", res.Strategy)
	}
}

func TestRunConcurrentNilStrategyIsFIFO(t *testing.T) {
	cl := flatCluster(2, 8)
	wfs := []*dag.Workflow{dag.Chain(randx.New(1), 3, dag.GenOpts{MeanDur: 50})}
	res, err := RunConcurrent(cl, wfs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "fifo" {
		t.Fatalf("strategy = %q, want fifo", res.Strategy)
	}
}

func TestRunConcurrentSameNameWorkflows(t *testing.T) {
	// Two instances of the same workflow name must not collide (they get
	// distinct registration IDs).
	cl := flatCluster(2, 8)
	opts := dag.GenOpts{MeanDur: 50}
	wfs := []*dag.Workflow{
		dag.Chain(randx.New(1), 3, opts),
		dag.Chain(randx.New(1), 3, opts),
	}
	res, err := RunConcurrent(cl, wfs, Rank{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Makespans) != 2 || res.Makespans[0] <= 0 || res.Makespans[1] <= 0 {
		t.Fatalf("makespans = %v", res.Makespans)
	}
}

func TestRunConcurrentAwareHelpsUnderContention(t *testing.T) {
	opts := dag.GenOpts{MeanDur: 300, CVDur: 1.5, Cores: 1, MaxCores: 4}
	mkWfs := func() []*dag.Workflow {
		r := randx.New(99)
		return []*dag.Workflow{
			dag.RNASeqLike(r.Fork(), 10, opts),
			dag.MontageLike(r.Fork(), 12, opts),
			dag.ForkJoin(r.Fork(), 3, 8, opts),
		}
	}
	base, err := RunConcurrent(flatCluster(2, 8), mkWfs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rank, err := RunConcurrent(flatCluster(2, 8), mkWfs(), Rank{})
	if err != nil {
		t.Fatal(err)
	}
	// Rank should not be worse than FIFO by more than noise on this seed,
	// and the grand total work is conserved either way: check mean.
	if float64(rank.MeanMakespan) > float64(base.MeanMakespan)*1.05 {
		t.Fatalf("rank mean %v much worse than fifo %v", rank.MeanMakespan, base.MeanMakespan)
	}
}

func TestStartWorkflowUnregistered(t *testing.T) {
	cl := flatCluster(1, 4)
	cws := New(rm.NewTaskManager(cl, nil), Baseline{}, nil)
	if err := cws.StartWorkflow("ghost", nil, func(sim.Time, error) {}); err == nil {
		t.Fatal("unregistered workflow started")
	}
}

func TestRunNextflowStyleNilStrategy(t *testing.T) {
	cl := flatCluster(2, 8)
	w := dag.Chain(randx.New(4), 4, dag.GenOpts{MeanDur: 60})
	res, err := RunNextflowStyle("argo", cl, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != "argo" || res.Strategy != "fifo" {
		t.Fatalf("res = %+v", res)
	}
	if res.Makespan <= 0 {
		t.Fatal("no makespan")
	}
}

func TestRunAirflowBigWorkerInvalidWorkflow(t *testing.T) {
	cl := flatCluster(2, 8)
	w := dag.New("bad")
	w.Add(&dag.Task{ID: "a", Deps: []dag.TaskID{"ghost"}})
	if _, err := RunAirflowBigWorker(cl, w); err == nil {
		t.Fatal("invalid workflow accepted")
	}
}

func TestRunAirflowBigWorkerReleasesCluster(t *testing.T) {
	cl := flatCluster(2, 8)
	w := dag.ForkJoin(randx.New(5), 2, 4, dag.GenOpts{MeanDur: 60})
	if _, err := RunAirflowBigWorker(cl, w); err != nil {
		t.Fatal(err)
	}
	for _, n := range cl.Nodes() {
		if n.FreeCores() != n.Type.Cores {
			t.Fatal("big-worker reservation leaked")
		}
	}
}
