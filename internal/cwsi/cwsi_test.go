package cwsi

import (
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/predict"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

func smallCluster(eng *sim.Engine, nodes, cores int) *cluster.Cluster {
	return cluster.New(eng, "t", cluster.Spec{
		Type:  cluster.NodeType{Name: "n", Cores: cores, MemBytes: 1e12},
		Count: nodes,
	})
}

func chainWorkflow() *dag.Workflow {
	w := dag.New("chain")
	w.Add(&dag.Task{ID: "a", Name: "a", NominalDur: 10})
	w.Add(&dag.Task{ID: "b", Name: "b", NominalDur: 20, Deps: []dag.TaskID{"a"}})
	return w
}

func TestRegisterWorkflowErrors(t *testing.T) {
	eng := sim.NewEngine()
	cws := New(rm.NewTaskManager(smallCluster(eng, 1, 4), nil), Baseline{}, nil)
	w := chainWorkflow()
	if err := cws.RegisterWorkflow("w", w); err != nil {
		t.Fatal(err)
	}
	if err := cws.RegisterWorkflow("w", w); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	bad := dag.New("bad")
	bad.Add(&dag.Task{ID: "x", Deps: []dag.TaskID{"ghost"}})
	if err := cws.RegisterWorkflow("bad", bad); err == nil {
		t.Fatal("invalid workflow accepted")
	}
}

func TestRunWorkflowMakespanAndProvenance(t *testing.T) {
	eng := sim.NewEngine()
	cws := New(rm.NewTaskManager(smallCluster(eng, 2, 4), nil), Baseline{}, nil)
	w := chainWorkflow()
	if err := cws.RegisterWorkflow("w", w); err != nil {
		t.Fatal(err)
	}
	ms, err := cws.RunWorkflow("w")
	if err != nil {
		t.Fatal(err)
	}
	if ms != 30 {
		t.Fatalf("makespan = %v, want 30", ms)
	}
	if cws.Provenance().Len() != 2 {
		t.Fatalf("provenance records = %d, want 2", cws.Provenance().Len())
	}
	recs := cws.Provenance().ByWorkflow("w")
	if recs[0].Name != "a" || recs[0].Failed {
		t.Fatalf("first record: %+v", recs[0])
	}
}

func TestRunWorkflowUnregistered(t *testing.T) {
	eng := sim.NewEngine()
	cws := New(rm.NewTaskManager(smallCluster(eng, 1, 1), nil), Baseline{}, nil)
	if _, err := cws.RunWorkflow("nope"); err == nil {
		t.Fatal("unregistered workflow ran")
	}
}

func TestRunWorkflowRetriesNodeFailure(t *testing.T) {
	eng := sim.NewEngine()
	cl := smallCluster(eng, 2, 4)
	cws := New(rm.NewTaskManager(cl, nil), Baseline{}, nil)
	w := dag.New("w")
	w.Add(&dag.Task{ID: "long", Name: "long", NominalDur: 100})
	cws.RegisterWorkflow("w", w)
	cws.SetRecovery(fault.RetryPolicy{MaxAttempts: 3}, nil) // zero backoff
	eng.At(10, func() {
		// Fail node 0 (first fit placed the task there).
		cl.FailNode(cl.Nodes()[0])
	})
	ms, err := cws.RunWorkflow("w")
	if err != nil {
		t.Fatal(err)
	}
	if ms != 110 { // failed at 10, reran 100s on node 1
		t.Fatalf("makespan = %v, want 110", ms)
	}
	// Provenance has the failed attempt and the successful one.
	recs := cws.Provenance().ByWorkflow("w")
	if len(recs) != 2 || !recs[0].Failed || recs[1].Failed {
		t.Fatalf("attempts: %+v", recs)
	}
	// Node trace captured the failure (§3.3).
	if events := cws.Provenance().NodeEvents(); len(events) != 1 || events[0].Kind != "down" {
		t.Fatalf("node events: %+v", events)
	}
}

func TestRunWorkflowRetriesExhausted(t *testing.T) {
	eng := sim.NewEngine()
	cl := smallCluster(eng, 1, 4)
	cws := New(rm.NewTaskManager(cl, nil), Baseline{}, nil)
	w := dag.New("w")
	w.Add(&dag.Task{ID: "t", Name: "t", NominalDur: 100})
	cws.RegisterWorkflow("w", w)
	eng.At(10, func() { cl.FailNode(cl.Nodes()[0]) })
	if _, err := cws.RunWorkflow("w"); err == nil {
		t.Fatal("expected failure with no retries and dead cluster")
	}
}

func TestPredictorTrainsFromExecutions(t *testing.T) {
	eng := sim.NewEngine()
	p := predict.NewMean()
	cws := New(rm.NewTaskManager(smallCluster(eng, 2, 4), nil), Baseline{}, p)
	w := chainWorkflow()
	cws.RegisterWorkflow("w", w)
	if _, err := cws.RunWorkflow("w"); err != nil {
		t.Fatal(err)
	}
	got, ok := p.Predict("a", 0, 1)
	if !ok || got != 10 {
		t.Fatalf("trained prediction for a = %v ok=%v, want 10", got, ok)
	}
}

// rankScenario builds a contended workload where workflow-awareness pays:
// a long critical chain plus independent filler tasks that FIFO runs first.
func rankScenario() *dag.Workflow {
	w := dag.New("rank-scenario")
	w.Add(&dag.Task{ID: "fill1", Name: "fill", NominalDur: 50})
	w.Add(&dag.Task{ID: "fill2", Name: "fill", NominalDur: 50})
	w.Add(&dag.Task{ID: "crit", Name: "crit", NominalDur: 10})
	w.Add(&dag.Task{ID: "crit2", Name: "crit", NominalDur: 100, Deps: []dag.TaskID{"crit"}})
	return w
}

func TestRankBeatsFIFOOnCriticalChain(t *testing.T) {
	build := func() *cluster.Cluster { return smallCluster(sim.NewEngine(), 1, 2) }
	res, err := CompareStrategies(build, rankScenario, Rank{})
	if err != nil {
		t.Fatal(err)
	}
	if res["rank"] >= res["fifo"] {
		t.Fatalf("rank (%v) should beat fifo (%v)", res["rank"], res["fifo"])
	}
	if res["fifo"] != 160 {
		t.Fatalf("fifo makespan = %v, want 160", res["fifo"])
	}
	if res["rank"] != 110 {
		t.Fatalf("rank makespan = %v, want 110", res["rank"])
	}
}

func TestFileSizePriorities(t *testing.T) {
	desc := FileSize{}
	asc := FileSize{Ascending: true}
	s := &rm.Submission{InputBytes: 100}
	if desc.Priority(s, nil) != 100 {
		t.Fatal("descending should rank big inputs first")
	}
	if asc.Priority(s, nil) != -100 {
		t.Fatal("ascending should rank big inputs last")
	}
	if desc.Name() == asc.Name() {
		t.Fatal("names should differ")
	}
}

func TestHEFTPicksFastestNode(t *testing.T) {
	eng := sim.NewEngine()
	cl := cluster.New(eng, "h",
		cluster.Spec{Type: cluster.NodeType{Name: "slow", Cores: 4, SpeedFactor: 1, MemBytes: 1e12}, Count: 1},
		cluster.Spec{Type: cluster.NodeType{Name: "fast", Cores: 4, SpeedFactor: 2, MemBytes: 1e12}, Count: 1},
	)
	cws := New(rm.NewTaskManager(cl, nil), HEFT{}, nil)
	w := dag.New("w")
	w.Add(&dag.Task{ID: "t", Name: "t", NominalDur: 100, IOFrac: 0})
	cws.RegisterWorkflow("w", w)
	ms, err := cws.RunWorkflow("w")
	if err != nil {
		t.Fatal(err)
	}
	if ms != 50 { // must land on the 2x node
		t.Fatalf("makespan = %v, want 50 (fast node)", ms)
	}
	if recs := cws.Provenance().ByWorkflow("w"); recs[0].MachineType != "fast" {
		t.Fatalf("placed on %s, want fast", recs[0].MachineType)
	}
}

func TestTaremaColdFallsBackAndWarmSteers(t *testing.T) {
	eng := sim.NewEngine()
	cl := cluster.New(eng, "h",
		cluster.Spec{Type: cluster.NodeType{Name: "slow", Cores: 8, SpeedFactor: 1, MemBytes: 1e12}, Count: 1},
		cluster.Spec{Type: cluster.NodeType{Name: "fast", Cores: 8, SpeedFactor: 3, MemBytes: 1e12}, Count: 1},
	)
	cws := New(rm.NewTaskManager(cl, nil), Tarema{Groups: 2}, nil)

	// Warm-up workflow: observe a short family and a long family.
	warm := dag.New("warm")
	warm.Add(&dag.Task{ID: "s1", Name: "short", NominalDur: 5})
	warm.Add(&dag.Task{ID: "l1", Name: "long", NominalDur: 500})
	cws.RegisterWorkflow("warm", warm)
	if _, err := cws.RunWorkflow("warm"); err != nil {
		t.Fatal(err)
	}

	// Now a long task should be steered to the fast node group.
	w2 := dag.New("w2")
	w2.Add(&dag.Task{ID: "l2", Name: "long", NominalDur: 500})
	cws.RegisterWorkflow("w2", w2)
	if _, err := cws.RunWorkflow("w2"); err != nil {
		t.Fatal(err)
	}
	recs := cws.Provenance().ByWorkflow("w2")
	if recs[0].MachineType != "fast" {
		t.Fatalf("warm Tarema placed long task on %s, want fast", recs[0].MachineType)
	}
}

func TestAirflowBigWorkerWaste(t *testing.T) {
	rng := randx.New(3)
	wf := func() *dag.Workflow {
		return dag.ForkJoin(randx.New(9), 2, 6, dag.GenOpts{MeanDur: 60, Cores: 1, MeanMem: 1e9})
	}
	_ = rng

	engA := sim.NewEngine()
	clA := smallCluster(engA, 4, 4)
	big, err := RunAirflowBigWorker(clA, wf())
	if err != nil {
		t.Fatal(err)
	}
	engB := sim.NewEngine()
	clB := smallCluster(engB, 4, 4)
	pods, err := RunNextflowStyle("nextflow", clB, wf(), Rank{})
	if err != nil {
		t.Fatal(err)
	}
	if big.Waste() <= pods.Waste() {
		t.Fatalf("big-worker waste (%v) should exceed pod waste (%v)", big.Waste(), pods.Waste())
	}
	if big.Waste() <= 0.3 {
		t.Fatalf("fork-join big-worker waste = %v, expected substantial idle reservation", big.Waste())
	}
	if pods.Waste() != 0 {
		t.Fatalf("pod-style waste = %v, want 0 (requests match usage)", pods.Waste())
	}
}

func TestCompareStrategiesKeys(t *testing.T) {
	build := func() *cluster.Cluster { return smallCluster(sim.NewEngine(), 2, 4) }
	wf := func() *dag.Workflow { return dag.MontageLike(randx.New(4), 8, dag.GenOpts{MeanDur: 30}) }
	res, err := CompareStrategies(build, wf, Rank{}, FileSize{}, HEFT{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"fifo", "rank", "filesize-desc", "heft"} {
		if _, ok := res[k]; !ok {
			t.Errorf("missing strategy result %q", k)
		}
	}
}

func TestRunResultWaste(t *testing.T) {
	r := RunResult{RequestedCoreSec: 100, UsedCoreSec: 60}
	if r.Waste() != 0.4 {
		t.Fatalf("Waste = %v", r.Waste())
	}
	if (RunResult{}).Waste() != 0 {
		t.Fatal("zero-request waste should be 0")
	}
}

func TestTaskParamsRecordedInProvenance(t *testing.T) {
	// §3.1: "task-specific parameters vary for each task invocation and are
	// passed on" — the CWS must keep the registered task's parameters for
	// provenance.
	eng := sim.NewEngine()
	cws := New(rm.NewTaskManager(smallCluster(eng, 1, 4), nil), Baseline{}, nil)
	w := dag.New("w")
	w.Add(&dag.Task{ID: "t", Name: "tool", NominalDur: 10,
		Params: map[string]string{"--threads": "4", "--input": "a.vcf"}})
	if err := cws.RegisterWorkflow("w", w); err != nil {
		t.Fatal(err)
	}
	if _, err := cws.RunWorkflow("w"); err != nil {
		t.Fatal(err)
	}
	recs := cws.Provenance().ByWorkflow("w")
	if len(recs) != 1 || recs[0].Params["--threads"] != "4" {
		t.Fatalf("params not recorded: %+v", recs)
	}
}
