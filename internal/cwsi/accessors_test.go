package cwsi

import (
	"testing"

	"hhcw/internal/dag"
	"hhcw/internal/predict"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

func TestAccessorsAndNames(t *testing.T) {
	eng := sim.NewEngine()
	cws := New(rm.NewTaskManager(smallCluster(eng, 1, 4), nil), Baseline{}, predict.NewMean())
	w := chainWorkflow()
	if err := cws.RegisterWorkflow("w", w); err != nil {
		t.Fatal(err)
	}
	if cws.ctx.Workflow("w") != w {
		t.Fatal("Context.Workflow")
	}
	if cws.ctx.Workflow("nope") != nil {
		t.Fatal("unknown workflow should be nil")
	}
	if cws.ctx.Rank("nope", "a") != 0 {
		t.Fatal("unknown-workflow rank should be 0")
	}
	if cws.ctx.PredictRuntime("nope", "a", nil) != 0 {
		t.Fatal("unknown-workflow prediction should be 0")
	}
	if cws.ctx.PredictRuntime("w", "ghost", nil) != 0 {
		t.Fatal("unknown-task prediction should be 0")
	}

	names := map[string]Strategy{
		"fifo":       Baseline{},
		"rank":       Rank{},
		"heft":       HEFT{},
		"tarema":     Tarema{},
		"spread":     Spread{},
		"roundrobin": &RoundRobin{},
		"datalocal":  DataLocal{},
	}
	for want, s := range names {
		if s.Name() != want {
			t.Fatalf("strategy name = %q, want %q", s.Name(), want)
		}
	}
	pin := &pinStrategy{wantType: "x"}
	if pin.Name() != "pin/x" {
		t.Fatalf("pin name = %q", pin.Name())
	}
	adapter := &rmAdapter{cws: cws}
	if adapter.Name() != "cws/fifo" {
		t.Fatalf("adapter name = %q", adapter.Name())
	}
}

func TestPredictRuntimeFallsBackToNominal(t *testing.T) {
	eng := sim.NewEngine()
	cl := smallCluster(eng, 1, 4)
	cws := New(rm.NewTaskManager(cl, nil), Baseline{}, nil) // no predictor
	w := dag.New("w")
	w.Add(&dag.Task{ID: "t", Name: "t", NominalDur: 42, IOFrac: 0})
	cws.RegisterWorkflow("w", w)
	if got := cws.ctx.PredictRuntime("w", "t", cl.Nodes()[0]); got != 42 {
		t.Fatalf("fallback prediction = %v, want 42", got)
	}
}
