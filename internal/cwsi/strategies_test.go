package cwsi

import (
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

func TestSpreadPicksLeastAllocated(t *testing.T) {
	eng := sim.NewEngine()
	cl := cluster.New(eng, "s", cluster.Spec{
		Type:  cluster.NodeType{Name: "n", Cores: 4, MemBytes: 64e9},
		Count: 2,
	})
	// Pre-load node 0 with 3 cores.
	if _, err := cl.Allocate(cl.Nodes()[0], 3, 0, 0); err != nil {
		t.Fatal(err)
	}
	got := Spread{}.PickNode(nil, cl.Nodes(), nil)
	if got != cl.Nodes()[1] {
		t.Fatalf("Spread picked %s, want the emptier node", got.Name())
	}
}

func TestRoundRobinRotates(t *testing.T) {
	eng := sim.NewEngine()
	cl := cluster.New(eng, "s", cluster.Spec{
		Type:  cluster.NodeType{Name: "n", Cores: 4, MemBytes: 64e9},
		Count: 3,
	})
	rr := &RoundRobin{}
	seen := map[int]int{}
	for i := 0; i < 9; i++ {
		n := rr.PickNode(nil, cl.Nodes(), nil)
		seen[n.ID]++
	}
	for id, count := range seen {
		if count != 3 {
			t.Fatalf("node %d picked %d times, want 3 (uniform rotation)", id, count)
		}
	}
	if rr.PickNode(nil, nil, nil) != nil {
		t.Fatal("empty candidates should give nil")
	}
}

func TestSpreadRunsWorkflow(t *testing.T) {
	eng := sim.NewEngine()
	cl := cluster.New(eng, "s", cluster.Spec{
		Type:  cluster.NodeType{Name: "n", Cores: 4, MemBytes: 64e9},
		Count: 2,
	})
	cws := New(rm.NewTaskManager(cl, nil), Spread{}, nil)
	w := dag.New("w")
	w.Add(&dag.Task{ID: "a", Name: "a", NominalDur: 10})
	w.Add(&dag.Task{ID: "b", Name: "b", NominalDur: 10})
	if err := cws.RegisterWorkflow("w", w); err != nil {
		t.Fatal(err)
	}
	if _, err := cws.RunWorkflow("w"); err != nil {
		t.Fatal(err)
	}
	// Two independent tasks spread across both nodes.
	recs := cws.Provenance().ByWorkflow("w")
	if recs[0].Node == recs[1].Node {
		t.Fatalf("spread put both tasks on %s", recs[0].Node)
	}
}

func TestDataLocalVsRoundRobinOnChains(t *testing.T) {
	mk := func(strategy Strategy) sim.Time {
		eng := sim.NewEngine()
		cl := cluster.New(eng, "d", cluster.Spec{
			Type:  cluster.NodeType{Name: "n", Cores: 2, MemBytes: 64e9},
			Count: 4,
		})
		cws := New(rm.NewTaskManager(cl, nil), strategy, nil)
		cws.SetDataBandwidth(100e6)
		w := dataChain(4, 10e9)
		if err := cws.RegisterWorkflow("w", w); err != nil {
			t.Fatal(err)
		}
		ms, err := cws.RunWorkflow("w")
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	rr := mk(&RoundRobin{})
	local := mk(DataLocal{})
	if local >= rr {
		t.Fatalf("datalocal (%v) should beat round-robin (%v) on data chains", local, rr)
	}
	if local != 400 { // 4 stages, all local
		t.Fatalf("datalocal makespan = %v, want 400", local)
	}
}
