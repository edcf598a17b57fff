package rm

import (
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

// BenchmarkTaskManagerWorkflow measures end-to-end scheduling of a ~400-task
// workflow on a 16-node cluster (one full virtual execution per iteration).
func BenchmarkTaskManagerWorkflow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		cl := cluster.New(eng, "b", cluster.Spec{
			Type:  cluster.NodeType{Name: "n", Cores: 16, MemBytes: 1e12},
			Count: 16,
		})
		mgr := NewTaskManager(cl, nil)
		w := dag.RandomLayered(randx.New(7), 10, 40, dag.GenOpts{MeanDur: 100})
		newEagerRun(b, mgr, w, "b").run(b)
	}
}

// BenchmarkBatchManagerChurn measures batch job grant/release cycles.
func BenchmarkBatchManagerChurn(b *testing.B) {
	eng := sim.NewEngine()
	cl := cluster.New(eng, "b", cluster.Spec{
		Type:  cluster.NodeType{Name: "n", Cores: 8, MemBytes: 64e9},
		Count: 64,
	})
	m := NewBatchManager(cl, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Submit(&BatchJob{
			ID: "j", Account: "a", Nodes: 8, Walltime: 1e6,
			OnStart: func(a *BatchAlloc) { eng.After(10, a.Release) },
		}); err != nil {
			b.Fatal(err)
		}
		eng.Run()
	}
}
