package rm

import (
	"fmt"
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

// BenchmarkSchedulePassBlocked measures one rm dispatch pass over a queue
// of 300 capacity-blocked submissions on the 118-node heterogeneous cluster
// of the dense workload (three CPU families plus GPU nodes). Capacity is
// fragmented across dimensions: even nodes have free cores but no free
// memory, odd nodes free memory (and GPUs) but one free core at most, so
// every segment's per-dimension maxima admit the pending shapes while no
// node fits any of them. Each pass is preceded by one release — the single
// core of a rotating odd node — and followed by re-taking it, so the queue
// stays blocked and every pass sees exactly one capacity gain. ns/pass is
// ns/op; the pass must allocate nothing.
func BenchmarkSchedulePassBlocked(b *testing.B) {
	eng := sim.NewEngine()
	cl := cluster.New(eng, "b",
		cluster.Spec{Type: cluster.NodeType{Name: "a", Cores: 8, MemBytes: 32e9}, Count: 34},
		cluster.Spec{Type: cluster.NodeType{Name: "b", Cores: 16, MemBytes: 64e9, SpeedFactor: 1.4}, Count: 34},
		cluster.Spec{Type: cluster.NodeType{Name: "c", Cores: 32, MemBytes: 128e9, SpeedFactor: 2}, Count: 34},
		cluster.Spec{Type: cluster.NodeType{Name: "g", Cores: 32, GPUs: 4, MemBytes: 256e9, SpeedFactor: 1.6}, Count: 16},
	)
	var odd []*cluster.Node
	for _, n := range cl.Nodes() {
		cores, mem := 0, n.Type.MemBytes
		if n.ID%2 == 1 {
			cores, mem = n.Type.Cores-1, 0
			odd = append(odd, n)
		}
		if _, err := cl.Allocate(n, cores, 0, mem); err != nil {
			b.Fatal(err)
		}
	}
	spare := make([]cluster.Alloc, len(odd)) // each odd node's last core
	for i, n := range odd {
		if err := cl.AllocateInto(&spare[i], n, 1, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	m := NewTaskManager(cl, nil)
	r := randx.New(11)
	for i := 0; i < 300; i++ {
		m.Submit(&Submission{
			ID: fmt.Sprintf("s%03d", i), Cores: 2 + r.Intn(15), GPUs: r.Intn(2) * r.Intn(5),
			Mem: float64(1+r.Intn(16)) * 2e9, Runtime: fixedRuntime(1),
		})
	}
	eng.Run() // the first pass finds every submission blocked
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(odd)
		cl.Release(&spare[k])
		m.schedule()
		if err := cl.AllocateInto(&spare[k], odd[k], 1, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if m.QueueLen() != 300 {
		b.Fatalf("%d submissions left pending, want all 300 blocked", m.QueueLen())
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/pass")
}
