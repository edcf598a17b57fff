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

// blockedQueue builds 300 capacity-blocked submissions on the 118-node
// heterogeneous cluster of the dense workload (three CPU families plus GPU
// nodes). Capacity is fragmented across dimensions: even nodes have free
// cores but no free memory, odd nodes free memory (and GPUs) but one free
// core at most, so every segment's per-dimension maxima admit the pending
// shapes while no node fits any of them. spare[k] holds the last core of
// odd[k]. The first pass has run and found every submission blocked. A lean
// setup folds the cluster's and the manager's metric series first.
func blockedQueue(tb testing.TB, lean bool) (cl *cluster.Cluster, m *TaskManager, odd []*cluster.Node, spare []cluster.Alloc) {
	eng := sim.NewEngine()
	cl = cluster.New(eng, "b",
		cluster.Spec{Type: cluster.NodeType{Name: "a", Cores: 8, MemBytes: 32e9}, Count: 34},
		cluster.Spec{Type: cluster.NodeType{Name: "b", Cores: 16, MemBytes: 64e9, SpeedFactor: 1.4}, Count: 34},
		cluster.Spec{Type: cluster.NodeType{Name: "c", Cores: 32, MemBytes: 128e9, SpeedFactor: 2}, Count: 34},
		cluster.Spec{Type: cluster.NodeType{Name: "g", Cores: 32, GPUs: 4, MemBytes: 256e9, SpeedFactor: 1.6}, Count: 16},
	)
	if lean {
		cl.FoldMetrics()
	}
	for _, n := range cl.Nodes() {
		cores, mem := 0, n.Type.MemBytes
		if n.ID%2 == 1 {
			cores, mem = n.Type.Cores-1, 0
			odd = append(odd, n)
		}
		if _, err := cl.Allocate(n, cores, 0, mem); err != nil {
			tb.Fatal(err)
		}
	}
	spare = make([]cluster.Alloc, len(odd))
	for i, n := range odd {
		if err := cl.AllocateInto(&spare[i], n, 1, 0, 0); err != nil {
			tb.Fatal(err)
		}
	}
	m = NewTaskManager(cl, nil)
	if lean {
		m.SetLean()
	}
	r := randx.New(11)
	for i := 0; i < 300; i++ {
		m.Submit(&Submission{
			ID: fmt.Sprintf("s%03d", i), Cores: 2 + r.Intn(15), GPUs: r.Intn(2) * r.Intn(5),
			Mem: float64(1+r.Intn(16)) * 2e9, Runtime: fixedRuntime(1),
		})
	}
	eng.Run()
	return cl, m, odd, spare
}

// BenchmarkSchedulePassBlocked measures one rm dispatch pass over the
// blocked queue of blockedQueue. Each pass is preceded by one release — the
// single core of a rotating odd node — and followed by re-taking it, so the
// queue stays blocked and every pass sees exactly one capacity gain.
// ns/pass is ns/op; the pass must allocate nothing.
func BenchmarkSchedulePassBlocked(b *testing.B) {
	cl, m, odd, spare := blockedQueue(b, false)
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

// TestWarmFIFOPassAllocatesNothing holds a warm FIFO pass to zero
// allocations: over the blocked queue of blockedQueue, a one-core
// submission that needs memory blocks in one pass, a single release of an
// odd node's last core wakes it, and the next pass places it there. The
// submission is then aborted and the core re-taken, so every round repeats
// the same blocked pass, gain and placement.
func TestWarmFIFOPassAllocatesNothing(t *testing.T) {
	cl, m, odd, spare := blockedQueue(t, true)
	eng := cl.Engine()
	m.schedulePending = true // kicks queue no pass: each round runs its own
	fit := &Submission{ID: "fit", Cores: 1, Mem: 1e9, Runtime: fixedRuntime(5)}
	errAbort := fmt.Errorf("round over")
	round := 0
	allocs := testing.AllocsPerRun(200, func() {
		k := round % len(odd)
		round++
		m.Submit(fit)
		m.schedule()
		if len(m.running) != 0 {
			t.Fatalf("round %d: the submission placed before any gain", round)
		}
		cl.Release(&spare[k])
		m.schedule()
		if len(m.running) != 1 || m.running[0].alloc.Node != odd[k] {
			t.Fatalf("round %d: the gain on %s did not place the submission there", round, odd[k].Name())
		}
		m.Abort("fit", errAbort)
		if err := cl.AllocateInto(&spare[k], odd[k], 1, 0, 0); err != nil {
			t.Fatal(err)
		}
		eng.Run() // discard the aborted completion event
	})
	if allocs != 0 {
		t.Fatalf("a warm FIFO round made %v allocations, want 0", allocs)
	}
	if m.QueueLen() != 300 {
		t.Fatalf("%d submissions pending, want the 300 blocked ones", m.QueueLen())
	}
}
