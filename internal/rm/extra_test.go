package rm

import (
	"testing"
	"testing/quick"

	"hhcw/internal/dag"
	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

func TestTaskManagerAccessors(t *testing.T) {
	eng := sim.NewEngine()
	cl := testCluster(eng, 2, 4)
	m := NewTaskManager(cl, nil)
	if m.Cluster() != cl {
		t.Fatal("Cluster accessor wrong")
	}
	if m.Strategy().Name() != "fifo" {
		t.Fatalf("default strategy = %q", m.Strategy().Name())
	}
	m.SetStrategy(FIFO{})
	if m.QueueLen() != 0 {
		t.Fatal("fresh queue not empty")
	}
	m.Submit(&Submission{ID: "a", Cores: 8, Runtime: fixedRuntime(1)}) // too big for any node: queues
	eng.Run()
	if m.QueueLen() != 1 {
		t.Fatalf("oversized submission should stay queued, queue=%d", m.QueueLen())
	}
	if len(m.QueueWaits()) != 0 {
		t.Fatal("never-started task has no wait sample")
	}
	if m.QueueSeries().Value() != 1 {
		t.Fatalf("queue gauge = %v", m.QueueSeries().Value())
	}
}

func TestSubmitPanics(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(testCluster(eng, 1, 4), nil)
	for _, s := range []*Submission{
		{ID: "", Runtime: fixedRuntime(1)},
		{ID: "x"},
	} {
		s := s
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Submit(%+v) did not panic", s)
				}
			}()
			m.Submit(s)
		}()
	}
}

func TestNegativeRuntimeClamped(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(testCluster(eng, 1, 4), nil)
	var res Result
	m.Submit(&Submission{ID: "n", Cores: 1, Runtime: fixedRuntime(-5), Done: func(r Result) { res = r }})
	eng.Run()
	if res.FinishedAt != res.StartedAt {
		t.Fatalf("negative runtime not clamped: %v → %v", res.StartedAt, res.FinishedAt)
	}
}

func TestBatchQueueLen(t *testing.T) {
	eng := sim.NewEngine()
	m := NewBatchManager(testCluster(eng, 2, 4), nil)
	m.Submit(&BatchJob{ID: "a", Account: "x", Nodes: 2, Walltime: 100})
	m.Submit(&BatchJob{ID: "b", Account: "x", Nodes: 2, Walltime: 100})
	if m.QueueLen() != 2 {
		t.Fatalf("queue before scheduling = %d", m.QueueLen())
	}
	eng.RunUntil(1)
	if m.QueueLen() != 1 { // one granted, one waiting
		t.Fatalf("queue after grant = %d", m.QueueLen())
	}
	eng.Run()
}

// Property: after any random workflow run, every node's full capacity is
// restored (no allocation leaks through any completion path).
func TestRunRestoresCapacity(t *testing.T) {
	f := func(seed int64) bool {
		eng := sim.NewEngine()
		cl := testCluster(eng, 4, 8)
		m := NewTaskManager(cl, nil)
		w := dag.RandomLayered(randx.New(seed), 4, 6, dag.GenOpts{MeanDur: 50, Cores: 1, MaxCores: 4})
		newEagerRun(t, m, w, "p").run(t)
		for _, n := range cl.Nodes() {
			if n.FreeCores() != n.Type.Cores || n.FreeGPUs() != n.Type.GPUs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: makespan is never below the critical path and never above total
// serial work (for a single-node-capable workflow on a nonempty cluster).
func TestMakespanBounds(t *testing.T) {
	f := func(seed int64) bool {
		eng := sim.NewEngine()
		cl := testCluster(eng, 2, 8)
		m := NewTaskManager(cl, nil)
		w := dag.RandomLayered(randx.New(seed), 4, 5, dag.GenOpts{MeanDur: 50, Cores: 1, MaxCores: 2})
		ms := float64(newEagerRun(t, m, w, "p").run(t))
		cp, _ := w.CriticalPath(dag.NominalDur)
		serial := 0.0
		for _, task := range w.Tasks() {
			serial += task.NominalDur
		}
		return ms >= cp-1e-6 && ms <= serial+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRunningSeriesAndFIFOName(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(testCluster(eng, 1, 4), nil)
	if m.RunningSeries() == nil {
		t.Fatal("RunningSeries nil")
	}
	if (FIFO{}).Name() != "fifo" {
		t.Fatal("FIFO name")
	}
	if (FIFO{}).PickNode(nil, nil) != nil {
		t.Fatal("FIFO empty candidates")
	}
}
