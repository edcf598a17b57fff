package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

func twoNodeCluster(eng *sim.Engine) *Cluster {
	return New(eng, "t", Spec{
		Type:  NodeType{Name: "n", Cores: 4, GPUs: 2, MemBytes: 100},
		Count: 2,
	})
}

func TestAllocateRelease(t *testing.T) {
	eng := sim.NewEngine()
	c := twoNodeCluster(eng)
	n := c.Nodes()[0]
	a, err := c.Allocate(n, 3, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if n.FreeCores() != 1 || n.FreeGPUs() != 1 || n.FreeMem() != 50 {
		t.Fatalf("free after alloc: %d cores %d gpus %v mem", n.FreeCores(), n.FreeGPUs(), n.FreeMem())
	}
	c.Release(a)
	if n.FreeCores() != 4 || n.FreeGPUs() != 2 || n.FreeMem() != 100 {
		t.Fatal("release did not restore capacity")
	}
	// Double release is a no-op.
	c.Release(a)
	if n.FreeCores() != 4 {
		t.Fatal("double release inflated capacity")
	}
}

func TestAllocateOverCapacity(t *testing.T) {
	eng := sim.NewEngine()
	c := twoNodeCluster(eng)
	n := c.Nodes()[0]
	if _, err := c.Allocate(n, 5, 0, 0); err == nil {
		t.Fatal("over-core allocation succeeded")
	}
	if _, err := c.Allocate(n, 0, 3, 0); err == nil {
		t.Fatal("over-GPU allocation succeeded")
	}
	if _, err := c.Allocate(n, 0, 0, 101); err == nil {
		t.Fatal("over-memory allocation succeeded")
	}
	if _, err := c.Allocate(n, -1, 0, 0); err == nil {
		t.Fatal("negative allocation succeeded")
	}
	// Failed allocations must not leak capacity.
	if n.FreeCores() != 4 || n.FreeGPUs() != 2 || n.FreeMem() != 100 {
		t.Fatal("failed allocation changed capacity")
	}
}

// Regression: Allocate and AllocateInto tested mem < 0, which is false for
// NaN, so a NaN request was granted and left the node's free memory NaN —
// after which every memory comparison passed and a 10 GB node took two 8 GB
// allocations. NaN is now rejected and leaves the node untouched.
func TestAllocateRejectsNaNMemory(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, "t", Spec{Type: NodeType{Name: "n", Cores: 4, MemBytes: 10e9}, Count: 1})
	n := c.Nodes()[0]
	if _, err := c.Allocate(n, 1, 0, math.NaN()); err == nil {
		t.Fatal("Allocate granted a NaN memory request")
	}
	dst := Alloc{Cores: -7}
	if err := c.AllocateInto(&dst, n, 1, 0, math.NaN()); err == nil || dst.Cores != -7 {
		t.Fatalf("AllocateInto with NaN memory: err %v, dst %+v", err, dst)
	}
	if n.FreeCores() != 4 || n.FreeMem() != 10e9 {
		t.Fatalf("rejected requests changed the node: %d cores, %v mem free", n.FreeCores(), n.FreeMem())
	}
	if _, err := c.Allocate(n, 1, 0, 8e9); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Allocate(n, 1, 0, 8e9); err == nil {
		t.Fatal("a 10 GB node granted two 8 GB allocations")
	}
}

func TestFailNode(t *testing.T) {
	eng := sim.NewEngine()
	c := twoNodeCluster(eng)
	n := c.Nodes()[0]
	var failed *Node
	c.OnNodeDown(func(x *Node) { failed = x })
	c.FailNode(n)
	if failed != n {
		t.Fatal("OnNodeDown not invoked")
	}
	if !n.Down() {
		t.Fatal("node not marked down")
	}
	if _, err := c.Allocate(n, 1, 0, 0); err == nil {
		t.Fatal("allocation on down node succeeded")
	}
	if got := len(c.UpNodes()); got != 1 {
		t.Fatalf("UpNodes = %d, want 1", got)
	}
	c.RepairNode(n)
	if n.Down() || n.FreeCores() != 4 {
		t.Fatal("repair did not restore node")
	}
}

func TestUtilization(t *testing.T) {
	eng := sim.NewEngine()
	c := twoNodeCluster(eng) // 8 cores total
	n := c.Nodes()[0]
	var a *Alloc
	eng.At(0, func() { a, _ = c.Allocate(n, 4, 0, 0) })
	eng.At(10, func() { c.Release(a) })
	eng.At(20, func() {})
	eng.Run()
	// 4 cores for 10s out of 8 cores for 20s = 0.25.
	if got := c.Utilization(0, 20); got != 0.25 {
		t.Fatalf("Utilization = %v, want 0.25", got)
	}
}

func TestGPUUtilization(t *testing.T) {
	eng := sim.NewEngine()
	c := twoNodeCluster(eng) // 4 GPUs total
	n := c.Nodes()[0]
	var a *Alloc
	eng.At(0, func() { a, _ = c.Allocate(n, 0, 2, 0) })
	eng.At(5, func() { c.Release(a) })
	eng.At(10, func() {})
	eng.Run()
	if got := c.GPUUtilization(0, 10); got != 0.25 {
		t.Fatalf("GPUUtilization = %v, want 0.25", got)
	}
}

func TestFaultInjectorCount(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, "t", Spec{Type: NodeType{Name: "n", Cores: 1}, Count: 50})
	fi := NewFaultInjector(c, randx.New(1))
	failed := fi.ScheduleNodeFailures(5, 100)
	if len(failed) != 5 {
		t.Fatalf("planned %d failures, want 5", len(failed))
	}
	eng.Run()
	down := 0
	for _, n := range c.Nodes() {
		if n.Down() {
			down++
		}
	}
	if down != 5 {
		t.Fatalf("%d nodes down, want 5", down)
	}
	// Distinct nodes.
	seen := map[int]bool{}
	for _, n := range failed {
		if seen[n.ID] {
			t.Fatal("duplicate node failed")
		}
		seen[n.ID] = true
	}
}

func TestFaultInjectorClampsToClusterSize(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, "t", Spec{Type: NodeType{Name: "n", Cores: 1}, Count: 3})
	fi := NewFaultInjector(c, randx.New(2))
	if got := len(fi.ScheduleNodeFailures(10, 100)); got != 3 {
		t.Fatalf("clamped failures = %d, want 3", got)
	}
}

func TestFrontierShape(t *testing.T) {
	eng := sim.NewEngine()
	c := Frontier(eng, 8000)
	if c.TotalCores() != 448000 {
		t.Fatalf("Frontier cores = %d, want 448000", c.TotalCores())
	}
	if c.TotalGPUs() != 64000 {
		t.Fatalf("Frontier GPUs = %d, want 64000", c.TotalGPUs())
	}
}

func TestHeterogeneousFactors(t *testing.T) {
	eng := sim.NewEngine()
	c := Heterogeneous(eng, 2)
	if c.NodeCount() != 6 {
		t.Fatalf("NodeCount = %d", c.NodeCount())
	}
	if len(c.Types()) != 3 {
		t.Fatalf("Types = %d", len(c.Types()))
	}
	if c.Types()[0].SpeedFactor >= c.Types()[2].SpeedFactor {
		t.Fatal("expected increasing speed factors")
	}
}

func TestDefaultFactorsFillIn(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, "t", Spec{Type: NodeType{Name: "n", Cores: 1}, Count: 1})
	nt := c.Types()[0]
	if nt.SpeedFactor != 1 || nt.IOFactor != 1 {
		t.Fatalf("default factors = %v/%v, want 1/1", nt.SpeedFactor, nt.IOFactor)
	}
}

// Property: any sequence of valid allocate/release pairs conserves capacity.
func TestCapacityConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		eng := sim.NewEngine()
		c := New(eng, "t", Spec{Type: NodeType{Name: "n", Cores: 10, GPUs: 4, MemBytes: 1000}, Count: 3})
		var live []*Alloc
		for _, op := range ops {
			n := c.Nodes()[int(op)%3]
			if op%2 == 0 {
				cores := int(op/2)%4 + 1
				if a, err := c.Allocate(n, cores, int(op)%2, float64(op)); err == nil {
					live = append(live, a)
				}
			} else if len(live) > 0 {
				c.Release(live[len(live)-1])
				live = live[:len(live)-1]
			}
		}
		for _, a := range live {
			c.Release(a)
		}
		for _, n := range c.Nodes() {
			if n.FreeCores() != 10 || n.FreeGPUs() != 4 || n.FreeMem() != 1000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestClusterAccessors(t *testing.T) {
	eng := sim.NewEngine()
	c := twoNodeCluster(eng)
	if c.Engine() != eng {
		t.Fatal("Engine accessor")
	}
	if c.UsedCoresSeries() == nil || c.UsedGPUsSeries() == nil {
		t.Fatal("series accessors nil")
	}
	if c.Utilization(5, 5) != 0 || c.GPUUtilization(5, 5) != 0 {
		t.Fatal("zero-window utilization should be 0")
	}
}
