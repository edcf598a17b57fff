package cluster

import (
	"slices"
	"testing"

	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

// The capacity index must be indistinguishable from a naive rescan of the
// node array at every moment — the scheduler's determinism guarantee rests
// on it. These tests drive random mutation tapes (allocate / release / fail
// / repair, including a full-outage storm) and compare every query form
// against the rescan oracle, plus a structural invariant check that
// recomputes the segment tree from the leaves.

func oracleFeasible(c *Cluster, cores, gpus int, mem float64) []*Node {
	var out []*Node
	for _, n := range c.Nodes() {
		if n.Down() {
			continue
		}
		if n.FreeCores() >= cores && n.FreeGPUs() >= gpus && n.FreeMem() >= mem {
			out = append(out, n)
		}
	}
	return out
}

func oracleIdle(c *Cluster) []*Node {
	var out []*Node
	for _, n := range c.Nodes() {
		if !n.Down() && n.FreeCores() == n.Type.Cores {
			out = append(out, n)
		}
	}
	return out
}

func sameNodes(a, b []*Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkIndexInvariants rebuilds every internal segment from the leaves and
// compares it against the incrementally maintained tree, capacity-gain
// stamps included: a real leaf's stamp lies in [builtClock, clock], padding
// leaves stay at 0, and each segment holds its children's maximum.
func checkIndexInvariants(t *testing.T, c *Cluster) {
	t.Helper()
	ix := c.idx
	for p := ix.base; p < 2*ix.base; p++ {
		g := ix.gained[p]
		if p-ix.base >= len(ix.nodes) {
			if g != 0 {
				t.Fatalf("padding leaf %d stamped %d", p-ix.base, g)
			}
		} else if g < builtClock || g > ix.clock {
			t.Fatalf("leaf %d stamp %d outside [%d, %d]", p-ix.base, g, builtClock, ix.clock)
		}
	}
	// Leaves must mirror the node free counters (down nodes contribute zero).
	for i, n := range ix.nodes {
		p := ix.base + i
		wantCores, wantGPUs, wantMem, wantIdle := 0, 0, 0.0, uint8(0)
		if !n.down {
			wantCores, wantGPUs, wantMem = n.freeCores, n.freeGPUs, n.freeMem
			if n.freeCores == n.Type.Cores {
				wantIdle = 1
			}
		}
		if ix.maxCores[p] != wantCores || ix.maxGPUs[p] != wantGPUs ||
			ix.maxMem[p] != wantMem || ix.anyIdle[p] != wantIdle {
			t.Fatalf("leaf %d stale: (%d,%d,%v,%d), node has (%d,%d,%v,%d)",
				i, ix.maxCores[p], ix.maxGPUs[p], ix.maxMem[p], ix.anyIdle[p],
				wantCores, wantGPUs, wantMem, wantIdle)
		}
	}
	for i := ix.base - 1; i >= 1; i-- {
		l, r := 2*i, 2*i+1
		maxI := func(a, b int) int {
			if a > b {
				return a
			}
			return b
		}
		maxF := func(a, b float64) float64 {
			if a > b {
				return a
			}
			return b
		}
		if ix.maxCores[i] != maxI(ix.maxCores[l], ix.maxCores[r]) ||
			ix.maxGPUs[i] != maxI(ix.maxGPUs[l], ix.maxGPUs[r]) ||
			ix.maxMem[i] != maxF(ix.maxMem[l], ix.maxMem[r]) ||
			ix.anyIdle[i] != ix.anyIdle[l]|ix.anyIdle[r] ||
			ix.gained[i] != max(ix.gained[l], ix.gained[r]) {
			t.Fatalf("segment %d inconsistent with children", i)
		}
	}
}

// compareAllQueries checks every query form against the oracle for a set of
// request shapes spanning trivial to infeasible.
func compareAllQueries(t *testing.T, c *Cluster) {
	t.Helper()
	shapes := []struct {
		cores, gpus int
		mem         float64
	}{
		{1, 0, 0},
		{2, 1, 8e9},
		{8, 0, 32e9},
		{16, 2, 64e9},
		{1000, 0, 0}, // infeasible everywhere
	}
	for _, q := range shapes {
		want := oracleFeasible(c, q.cores, q.gpus, q.mem)
		got := c.AppendCandidates(nil, q.cores, q.gpus, q.mem)
		if !sameNodes(want, got) {
			t.Fatalf("AppendCandidates(%d,%d,%v) = %d nodes, oracle %d",
				q.cores, q.gpus, q.mem, len(got), len(want))
		}
	}
	wantIdle := oracleIdle(c)
	if got := c.AppendIdleNodes(nil); !sameNodes(wantIdle, got) {
		t.Fatalf("AppendIdleNodes = %d nodes, oracle %d", len(got), len(wantIdle))
	}
}

func TestIndexMatchesRescanUnderChaos(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		eng := sim.NewEngine()
		c := Heterogeneous(eng, 7) // 21 nodes, 3 families, not a power of two
		r := randx.New(seed)
		var live []*Alloc
		for op := 0; op < 600; op++ {
			switch r.Intn(5) {
			case 0, 1: // allocate (twice the weight: keeps the cluster busy)
				n := c.Nodes()[r.Intn(c.NodeCount())]
				a, err := c.Allocate(n, 1+r.Intn(8), r.Intn(3), float64(r.Intn(16))*4e9)
				if err == nil {
					live = append(live, a)
				}
			case 2: // release
				if len(live) > 0 {
					i := r.Intn(len(live))
					c.Release(live[i])
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			case 3: // node failure
				c.FailNode(c.Nodes()[r.Intn(c.NodeCount())])
			case 4: // repair
				c.RepairNode(c.Nodes()[r.Intn(c.NodeCount())])
			}
			compareAllQueries(t, c)
			if op%100 == 0 {
				checkIndexInvariants(t, c)
			}
		}
		checkIndexInvariants(t, c)
	}
}

// TestIndexStormProfile is the correlated-failure profile: every node fails,
// then everything is repaired at once, with straggling releases of revoked
// allocations in between — the sequence most likely to desynchronize an
// incremental index from the truth.
func TestIndexStormProfile(t *testing.T) {
	eng := sim.NewEngine()
	c := Heterogeneous(eng, 6) // 18 nodes
	r := randx.New(99)
	var live []*Alloc
	for i := 0; i < 40; i++ {
		n := c.Nodes()[r.Intn(c.NodeCount())]
		if a, err := c.Allocate(n, 1+r.Intn(4), 0, 1e9); err == nil {
			live = append(live, a)
		}
	}
	for _, n := range c.Nodes() {
		c.FailNode(n)
		compareAllQueries(t, c)
	}
	if got := c.AppendCandidates(nil, 1, 0, 0); len(got) != 0 {
		t.Fatalf("storm: %d candidates on a fully failed cluster", len(got))
	}
	if got := c.AppendIdleNodes(nil); len(got) != 0 {
		t.Fatalf("storm: %d idle nodes on a fully failed cluster", len(got))
	}
	checkIndexInvariants(t, c)
	// Straggling releases of revoked allocations must not resurrect capacity.
	for _, a := range live[:len(live)/2] {
		c.Release(a)
		compareAllQueries(t, c)
	}
	for _, n := range c.Nodes() {
		c.RepairNode(n)
		compareAllQueries(t, c)
	}
	// Remaining stragglers release after repair; the epoch check must keep
	// them from crediting the reset counters.
	for _, a := range live[len(live)/2:] {
		c.Release(a)
		compareAllQueries(t, c)
	}
	checkIndexInvariants(t, c)
	if got := c.AppendIdleNodes(nil); len(got) != c.NodeCount() {
		t.Fatalf("after full repair %d/%d nodes idle", len(got), c.NodeCount())
	}
}

// gpuCluster is a 13-node, three-family cluster with GPUs on two families,
// so request shapes can be blocked on any one dimension.
func gpuCluster(eng *sim.Engine) *Cluster {
	return New(eng, "g",
		Spec{Type: NodeType{Name: "a", Cores: 8, MemBytes: 32e9}, Count: 5},
		Spec{Type: NodeType{Name: "b", Cores: 16, GPUs: 2, MemBytes: 64e9}, Count: 5},
		Spec{Type: NodeType{Name: "c", Cores: 32, GPUs: 4, MemBytes: 128e9}, Count: 3},
	)
}

// checkBuiltState fails unless c's capacity index — maxima, idle flags,
// clock and stamps — equals that of a freshly built cluster of its shape.
func checkBuiltState(t *testing.T, c *Cluster, fresh *Cluster) {
	t.Helper()
	a, b := c.idx, fresh.idx
	if a.clock != b.clock || !slices.Equal(a.gained, b.gained) ||
		!slices.Equal(a.maxCores, b.maxCores) || !slices.Equal(a.maxGPUs, b.maxGPUs) ||
		!slices.Equal(a.maxMem, b.maxMem) || !slices.Equal(a.anyIdle, b.anyIdle) {
		t.Fatalf("index after Reset differs from a fresh build (clock %d vs %d)", a.clock, b.clock)
	}
}

// TestGainClockSinceQueryMatchesRescan drives random tapes of Allocate,
// Release, FailNode, RepairNode, rolled-back AllocateAll and Reset. Every
// request shape found infeasible at clock c is remembered; after every later
// op, AppendCandidatesSince(shape, c) must equal the full-rescan oracle —
// the exactness claim the dispatch pass relies on.
func TestGainClockSinceQueryMatchesRescan(t *testing.T) {
	shapes := []struct {
		cores, gpus int
		mem         float64
	}{
		{1, 0, 0},
		{4, 0, 16e9},
		{8, 1, 32e9},
		{12, 2, 48e9},
		{16, 2, 64e9},
		{24, 3, 100e9},
		{32, 4, 128e9},
		{40, 0, 0}, // larger than every node
	}
	type blocked struct {
		shape int
		since uint64
	}
	for seed := int64(1); seed <= 6; seed++ {
		eng := sim.NewEngine()
		c := gpuCluster(eng)
		r := randx.New(seed)
		var live []*Alloc
		var marks []blocked
		checks := 0
		for op := 0; op < 800; op++ {
			switch k := r.Intn(20); {
			case k < 8: // allocate
				n := c.Nodes()[r.Intn(c.NodeCount())]
				if a, err := c.Allocate(n, 1+r.Intn(12), r.Intn(3), float64(r.Intn(12))*8e9); err == nil {
					live = append(live, a)
				}
			case k < 13: // release
				if len(live) > 0 {
					i := r.Intn(len(live))
					c.Release(live[i])
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			case k < 15:
				c.FailNode(c.Nodes()[r.Intn(c.NodeCount())])
			case k < 17:
				c.RepairNode(c.Nodes()[r.Intn(c.NodeCount())])
			case k < 19: // AllocateAll whose last node is not wholly free: rolls back
				var list []*Node
				for _, n := range c.Nodes() {
					if !n.Down() && n.FreeCores() == n.Type.Cores && n.FreeGPUs() == n.Type.GPUs &&
						n.FreeMem() == n.Type.MemBytes && len(list) < 3 {
						list = append(list, n)
					}
				}
				var busy *Node
				for _, n := range c.Nodes() {
					if n.Down() || n.FreeCores() < n.Type.Cores {
						busy = n
						break
					}
				}
				if busy == nil {
					continue
				}
				before := c.CapacityClock()
				if _, err := c.AllocateAll(append(list, busy)); err == nil {
					t.Fatalf("seed %d: AllocateAll onto busy node %s succeeded", seed, busy.Name())
				}
				if got, want := c.CapacityClock(), before+uint64(len(list)); got != want {
					t.Fatalf("seed %d: rollback of %d grants moved the clock %d→%d, want %d",
						seed, len(list), before, got, want)
				}
			default: // Reset: outstanding allocations and blocked marks are void
				c.Reset()
				checkBuiltState(t, c, gpuCluster(sim.NewEngine()))
				live, marks = live[:0], marks[:0]
			}
			for _, m := range marks {
				q := shapes[m.shape]
				want := oracleFeasible(c, q.cores, q.gpus, q.mem)
				got := c.AppendCandidatesSince(nil, q.cores, q.gpus, q.mem, m.since)
				if !sameNodes(want, got) {
					t.Fatalf("seed %d op %d: AppendCandidatesSince(%v, %d) = %d nodes, rescan %d",
						seed, op, q, m.since, len(got), len(want))
				}
				checks++
			}
			// Remember every shape infeasible now; keep the mark list bounded
			// by evicting a random old mark.
			for i, q := range shapes {
				if len(oracleFeasible(c, q.cores, q.gpus, q.mem)) > 0 {
					continue
				}
				m := blocked{i, c.CapacityClock()}
				if slices.Contains(marks, m) {
					continue
				}
				if len(marks) == 48 {
					marks[r.Intn(len(marks))] = m
				} else {
					marks = append(marks, m)
				}
			}
			if op%50 == 0 {
				checkIndexInvariants(t, c)
			}
		}
		checkIndexInvariants(t, c)
		if checks < 1000 {
			t.Fatalf("seed %d: only %d since-queries checked", seed, checks)
		}
	}
}

// TestAppendQueriesLeafOrder pins the query output order on a fresh
// cluster: every node, ascending ID, for both query forms; a since-query at
// the built clock returns nothing until a node gains capacity.
func TestAppendQueriesLeafOrder(t *testing.T) {
	eng := sim.NewEngine()
	c := Heterogeneous(eng, 4)
	for _, got := range [][]*Node{c.AppendCandidates(nil, 1, 0, 0), c.AppendIdleNodes(nil)} {
		if !sameNodes(got, c.Nodes()) {
			t.Fatalf("fresh cluster query returned %d nodes out of order, want all %d", len(got), c.NodeCount())
		}
	}
	clk := c.CapacityClock()
	if got := c.AppendCandidatesSince(nil, 1, 0, 0, clk); len(got) != 0 {
		t.Fatalf("since-query at the current clock returned %d nodes", len(got))
	}
	n := c.Nodes()[5]
	a, err := c.Allocate(n, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.CapacityClock() != clk {
		t.Fatalf("Allocate advanced the clock")
	}
	c.Release(a)
	if got := c.AppendCandidatesSince(nil, 1, 0, 0, clk); !sameNodes(got, []*Node{n}) {
		t.Fatalf("since-query after one release returned %d nodes, want only %s", len(got), n.Name())
	}
}

// TestFirstCandidateSinceMatchesAppend drives random tapes of Allocate,
// Release, FailNode and RepairNode and checks, after every op, for every
// shape and for since values from 0 to the current clock, that
// FirstCandidateSince returns AppendCandidatesSince's first node, or nil
// when that query returns none.
func TestFirstCandidateSinceMatchesAppend(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		c := gpuCluster(sim.NewEngine())
		r := randx.New(seed * 31)
		var live []*Alloc
		found, empty := 0, 0
		for op := 0; op < 500; op++ {
			switch k := r.Intn(10); {
			case k < 4:
				n := c.Nodes()[r.Intn(c.NodeCount())]
				if a, err := c.Allocate(n, 1+r.Intn(12), r.Intn(3), float64(r.Intn(12))*8e9); err == nil {
					live = append(live, a)
				}
			case k < 7:
				if len(live) > 0 {
					i := r.Intn(len(live))
					c.Release(live[i])
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			case k < 9:
				c.FailNode(c.Nodes()[r.Intn(c.NodeCount())])
			default:
				c.RepairNode(c.Nodes()[r.Intn(c.NodeCount())])
			}
			clock := c.CapacityClock()
			for _, since := range []uint64{0, clock / 2, max(clock, 4) - 4, clock - 1, clock} {
				for q := 0; q < 8; q++ {
					cores, gpus, mem := 1+r.Intn(32), r.Intn(5), float64(r.Intn(16))*8e9
					all := c.AppendCandidatesSince(nil, cores, gpus, mem, since)
					var want *Node
					if len(all) > 0 {
						want = all[0]
						found++
					} else {
						empty++
					}
					if got := c.FirstCandidateSince(cores, gpus, mem, since); got != want {
						t.Fatalf("seed %d op %d: FirstCandidateSince(%d, %d, %v, %d) = %v, want %v",
							seed, op, cores, gpus, mem, since, got, want)
					}
				}
			}
		}
		if found < 1000 || empty < 1000 {
			t.Fatalf("seed %d: %d queries found a node, %d found none; want both common", seed, found, empty)
		}
	}
}

// loadedCluster is the 118-node heterogeneous cluster of the dense workload
// (three CPU families plus GPU nodes) with about two thirds of its cores
// taken by random allocations, and the request shapes dense draws.
func loadedCluster() (*Cluster, [][3]float64) {
	c := New(sim.NewEngine(), "b",
		Spec{Type: NodeType{Name: "a", Cores: 8, MemBytes: 32e9}, Count: 34},
		Spec{Type: NodeType{Name: "b", Cores: 16, MemBytes: 64e9, SpeedFactor: 1.4}, Count: 34},
		Spec{Type: NodeType{Name: "c", Cores: 32, MemBytes: 128e9, SpeedFactor: 2}, Count: 34},
		Spec{Type: NodeType{Name: "g", Cores: 32, GPUs: 4, MemBytes: 256e9, SpeedFactor: 1.6}, Count: 16},
	)
	r := randx.New(5)
	for used := 0; used < 2*c.TotalCores()/3; {
		n := c.Nodes()[r.Intn(c.NodeCount())]
		cores := 1 + r.Intn(8)
		if _, err := c.Allocate(n, cores, 0, float64(1+r.Intn(8))*4e9); err == nil {
			used += cores
		}
	}
	shapes := make([][3]float64, 64)
	for i := range shapes {
		gpus := 0
		if r.Float64() < 0.1 {
			gpus = 1 + r.Intn(2)
		}
		shapes[i] = [3]float64{float64(1 + r.Intn(8)), float64(gpus), float64(1+r.Intn(8)) * 4e9}
	}
	return c, shapes
}

// BenchmarkAppendCandidatesSince measures the full candidate query the walk
// path makes per pending submission, over dense's shapes on a loaded
// cluster.
func BenchmarkAppendCandidatesSince(b *testing.B) {
	c, shapes := loadedCluster()
	var dst []*Node
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := shapes[i%len(shapes)]
		dst = c.AppendCandidatesSince(dst[:0], int(q[0]), int(q[1]), q[2], 0)
	}
}

// BenchmarkFirstCandidateSince measures the first-fit query the bucketed
// FIFO path makes per bucket head, on the same cluster and shapes.
func BenchmarkFirstCandidateSince(b *testing.B) {
	c, shapes := loadedCluster()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := shapes[i%len(shapes)]
		c.FirstCandidateSince(int(q[0]), int(q[1]), q[2], 0)
	}
}
