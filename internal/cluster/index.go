package cluster

// Incrementally maintained free-capacity index. Scheduling a dense pending
// queue previously rescanned every node per submission — O(pending × nodes)
// per dispatch round. The index is a binary segment tree over the node array
// (leaves in node-ID order); each internal segment stores the per-dimension
// maxima (free cores, free GPUs, free memory) of its subtree, with down
// nodes contributing zero capacity, plus a "whole node idle" flag for the
// batch manager's node-granular backfill.
//
// Queries descend only into segments whose maxima can satisfy the request,
// so they visit feasible nodes in exactly the order the old full scan did —
// ascending node ID — which is what keeps first-fit, round-robin, and every
// other deterministic tie-break byte-identical to the rescan kernel. Updates
// are O(log n) and hang off the only four mutation points (Allocate,
// Release, FailNode, RepairNode), so the tree can never drift from the
// per-node free counters it summarizes.
//
// Capacity-gain clock. Without it, most of a dense dispatch pass re-proves
// that submissions which fit nowhere last pass still fit nowhere. The index
// therefore keeps a monotone clock that advances on every capacity
// gain — a credited Release or a RepairNode — stamps the gaining node's
// leaf with the new value, and keeps per segment the maximum stamp below
// it. Allocations and failures only remove capacity and stamp nothing. The
// since-query prunes every segment whose stamp is ≤ since. It is exact for
// a shape that was infeasible everywhere at clock since: a node that has
// not gained capacity after that moment has only lost capacity or gone
// down, so it still cannot fit the shape, and every node that can fit it
// now carries a later stamp. The since-query then returns the same nodes in
// the same ID order as the full query, at the cost of descending only the
// paths of nodes that gained capacity since.
type capIndex struct {
	nodes []*Node // leaves, in ID order
	base  int     // first leaf position (power of two ≥ len(nodes))

	// Per-segment maxima over the subtree, indexed like a binary heap:
	// segment i has children 2i and 2i+1; leaves start at base.
	maxCores []int
	maxGPUs  []int
	maxMem   []float64
	// anyIdle is 1 when some subtree leaf is an up node with every core
	// free — the batch manager's definition of a free node.
	anyIdle []uint8
	// gained is the largest capacity-gain stamp over the subtree; clock is
	// the latest stamp handed out. Real leaves start at builtClock and
	// padding leaves at 0, so the since = 0 query prunes padding only.
	gained []uint64
	clock  uint64
}

// builtClock is the clock of a freshly built (or Reset) index.
const builtClock = 1

func newCapIndex(nodes []*Node) *capIndex {
	base := 1
	for base < len(nodes) {
		base *= 2
	}
	ix := &capIndex{
		nodes:    nodes,
		base:     base,
		maxCores: make([]int, 2*base),
		maxGPUs:  make([]int, 2*base),
		maxMem:   make([]float64, 2*base),
		anyIdle:  make([]uint8, 2*base),
		gained:   make([]uint64, 2*base),
	}
	ix.reset()
	return ix
}

// reset rebuilds the whole tree in place over the same backing arrays — at
// construction and after the node ledger has been bulk-reset — restoring
// the built clock and stamps. Padding leaves past len(nodes) were zeroed at
// construction and are never written, so they stay correct.
func (ix *capIndex) reset() {
	ix.clock = builtClock
	for i, n := range ix.nodes {
		ix.gained[ix.base+i] = builtClock
		ix.writeLeaf(i, n)
	}
	for i := ix.base - 1; i >= 1; i-- {
		ix.pull(i)
	}
}

func (ix *capIndex) writeLeaf(i int, n *Node) {
	p := ix.base + i
	if n.down {
		ix.maxCores[p], ix.maxGPUs[p], ix.maxMem[p], ix.anyIdle[p] = 0, 0, 0, 0
		return
	}
	ix.maxCores[p] = n.freeCores
	ix.maxGPUs[p] = n.freeGPUs
	ix.maxMem[p] = n.freeMem
	// Mirrors the batch manager's historical predicate exactly: a node is
	// "idle" when all cores are free, regardless of GPU/memory state.
	if n.freeCores == n.Type.Cores {
		ix.anyIdle[p] = 1
	} else {
		ix.anyIdle[p] = 0
	}
}

func (ix *capIndex) pull(i int) {
	l, r := 2*i, 2*i+1
	c := ix.maxCores[l]
	if ix.maxCores[r] > c {
		c = ix.maxCores[r]
	}
	ix.maxCores[i] = c
	g := ix.maxGPUs[l]
	if ix.maxGPUs[r] > g {
		g = ix.maxGPUs[r]
	}
	ix.maxGPUs[i] = g
	m := ix.maxMem[l]
	if ix.maxMem[r] > m {
		m = ix.maxMem[r]
	}
	ix.maxMem[i] = m
	ix.anyIdle[i] = ix.anyIdle[l] | ix.anyIdle[r]
	st := ix.gained[l]
	if ix.gained[r] > st {
		st = ix.gained[r]
	}
	ix.gained[i] = st
}

// update refreshes node n's leaf and the path to the root.
func (ix *capIndex) update(n *Node) {
	ix.writeLeaf(n.ID, n)
	for i := (ix.base + n.ID) / 2; i >= 1; i /= 2 {
		ix.pull(i)
	}
}

// gain is update for a node that just gained capacity: it advances the
// clock and stamps n's leaf first.
func (ix *capIndex) gain(n *Node) {
	ix.clock++
	ix.gained[ix.base+n.ID] = ix.clock
	ix.update(n)
}

// appendFeasible appends, in leaf order, every up node under seg that can
// fit the request and gained capacity after clock value since. Recursion
// carries the destination slice instead of a capturing closure, so the
// dispatch hot path allocates nothing per query. Padding leaves carry stamp
// 0 and are always pruned.
func (ix *capIndex) appendFeasible(dst []*Node, seg, cores, gpus int, mem float64, since uint64) []*Node {
	if ix.gained[seg] <= since || ix.maxCores[seg] < cores || ix.maxGPUs[seg] < gpus || ix.maxMem[seg] < mem {
		return dst
	}
	if seg >= ix.base {
		return append(dst, ix.nodes[seg-ix.base])
	}
	dst = ix.appendFeasible(dst, 2*seg, cores, gpus, mem, since)
	return ix.appendFeasible(dst, 2*seg+1, cores, gpus, mem, since)
}

// firstFeasible is appendFeasible stopped at its first append: the leftmost
// up node under seg that fits the request and gained capacity after since,
// or nil. It descends one root-to-leaf path when the first segment whose
// maxima admit the request holds a fitting node; it backtracks only where
// the per-dimension maxima come from different nodes.
func (ix *capIndex) firstFeasible(seg, cores, gpus int, mem float64, since uint64) *Node {
	if ix.gained[seg] <= since || ix.maxCores[seg] < cores || ix.maxGPUs[seg] < gpus || ix.maxMem[seg] < mem {
		return nil
	}
	if seg >= ix.base {
		return ix.nodes[seg-ix.base]
	}
	if n := ix.firstFeasible(2*seg, cores, gpus, mem, since); n != nil {
		return n
	}
	return ix.firstFeasible(2*seg+1, cores, gpus, mem, since)
}

// appendIdle appends, in leaf order, every wholly idle up node under seg.
func (ix *capIndex) appendIdle(dst []*Node, seg int) []*Node {
	if ix.anyIdle[seg] == 0 {
		return dst
	}
	if seg >= ix.base {
		if i := seg - ix.base; i < len(ix.nodes) {
			dst = append(dst, ix.nodes[i])
		}
		return dst
	}
	dst = ix.appendIdle(dst, 2*seg)
	return ix.appendIdle(dst, 2*seg+1)
}

// AppendCandidates appends every up node that can currently fit (cores,
// gpus, mem) to dst, in ascending node-ID order — the same order the
// historical full scan over Nodes() produced — skipping whole subtrees that
// cannot satisfy the request. The dispatch hot path passes a reusable
// scratch slice.
func (c *Cluster) AppendCandidates(dst []*Node, cores, gpus int, mem float64) []*Node {
	return c.AppendCandidatesSince(dst, cores, gpus, mem, 0)
}

// AppendCandidatesSince is AppendCandidates restricted to nodes that gained
// capacity after CapacityClock read since. When the shape fit no node at
// that moment, the result equals AppendCandidates exactly, because a node
// can only have come to fit it by gaining capacity (see the capacity-gain
// clock in index.go); since = 0 is the unrestricted query.
func (c *Cluster) AppendCandidatesSince(dst []*Node, cores, gpus int, mem float64, since uint64) []*Node {
	if len(c.nodes) == 0 {
		return dst
	}
	return c.idx.appendFeasible(dst, 1, cores, gpus, mem, since)
}

// FirstCandidateSince returns the first node AppendCandidatesSince would
// return for the same arguments, or nil when it would return none: the
// first-fit answer without collecting the rest of the feasible set.
func (c *Cluster) FirstCandidateSince(cores, gpus int, mem float64, since uint64) *Node {
	if len(c.nodes) == 0 {
		return nil
	}
	return c.idx.firstFeasible(1, cores, gpus, mem, since)
}

// CapacityClock returns the capacity-gain clock: it advances on every
// Release that credits capacity and on every RepairNode, never on
// allocations or failures, and Reset restores its built value (1).
func (c *Cluster) CapacityClock() uint64 { return c.idx.clock }

// AppendIdleNodes appends every up node with all cores free (the batch
// manager's whole-node-free predicate) to dst, in ascending node-ID order.
func (c *Cluster) AppendIdleNodes(dst []*Node) []*Node {
	if len(c.nodes) == 0 {
		return dst
	}
	return c.idx.appendIdle(dst, 1)
}
