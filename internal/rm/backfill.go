package rm

import (
	"sort"

	"hhcw/internal/cluster"
	"hhcw/internal/sim"
)

// DurationOracle predicts how long a submission would run on a node. The
// second return value reports whether a prediction exists; an oracle must
// answer false rather than guess while its model is cold.
type DurationOracle func(s *Submission, n *cluster.Node) (float64, bool)

// SetDurationOracle arms EASY-style predicted-duration backfill in the
// dispatch pass. When the highest-priority capacity-blocked submission
// cannot be placed anywhere, the manager computes where running allocations
// free the capacity it needs earliest and reserves that node at that shadow
// time. Lower-priority submissions may still use the reserved node's current
// hole, but only if the oracle predicts they finish before the shadow time —
// the "no hole-owner delay" invariant: backfilled work never pushes the
// reservation owner's start later than it would have been without backfill.
// Submissions the oracle cannot predict are conservatively kept off the
// reserved node.
//
// Reservations are recomputed every pass from live state, and a reservation
// is only established when the oracle can predict the blocked submission
// itself on a capable node — so with a cold oracle no reservation exists and
// the pass is bit-identical to the plain greedy sweep. The invariant is
// exact in predicted time; an underestimating oracle can still delay the
// owner, which is what the scheduler's walltime-overrun enforcement bounds.
// Arming an oracle under FIFO moves the queue off the bucketed path.
func (m *TaskManager) SetDurationOracle(o DurationOracle) {
	m.oracle = o
	m.choosePath()
}

// filterReserved drops the reserved node from a submission's candidate list
// unless the oracle predicts the submission finishes before the shadow time.
// candidates is filtered in place; resNode appears at most once.
func (m *TaskManager) filterReserved(candidates []*cluster.Node, s *Submission, resNode *cluster.Node, shadow, now sim.Time) []*cluster.Node {
	for i, n := range candidates {
		if n != resNode {
			continue
		}
		if d, ok := m.oracle(s, n); ok && now+sim.Time(d) <= shadow {
			return candidates // fits in the hole without delaying its owner
		}
		return append(candidates[:i], candidates[i+1:]...)
	}
	return candidates
}

// reserve picks the node where capacity for s frees earliest: for each up
// node whose type can hold s and for which the oracle can predict s, walk
// the node's running allocations in completion order until enough capacity
// accumulates. Returns (nil, 0) when no node qualifies (request larger than
// any node, or the oracle is cold for s everywhere). Ties keep the first
// node in cluster order; everything here is deterministic.
func (m *TaskManager) reserve(s *Submission) (*cluster.Node, sim.Time) {
	var best *cluster.Node
	var bestShadow sim.Time
	for _, n := range m.cl.Nodes() {
		if n.Down() || n.Type.Cores < s.Cores || n.Type.GPUs < s.GPUs || n.Type.MemBytes < s.Mem {
			continue
		}
		if _, ok := m.oracle(s, n); !ok {
			continue
		}
		shadow, ok := m.shadowOn(s, n)
		if !ok {
			continue
		}
		if best == nil || shadow < bestShadow {
			best, bestShadow = n, shadow
		}
	}
	return best, bestShadow
}

// shadowOn computes when node n first has capacity for s, assuming running
// allocations release at their recorded end times and nothing new arrives.
func (m *TaskManager) shadowOn(s *Submission, n *cluster.Node) (sim.Time, bool) {
	cores, gpus, mem := n.FreeCores(), n.FreeGPUs(), n.FreeMem()
	if cores >= s.Cores && gpus >= s.GPUs && mem >= s.Mem {
		return m.eng.Now(), true
	}
	rs := m.resScratch[:0]
	for _, r := range m.running {
		if r.alloc != nil && r.alloc.Node == n {
			rs = append(rs, r)
		}
	}
	m.resScratch = rs[:0]
	// The running set is in swap-remove order; (end, ID) is a deterministic
	// total order.
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].end != rs[j].end {
			return rs[i].end < rs[j].end
		}
		return rs[i].sub.ID < rs[j].sub.ID
	})
	for _, r := range rs {
		cores += r.alloc.Cores
		gpus += r.alloc.GPUs
		mem += r.alloc.Mem
		if cores >= s.Cores && gpus >= s.GPUs && mem >= s.Mem {
			return r.end, true
		}
	}
	return 0, false
}
