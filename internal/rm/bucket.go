package rm

import (
	"cmp"
	"slices"

	"hhcw/internal/cluster"
)

// Shape-bucketed FIFO dispatch. Under FIFO with no duration oracle a pass
// places submissions in arrival order, each on the first node that fits it.
// Most of a dense queue is blocked, and the walk path re-proves that for
// every entry on every pass. The bucketed path keeps the queue as one FIFO
// list per shape (cores, GPUs, memory) and rests on two facts:
//
//   - Within a pass capacity only shrinks: placements allocate, while
//     releases and repairs arrive as later events. Once a shape's head finds
//     no node, every later entry of that shape is blocked for the rest of the
//     pass, so the whole bucket leaves the pass blocked.
//   - A shape that fit no node when the capacity-gain clock read c can only
//     have come to fit a node that gained capacity since (cluster/index.go).
//     Every blocked bucket was blocked at the clock of the last pass, so a
//     pass collects the nodes stamped since then and wakes exactly the
//     blocked buckets whose shape fits one of them. Buckets are sorted by
//     cores first, so the scan stops at the first shape wider than any of
//     those nodes' free cores; the rest stay blocked without being visited.
//
// A pass is then a merge by submission sequence over the heads of the awake
// buckets, kept in a binary heap of bucket slots. It places the same
// submissions in the same order on the same nodes as the walk: FIFO.PickNode
// takes the first candidate, and FirstCandidateSince returns exactly that
// node. Every other strategy orders the queue by keys that change between
// passes, and an armed oracle makes the first blocked entry in priority
// order the owner of the EASY reservation, so both keep the walk.

// shapeBucket is the FIFO list of queued submissions of one shape.
type shapeBucket struct {
	cores, gpus int
	mem         float64
	head, tail  *Submission
	// blocked marks a bucket whose head fit no node at the last pass's
	// clock; inHeap marks one taking part in the running pass, whose
	// candidate query may skip nodes stamped at or before since.
	blocked, inHeap bool
	since           uint64
}

// choosePath selects the bucketed path for plain FIFO without an oracle and
// moves the queue across when the choice changes: into buckets, or back into
// one list in arrival order. Moved entries forget where they last blocked.
func (m *TaskManager) choosePath() {
	_, fifo := m.strategy.(FIFO)
	bucketed := fifo && m.oracle == nil
	if bucketed == m.bucketed {
		return
	}
	m.bucketed = bucketed
	if bucketed {
		for _, s := range m.pending {
			m.enqueue(s)
		}
		clear(m.pending)
		m.pending = m.pending[:0]
		return
	}
	if m.pending == nil {
		m.pending = make([]*Submission, 0, 32)
	}
	for _, bi := range m.order {
		for s := m.buckets[bi].head; s != nil; s = s.next {
			m.pending = append(m.pending, s)
		}
	}
	for _, s := range m.pending {
		s.next, s.blockedAt = nil, 0
	}
	slices.SortFunc(m.pending, func(a, b *Submission) int { return cmp.Compare(a.seq, b.seq) })
	m.clearBuckets()
}

// clearBuckets empties the bucketed queue, keeping its slices' capacity.
func (m *TaskManager) clearBuckets() {
	clear(m.buckets)
	m.buckets = m.buckets[:0]
	m.order = m.order[:0]
	m.freeSlots = m.freeSlots[:0]
	m.awake = m.awake[:0]
	m.passClock = 0
}

// enqueue appends s to the tail of its shape's bucket.
func (m *TaskManager) enqueue(s *Submission) {
	b := &m.buckets[m.bucketFor(s.Cores, s.GPUs, s.Mem)]
	if b.tail == nil {
		b.head = s
	} else {
		b.tail.next = s
	}
	b.tail = s
}

// search returns the position of the shape in order, or where it belongs.
func (m *TaskManager) search(cores, gpus int, mem float64) int {
	lo, hi := 0, len(m.order)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		b := &m.buckets[m.order[mid]]
		if b.cores < cores || b.cores == cores && (b.gpus < gpus || b.gpus == gpus && b.mem < mem) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// bucketSlots is the bucket capacity a manager allocates at its first
// bucketed Submit, in two allocations: the buckets and one block of int32
// slots that order, awake, freeSlots and the heap scratch start out in.
const bucketSlots = 16

// bucketFor returns the slot of the shape's bucket. A new shape takes a freed
// slot or a new one, is inserted at its sorted place in order, and waits
// awake for the next pass.
func (m *TaskManager) bucketFor(cores, gpus int, mem float64) int32 {
	if m.buckets == nil {
		const n = bucketSlots
		m.buckets = make([]shapeBucket, 0, n)
		block := make([]int32, 4*n)
		m.order, m.awake, m.freeSlots, m.heapScratch = block[:0:n], block[n:n:2*n], block[2*n:2*n:3*n], block[3*n:3*n]
	}
	i := m.search(cores, gpus, mem)
	if i < len(m.order) {
		if b := &m.buckets[m.order[i]]; b.cores == cores && b.gpus == gpus && b.mem == mem {
			return m.order[i]
		}
	}
	var bi int32
	if n := len(m.freeSlots); n > 0 {
		bi = m.freeSlots[n-1]
		m.freeSlots = m.freeSlots[:n-1]
	} else {
		bi = int32(len(m.buckets))
		m.buckets = append(m.buckets, shapeBucket{})
	}
	m.buckets[bi] = shapeBucket{cores: cores, gpus: gpus, mem: mem}
	m.order = slices.Insert(m.order, i, bi)
	m.awake = append(m.awake, bi)
	return bi
}

// freeBucket drops an empty bucket from order and frees its slot.
func (m *TaskManager) freeBucket(bi int32) {
	b := &m.buckets[bi]
	i := m.search(b.cores, b.gpus, b.mem)
	m.order = slices.Delete(m.order, i, i+1)
	*b = shapeBucket{}
	m.freeSlots = append(m.freeSlots, bi)
}

// unlinkBucketed removes the earliest queued submission with the given ID
// from its bucket and returns it, or nil.
func (m *TaskManager) unlinkBucketed(id string) *Submission {
	var found, before *Submission
	var fbi int32
	for _, bi := range m.order {
		var prev *Submission
		for s := m.buckets[bi].head; s != nil; prev, s = s, s.next {
			if s.ID == id {
				if found == nil || s.seq < found.seq {
					found, before, fbi = s, prev, bi
				}
				break
			}
		}
	}
	if found == nil {
		return nil
	}
	b := &m.buckets[fbi]
	if before == nil {
		b.head = found.next
	} else {
		before.next = found.next
	}
	if b.tail == found {
		b.tail = before
	}
	found.next = nil
	if b.head == nil && !b.inHeap {
		m.freeBucket(fbi)
	}
	return found
}

// dispatchBuckets is the bucketed pass: gather the awake buckets, wake the
// blocked ones a capacity gain lets fit, then merge their heads in
// submission order. The pass allocates nothing once warm.
func (m *TaskManager) dispatchBuckets() {
	clock := m.cl.CapacityClock()
	h := m.heapScratch[:0]
	for _, bi := range m.awake {
		if b := &m.buckets[bi]; b.head != nil && !b.blocked && !b.inHeap {
			b.inHeap, b.since = true, 0
			h = append(h, bi)
		}
	}
	m.awake = m.awake[:0]
	if m.passClock != 0 && clock > m.passClock {
		h = m.wake(h)
	}
	m.passClock = clock
	for i := len(h)/2 - 1; i >= 0; i-- {
		m.siftDown(h, i)
	}
	// Entries submitted during the pass (by a Runtime hook) wait for the
	// next one, as on the walk path.
	limit := m.seq
	for len(h) > 0 {
		b := &m.buckets[h[0]]
		s := b.head
		if s == nil || s.seq >= limit {
			h = m.popTop(h)
			continue
		}
		node := m.cl.FirstCandidateSince(s.Cores, s.GPUs, s.Mem, b.since)
		if node == nil {
			b.blocked = true
			h = m.popTop(h)
			continue
		}
		r := m.grabRunning()
		if err := m.cl.AllocateInto(&r.allocBox, node, s.Cores, s.GPUs, s.Mem); err != nil {
			m.freeRunning = append(m.freeRunning, r)
			h = m.popTop(h)
			continue
		}
		if b.head = s.next; b.head == nil {
			b.tail = nil
		}
		s.next = nil
		m.live--
		m.start(s, r) // a hook may submit and move m.buckets: b is stale
		m.siftDown(h, 0)
	}
	m.heapScratch = h
}

// wake adds to h every blocked bucket whose shape fits a node that gained
// capacity since the last pass. Those buckets fit nothing stamped earlier,
// so their candidate queries this pass skip it too.
func (m *TaskManager) wake(h []int32) []int32 {
	m.candScratch = m.cl.AppendCandidatesSince(m.candScratch[:0], 1, 0, 0, m.passClock)
	gained := m.candScratch
	widest := 0
	for _, n := range gained {
		widest = max(widest, n.FreeCores())
	}
	for _, bi := range m.order {
		b := &m.buckets[bi]
		if b.cores > widest {
			break
		}
		if !b.blocked || !fitsGained(b, gained) {
			continue
		}
		b.blocked, b.inHeap, b.since = false, true, m.passClock
		h = append(h, bi)
	}
	return h
}

// fitsGained reports whether b's shape fits one of the gained nodes. The
// scan costs at most what the walk's narrowed query costs per entry.
func fitsGained(b *shapeBucket, gained []*cluster.Node) bool {
	for _, n := range gained {
		if n.FreeCores() >= b.cores && n.FreeGPUs() >= b.gpus && n.FreeMem() >= b.mem {
			return true
		}
	}
	return false
}

// headSeq is the heap key of a bucket slot: its head's sequence number. A
// bucket emptied during the pass keys 0, so it surfaces and is dropped.
func (m *TaskManager) headSeq(bi int32) uint64 {
	if s := m.buckets[bi].head; s != nil {
		return s.seq
	}
	return 0
}

// siftDown restores the min-heap order of h below position i.
func (m *TaskManager) siftDown(h []int32, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && m.headSeq(h[r]) < m.headSeq(h[c]) {
			c = r
		}
		if m.headSeq(h[i]) <= m.headSeq(h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// popTop removes the heap's minimum bucket from the pass. An emptied bucket
// is freed; an unblocked one waits awake for the next pass.
func (m *TaskManager) popTop(h []int32) []int32 {
	bi := h[0]
	b := &m.buckets[bi]
	b.inHeap = false
	switch {
	case b.head == nil:
		m.freeBucket(bi)
	case !b.blocked:
		m.awake = append(m.awake, bi)
	}
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	m.siftDown(h, 0)
	return h
}
