package jaws

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"hhcw/internal/dag"
)

// ScatterExpander streams the exact task sequence Compile would materialize,
// without ever holding more than the runnable frontier: shards come into
// existence as Next is called, and Retire recycles their Task structs once a
// runner is done with them. A million-shard scatter therefore costs O(defs +
// in-flight shards) memory instead of O(shards).
//
// The equivalence is structural, not incidental. Compile adds defs in
// Kahn-topological order and shards in index order; a shard of a scattered
// task depends on all shards of each dependency (gather semantics), so every
// shard of a def becomes ready at the same completion event, and the eager
// run — the executor over Compile's dag.WorkflowExpander — submits
// def-by-def in Kahn order, shards in index order.
// The expander reproduces that order with per-def counters: a def's
// upstream count is the total shard count of its dependencies, decremented
// per completion; at zero the def enters the ready FIFO and its shards are
// emitted on demand. Expander equivalence against Compile + eager execution
// is pinned by tests over fault-free and faulty runs.
type ScatterExpander struct {
	def *WorkflowDef

	order []*TaskDef // Kahn order — identical to Compile's insertion order
	base  []int      // eager insertion index of each def's shard 0

	// upstream counts remaining dependency-shard completions per def;
	// children lists dependent def positions (with After multiplicity), in
	// ascending Kahn order — the order eager edge creation yields.
	upstream []int
	children [][]int
	skipped  []bool

	// ready is the FIFO of defs whose shards are being emitted; emitCursor
	// is the next shard index of the front def.
	ready      []int
	readyNext  int
	emitCursor int

	// names holds the def names in ascending order and namePos their Kahn
	// positions, so a shard ID resolves to its def by binary search.
	names   []string
	namePos []int

	// inflight holds the eager index of every emitted shard until its
	// terminal report arrives. Reports name shards by ID; shardOf parses the
	// def and shard index back out, so the set is keyed by integer.
	inflight map[int]struct{}

	// idBuf is the scratch the shard IDs are formatted into.
	idBuf []byte

	// free recycles Task structs handed back via Retire.
	free []*dag.Task
}

// appendShardID appends the ID of shard s of a scattered task, the canonical
// "name/shard%04d" form, to dst. Compile and the expander both mint IDs
// through it, so eager and lazy IDs cannot drift apart.
func appendShardID(dst []byte, name string, s int) []byte {
	dst = append(dst, name...)
	dst = append(dst, "/shard"...)
	for pad := 1000; pad > 1 && s < pad; pad /= 10 {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, int64(s), 10)
}

// Expand returns a streaming expander over the def — the lazy counterpart of
// Compile. The workflow is validated first; the same descriptions compile
// and expand.
func (def *WorkflowDef) Expand() (*ScatterExpander, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	// Kahn order over def names, replicated verbatim from Compile so the
	// insertion indices line up.
	indeg := map[string]int{}
	childNames := map[string][]string{}
	for _, t := range def.Tasks {
		indeg[t.Name] = len(t.After)
		for _, d := range t.After {
			childNames[d] = append(childNames[d], t.Name)
		}
	}
	var readyNames []string
	for _, t := range def.Tasks {
		if indeg[t.Name] == 0 {
			readyNames = append(readyNames, t.Name)
		}
	}
	x := &ScatterExpander{
		def:      def,
		order:    make([]*TaskDef, 0, len(def.Tasks)),
		inflight: make(map[int]struct{}, 64),
	}
	pos := make(map[string]int, len(def.Tasks))
	for len(readyNames) > 0 {
		name := readyNames[0]
		readyNames = readyNames[1:]
		pos[name] = len(x.order)
		x.order = append(x.order, def.Task(name))
		for _, c := range childNames[name] {
			indeg[c]--
			if indeg[c] == 0 {
				readyNames = append(readyNames, c)
			}
		}
	}
	n := len(x.order)
	x.names = make([]string, n)
	for p, t := range x.order {
		x.names[p] = t.Name
	}
	slices.Sort(x.names)
	x.namePos = make([]int, n)
	for i, name := range x.names {
		x.namePos[i] = pos[name]
	}
	x.base = make([]int, n)
	x.upstream = make([]int, n)
	x.children = make([][]int, n)
	x.skipped = make([]bool, n)
	idx := 0
	for p, t := range x.order {
		x.base[p] = idx
		idx += t.Shards()
	}
	// Iterating defs in ascending Kahn position keeps each children list
	// ascending without sorting — the same order eager edge creation yields.
	for p, t := range x.order {
		for _, d := range t.After {
			dp := pos[d]
			x.upstream[p] += x.order[dp].Shards()
			x.children[dp] = append(x.children[dp], p)
		}
		if len(t.After) == 0 {
			x.ready = append(x.ready, p)
		}
	}
	return x, nil
}

// Name implements dag.Expander.
func (x *ScatterExpander) Name() string { return x.def.Name }

// Total implements dag.Expander.
func (x *ScatterExpander) Total() int { return x.def.TotalShards() }

// Next implements dag.Expander, materializing the front def's next shard.
func (x *ScatterExpander) Next() (*dag.Task, int, bool) {
	for x.readyNext < len(x.ready) {
		p := x.ready[x.readyNext]
		d := x.order[p]
		if x.emitCursor >= d.Shards() {
			x.readyNext++
			x.emitCursor = 0
			continue
		}
		s := x.emitCursor
		x.emitCursor++
		t := x.grabTask()
		if d.Shards() == 1 {
			t.ID = dag.TaskID(d.Name)
		} else {
			x.idBuf = appendShardID(x.idBuf[:0], d.Name, s)
			t.ID = dag.TaskID(x.idBuf)
		}
		t.Name = d.Name
		t.Cores = d.Cores
		t.MemBytes = d.MemBytes
		t.NominalDur = d.DurationSec + d.OverheadSec
		g := x.base[p] + s
		x.inflight[g] = struct{}{}
		return t, g, true
	}
	x.ready = x.ready[:0]
	x.readyNext = 0
	return nil, 0, false
}

// shardOf recovers the def position and shard index from a shard ID,
// accepting only what Next mints: a single-shard def's bare name, or the
// canonical appendShardID form with an index below the def's shard count.
// Validate rejects "/" in task names, so the split is unambiguous.
func (x *ScatterExpander) shardOf(id dag.TaskID) (p, s int, ok bool) {
	name, suffix, scattered := strings.Cut(string(id), "/")
	i, found := slices.BinarySearch(x.names, name)
	if !found {
		return 0, 0, false
	}
	p = x.namePos[i]
	n := x.order[p].Shards()
	if !scattered {
		return p, 0, n == 1
	}
	digits, found := strings.CutPrefix(suffix, "shard")
	// Canonical digits are four, zero-padded, or more without a leading zero.
	if !found || n == 1 || len(digits) < 4 || (len(digits) > 4 && digits[0] == '0') {
		return 0, 0, false
	}
	for _, c := range []byte(digits) {
		if c < '0' || c > '9' {
			return 0, 0, false
		}
		if s = s*10 + int(c-'0'); s >= n {
			return 0, 0, false
		}
	}
	return p, s, true
}

// report removes an in-flight shard on its terminal report and returns its
// def position. A report for a shard that is not in flight — never emitted,
// malformed, or already reported — is a caller bug.
func (x *ScatterExpander) report(id dag.TaskID) int {
	p, s, ok := x.shardOf(id)
	if ok {
		// The delete shrinks the set exactly when the shard was in flight.
		n := len(x.inflight)
		delete(x.inflight, x.base[p]+s)
		ok = len(x.inflight) < n
	}
	if !ok {
		panic(fmt.Sprintf("jaws: expander %q got a terminal report for unknown shard %q", x.def.Name, id))
	}
	return p
}

// TaskDone implements dag.Expander.
func (x *ScatterExpander) TaskDone(id dag.TaskID) {
	p := x.report(id)
	for _, c := range x.children[p] {
		x.upstream[c]--
		if x.upstream[c] == 0 && !x.skipped[c] {
			x.ready = append(x.ready, c)
		}
	}
}

// TaskFailed implements dag.Expander: the def-granular transitive write-off.
// Gather semantics make it exact — every shard of a dependent def needs the
// failed shard, so whole defs are skipped, never fractions of one.
func (x *ScatterExpander) TaskFailed(id dag.TaskID) int {
	p := x.report(id)
	n := 0
	var walk func(int)
	walk = func(from int) {
		for _, c := range x.children[from] {
			if x.skipped[c] {
				continue
			}
			x.skipped[c] = true
			n += x.order[c].Shards()
			walk(c)
		}
	}
	walk(p)
	return n
}

// Retire implements dag.Expander, recycling the shard's Task struct.
func (x *ScatterExpander) Retire(t *dag.Task) { x.free = append(x.free, t) }

// Resident returns how many emitted shards await their terminal report —
// the expander's own contribution to resident state is O(defs + Resident).
func (x *ScatterExpander) Resident() int { return len(x.inflight) }

func (x *ScatterExpander) grabTask() *dag.Task {
	if n := len(x.free); n > 0 {
		t := x.free[n-1]
		x.free = x.free[:n-1]
		*t = dag.Task{}
		return t
	}
	return &dag.Task{}
}
