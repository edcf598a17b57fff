package jaws

import (
	"fmt"

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

	// inflight maps an emitted shard to its def position until its terminal
	// report arrives.
	inflight map[dag.TaskID]int

	// free recycles Task structs handed back via Retire.
	free []*dag.Task
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
		inflight: make(map[dag.TaskID]int, 64),
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
			t.ID = dag.TaskID(fmt.Sprintf("%s/shard%04d", d.Name, s))
		}
		t.Name = d.Name
		t.Cores = d.Cores
		t.MemBytes = d.MemBytes
		t.NominalDur = d.DurationSec + d.OverheadSec
		x.inflight[t.ID] = p
		return t, x.base[p] + s, true
	}
	x.ready = x.ready[:0]
	x.readyNext = 0
	return nil, 0, false
}

// TaskDone implements dag.Expander.
func (x *ScatterExpander) TaskDone(id dag.TaskID) {
	p, ok := x.inflight[id]
	if !ok {
		panic(fmt.Sprintf("jaws: expander %q got a terminal report for unknown shard %q", x.def.Name, id))
	}
	delete(x.inflight, id)
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
	p, ok := x.inflight[id]
	if !ok {
		panic(fmt.Sprintf("jaws: expander %q got a terminal report for unknown shard %q", x.def.Name, id))
	}
	delete(x.inflight, id)
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
