package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"hhcw/internal/cluster"
	"hhcw/internal/compose"
	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
)

// The traced run records spans around calls into the program's layers. Each
// run is a root span, opened by bench.safeRun; the delegating wrappers below
// open child spans around the hot per-call boundaries. Calls with the
// same name under the same parent fold into one span carrying a call count
// and their summed time, so a run of a hundred thousand tasks still leaves a
// handful of spans. Per-name totals cover every run; the spans themselves
// are kept for the first maxSpans per worker, which bounds the memory and
// the file of a loop of many short runs.

// maxSpans is the number of spans each worker keeps for the spans file.
const maxSpans = 50_000

// span is one recorded span. For a folded span Start is its first call and
// End-Start is the summed duration of its Calls calls.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a run's root span
	Run    int64  `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls"`
}

// tracer holds one workerTrace per worker; each is touched by its worker's
// goroutine only.
type tracer struct {
	w []*workerTrace
}

func newTracer(workers int) *tracer {
	epoch := time.Now()
	t := &tracer{}
	for i := 0; i < workers; i++ {
		t.w = append(t.w, &workerTrace{epoch: epoch, nextRun: int64(i), stride: int64(workers)})
	}
	return t
}

// layerCounts are counters the wrappers keep at the same boundaries as the
// spans.
type layerCounts struct {
	runs       int64
	events     int64 // sim.Engine.Fired after each run
	queries    int64 // candidate lists that reached PickNode
	candidates int64 // summed candidate-list length
	mismatches int64 // re-issued queries that disagreed with the manager
	passes     int64 // Prioritize calls
	scanned    int64 // pending submissions handed to Prioritize
	placements int64 // runtime callbacks, one per placement
	prioCalls  int64 // cwsi Priority calls
	nextCalls  int64 // Expander.Next calls
}

func (c *layerCounts) add(o layerCounts) {
	c.runs += o.runs
	c.events += o.events
	c.queries += o.queries
	c.candidates += o.candidates
	c.mismatches += o.mismatches
	c.passes += o.passes
	c.scanned += o.scanned
	c.placements += o.placements
	c.prioCalls += o.prioCalls
	c.nextCalls += o.nextCalls
}

type acc struct {
	name   string
	parent int // index into accs, -1 for the root
	start  int64
	dur    int64
	calls  int64
}

type frame struct {
	acc   int
	start int64
}

// workerTrace is one worker's span recorder.
type workerTrace struct {
	epoch   time.Time
	nextRun int64
	stride  int64
	run     int64
	accs    []acc   // the current run's span tree, folded
	child   []int64 // scratch: time of each acc's children
	stack   []frame
	spans   []span
	dropped int // spans not kept beyond maxSpans
	totals  map[string]*spanTotal
	n       layerCounts
}

func (t *workerTrace) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// enter opens a span named name under the innermost open span, or a new
// run's root span when none is open.
func (t *workerTrace) enter(name string) {
	now := t.now()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].acc
	} else {
		t.run = t.nextRun
		t.nextRun += t.stride
		if t.totals == nil {
			t.totals = map[string]*spanTotal{}
		}
		t.n.runs++
	}
	i := -1
	for k := range t.accs {
		if t.accs[k].parent == parent && t.accs[k].name == name {
			i = k
			break
		}
	}
	if i < 0 {
		i = len(t.accs)
		t.accs = append(t.accs, acc{name: name, parent: parent, start: now})
	}
	t.stack = append(t.stack, frame{acc: i, start: now})
}

// exit closes the innermost open span; closing a root span files the run's
// spans.
func (t *workerTrace) exit() {
	now := t.now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	a := &t.accs[f.acc]
	a.dur += now - f.start
	a.calls++
	if len(t.stack) > 0 {
		return
	}
	child := t.child[:0]
	for range t.accs {
		child = append(child, 0)
	}
	for _, a := range t.accs {
		if a.parent >= 0 {
			child[a.parent] += a.dur
		}
	}
	t.child = child
	for i, a := range t.accs {
		st := t.totals[a.name]
		if st == nil {
			st = &spanTotal{}
			t.totals[a.name] = st
		}
		st.calls += a.calls
		st.total += a.dur
		st.self += a.dur - child[i]
	}
	if base := len(t.spans); base+len(t.accs) <= maxSpans {
		for i, a := range t.accs {
			p := -1
			if a.parent >= 0 {
				p = base + a.parent
			}
			t.spans = append(t.spans, span{ID: base + i, Parent: p, Run: t.run, Name: a.name,
				Start: a.start, End: a.start + a.dur, Calls: a.calls})
		}
	} else {
		t.dropped += len(t.accs)
	}
	t.accs = t.accs[:0]
}

// unwind drops the spans a panic left open inside the current run, so that
// the run's root span is the innermost again.
func (t *workerTrace) unwind() {
	if len(t.stack) > 1 {
		t.stack = t.stack[:1]
	}
}

// reset drops recorded spans and counters (after the warm-up pass).
func (tr *tracer) reset() {
	for _, t := range tr.w {
		t.spans = t.spans[:0]
		t.dropped = 0
		t.totals = nil
		t.n = layerCounts{}
	}
}

func (tr *tracer) counts() layerCounts {
	var c layerCounts
	for _, t := range tr.w {
		c.add(t.n)
	}
	return c
}

// spanTotal aggregates the spans of one name.
type spanTotal struct {
	calls int64
	total int64 // ns
	self  int64 // ns: total minus the part child spans cover
}

// totals merges the workers' per-name totals.
func (tr *tracer) totals() map[string]*spanTotal {
	out := map[string]*spanTotal{}
	for _, t := range tr.w {
		for name, s := range t.totals {
			st := out[name]
			if st == nil {
				st = &spanTotal{}
				out[name] = st
			}
			st.calls += s.calls
			st.total += s.total
			st.self += s.self
		}
	}
	return out
}

// dropped is the number of spans not kept for the spans file.
func (tr *tracer) dropped() int {
	n := 0
	for _, t := range tr.w {
		n += t.dropped
	}
	return n
}

// write stores every recorded span as one JSON object per line, with span
// IDs made unique across workers.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	off := 0
	for _, t := range tr.w {
		for _, s := range t.spans {
			s.ID += off
			if s.Parent >= 0 {
				s.Parent += off
			}
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
		off += len(t.spans)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// splitTable renders the per-name span totals with each name's share of the
// root spans' time, self time first.
func splitTable(totals map[string]*spanTotal, roots []string) string {
	var rootNs int64
	for _, r := range roots {
		if st := totals[r]; st != nil {
			rootNs += st.total
		}
	}
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return totals[names[i]].self > totals[names[j]].self })
	var b strings.Builder
	fmt.Fprintf(&b, "  %-28s %12s %12s %12s %8s\n", "span", "calls", "total_ms", "self_ms", "self_%")
	for _, n := range names {
		st := totals[n]
		share := 0.0
		if rootNs > 0 {
			share = 100 * float64(st.self) / float64(rootNs)
		}
		fmt.Fprintf(&b, "  %-28s %12d %12.3f %12.3f %8.2f\n", n, st.calls,
			float64(st.total)/1e6, float64(st.self)/1e6, share)
	}
	return b.String()
}

// tracedRM is a delegating rm.Strategy. Around PickNode it re-issues the
// manager's candidate query on the live cluster, so that the query's cost is
// measured where the manager pays it.
type tracedRM struct {
	inner   rm.Strategy
	cl      *cluster.Cluster
	t       *workerTrace
	scratch []*cluster.Node
}

func (s *tracedRM) Name() string { return s.inner.Name() }

func (s *tracedRM) Prioritize(p []*rm.Submission) []*rm.Submission {
	s.t.n.passes++
	s.t.n.scanned += int64(len(p))
	s.t.enter("rm.prioritize")
	out := s.inner.Prioritize(p)
	s.t.exit()
	return out
}

func (s *tracedRM) PickNode(sub *rm.Submission, cands []*cluster.Node) *cluster.Node {
	s.t.enter("rm.pick")
	s.t.n.queries++
	s.t.n.candidates += int64(len(cands))
	s.t.enter("cluster.query")
	s.scratch = s.cl.AppendCandidates(s.scratch[:0], sub.Cores, sub.GPUs, sub.Mem)
	s.t.exit()
	if !slices.Equal(s.scratch, cands) {
		s.t.n.mismatches++
	}
	n := s.inner.PickNode(sub, cands)
	s.t.exit()
	return n
}

// tracedCWS is a delegating cwsi.Strategy that keeps the inner strategy's
// Name, so environment names and fingerprints are unchanged. The live
// cluster sits inside core.Session, out of the benchmark's reach, so the
// candidate query is re-issued on an idle probe cluster of the same shape.
type tracedCWS struct {
	inner   cwsi.Strategy
	probe   *cluster.Cluster
	t       *workerTrace
	scratch []*cluster.Node
}

func (s *tracedCWS) Name() string { return s.inner.Name() }

func (s *tracedCWS) Priority(sub *rm.Submission, ctx *cwsi.Context) float64 {
	s.t.n.prioCalls++
	s.t.enter("cwsi.priority")
	p := s.inner.Priority(sub, ctx)
	s.t.exit()
	return p
}

func (s *tracedCWS) PickNode(sub *rm.Submission, cands []*cluster.Node, ctx *cwsi.Context) *cluster.Node {
	s.t.enter("cwsi.pick")
	s.t.n.queries++
	s.t.n.candidates += int64(len(cands))
	s.t.enter("cluster.query")
	s.scratch = s.probe.AppendCandidates(s.scratch[:0], sub.Cores, sub.GPUs, sub.Mem)
	s.t.exit()
	n := s.inner.PickNode(sub, cands, ctx)
	s.t.exit()
	return n
}

// tracedExpander is a delegating dag.Expander timing Next and TaskDone.
type tracedExpander struct {
	dag.Expander
	t *workerTrace
}

func (x *tracedExpander) Next() (*dag.Task, int, bool) {
	x.t.n.nextCalls++
	x.t.enter("dag.next")
	t, idx, ok := x.Expander.Next()
	x.t.exit()
	return t, idx, ok
}

func (x *tracedExpander) TaskDone(id dag.TaskID) {
	x.t.enter("dag.done")
	x.Expander.TaskDone(id)
	x.t.exit()
}

// tracedWorkload wraps a service tenant's workload generator so that the
// workflow generation it does during a run shows as dag.gen spans.
func tracedWorkload(t *workerTrace, wl func(*randx.Source) compose.Compiler) func(*randx.Source) compose.Compiler {
	return func(rng *randx.Source) compose.Compiler {
		t.enter("dag.gen")
		c := wl(rng)
		t.exit()
		return compose.Func(func() (*dag.Workflow, error) {
			t.enter("dag.gen")
			w, err := c.Compile()
			t.exit()
			return w, err
		})
	}
}
