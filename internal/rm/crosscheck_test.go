package rm

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

// The dispatch overhaul replaced the per-submission full node scan with the
// cluster's capacity index, and the capacity-gain clock narrows the query
// for blocked submissions further. This file replays random tapes of submit
// / cancel / abort / node-fail / node-repair operations two ways:
//
//   - through a strategy instrumented to rerun the old scan kernel at every
//     placement decision: the candidate list the index hands to PickNode
//     must match the rescan, element for element, in node-ID order (a
//     mismatch dumps crosscheck_tape_failure.json);
//   - through the TaskManager and, alongside, a reference dispatcher that
//     scans every node for every pending submission on every pass: each
//     submission must end on the same node at the same start time. This
//     catches what the first check cannot — a query that wrongly comes back
//     empty never reaches PickNode — and it is the only check of the
//     bucketed FIFO path, which never calls PickNode (a mismatch dumps
//     dispatch_tape_failure.json).
//
// CI attaches either file to the failing run.

// tapeOp is one replayable scheduler-facing operation. A strategy op
// switches the manager to the strategy named by ID (fifo or windowed-fifo);
// an oracle op arms the tape's duration oracle.
type tapeOp struct {
	At    float64 `json:"at"`
	Op    string  `json:"op"` // submit | cancel | abort | fail | repair | strategy | oracle
	ID    string  `json:"id,omitempty"`
	Cores int     `json:"cores,omitempty"`
	GPUs  int     `json:"gpus,omitempty"`
	Mem   float64 `json:"mem,omitempty"`
	Dur   float64 `json:"dur,omitempty"`
	Node  int     `json:"node,omitempty"`
}

// checkedFIFO is FIFO instrumented with the historical full-scan kernel as a
// test-only reference: every PickNode cross-checks its candidate slice.
type checkedFIFO struct {
	t          *testing.T
	cl         *cluster.Cluster
	tape       []tapeOp
	seed       int64
	checks     int
	mismatched bool
}

func (c *checkedFIFO) Name() string { return "checked-fifo" }

func (c *checkedFIFO) Prioritize(p []*Submission) []*Submission { return p }

func (c *checkedFIFO) PickNode(s *Submission, candidates []*cluster.Node) *cluster.Node {
	c.checks++
	// The old kernel: scan every node in ID order, keep the feasible ones.
	var want []*cluster.Node
	for _, n := range c.cl.Nodes() {
		if n.Down() {
			continue
		}
		if n.FreeCores() >= s.Cores && n.FreeGPUs() >= s.GPUs && n.FreeMem() >= s.Mem {
			want = append(want, n)
		}
	}
	ok := len(want) == len(candidates)
	if ok {
		for i := range want {
			if want[i] != candidates[i] {
				ok = false
				break
			}
		}
	}
	if !ok && !c.mismatched {
		c.mismatched = true
		c.dumpFailure(s, want, candidates)
		c.t.Errorf("seed %d: index candidates diverge from full rescan for %s (%d cores/%d gpus/%.0f mem): index %d nodes, rescan %d",
			c.seed, s.ID, s.Cores, s.GPUs, s.Mem, len(candidates), len(want))
	}
	if len(candidates) == 0 {
		return nil
	}
	return candidates[0]
}

// dumpFailure writes the replayable tape plus the diverging query to
// crosscheck_tape_failure.json (uploaded as a CI artifact on test failure).
func (c *checkedFIFO) dumpFailure(s *Submission, want, got []*cluster.Node) {
	names := func(ns []*cluster.Node) []string {
		out := make([]string, len(ns))
		for i, n := range ns {
			out[i] = n.Name()
		}
		return out
	}
	doc := map[string]any{
		"seed": c.seed,
		"tape": c.tape,
		"query": map[string]any{
			"id": s.ID, "cores": s.Cores, "gpus": s.GPUs, "mem": s.Mem,
			"at": float64(c.cl.Engine().Now()),
		},
		"rescan_candidates": names(want),
		"index_candidates":  names(got),
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err == nil {
		_ = os.WriteFile("crosscheck_tape_failure.json", data, 0o644)
	}
}

// tapeMix parameterizes a generated tape.
type tapeMix struct {
	ops    int     // operations drawn
	window float64 // they fall in [0, window) seconds
	// churn and withdraw are the weights, out of 10, of node fail/repair
	// and of cancel/abort operations; the rest submit.
	churn, withdraw int
	// shapes, when positive, is the number of distinct request shapes the
	// submissions draw from; 0 draws every request freely.
	shapes int
	// switches adds, at 30 %, 50 % and 70 % of the window, a switch to
	// windowed-fifo, one back to fifo, and the arming of the oracle.
	switches bool
}

// defaultMix is the historical tape: 220 operations over 400 s, mostly
// submissions of freely drawn shapes, with churn and withdrawals.
var defaultMix = tapeMix{ops: 220, window: 400, churn: 2, withdraw: 2}

// genTape builds a defaultMix tape.
func genTape(r *randx.Source, nodes int) []tapeOp { return genTapeMix(r, nodes, defaultMix) }

// genTapeMix builds a random operation tape: submissions with mixed shapes,
// sprinkled with cancels and aborts of earlier IDs and node fail/repair
// churn, in the proportions of mix.
func genTapeMix(r *randx.Source, nodes int, mix tapeMix) []tapeOp {
	type shape struct {
		cores, gpus int
		mem         float64
	}
	draw := func() shape {
		return shape{1 + r.Intn(12), r.Intn(3), float64(r.Intn(20)) * 4e9}
	}
	palette := make([]shape, mix.shapes)
	for i := range palette {
		palette[i] = draw()
	}
	var tape []tapeOp
	n := 0
	for i := 0; i < mix.ops; i++ {
		at := r.Float64() * mix.window
		x := r.Intn(10)
		switch {
		case x < mix.churn && x%2 == 0: // fail a node
			tape = append(tape, tapeOp{At: at, Op: "fail", Node: r.Intn(nodes)})
		case x < mix.churn: // repair a node
			tape = append(tape, tapeOp{At: at, Op: "repair", Node: r.Intn(nodes)})
		case x < mix.churn+mix.withdraw: // cancel or abort an earlier submission
			if n > 0 {
				op := "cancel"
				if (x-mix.churn)%2 == 1 {
					op = "abort"
				}
				tape = append(tape, tapeOp{At: at, Op: op, ID: fmt.Sprintf("s%03d", r.Intn(n))})
			}
		default: // submit
			sh := shape{}
			if len(palette) > 0 {
				sh = palette[r.Intn(len(palette))]
			} else {
				sh = draw()
			}
			tape = append(tape, tapeOp{
				At: at, Op: "submit", ID: fmt.Sprintf("s%03d", n),
				Cores: sh.cores, GPUs: sh.gpus, Mem: sh.mem,
				Dur: 20 + r.Float64()*200,
			})
			n++
		}
	}
	if mix.switches {
		tape = append(tape,
			tapeOp{At: 0.3 * mix.window, Op: "strategy", ID: "windowed-fifo"},
			tapeOp{At: 0.5 * mix.window, Op: "strategy", ID: "fifo"},
			tapeOp{At: 0.7 * mix.window, Op: "oracle"})
	}
	return tape
}

// namedStrategy returns the strategy a tape's strategy op names.
func namedStrategy(name string, eng *sim.Engine) Strategy {
	if name == "windowed-fifo" {
		return windowedFIFO{eng}
	}
	return FIFO{}
}

// replayTape schedules every tape operation at its virtual time. When done
// is non-nil, each submission reports its result to done(its ID).
func replayTape(eng *sim.Engine, cl *cluster.Cluster, m *TaskManager, tape []tapeOp, done func(id string) func(Result)) {
	oracle := tapeOracle(tape)
	for _, op := range tape {
		op := op
		switch op.Op {
		case "submit":
			eng.At(sim.Time(op.At), func() {
				s := &Submission{
					ID: op.ID, Cores: op.Cores, GPUs: op.GPUs, Mem: op.Mem,
					Runtime: fixedRuntime(op.Dur),
				}
				if done != nil {
					s.Done = done(op.ID)
				}
				m.Submit(s)
			})
		case "cancel":
			eng.At(sim.Time(op.At), func() { m.Cancel(op.ID) })
		case "abort":
			eng.At(sim.Time(op.At), func() { m.Abort(op.ID, fmt.Errorf("tape abort")) })
		case "fail":
			eng.At(sim.Time(op.At), func() { cl.FailNode(cl.Nodes()[op.Node]) })
		case "repair":
			eng.At(sim.Time(op.At), func() { cl.RepairNode(cl.Nodes()[op.Node]) })
		case "strategy":
			eng.At(sim.Time(op.At), func() { m.SetStrategy(namedStrategy(op.ID, eng)) })
		case "oracle":
			eng.At(sim.Time(op.At), func() { m.SetDurationOracle(oracle) })
		}
	}
}

func TestPrioritizeScanCrossCheckTapes(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		eng := sim.NewEngine()
		cl := cluster.Heterogeneous(eng, 5) // 15 nodes, three families
		strat := &checkedFIFO{t: t, cl: cl, seed: seed}
		m := NewTaskManager(cl, strat)
		tape := genTape(randx.New(seed*7919+3), cl.NodeCount())
		strat.tape = tape
		replayTape(eng, cl, m, tape, nil)
		eng.Run()
		if strat.checks == 0 {
			t.Fatalf("seed %d: tape produced no placement decisions", seed)
		}
		if t.Failed() {
			return // the artifact describes the first divergence; stop here
		}
	}
}

// outcome is one submission's terminal record, as both replays report it.
type outcome struct {
	Node     int     `json:"node"` // -1 when it never ran
	Start    float64 `json:"start"`
	Finish   float64 `json:"finish"`
	Failed   bool    `json:"failed"`
	Resolved bool    `json:"resolved"` // Done fired
}

// refSub is a pending entry of the reference dispatcher; sub carries the
// public request fields handed to the strategy and the oracle.
type refSub struct {
	sub       Submission
	at, dur   sim.Time
	cancelled bool
}

type refRun struct {
	s          *refSub
	alloc      *cluster.Alloc
	ev         *sim.Event
	start, end sim.Time
}

// refManager is the reference dispatcher: in every pass it drops cancelled
// entries, walks the pending queue in submission order, scans all nodes for
// each entry, applies the same EASY reservation rule as backfill.go, and
// places on the strategy's pick. It follows the TaskManager's event
// discipline — one zero-delay pass per burst of kicks, completions and
// node-down victims in the same order — on its own engine and cluster, so
// both replays see the same events at the same virtual times. It never
// queries the capacity index.
type refManager struct {
	eng     *sim.Engine
	cl      *cluster.Cluster
	pick    Strategy
	oracle  DurationOracle
	pending []*refSub
	running map[string]*refRun
	kicked  bool
	out     map[string]outcome
	// waited, reserved and refused count placements after a wait,
	// reservations and nil picks: the test requires the tapes to exercise
	// each path it claims to check.
	waited, reserved, refused int
}

func newRefManager(cl *cluster.Cluster, pick Strategy, oracle DurationOracle) *refManager {
	m := &refManager{eng: cl.Engine(), cl: cl, pick: pick, oracle: oracle,
		running: map[string]*refRun{}, out: map[string]outcome{}}
	cl.OnNodeDown(func(n *cluster.Node) {
		var victims []*refRun
		for _, r := range m.running {
			if r.alloc.Node == n {
				victims = append(victims, r)
			}
		}
		sort.Slice(victims, func(i, j int) bool { return victims[i].s.sub.ID < victims[j].s.sub.ID })
		for _, r := range victims {
			r.ev.Cancel()
			m.finish(r, true)
		}
		m.kick()
	})
	cl.OnNodeUp(func(*cluster.Node) { m.kick() })
	return m
}

func (m *refManager) kick() {
	if m.kicked {
		return
	}
	m.kicked = true
	m.eng.After(0, func() {
		m.kicked = false
		m.schedule()
	})
}

func (m *refManager) submit(op tapeOp) {
	m.pending = append(m.pending, &refSub{
		sub: Submission{ID: op.ID, Cores: op.Cores, GPUs: op.GPUs, Mem: op.Mem},
		at:  sim.Time(op.At), dur: sim.Time(op.Dur),
	})
	m.kick()
}

func (m *refManager) cancel(id string) {
	for _, s := range m.pending {
		if s.sub.ID == id && !s.cancelled {
			s.cancelled = true
			m.kick()
			return
		}
	}
}

func (m *refManager) abort(id string) {
	if r, ok := m.running[id]; ok {
		r.ev.Cancel()
		m.finish(r, true)
		return
	}
	for _, s := range m.pending {
		if s.sub.ID == id && !s.cancelled {
			s.cancelled = true
			m.kick()
			now := float64(m.eng.Now())
			m.out[id] = outcome{Node: -1, Start: now, Finish: now, Failed: true, Resolved: true}
			return
		}
	}
}

func (m *refManager) finish(r *refRun, failed bool) {
	delete(m.running, r.s.sub.ID)
	m.cl.Release(r.alloc)
	m.out[r.s.sub.ID] = outcome{Node: r.alloc.Node.ID, Start: float64(r.start),
		Finish: float64(m.eng.Now()), Failed: failed, Resolved: true}
	m.kick()
}

func (m *refManager) fits(n *cluster.Node, s *refSub) bool {
	return !n.Down() && n.FreeCores() >= s.sub.Cores && n.FreeGPUs() >= s.sub.GPUs && n.FreeMem() >= s.sub.Mem
}

func (m *refManager) schedule() {
	live := m.pending[:0]
	for _, s := range m.pending {
		if !s.cancelled {
			live = append(live, s)
		}
	}
	m.pending = live
	now := m.eng.Now()
	var resNode *cluster.Node
	var shadow sim.Time
	rest := m.pending[:0]
	for _, s := range m.pending {
		var cands []*cluster.Node
		for _, n := range m.cl.Nodes() {
			if m.fits(n, s) && (n != resNode || m.fitsHole(s, n, now, shadow)) {
				cands = append(cands, n)
			}
		}
		if len(cands) == 0 {
			if resNode == nil && m.oracle != nil {
				resNode, shadow = m.reserve(s, now)
				if resNode != nil {
					m.reserved++
				}
			}
			rest = append(rest, s)
			continue
		}
		n := m.pick.PickNode(&s.sub, cands)
		if n == nil {
			m.refused++
			rest = append(rest, s)
			continue
		}
		if now > s.at {
			m.waited++
		}
		a, err := m.cl.Allocate(n, s.sub.Cores, s.sub.GPUs, s.sub.Mem)
		if err != nil {
			panic(err) // the scan just proved the node fits
		}
		r := &refRun{s: s, alloc: a, start: now, end: now + s.dur}
		m.running[s.sub.ID] = r
		r.ev = m.eng.After(s.dur, func() { m.finish(r, false) })
	}
	m.pending = rest
}

// fitsHole is the reservation test: the oracle predicts s done by shadow.
func (m *refManager) fitsHole(s *refSub, n *cluster.Node, now, shadow sim.Time) bool {
	d, ok := m.oracle(&s.sub, n)
	return ok && now+sim.Time(d) <= shadow
}

// reserve returns the node where capacity for s frees earliest, replaying
// running completions per node in (end, ID) order; ties keep the lower ID.
func (m *refManager) reserve(s *refSub, now sim.Time) (*cluster.Node, sim.Time) {
	var best *cluster.Node
	var bestAt sim.Time
	for _, n := range m.cl.Nodes() {
		if n.Down() || n.Type.Cores < s.sub.Cores || n.Type.GPUs < s.sub.GPUs || n.Type.MemBytes < s.sub.Mem {
			continue
		}
		if _, ok := m.oracle(&s.sub, n); !ok {
			continue
		}
		at, ok := now, m.fits(n, s)
		if !ok {
			var rs []*refRun
			for _, r := range m.running {
				if r.alloc.Node == n {
					rs = append(rs, r)
				}
			}
			sort.Slice(rs, func(i, j int) bool {
				if rs[i].end != rs[j].end {
					return rs[i].end < rs[j].end
				}
				return rs[i].s.sub.ID < rs[j].s.sub.ID
			})
			cores, gpus, mem := n.FreeCores(), n.FreeGPUs(), n.FreeMem()
			for _, r := range rs {
				cores, gpus, mem = cores+r.alloc.Cores, gpus+r.alloc.GPUs, mem+r.alloc.Mem
				if cores >= s.sub.Cores && gpus >= s.sub.GPUs && mem >= s.sub.Mem {
					at, ok = r.end, true
					break
				}
			}
		}
		if ok && (best == nil || at < bestAt) {
			best, bestAt = n, at
		}
	}
	return best, bestAt
}

// replayReference schedules every tape operation on the reference.
func replayReference(cl *cluster.Cluster, m *refManager, tape []tapeOp) {
	oracle := tapeOracle(tape)
	for _, op := range tape {
		op := op
		var fn func()
		switch op.Op {
		case "submit":
			fn = func() { m.submit(op) }
		case "cancel":
			fn = func() { m.cancel(op.ID) }
		case "abort":
			fn = func() { m.abort(op.ID) }
		case "fail":
			fn = func() { cl.FailNode(cl.Nodes()[op.Node]) }
		case "repair":
			fn = func() { cl.RepairNode(cl.Nodes()[op.Node]) }
		case "strategy":
			fn = func() { m.pick = namedStrategy(op.ID, cl.Engine()) }
		case "oracle":
			fn = func() { m.oracle = oracle }
		}
		cl.Engine().At(sim.Time(op.At), fn)
	}
}

// windowedFIFO is first fit that refuses submissions wider than four cores
// during odd 50-second windows — a time-varying quota, so PickNode returns
// nil for submissions that do have feasible nodes.
type windowedFIFO struct{ eng *sim.Engine }

func (windowedFIFO) Name() string                             { return "windowed-fifo" }
func (windowedFIFO) Prioritize(p []*Submission) []*Submission { return p }
func (w windowedFIFO) PickNode(s *Submission, c []*cluster.Node) *cluster.Node {
	if len(c) == 0 || (s.Cores > 4 && int(w.eng.Now()/50)%2 == 1) {
		return nil
	}
	return c[0]
}

// tapeOracle predicts every submission's exact tape duration, except that
// it stays cold for every third submission ID.
func tapeOracle(tape []tapeOp) DurationOracle {
	durs := map[string]float64{}
	for i, op := range tape {
		if op.Op == "submit" && i%3 != 0 {
			durs[op.ID] = op.Dur
		}
	}
	return func(s *Submission, _ *cluster.Node) (float64, bool) {
		d, ok := durs[s.ID]
		return d, ok
	}
}

// gpuHetero is Heterogeneous with GPUs on the two larger families, so every
// tape shape fits some node and blocked submissions eventually run.
func gpuHetero(eng *sim.Engine) *cluster.Cluster {
	return cluster.New(eng, "gh",
		cluster.Spec{Type: cluster.NodeType{Name: "a", Cores: 8, MemBytes: 32e9}, Count: 5},
		cluster.Spec{Type: cluster.NodeType{Name: "b", Cores: 16, GPUs: 2, MemBytes: 64e9, SpeedFactor: 1.4}, Count: 5},
		cluster.Spec{Type: cluster.NodeType{Name: "c", Cores: 32, GPUs: 4, MemBytes: 128e9, SpeedFactor: 2}, Count: 5},
	)
}

// TestDispatchMatchesReferenceReplay replays every tape through the
// TaskManager and the reference dispatcher — plain first fit, first fit
// under predicted backfill, and a strategy whose PickNode returns nil, each
// on a GPU-less and a GPU cluster — and requires every submission to
// resolve identically: same node, same start and finish time, same failure
// flag. Plain first fit takes the bucketed path, so it also replays a
// saturated queue drawn from five shapes, with cancels and aborts landing
// deep inside blocked buckets, and the same tapes with the strategy
// switched to windowed-fifo and back and the oracle armed mid-run, which
// move the queue out of buckets and into them.
func TestDispatchMatchesReferenceReplay(t *testing.T) {
	clusters := []func(*sim.Engine) *cluster.Cluster{
		func(e *sim.Engine) *cluster.Cluster { return cluster.Heterogeneous(e, 5) },
		gpuHetero,
	}
	fifo := func(*sim.Engine) Strategy { return FIFO{} }
	saturated := tapeMix{ops: 600, window: 120, churn: 2, withdraw: 2, shapes: 5}
	switching := saturated
	switching.switches = true
	cases := []struct {
		name     string
		strategy func(*sim.Engine) Strategy
		oracle   bool
		mix      tapeMix
	}{
		{"fifo", fifo, false, defaultMix},
		{"fifo-backfill", fifo, true, defaultMix},
		{"windowed-fifo", func(e *sim.Engine) Strategy { return windowedFIFO{e} }, false, defaultMix},
		{"fifo-saturated", fifo, false, saturated},
		{"fifo-switching", fifo, false, switching},
	}
	for _, tc := range cases {
		var sum replayStats
		for _, build := range clusters {
			for seed := int64(1); seed <= 6; seed++ {
				tape := genTapeMix(randx.New(seed*7919+3), 15, tc.mix)
				sum.add(checkReplay(t, tc.name, build, tc.strategy, tc.oracle, seed, tape))
			}
		}
		t.Logf("%s: %d placements after a wait, %d reservations, %d nil picks, %d withdrawals deep in blocked buckets",
			tc.name, sum.waited, sum.reserved, sum.refused, sum.deep)
		reserves := tc.oracle || tc.mix.switches
		refuses := tc.name == "windowed-fifo" || tc.mix.switches
		if sum.waited < 100 || (reserves && sum.reserved == 0) || (refuses && sum.refused == 0) ||
			(tc.mix.shapes > 0 && sum.deep < 20) {
			t.Fatalf("%s: tapes left a path unexercised (waited %d, reserved %d, refused %d, deep withdrawals %d)",
				tc.name, sum.waited, sum.reserved, sum.refused, sum.deep)
		}
	}
}

// replayStats counts the paths one or more replays exercised: placements
// after a wait, reservations and nil picks on the reference, and cancels or
// aborts of entries behind the head of a blocked bucket on the manager.
type replayStats struct{ waited, reserved, refused, deep int }

func (s *replayStats) add(o replayStats) {
	s.waited, s.reserved, s.refused, s.deep = s.waited+o.waited, s.reserved+o.reserved, s.refused+o.refused, s.deep+o.deep
}

// replayBoth runs tape through a TaskManager and through the reference
// dispatcher, each on its own engine and cluster from build, and returns
// both outcome maps. With oracle set the tape's oracle is armed from the
// start.
func replayBoth(build func(*sim.Engine) *cluster.Cluster, strategy func(*sim.Engine) Strategy, oracle bool, tape []tapeOp) (got, want map[string]outcome, st replayStats) {
	var o DurationOracle
	if oracle {
		o = tapeOracle(tape)
	}
	eng := sim.NewEngine()
	cl := build(eng)
	m := NewTaskManager(cl, strategy(eng))
	if o != nil {
		m.SetDurationOracle(o)
	}
	for _, op := range tape {
		if op.Op == "cancel" || op.Op == "abort" {
			id := op.ID // scheduled first, so it runs just before the withdrawal
			eng.At(sim.Time(op.At), func() {
				if deepInBlockedBucket(m, id) {
					st.deep++
				}
			})
		}
	}
	got = map[string]outcome{}
	replayTape(eng, cl, m, tape, func(id string) func(Result) {
		return func(r Result) {
			o := outcome{Node: -1, Start: float64(r.StartedAt),
				Finish: float64(r.FinishedAt), Failed: r.Failed, Resolved: true}
			if r.Node != nil {
				o.Node = r.Node.ID
			}
			got[id] = o
		}
	})
	eng.Run()

	refEng := sim.NewEngine()
	refCl := build(refEng)
	ref := newRefManager(refCl, strategy(refEng), o)
	replayReference(refCl, ref, tape)
	refEng.Run()
	st.waited, st.reserved, st.refused = ref.waited, ref.reserved, ref.refused
	return got, ref.out, st
}

// checkReplay fails t, with the tape dumped, when any submission of tape
// resolves differently on the manager and the reference.
func checkReplay(t *testing.T, name string, build func(*sim.Engine) *cluster.Cluster, strategy func(*sim.Engine) Strategy, oracle bool, seed int64, tape []tapeOp) replayStats {
	t.Helper()
	got, want, st := replayBoth(build, strategy, oracle, tape)
	if diff := diffOutcomes(tape, got, want); len(diff) > 0 {
		clName := build(sim.NewEngine()).Name
		dumpDispatchFailure(fmt.Sprintf("%s/%s", name, clName), seed, tape, diff)
		t.Fatalf("%s on %s seed %d: %d submissions diverge from the reference; first: %s (manager %+v, reference %+v)",
			name, clName, seed, len(diff), diff[0].ID, diff[0].Manager, diff[0].Reference)
	}
	return st
}

// deepInBlockedBucket reports whether id is queued behind the head of a
// blocked bucket.
func deepInBlockedBucket(m *TaskManager, id string) bool {
	for _, bi := range m.order {
		b := &m.buckets[bi]
		for s := b.head; s != nil; s = s.next {
			if s.ID == id {
				return b.blocked && s != b.head
			}
		}
	}
	return false
}

type outcomeDiff struct {
	ID        string  `json:"id"`
	Manager   outcome `json:"manager"`
	Reference outcome `json:"reference"`
}

// diffOutcomes lists, in tape order, the submissions whose outcomes differ.
func diffOutcomes(tape []tapeOp, got, want map[string]outcome) []outcomeDiff {
	var out []outcomeDiff
	for _, op := range tape {
		if op.Op == "submit" && got[op.ID] != want[op.ID] {
			out = append(out, outcomeDiff{op.ID, got[op.ID], want[op.ID]})
		}
	}
	return out
}

// dumpDispatchFailure writes the replayable tape plus every diverging
// submission to dispatch_tape_failure.json (uploaded as a CI artifact).
func dumpDispatchFailure(name string, seed int64, tape []tapeOp, diff []outcomeDiff) {
	data, err := json.MarshalIndent(map[string]any{
		"case": name, "seed": seed, "tape": tape, "diverging": diff,
	}, "", "  ")
	if err == nil {
		_ = os.WriteFile("dispatch_tape_failure.json", data, 0o644)
	}
}

func TestQueueWaitsReturnsCopy(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTaskManager(testCluster(eng, 1, 4), nil)
	m.Submit(&Submission{ID: "a", Cores: 1, Runtime: fixedRuntime(5)})
	m.Submit(&Submission{ID: "b", Cores: 4, Runtime: fixedRuntime(5)})
	eng.Run()
	w := m.QueueWaits()
	if len(w) != 2 {
		t.Fatalf("waits = %v", w)
	}
	w[0], w[1] = -777, -777 // caller mutates its copy
	again := m.QueueWaits()
	if again[0] == -777 || again[1] == -777 {
		t.Fatalf("QueueWaits exposed manager state: %v", again)
	}
	if again[0] != 0 || again[1] != 5 {
		t.Fatalf("waits corrupted: %v", again)
	}
}
