package rm

import (
	"fmt"
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

// The running set is a slot-indexed slice with swap-remove. After every event
// of a seeded mix of submissions, completions, aborts at the first, middle
// and last slot, and node failures and repairs, every live record must sit in
// its own slot, the set must hold exactly the started-but-unfinished
// submissions, and no submission may end twice.
func TestRunningSetInvariants(t *testing.T) {
	aborted := map[string]int{}
	for seed := int64(1); seed <= 6; seed++ {
		eng := sim.NewEngine()
		cl := testCluster(eng, 4, 8)
		m := NewTaskManager(cl, nil)
		rng := randx.New(seed)
		live := map[string]bool{} // started, not yet terminal
		ended := map[string]bool{}
		submitted := 0
		submit := func() {
			id := fmt.Sprintf("s%d", submitted)
			submitted++
			dur := float64(1 + rng.Intn(40))
			m.Submit(&Submission{
				ID:    id,
				Cores: 1 + rng.Intn(4),
				Runtime: func(*cluster.Node) float64 {
					live[id] = true
					return dur
				},
				Done: func(r Result) {
					if ended[id] {
						t.Fatalf("seed %d: %s finished twice", seed, id)
					}
					ended[id] = true
					if (r.Node != nil) != live[id] {
						t.Fatalf("seed %d: %s ended with node %v but started=%v", seed, id, r.Node, live[id])
					}
					delete(live, id)
				},
			})
		}
		check := func(step int) {
			t.Helper()
			for i, r := range m.running {
				if r.slot != i { // m.running[r.slot] == r
					t.Fatalf("seed %d step %d: record %s in slot %d claims slot %d", seed, step, r.sub.ID, i, r.slot)
				}
				if !live[r.sub.ID] {
					t.Fatalf("seed %d step %d: running set holds %s, which is not live", seed, step, r.sub.ID)
				}
			}
			if m.RunningCount() != len(live) {
				t.Fatalf("seed %d step %d: RunningCount %d, started-terminal %d", seed, step, m.RunningCount(), len(live))
			}
		}
		abort := func(kind string, slot int) {
			id := m.running[slot].sub.ID
			if !m.Abort(id, fmt.Errorf("abort %s", kind)) {
				t.Fatalf("seed %d: Abort(%s) found nothing", seed, id)
			}
			aborted[kind]++
		}
		nodes := cl.Nodes()
		for step := 0; step < 600; step++ {
			switch k := rng.Intn(12); {
			case k < 3:
				submit()
			case k == 3 && len(m.running) >= 3:
				abort("first", 0)
			case k == 4 && len(m.running) >= 3:
				abort("middle", len(m.running)/2)
			case k == 5 && len(m.running) >= 3:
				abort("last", len(m.running)-1)
			case k == 6:
				if n := nodes[rng.Intn(len(nodes))]; !n.Down() {
					cl.FailNode(n)
				}
			case k == 7:
				if n := nodes[rng.Intn(len(nodes))]; n.Down() {
					cl.RepairNode(n)
				}
			default:
				eng.Step()
			}
			check(step)
		}
		for _, n := range nodes {
			if n.Down() {
				cl.RepairNode(n)
			}
		}
		for step := 600; eng.Step(); step++ {
			check(step)
		}
		if len(ended) != submitted || m.RunningCount() != 0 || len(m.running) != 0 {
			t.Fatalf("seed %d: %d/%d submissions ended, %d still running", seed, len(ended), submitted, m.RunningCount())
		}
	}
	for _, kind := range []string{"first", "middle", "last"} {
		if aborted[kind] == 0 {
			t.Fatalf("no abort at the %s slot: %v", kind, aborted)
		}
	}
}

// disciplineExpander enforces the dag.Expander call discipline on the
// executor: the Observe hook sees a task before the expander hears its
// terminal report, and Retire comes only after that report.
type disciplineExpander struct {
	*dag.WorkflowExpander
	reported map[dag.TaskID]bool
	retired  int
}

func (x *disciplineExpander) TaskDone(id dag.TaskID) {
	x.reported[id] = true
	x.WorkflowExpander.TaskDone(id)
}

func (x *disciplineExpander) TaskFailed(id dag.TaskID) int {
	x.reported[id] = true
	return x.WorkflowExpander.TaskFailed(id)
}

func (x *disciplineExpander) Retire(t *dag.Task) {
	if !x.reported[t.ID] {
		panic(fmt.Sprintf("Retire(%s) before its terminal report", t.ID))
	}
	delete(x.reported, t.ID)
	x.retired++
}

func TestExecutorRetiresAfterReport(t *testing.T) {
	// a -> {b, c} -> d: b recovers on its second attempt, c fails terminally
	// and cascade-skips d, so both report paths and a retry are exercised.
	w := dag.New("w")
	w.Add(&dag.Task{ID: "a", NominalDur: 10})
	w.Add(&dag.Task{ID: "b", NominalDur: 10, Deps: []dag.TaskID{"a"}})
	w.Add(&dag.Task{ID: "c", NominalDur: 10, Deps: []dag.TaskID{"a"}})
	w.Add(&dag.Task{ID: "d", NominalDur: 10, Deps: []dag.TaskID{"b", "c"}})
	wx, err := dag.NewWorkflowExpander(w)
	if err != nil {
		t.Fatal(err)
	}
	x := &disciplineExpander{WorkflowExpander: wx, reported: map[dag.TaskID]bool{}}
	eng := sim.NewEngine()
	sr := &StreamRunner{
		Manager:    NewTaskManager(testCluster(eng, 2, 4), nil),
		Source:     x,
		WorkflowID: "w",
		Retry:      &fault.RetryPolicy{MaxAttempts: 2, BaseDelaySec: 5},
		FailPlan:   planFor(w, map[dag.TaskID]int{"b": 1, "c": 2}),
		Observe: func(task *dag.Task, _ Result) {
			if x.reported[task.ID] {
				t.Fatalf("Observe(%s) after its terminal report", task.ID)
			}
		},
	}
	sr.Run()
	if err := sr.Err(); err != nil {
		t.Fatal(err)
	}
	if st := sr.Stats(); x.retired != 3 || st.Retries != 2 || st.TerminalFailures != 1 || st.Skipped != 1 {
		t.Fatalf("retired %d, stats %+v; want 3 retired, 2 retries, 1 terminal failure, 1 skipped", x.retired, st)
	}
}
