package rm

import (
	"errors"
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/sim"
)

// A submitter that pools its records (StreamRunner, the CWS) may reuse a
// submission the moment its terminal result arrives. Aborting a pending
// submission delivers that result at once, so the record can come back
// through Submit before any pass has run. It must then be queued once and
// started once, on either dispatch path.
func TestWithdrawnRecordReusableAtOnce(t *testing.T) {
	forBothPaths(func(eng *sim.Engine, strat Strategy) {
		m := NewTaskManager(testCluster(eng, 1, 4), strat)
		starts, dones := 0, 0
		rec := &Submission{}
		var reuse func(Result)
		reuse = func(r Result) {
			dones++
			if r.Submission.ID == "b" {
				*rec = Submission{ID: "b-retry", Cores: 1, Runtime: func(*cluster.Node) float64 {
					starts++
					return 5
				}, Done: reuse}
				m.Submit(rec)
			}
		}
		m.Submit(&Submission{ID: "a", Cores: 4, Runtime: fixedRuntime(100)})
		*rec = Submission{ID: "b", Cores: 2, Runtime: fixedRuntime(5), Done: reuse}
		m.Submit(rec)
		eng.At(10, func() {
			if !m.Abort("b", errors.New("timeout")) {
				t.Errorf("%s: b not found pending", strat.Name())
			}
		})
		eng.Run()
		if starts != 1 || dones != 2 {
			t.Errorf("%s: reused record started %d times, %d results; want 1 start, 2 results", strat.Name(), starts, dones)
		}
		if m.QueueLen() != 0 || m.Completed() != 2 || m.Failed() != 1 {
			t.Errorf("%s: queue %d, completed %d, failed %d; want 0, 2, 1", strat.Name(), m.QueueLen(), m.Completed(), m.Failed())
		}
	})
}

// forBothPaths runs f once with FIFO, which takes the bucketed path, and
// once with windowed-fifo, which takes the walk and places exactly like
// FIFO for submissions of at most four cores.
func forBothPaths(f func(eng *sim.Engine, strat Strategy)) {
	for _, walk := range []bool{false, true} {
		eng := sim.NewEngine()
		var strat Strategy = FIFO{}
		if walk {
			strat = windowedFIFO{eng}
		}
		f(eng, strat)
	}
}

// Cancel withdraws the earliest pending submission with the ID, on either
// dispatch path, wherever the later ones with the same ID sit in the
// bucket order.
func TestCancelTakesEarliestDuplicate(t *testing.T) {
	forBothPaths(func(eng *sim.Engine, strat Strategy) {
		m := NewTaskManager(testCluster(eng, 1, 4), strat)
		started := map[int]bool{}
		sub := func(cores int) *Submission {
			return &Submission{ID: "dup", Cores: cores, Runtime: func(*cluster.Node) float64 {
				started[cores] = true
				return 1
			}}
		}
		m.Submit(&Submission{ID: "hog", Cores: 4, Runtime: fixedRuntime(10)})
		m.Submit(sub(2)) // the earliest, in the middle bucket
		m.Submit(sub(1))
		m.Submit(sub(3))
		eng.At(5, func() {
			if !m.Cancel("dup") {
				t.Errorf("%s: no dup pending", strat.Name())
			}
		})
		eng.Run()
		if started[2] || !started[1] || !started[3] {
			t.Fatalf("%s: started %v, want the 1- and 3-core dups only", strat.Name(), started)
		}
	})
}

// A submission made from a Runtime hook during a pass waits for the next
// pass, on either dispatch path. Here that pass runs after a release queued
// behind the current one, so the hook's submission lands on the released
// node 0 rather than on the space left on node 1.
func TestSubmitFromRuntimeWaitsForNextPass(t *testing.T) {
	forBothPaths(func(eng *sim.Engine, strat Strategy) {
		cl := testCluster(eng, 2, 2)
		m := NewTaskManager(cl, strat)
		hold, err := cl.Allocate(cl.Nodes()[0], 2, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		var onB *cluster.Node
		b := &Submission{ID: "b", Cores: 1, Runtime: fixedRuntime(1), Done: func(r Result) { onB = r.Node }}
		a := &Submission{ID: "a", Cores: 1, Runtime: func(*cluster.Node) float64 {
			m.Submit(b)
			return 1
		}}
		eng.At(5, func() {
			m.Submit(a)
			eng.After(0, func() { cl.Release(hold) })
		})
		eng.Run()
		if onB != cl.Nodes()[0] {
			t.Fatalf("%s: b ran on %v, want node 0", strat.Name(), onB)
		}
	})
}
