package rm

import (
	"fmt"
	"sort"
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

// Queue-wait accounting property, checked over random submit/cancel/abort/
// node-churn tapes (the crosscheck harness's generator):
//
//   - QueueWaits() is exactly the multiset of StartedAt−SubmittedAt over the
//     submissions that actually started on a node — nothing more, nothing
//     less. In particular cancelled submissions NEVER contribute.
//   - Abort of a still-pending submission yields a terminal Result with
//     Node == nil whose QueueWait() covers the full pending span (StartedAt
//     pinned to the abort time, as documented on Abort) — and that wait does
//     not leak into QueueWaits().
//
// The per-tenant p99 queue-wait SLO metrics in internal/service are computed
// from exactly these two sources, so this pins their provenance.
func TestQueueWaitAccountingProperty(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		eng := sim.NewEngine()
		cl := cluster.Heterogeneous(eng, 4) // 12 nodes, three families
		m := NewTaskManager(cl, nil)
		tape := genTape(randx.New(seed*104729+11), cl.NodeCount())

		results := make(map[string]Result)
		submitted := make(map[string]sim.Time)
		for _, op := range tape {
			op := op
			switch op.Op {
			case "submit":
				eng.At(sim.Time(op.At), func() {
					submitted[op.ID] = eng.Now()
					m.Submit(&Submission{
						ID: op.ID, Cores: op.Cores, GPUs: op.GPUs, Mem: op.Mem,
						Runtime: fixedRuntime(op.Dur),
						Done: func(r Result) {
							if _, dup := results[op.ID]; dup {
								t.Fatalf("seed %d: %s terminated twice", seed, op.ID)
							}
							results[op.ID] = r
						},
					})
				})
			case "cancel":
				eng.At(sim.Time(op.At), func() { m.Cancel(op.ID) })
			case "abort":
				eng.At(sim.Time(op.At), func() { m.Abort(op.ID, fmt.Errorf("tape abort")) })
			case "fail":
				eng.At(sim.Time(op.At), func() { cl.FailNode(cl.Nodes()[op.Node]) })
			case "repair":
				eng.At(sim.Time(op.At), func() { cl.RepairNode(cl.Nodes()[op.Node]) })
			}
		}
		eng.Run()

		var want []float64
		pendingAborts := 0
		for id, r := range results {
			if r.SubmittedAt != submitted[id] {
				t.Fatalf("seed %d: %s SubmittedAt=%v, submitted at %v", seed, id, r.SubmittedAt, submitted[id])
			}
			if r.Node != nil {
				// Started on a node: its wait must appear in QueueWaits,
				// whether it later completed, failed, or was aborted running.
				want = append(want, float64(r.StartedAt-r.SubmittedAt))
				continue
			}
			// Never started: only Abort-while-pending produces a terminal
			// result without a node.
			pendingAborts++
			if !r.Failed || r.Err == nil {
				t.Fatalf("seed %d: %s nodeless result not a failure: %+v", seed, id, r)
			}
			if r.StartedAt != r.FinishedAt {
				t.Fatalf("seed %d: %s pending abort StartedAt=%v FinishedAt=%v", seed, id, r.StartedAt, r.FinishedAt)
			}
			if r.QueueWait() < 0 {
				t.Fatalf("seed %d: %s negative pending-abort wait %v", seed, id, r.QueueWait())
			}
		}

		got := m.QueueWaits()
		sort.Float64s(want)
		sort.Float64s(got)
		if len(got) != len(want) {
			t.Fatalf("seed %d: QueueWaits has %d entries, want %d started submissions (%d pending aborts, %d results)",
				seed, len(got), len(want), pendingAborts, len(results))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: QueueWaits[%d]=%v, want %v", seed, i, got[i], want[i])
			}
		}
		// Queue gauge must agree with the leftover live queue at drain time:
		// whatever never became feasible, minus everything cancelled/placed.
		if n := queuedEntries(m); int(m.QueueSeries().Value()) != n {
			t.Fatalf("seed %d: final gauge %v != live pending %d", seed, m.QueueSeries().Value(), n)
		}
		// Cancelled and aborted entries must not strand empty buckets.
		for _, bi := range m.order {
			if m.buckets[bi].head == nil {
				t.Fatalf("seed %d: empty bucket %+v left queued", seed, m.buckets[bi])
			}
		}
	}
}

// queuedEntries counts the submissions physically queued on either path.
func queuedEntries(m *TaskManager) int {
	n := len(m.pending)
	for _, bi := range m.order {
		for s := m.buckets[bi].head; s != nil; s = s.next {
			n++
		}
	}
	return n
}
