package main

import (
	"fmt"
	"math"
	"time"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/jaws"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

// The stream workload is a jaws WDL scatter of about 10⁵ shards streamed
// through rm.StreamRunner under a bounded residency window, on a sharded
// engine with a lean manager and folded cluster metrics. Per-task cost
// dominates, and resident state must stay O(window).

const (
	streamShards      = 100_000
	streamMaxResident = 1536
	streamNodes       = 32
	streamShardsPerQ  = 4 // sim.Engine queue shards
)

// streamWDL draws the workflow description of a seed: a prep task, a
// scatter of 10⁵ to 1.04×10⁵ shards, and a gather.
func streamWDL(seed int64) string {
	r := randx.New(seed)
	shards := streamShards + r.Intn(4001)
	return fmt.Sprintf(`
workflow scatter%d
task prep cpu=1 dur=%ds
task work cpu=1 dur=%ds scatter=%d after=prep
task gather cpu=1 dur=%ds after=work
`, seed, 10+r.Intn(5), 58+r.Intn(5), shards, 5+r.Intn(5))
}

// streamWorker is one worker's substrate, reset in place between runs. A
// StreamRunner and its expander are single-use, so each run makes new ones;
// expanding a parsed description is O(task definitions).
type streamWorker struct {
	eng  *sim.Engine
	cl   *cluster.Cluster
	mgr  *rm.TaskManager
	warm bool
}

func setupStream(seed int64, workers int, tr *tracer) (*bench, error) {
	b := &bench{workers: workers, jobs: 1, tr: tr, setupMs: map[string]float64{}}
	t0 := time.Now()
	def, err := jaws.Parse(streamWDL(seed))
	if err != nil {
		return nil, fmt.Errorf("stream: parse: %w", err)
	}
	if _, err := def.Expand(); err != nil {
		return nil, fmt.Errorf("stream: expand: %w", err)
	}
	b.setupMs["jaws.expand_ms"] = msSince(t0)

	ws := make([]*streamWorker, workers)
	for w := range ws {
		sw := &streamWorker{eng: sim.NewEngine()}
		sw.eng.SetShards(streamShardsPerQ)
		sw.cl = cluster.New(sw.eng, "site", cluster.Spec{
			Type:  cluster.NodeType{Name: "node", Cores: 32, MemBytes: 256e9},
			Count: streamNodes,
		})
		sw.cl.FoldMetrics()
		var strat rm.Strategy = rm.FIFO{}
		if tr != nil {
			strat = &tracedRM{inner: strat, cl: sw.cl, t: tr.w[w]}
		}
		sw.mgr = rm.NewTaskManager(sw.cl, strat)
		sw.mgr.SetLean()
		ws[w] = sw
	}
	b.label = func(int) string { return "rm.stream" }
	b.run = func(worker, _ int, detail bool) (outcome, error) {
		sw := ws[worker]
		if sw.warm {
			sw.eng.Reset()
			sw.cl.Reset()
			sw.mgr.Reset()
		}
		sw.warm = true
		x, err := def.Expand()
		if err != nil {
			return outcome{}, err
		}
		sr := &rm.StreamRunner{Manager: sw.mgr, Source: x, WorkflowID: def.Name, MaxResident: streamMaxResident}
		if tr != nil {
			wt := tr.w[worker]
			sr.Source = &tracedExpander{Expander: x, t: wt}
			sr.Runtime = func(t *dag.Task, n *cluster.Node) float64 {
				wt.n.placements++
				return rm.DefaultRuntime(t, n)
			}
		}
		var waits []float64
		if detail {
			sr.Observe = func(_ *dag.Task, r rm.Result) {
				waits = append(waits, float64(r.QueueWait()))
			}
		}
		ms := sr.Run()
		if tr != nil {
			tr.w[worker].n.events += int64(sw.eng.Fired())
		}
		done, failed := sw.mgr.Completed(), sw.mgr.Failed()
		if done != x.Total() {
			return outcome{}, fmt.Errorf("stream: %d of %d shards completed", done, x.Total())
		}
		o := outcome{
			tasks: done,
			digest: fmt.Sprintf("%016x/%d/%d/%d", math.Float64bits(float64(ms)), done, failed,
				sr.PeakResident()),
			makespan: float64(ms),
			util:     sw.cl.Utilization(0, ms),
			waits:    waits,
		}
		o.counts.peakResident = sr.PeakResident()
		return o, nil
	}
	return b, nil
}
