package main

import (
	"fmt"
	"math"

	"hhcw/internal/cluster"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

// The dense workload is the dispatch hot path: one rm.TaskManager with
// first-fit FIFO over a 118-node cluster per worker, reset in place between
// runs. Each run submits a burst of mixed cores/memory/GPU tasks while nodes
// fail and come back.

const (
	denseBursts  = 8    // distinct bursts per seed; runs cycle through them
	denseTasks   = 1500 // tasks per burst
	denseChurn   = 8    // node fail/repair pairs per burst
	densePerType = 34   // nodes of each CPU family
	denseGPUs    = 16   // GPU nodes
)

// denseCluster builds the cluster: the three cluster.Heterogeneous families
// (which have no GPUs) and a GPU family, so GPU requests have somewhere to go.
func denseCluster(eng *sim.Engine) *cluster.Cluster {
	return cluster.New(eng, "dense",
		cluster.Spec{Type: cluster.NodeType{Name: "a", Cores: 8, MemBytes: 32e9, SpeedFactor: 1.0, IOFactor: 1.0}, Count: densePerType},
		cluster.Spec{Type: cluster.NodeType{Name: "b", Cores: 16, MemBytes: 64e9, SpeedFactor: 1.4, IOFactor: 1.2}, Count: densePerType},
		cluster.Spec{Type: cluster.NodeType{Name: "c", Cores: 32, MemBytes: 128e9, SpeedFactor: 2.0, IOFactor: 1.5}, Count: densePerType},
		cluster.Spec{Type: cluster.NodeType{Name: "g", Cores: 32, GPUs: 4, MemBytes: 256e9, SpeedFactor: 1.6, IOFactor: 1.5}, Count: denseGPUs},
	)
}

type denseTask struct {
	id    string
	cores int
	gpus  int
	mem   float64
	dur   float64 // seconds on a reference node
	at    sim.Time
}

type denseBurst struct {
	tasks []denseTask
	churn []int // node indices failed, in order
}

// genDense draws the bursts of a seed.
func genDense(seed int64, nodes int) []denseBurst {
	rng := randx.New(seed)
	bursts := make([]denseBurst, denseBursts)
	for bi := range bursts {
		r := rng.Fork()
		b := &bursts[bi]
		for j := 0; j < denseTasks; j++ {
			t := denseTask{
				id:    fmt.Sprintf("b%d-t%04d", bi, j),
				cores: 1 + r.Intn(8),
				mem:   float64(1+r.Intn(8)) * 4e9,
				dur:   30 + r.Float64()*300,
				at:    sim.Time(r.Float64() * 120),
			}
			if r.Float64() < 0.1 {
				t.gpus = 1 + r.Intn(2)
			}
			b.tasks = append(b.tasks, t)
		}
		for _, n := range r.Perm(nodes)[:denseChurn] {
			b.churn = append(b.churn, n)
		}
	}
	return bursts
}

// denseHooks are a submission's callbacks; counter, when non-nil, counts
// placements for the traced run.
type denseHooks struct {
	dur     float64
	counter *int64
}

func (h *denseHooks) RuntimeOn(n *cluster.Node) float64 {
	if h.counter != nil {
		*h.counter++
	}
	return h.dur / n.Type.SpeedFactor
}
func (h *denseHooks) ValidateOn(*cluster.Node) error { return nil }
func (h *denseHooks) Done(rm.Result)                 {}

// denseWorker is one worker's substrate and the prebuilt event callbacks of
// every burst.
type denseWorker struct {
	eng    *sim.Engine
	cl     *cluster.Cluster
	mgr    *rm.TaskManager
	warm   bool
	submit [][]func()
	fail   [][]func()
	repair [][]func()
}

func setupDense(seed int64, workers int, tr *tracer) (*bench, error) {
	b := &bench{workers: workers, jobs: denseBursts, tr: tr, setupMs: map[string]float64{}}
	bursts := genDense(seed, 3*densePerType+denseGPUs)
	ws := make([]*denseWorker, workers)
	for w := range ws {
		dw := &denseWorker{eng: sim.NewEngine()}
		dw.cl = denseCluster(dw.eng)
		var strat rm.Strategy = rm.FIFO{}
		var counter *int64
		if tr != nil {
			strat = &tracedRM{inner: strat, cl: dw.cl, t: tr.w[w]}
			counter = &tr.w[w].n.placements
		}
		dw.mgr = rm.NewTaskManager(dw.cl, strat)
		nodes := dw.cl.Nodes()
		for bi := range bursts {
			bt := &bursts[bi]
			subs := make([]rm.Submission, len(bt.tasks))
			hooks := make([]denseHooks, len(bt.tasks))
			fns := make([]func(), len(bt.tasks))
			for j := range bt.tasks {
				t := &bt.tasks[j]
				hooks[j] = denseHooks{dur: t.dur, counter: counter}
				fns[j] = func() {
					subs[j] = rm.Submission{ID: t.id, Cores: t.cores, GPUs: t.gpus, Mem: t.mem, Hooks: &hooks[j]}
					dw.mgr.Submit(&subs[j])
				}
			}
			var fail, repair []func()
			for _, ni := range bt.churn {
				n := nodes[ni]
				fail = append(fail, func() { dw.cl.FailNode(n) })
				repair = append(repair, func() { dw.cl.RepairNode(n) })
			}
			dw.submit = append(dw.submit, fns)
			dw.fail = append(dw.fail, fail)
			dw.repair = append(dw.repair, repair)
		}
		ws[w] = dw
	}
	b.label = func(int) string { return "rm.run" }
	b.run = func(worker, job int, detail bool) (outcome, error) {
		dw := ws[worker]
		if dw.warm {
			dw.eng.Reset()
			dw.cl.Reset()
			dw.mgr.Reset()
		}
		dw.warm = true
		bt := &bursts[job]
		for j := range bt.tasks {
			dw.eng.At(bt.tasks[j].at, dw.submit[job][j])
		}
		for k := range bt.churn {
			dw.eng.At(sim.Time(60+25*k), dw.fail[job][k])
			dw.eng.At(sim.Time(300+25*k), dw.repair[job][k])
		}
		ms := dw.eng.Run()
		if tr != nil {
			tr.w[worker].n.events += int64(dw.eng.Fired())
		}
		done, failed := dw.mgr.Completed(), dw.mgr.Failed()
		if done+failed != len(bt.tasks) {
			return outcome{}, fmt.Errorf("dense burst %d stalled: %d done, %d failed of %d", job, done, failed, len(bt.tasks))
		}
		o := outcome{
			tasks:    done,
			digest:   fmt.Sprintf("%016x/%d/%d", math.Float64bits(float64(ms)), done, failed),
			makespan: float64(ms),
			util:     dw.cl.Utilization(0, ms),
		}
		if detail {
			o.waits = dw.mgr.QueueWaits()
			o.counts.failedTasks = failed
			o.counts.peakPending = dw.mgr.QueueSeries().Max()
		}
		return o, nil
	}
	return b, nil
}
