package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"hhcw/internal/randx"
	"hhcw/internal/sweep"
)

// outcome is one simulation run as the benchmark counts and checks it.
type outcome struct {
	tasks    int     // simulated tasks completed
	digest   string  // exact fingerprint of the run's deterministic output
	makespan float64 // virtual seconds
	util     float64 // core utilization as a fraction
	// Filled only when the caller asks for detail (the reference pass).
	waits  []float64 // queue waits in virtual seconds
	counts counts
}

// counts are deterministic per-run layer counts read from the program's
// own results; they repeat exactly for a given seed.
type counts struct {
	cwsRuns        int // runs with a provenance store (CWS environments)
	records        int // provenance records (Store.Len)
	tasksRun       int
	failedAttempts int
	retries        int
	predRuns       int // runs on the prediction-loop environment
	predSamples    int
	predMRE        float64
	admitted       int
	rejected       int
	arrivals       int
	deferred       int
	failedTasks    int     // tasks lost to node churn
	peakPending    float64 // largest pending queue
	peakResident   int     // largest streaming residency
}

func (c *counts) add(o counts) {
	c.cwsRuns += o.cwsRuns
	c.records += o.records
	c.tasksRun += o.tasksRun
	c.failedAttempts += o.failedAttempts
	c.retries += o.retries
	c.predRuns += o.predRuns
	c.predSamples += o.predSamples
	c.predMRE += o.predMRE
	c.admitted += o.admitted
	c.rejected += o.rejected
	c.arrivals += o.arrivals
	c.deferred += o.deferred
	c.failedTasks += o.failedTasks
	c.peakPending = max(c.peakPending, o.peakPending)
	c.peakResident = max(c.peakResident, o.peakResident)
}

// bench is one workload after set-up: a list of jobs that every worker can
// run on its own warm substrate, and the reference outcome of each job.
type bench struct {
	workers int
	jobs    int
	// label names a job's run span in the traced run.
	label func(job int) string
	// run executes job on worker's substrate. detail asks for waits and
	// counts, which cost host time and are only gathered at set-up.
	run func(worker, job int, detail bool) (outcome, error)
	// audit deep-diffs every worker's warm substrate against a fresh one and
	// returns the leaked field paths; nil when the workload has no auditable
	// warm state.
	audit func() []string
	// tenantP99 marks the reference waits as per-tenant p99 queue waits,
	// because service mode does not expose single tasks' waits;
	// sim_wait_s_p99 is then their mean.
	tenantP99 bool
	// setupMs holds host times of set-up stages, by per-layer metric name.
	setupMs map[string]float64
	ref     []outcome
	tr      *tracer // nil on the untraced path
}

// safeRun runs one job, turning a panic in the simulation into an error so
// that a broken run counts as failed instead of ending the benchmark. On the
// traced path the run is the root span of its layer spans.
func (b *bench) safeRun(worker, job int, detail bool) (o outcome, err error) {
	if b.tr != nil {
		t := b.tr.w[worker]
		t.enter(b.label(job))
		defer t.exit()
	}
	defer func() {
		if p := recover(); p != nil {
			o, err = outcome{}, fmt.Errorf("panic: %v", p)
			if b.tr != nil {
				b.tr.w[worker].unwind()
			}
		}
	}()
	return b.run(worker, job, detail)
}

// warmUp runs every job once on every worker, so that each worker's
// substrate is warm before timing, and keeps worker 0's outcomes as the
// reference. Workers must agree digest for digest.
func warmUp(b *bench) error {
	per := make([][]outcome, b.workers)
	errs := make([]error, b.workers)
	var wg sync.WaitGroup
	for w := 0; w < b.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]outcome, b.jobs)
			for j := range out {
				o, err := b.safeRun(w, j, w == 0)
				if err != nil {
					errs[w] = fmt.Errorf("warm-up job %d on worker %d: %w", j, w, err)
					return
				}
				out[j] = o
			}
			per[w] = out
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for w := 1; w < b.workers; w++ {
		for j := range per[0] {
			if per[w][j].digest != per[0][j].digest {
				return fmt.Errorf("warm-up job %d: worker %d digest %s differs from worker 0 digest %s",
					j, w, per[w][j].digest, per[0][j].digest)
			}
		}
	}
	b.ref = per[0]
	return nil
}

// loopStats is what one closed-loop measurement observed.
type loopStats struct {
	wall      time.Duration
	ms        []float64 // host milliseconds per attempted run
	tasks     int       // simulated tasks completed by good runs
	attempted int
	failed    int
	busy      time.Duration // summed run time over all workers
	firstErr  string
	rt        runtimeSample // runtime counters' change over the loop
}

// minRound is the least number of runs per ForEachWorker round, so that the
// barrier at the end of a round idles a worker for a small share of it.
const minRound = 64

// jobOrder is the order runs are drawn in: a seeded permutation of the job
// list, repeated to at least minRound entries. A time-bounded loop stops
// part way through a round, and a permutation keeps that prefix
// representative of the whole job mix.
func jobOrder(jobs int, seed int64) []int {
	perm := randx.New(seed).Perm(jobs)
	var order []int
	for len(order) < minRound {
		order = append(order, perm...)
	}
	return order
}

// closedLoop runs the workload for the given duration with one closed-loop
// client per worker: each worker starts its next run when its previous one
// returns. Every run is checked against its job's reference digest.
func closedLoop(b *bench, d time.Duration, order []int) loopStats {
	per := make([]loopStats, b.workers) // slot w is written only by worker w
	rt0 := readRuntime()
	start := time.Now()
	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		_ = sweep.ForEachWorker(len(order), b.workers, nil, func(w, idx int) error {
			t0 := time.Now()
			if !t0.Before(deadline) {
				return nil
			}
			job := order[idx]
			o, err := b.safeRun(w, job, false)
			el := time.Since(t0)
			st := &per[w]
			st.attempted++
			st.busy += el
			st.ms = append(st.ms, float64(el.Nanoseconds())/1e6)
			if err == nil && o.digest != b.ref[job].digest {
				err = fmt.Errorf("job %d digest %s, reference %s", job, o.digest, b.ref[job].digest)
			}
			if err != nil {
				st.failed++
				if st.firstErr == "" {
					st.firstErr = err.Error()
				}
				return nil
			}
			st.tasks += o.tasks
			return nil
		})
	}
	var out loopStats
	out.wall = time.Since(start)
	out.rt = readRuntime().since(rt0)
	for _, st := range per {
		out.ms = append(out.ms, st.ms...)
		out.tasks += st.tasks
		out.attempted += st.attempted
		out.failed += st.failed
		out.busy += st.busy
		if out.firstErr == "" {
			out.firstErr = st.firstErr
		}
	}
	return out
}

// quantile returns the q-quantile of v by linear interpolation between
// order statistics; v is sorted in place.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
