package main

import (
	"fmt"
	"time"

	"hhcw/internal/service"
)

// The service workload is §6 multi-tenant service mode: the contended
// three-tenant scenario under FIFO and under fair share, each with its solo
// baselines, on one warm service.Substrate per worker. Workflows arrive and
// are generated during the run. One run is one RunWithBaselines: the
// contended run and a solo run per tenant; its tasks are the contended run's.

// serviceSeeds is the number of scenario seeds per benchmark seed; with two
// strategies each seed gives 32 jobs.
const serviceSeeds = 32

func setupService(seed int64, workers int, tr *tracer) (*bench, error) {
	b := &bench{workers: workers, jobs: 2 * serviceSeeds, tr: tr, tenantP99: true, setupMs: map[string]float64{}}
	// cfgs[worker][strategy]: the traced run wraps every tenant's workload
	// generator with the worker's recorder.
	cfgs := make([][2]service.Config, workers)
	for w := range cfgs {
		for fs := 0; fs < 2; fs++ {
			cfg := service.ContendedScenario(fs == 1)
			// A tighter admission budget on the heavy tenant puts the reject
			// and defer paths on the measured path, as in the internal/perf
			// ServiceFairShare benchmark.
			cfg.Tenants[0].MaxInFlight = 6
			cfg.Tenants[0].MaxDeferred = 4
			if tr != nil {
				for i := range cfg.Tenants {
					cfg.Tenants[i].Workload = tracedWorkload(tr.w[w], cfg.Tenants[i].Workload)
				}
			}
			cfgs[w][fs] = cfg
		}
	}
	t0 := time.Now()
	subs := make([]*service.Substrate, workers)
	for w := range subs {
		c := cfgs[w][0]
		subs[w] = service.NewSubstrate(c.Nodes, c.CoresPerNode, c.MemPerNode)
		if subs[w] == nil {
			return nil, fmt.Errorf("service: scenario has no cluster shape")
		}
	}
	b.setupMs["core.session_build_ms"] = msSince(t0)

	scenSeed := func(job int) int64 { return seed*1000 + int64(job/2) }
	b.label = func(int) string { return "service.run_with_baselines" }
	b.run = func(worker, job int, detail bool) (outcome, error) {
		cfg := cfgs[worker][job%2]
		var res *service.Result
		var err error
		if tr == nil {
			res, err = subs[worker].RunWithBaselines(cfg, scenSeed(job))
		} else {
			res, err = tracedRunWithBaselines(tr.w[worker], subs[worker], cfg, scenSeed(job))
		}
		if err != nil {
			return outcome{}, err
		}
		o := outcome{
			digest:   res.Fingerprint(),
			makespan: res.DrainedAtSec,
			util:     res.Utilization,
		}
		for _, t := range res.Tenants {
			o.tasks += t.TasksStarted
			if detail {
				o.waits = append(o.waits, t.P99WaitSec)
				o.counts.admitted += t.Admitted
				o.counts.rejected += t.Rejected
				o.counts.arrivals += t.Arrivals
				o.counts.deferred += t.Deferred
			}
		}
		return o, nil
	}
	b.audit = func() []string {
		var leaks []string
		for w, s := range subs {
			for _, l := range s.Audit() {
				leaks = append(leaks, fmt.Sprintf("worker %d: %s", w, l))
			}
		}
		return leaks
	}
	return b, nil
}

// tracedRunWithBaselines is Substrate.RunWithBaselines taken apart, so the
// contended run and each solo baseline get their own span: the contended
// run, then one FIFO solo run per tenant whose p99 wait and mean makespan
// are attached to the contended tenant's result.
func tracedRunWithBaselines(t *workerTrace, sub *service.Substrate, cfg service.Config, seed int64) (*service.Result, error) {
	t.enter("service.run")
	res, err := sub.Run(cfg, seed)
	t.exit()
	if err != nil {
		return nil, err
	}
	for i := range res.Tenants {
		t.enter("service.solo")
		solo, err := sub.RunSolo(cfg, seed, i)
		t.exit()
		if err != nil {
			return nil, err
		}
		tr, s := &res.Tenants[i], &solo.Tenants[0]
		tr.SoloP99WaitSec = s.P99WaitSec
		tr.SoloMeanMakespanSec = s.MeanMakespanSec
		if s.P99WaitSec > 0 {
			tr.WaitInflationP99 = tr.P99WaitSec / s.P99WaitSec
		}
		if s.MeanMakespanSec > 0 {
			tr.MakespanInflation = tr.MeanMakespanSec / s.MeanMakespanSec
		}
	}
	return res, nil
}
