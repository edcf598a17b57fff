package main

import (
	"fmt"
	"time"

	"hhcw/internal/cluster"
	"hhcw/internal/core"
	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/provenance"
	"hhcw/internal/randx"
	"hhcw/internal/sim"
	"hhcw/internal/sweep"
)

// The ensemble workload is the §3.5 experiment: the five sweeprun workflow
// families, each instance run under four environments on warm sessions.
// Runs are small (tens of tasks), so per-run fixed costs dominate.

var ensembleOpts = dag.GenOpts{MeanDur: 300, CVDur: 1.5, Cores: 1, MaxCores: 4, MeanMem: 2e9}

var ensembleFamilies = []sweep.WorkflowSpec{
	{Name: "montage-16", Gen: func(r *randx.Source) *dag.Workflow { return dag.MontageLike(r, 16, ensembleOpts) }},
	{Name: "epigenomics-6x5", Gen: func(r *randx.Source) *dag.Workflow { return dag.EpigenomicsLike(r, 6, 5, ensembleOpts) }},
	{Name: "forkjoin-3x12", Gen: func(r *randx.Source) *dag.Workflow { return dag.ForkJoin(r, 3, 12, ensembleOpts) }},
	{Name: "rnaseq-12", Gen: func(r *randx.Source) *dag.Workflow { return dag.RNASeqLike(r, 12, ensembleOpts) }},
	{Name: "layered-6x10", Gen: func(r *randx.Source) *dag.Workflow { return dag.RandomLayered(r, 6, 10, ensembleOpts) }},
}

// ensembleInstances is the number of workflows generated per family and
// seed; with four environments each seed gives 5×32×4 = 640 jobs. Fewer
// leave the virtual metrics' medians moving by over 10 % from seed to seed.
const ensembleInstances = 64

// ensembleEnvNames are the environments in job order; envLabels name their
// run spans.
var (
	ensembleEnvNames = []string{"fifo", "cws-rank", "storm", "lotaru"}
	envLabels        = []string{"core.run.fifo", "core.run.cws", "core.run.storm", "core.run.lotaru"}
)

// ensembleEnvs builds the four environments: FIFO and CWS rank on the
// contended 2×8 cluster, CWS rank under the storm fault profile, and the
// Lotaru prediction loop on the heterogeneous cluster. wrap, when non-nil,
// wraps each configured CWS strategy; hetero tells it which cluster the
// strategy runs on.
func ensembleEnvs(wrap func(s cwsi.Strategy, hetero bool) cwsi.Strategy) []sweep.EnvSpec {
	if wrap == nil {
		wrap = func(s cwsi.Strategy, _ bool) cwsi.Strategy { return s }
	}
	return []sweep.EnvSpec{
		{Name: "fifo", New: func() core.Environment {
			return &core.KubernetesEnv{Nodes: 2, CoresPerNode: 8}
		}},
		{Name: "cws-rank", New: func() core.Environment {
			return &core.KubernetesEnv{Nodes: 2, CoresPerNode: 8, Strategy: wrap(cwsi.Rank{}, false)}
		}},
		{Name: "storm", New: func() core.Environment {
			return &core.KubernetesEnv{Nodes: 2, CoresPerNode: 8, Strategy: wrap(cwsi.Rank{}, false), Faults: fault.Storm()}
		}},
		{Name: "lotaru", New: func() core.Environment {
			return &core.KubernetesEnv{Nodes: 2, Heterogeneous: true, Strategy: wrap(cwsi.Baseline{}, true), Predict: "lotaru"}
		}},
	}
}

// ensembleSeeds is the block of sweep seeds a benchmark seed stands for.
func ensembleSeeds(seed int64) []int64 {
	return sweep.Seeds(seed*1000, ensembleInstances)
}

// setupEnsemble generates the workflows, gives every worker its own copy
// and one warm session per environment.
func setupEnsemble(seed int64, workers int, tr *tracer) (*bench, error) {
	b := &bench{workers: workers, tr: tr, setupMs: map[string]float64{}}
	t0 := time.Now()
	// forkSeeds[i] seeds the source workflow i's runs receive.
	var forkSeeds []int64
	var wfs []*dag.Workflow
	for _, fam := range ensembleFamilies {
		for _, s := range ensembleSeeds(seed) {
			// The same draw order as sweep.Run: the workflow, then one fork
			// for the substrate (Fork seeds a child from the next Int63).
			rng := randx.New(s)
			w := fam.Gen(rng)
			if err := w.Validate(); err != nil {
				return nil, fmt.Errorf("ensemble: %s seed %d: %w", fam.Name, s, err)
			}
			forkSeeds = append(forkSeeds, rng.Int63())
			wfs = append(wfs, w)
		}
	}
	// Workflows memoize derived structure on first use, so no two workers
	// share one.
	perWorker := make([][]*dag.Workflow, workers)
	perWorker[0] = wfs
	for w := 1; w < workers; w++ {
		for _, wf := range wfs {
			perWorker[w] = append(perWorker[w], wf.Clone())
		}
	}
	b.setupMs["dag.gen_ms"] = msSince(t0)

	t1 := time.Now()
	sessions := make([][]core.RunSession, workers)
	for w := 0; w < workers; w++ {
		var wrap func(cwsi.Strategy, bool) cwsi.Strategy
		if tr != nil {
			wt := tr.w[w]
			wrap = func(s cwsi.Strategy, hetero bool) cwsi.Strategy {
				var probe *cluster.Cluster
				if hetero {
					probe = cluster.Heterogeneous(sim.NewEngine(), 2)
				} else {
					probe = cluster.New(sim.NewEngine(), "probe", cluster.Spec{
						Type:  cluster.NodeType{Name: "node", Cores: 8, MemBytes: 1e12},
						Count: 2,
					})
				}
				return &tracedCWS{inner: s, probe: probe, t: wt}
			}
		}
		for _, spec := range ensembleEnvs(wrap) {
			s, err := spec.New().(core.SessionEnvironment).NewSession()
			if err != nil {
				return nil, fmt.Errorf("ensemble: session %s: %w", spec.Name, err)
			}
			sessions[w] = append(sessions[w], s)
		}
	}
	b.setupMs["core.session_build_ms"] = msSince(t1)

	nEnv := len(ensembleEnvNames)
	b.jobs = len(wfs) * nEnv
	b.label = func(job int) string { return envLabels[job%nEnv] }
	b.run = func(worker, job int, detail bool) (outcome, error) {
		in, env := job/nEnv, job%nEnv
		res, err := sessions[worker][env].RunSeeded(perWorker[worker][in], randx.New(forkSeeds[in]))
		if err != nil {
			return outcome{}, err
		}
		o := outcome{
			tasks:    res.TasksRun - res.TerminalFailures,
			digest:   res.Fingerprint(),
			makespan: res.MakespanSec,
			util:     res.UtilizationCore,
		}
		if !detail {
			return o, nil
		}
		c := &o.counts
		c.tasksRun = res.TasksRun
		c.failedAttempts = res.FailedAttempts
		c.retries = res.Retries
		if ensembleEnvNames[env] == "lotaru" {
			c.predRuns = 1
			c.predSamples = res.PredSamples
			c.predMRE = res.PredMREPct
		}
		if st, ok := res.Provenance.(*provenance.Store); ok && st != nil {
			c.cwsRuns = 1
			c.records = st.Len()
			for _, r := range st.All() {
				if r.StartedAt >= r.SubmittedAt && r.Node != "" {
					o.waits = append(o.waits, float64(r.StartedAt-r.SubmittedAt))
				}
			}
		}
		return o, nil
	}
	b.audit = func() []string {
		var leaks []string
		for w := range sessions {
			for i, s := range sessions[w] {
				for _, l := range s.Audit() {
					leaks = append(leaks, fmt.Sprintf("worker %d %s: %s", w, ensembleEnvNames[i], l))
				}
			}
		}
		return leaks
	}
	return b, nil
}

// ensembleColdCheck runs the first seeds of the block through the cold
// sweep.Run path and compares every fingerprint with the warm reference.
func ensembleColdCheck(b *bench, seed int64, workers, nSeeds int) error {
	seeds := ensembleSeeds(seed)[:nSeeds]
	rep, err := sweep.Run(sweep.Config{
		Workflows: ensembleFamilies,
		Envs:      ensembleEnvs(nil),
		Seeds:     seeds,
		Workers:   workers,
	})
	if err != nil {
		return fmt.Errorf("cold sweep: %w", err)
	}
	envIdx := map[string]int{}
	for i, n := range ensembleEnvNames {
		envIdx[n] = i
	}
	famIdx := map[string]int{}
	for i, f := range ensembleFamilies {
		famIdx[f.Name] = i
	}
	base := ensembleSeeds(seed)[0]
	for _, rr := range rep.Runs {
		in := famIdx[rr.Workflow]*ensembleInstances + int(rr.Seed-base)
		job := in*len(ensembleEnvNames) + envIdx[rr.Env]
		if got, want := rr.Result.Fingerprint(), b.ref[job].digest; got != want {
			return fmt.Errorf("cold %s/%s seed %d: fingerprint %s, warm %s", rr.Workflow, rr.Env, rr.Seed, got, want)
		}
	}
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
