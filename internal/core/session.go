package core

import (
	"fmt"

	"hhcw/internal/cluster"
	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/predict"
	"hhcw/internal/provenance"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
	"hhcw/internal/statediff"
)

// RunSession is a reusable warm-run handle over one environment: the
// simulated substrate (engine, cluster, resource manager, scheduler,
// provenance, metrics) is constructed once and reset in place between runs,
// so an ensemble executes thousands of seeds with near-zero steady-state
// construction cost. The determinism contract is exact: a warm RunSeeded is
// bit-identical to a cold one — same fingerprints, same goldens — which
// Audit and the sweep equivalence battery enforce.
type RunSession interface {
	Name() string
	RunSeeded(w *dag.Workflow, rng *randx.Source) (*Result, error)
	// Audit resets the session and deep-diffs it against a freshly
	// constructed one, returning one line per leaked field path (empty when
	// the reset is clean). Pools and scratch whose capacity legitimately
	// survives are exempt; any observational or decision-bearing state that
	// differs is a reset bug.
	Audit() []string
}

// SessionEnvironment is implemented by environments that support warm-run
// sessions. The plain Environment/SeededEnvironment path remains the cold
// fallback: RunSeeded on the environment itself builds a one-shot session,
// so both paths execute literally the same code.
type SessionEnvironment interface {
	SeededEnvironment
	NewSession() (RunSession, error)
}

// Session is the warm-run session over a KubernetesEnv, and the
// environment's one run body: eager, CWS, streaming and lazily expanded runs
// all execute here, driving the run's dag.Expander through the one executor
// (rm.StreamRunner). One engine, cluster, manager, executor and (when a
// strategy is configured) one CWS with its provenance store live for the
// session's lifetime; every run after the first resets them in place — the
// engine truncates its heaps and keeps its slab tail, the cluster restores
// node capacity and rebuilds the segment index over the same arrays, the
// manager, executor and scheduler clear queues and pooled records without
// dropping capacity, provenance and metrics truncate reusing buffers.
// Per-run state (fault injector, RNG forks, retry policy, runtime predictor)
// is constructed fresh each run in exactly the cold path's order.
//
// A lean session (StreamingEnv, lazy expansion) differs only in its
// substrate: metric series and manager observation fold to running
// aggregates and provenance is a compact store, so memory stays O(window)
// at any task count.
type Session struct {
	env      KubernetesEnv // configuration copy; per-run knobs re-derive from it
	name     string
	predCtor func() predict.RuntimePredictor
	strat    cwsi.Strategy
	lean     bool
	// expand turns each run's workflow into the expander the executor drives
	// (lazy reference expansion); nil replays the workflow through wx.
	expand func(*dag.Workflow) (dag.Expander, error)

	eng       *sim.Engine
	cl        *cluster.Cluster
	mgr       *rm.TaskManager
	cws       *cwsi.CWS         // nil on the plain-FIFO path
	store     *provenance.Store // compact per-run provenance of lean sessions
	observeFn func(*dag.Task, rm.Result)
	runner    *rm.StreamRunner
	wx        dag.WorkflowExpander
	warm      bool `statediff:"keep"` // the one intentional divergence from a fresh session
}

// NewSession implements SessionEnvironment: it validates the configuration
// and constructs the substrate the session will reuse across runs.
func (e *KubernetesEnv) NewSession() (RunSession, error) {
	s, err := e.newSession(false, nil)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// newSession validates the configuration and builds the substrate. Lean
// sessions reject the CWS, which needs the whole DAG at registration.
func (e *KubernetesEnv) newSession(lean bool, expand func(*dag.Workflow) (dag.Expander, error)) (*Session, error) {
	if lean && e.Strategy != nil {
		return nil, fmt.Errorf("core: streaming runs do not support CWS strategies (%q needs the whole DAG)", e.Strategy.Name())
	}
	if lean && e.predictOn() {
		return nil, fmt.Errorf("core: streaming runs do not support the prediction loop (predict=%q needs the CWS)", e.Predict)
	}
	if e.Nodes <= 0 || (!e.Heterogeneous && e.CoresPerNode <= 0) {
		return nil, fmt.Errorf("core: kubernetes env needs nodes and cores")
	}
	predCtor, err := predict.ByName(e.Predict)
	if err != nil {
		return nil, err
	}
	s := &Session{env: *e, name: e.Name(), predCtor: predCtor, strat: e.effectiveStrategy(), lean: lean, expand: expand}
	s.eng = sim.NewEngine()
	if e.Sites > 1 {
		s.eng.SetShards(e.Sites)
	}
	if e.Heterogeneous {
		s.cl = cluster.Heterogeneous(s.eng, e.Nodes)
	} else {
		mem := e.MemPerNode
		if mem == 0 {
			mem = 1e12
		}
		s.cl = cluster.New(s.eng, "k8s", cluster.Spec{
			Type:  cluster.NodeType{Name: "node", Cores: e.CoresPerNode, MemBytes: mem},
			Count: e.Nodes,
		})
	}
	s.mgr = rm.NewTaskManager(s.cl, nil)
	if lean {
		// With observational series retained, metric memory is O(events)
		// and would dominate a million-task run. Whole-run Utilization stays
		// bit-identical (see metrics.Series.Fold).
		s.cl.FoldMetrics()
		s.mgr.SetLean()
		s.store = provenance.NewStore()
		s.store.SetCompact(true)
		s.observeFn = s.observe
	}
	if s.strat != nil {
		// The predictor is per-run state (each run trains its own); Reset
		// installs it at the top of every run.
		s.cws = cwsi.New(s.mgr, s.strat, nil)
	}
	s.runner = &rm.StreamRunner{Manager: s.mgr}
	return s, nil
}

// Name implements RunSession.
func (s *Session) Name() string { return s.name }

// reset returns the substrate to its just-constructed state. The CWS is
// reset separately (a run hands it the run's predictor; Audit hands it nil,
// matching a fresh construction).
func (s *Session) reset() {
	s.eng.Reset()
	s.cl.Reset()
	s.mgr.Reset()
	s.runner.Reset()
	s.wx.Reset(nil)
	if s.store != nil {
		s.store.Reset()
		s.store.SetCompact(true)
	}
}

// RunSeeded implements RunSession. rng drives the fault processes (and only
// those — fault-free configurations ignore it entirely).
func (s *Session) RunSeeded(w *dag.Workflow, rng *randx.Source) (*Result, error) {
	if s.warm {
		s.reset()
	}
	s.warm = true
	var x dag.Expander = &s.wx
	if s.expand != nil {
		var err error
		if x, err = s.expand(w); err != nil {
			return nil, err
		}
	} else if err := s.wx.Reset(w); err != nil {
		return nil, err
	}
	return s.run(x, w, rng)
}

// run executes one expansion. w is the materialized workflow the CWS
// registers; lean runs never need it.
func (s *Session) run(x dag.Expander, w *dag.Workflow, rng *randx.Source) (*Result, error) {
	e := &s.env
	// Arm the fault layer. Fork order is fixed (injector, task plan, retry
	// jitter) — it is part of the determinism contract. The plan is drawn for
	// x.Total() tasks and keyed by eager insertion index, which every
	// expander supplies per emission.
	var inj *fault.Injector
	var plan []int
	var retry *fault.RetryPolicy
	var retryRNG *randx.Source
	if e.Faults.Enabled() {
		if rng == nil {
			return nil, fmt.Errorf("core: fault profile %q needs a seeded source", e.Faults.Name)
		}
		inj = fault.NewInjector(s.cl, rng.Fork(), e.Faults)
		plan = e.Faults.PlanTaskFailures(x.Total(), rng.Fork())
		retryRNG = rng.Fork()
	} else if s.predCtor != nil && rng != nil {
		// Walltime-overrun kills need a retry policy to route through; its
		// jitter source is the run's only fork when no injector exists.
		retryRNG = rng.Fork()
	}
	if inj != nil || s.predCtor != nil {
		p := e.Retry
		if p == (fault.RetryPolicy{}) {
			p = fault.DefaultRetryPolicy()
		}
		retry = &p
	}

	r := s.runner
	r.Source, r.WorkflowID, r.MaxResident, r.Observe = x, x.Name(), e.StreamWindow, s.observeFn
	if retry != nil {
		r.Retry, r.RetryRNG, r.Breaker = retry, retryRNG, retry.NewBreaker()
	}
	if plan != nil {
		// Dynamic sources (EnTK PostExec growth) emit tasks beyond the
		// initial Total; those draw no planned transient failures — node
		// faults from the injector still hit them.
		r.FailPlan = func(i int) int {
			if i < len(plan) {
				return plan[i]
			}
			return 0
		}
	}
	if s.cws != nil {
		if err := s.armCWS(w, retry, retryRNG); err != nil {
			return nil, err
		}
	} else if inj != nil {
		// The injector's I/O episodes stretch plain attempts; the CWS path
		// keeps its nominal-speed runtime model, which the chaos goldens
		// were recorded with.
		r.Runtime = func(t *dag.Task, n *cluster.Node) float64 {
			return rm.DefaultRuntime(t, n) * inj.RuntimeScale()
		}
	}
	if inj != nil {
		r.OnComplete = inj.Stop
		inj.Start()
	}
	ms := r.Run()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// A dynamic source that stopped growing on invalid input (an EnTK
	// PostExec hook appending a bad stage) completes short and says why.
	if xe, ok := x.(interface{ Err() error }); ok && xe.Err() != nil {
		return nil, fmt.Errorf("core: %w", xe.Err())
	}

	// Dynamic sources (EnTK PostExec growth) raise Total during the run, so
	// it is read after the run.
	res := &Result{
		Environment:     s.name,
		TasksRun:        x.Total(),
		MakespanSec:     float64(ms),
		UtilizationCore: s.cl.Utilization(0, ms),
	}
	st := r.Stats()
	res.FailedAttempts = st.Failures
	res.Retries = st.Retries
	res.TerminalFailures = st.TerminalFailures + st.Skipped
	res.BackoffSec = st.BackoffSec
	switch {
	case s.cws != nil:
		res.Provenance = s.cws.Provenance()
		if s.predCtor != nil {
			pe := s.cws.PredictionErrors()
			res.PredSamples = pe.N
			res.PredMAESec = pe.MAE()
			res.PredMREPct = 100 * pe.MRE()
		}
	case s.store != nil:
		res.Provenance = s.store
	}
	return res, nil
}

// armCWS installs the run's predictor, prediction-loop knobs and recovery
// policy on the CWS — whose rm.Submitter side the executor then submits
// through — and registers the workflow.
func (s *Session) armCWS(w *dag.Workflow, retry *fault.RetryPolicy, retryRNG *randx.Source) error {
	e := &s.env
	var p predict.RuntimePredictor
	if s.predCtor != nil {
		p = s.predCtor()
	} else if e.Predictor != nil {
		p = e.Predictor()
	}
	cws := s.cws
	// Reset unconditionally (a no-op on the first, still-fresh run): this is
	// where the run's predictor and the configured strategy are installed,
	// exactly as cwsi.New received them on the cold path.
	cws.Reset(s.strat, p)
	if s.predCtor != nil {
		// Close the loop: online training from provenance is wired at
		// construction; arm the consumers.
		minS := e.PredictMinSamples
		if minS <= 0 {
			minS = 3
		}
		cws.SetMinPredictionSamples(minS)
		cws.SetMemPredictor(predict.NewMem(0.2))
		cws.SetOverrunPolicy(1.5, 2)
		cws.EnablePredictedBackfill()
	}
	if retry != nil {
		// The executor applies the policy; the CWS annotates its retries.
		cws.SetRecovery(*retry, retryRNG)
	}
	return cws.RegisterWorkflow(w.Name, w)
}

// observe folds a lean run's terminal task into the compact provenance
// store's running aggregates.
func (s *Session) observe(t *dag.Task, r rm.Result) {
	rec := provenance.TaskRecord{
		WorkflowID:  s.runner.WorkflowID,
		TaskID:      t.ID,
		Name:        t.Name,
		SubmittedAt: r.SubmittedAt,
		StartedAt:   r.StartedAt,
		FinishedAt:  r.FinishedAt,
		Cores:       t.Cores,
		MemRequest:  t.MemBytes,
		PeakMem:     t.PeakMem(),
		Failed:      r.Failed,
	}
	if r.Err != nil {
		rec.Error = r.Err.Error()
	}
	if r.Node != nil {
		rec.Node = r.Node.Name()
		rec.MachineType = r.Node.Type.Name
		rec.SpeedFactor = r.Node.Type.SpeedFactor
	}
	s.store.AddTask(rec)
}

// Audit implements RunSession: it resets the session and deep-diffs it
// against a freshly constructed one, field by field through every subsystem.
// A non-empty result names each leaked path — for example, a task observer
// surviving Reset reports as *core.Session.mgr.strategy.cws.observer. Fields
// a warm reset legitimately retains (capacity pools, scratch buffers, slab
// tails, memoized renderings) carry a `statediff:"keep"` tag at their
// declaration.
func (s *Session) Audit() []string {
	s.reset()
	if s.cws != nil {
		s.cws.Reset(s.strat, nil)
	}
	return s.auditDiff()
}

// auditDiff diffs the session's current state against a fresh construction
// without resetting first — the seam negative tests use to prove that a
// deliberately leaked field is caught and named.
func (s *Session) auditDiff() []string {
	fresh, err := s.env.newSession(s.lean, s.expand)
	if err != nil {
		return []string{"audit: rebuilding fresh session: " + err.Error()}
	}
	return statediff.Diff(s, fresh, statediff.Config{})
}
