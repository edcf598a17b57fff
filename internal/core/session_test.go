package core

// Warm-run session battery: (1) a warm session's results are bit-identical
// to the cold path's over representative env shapes and every chaos profile;
// (2) the dirty-state auditor passes after real runs under every chaos
// profile; (3) the auditor is live — deliberately leaked state (an armed
// task observer, a downed node, a stale runner field) is caught
// and reported by its field path.

import (
	"strings"
	"testing"

	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
)

func sessionTestEnvs(t *testing.T, faults fault.Profile) map[string]*KubernetesEnv {
	t.Helper()
	return map[string]*KubernetesEnv{
		"fifo":    {Nodes: 4, CoresPerNode: 8, Faults: faults},
		"cws":     {Nodes: 4, CoresPerNode: 8, Strategy: cwsi.Rank{}, Faults: faults},
		"predict": {Nodes: 2, Heterogeneous: true, Strategy: cwsi.Baseline{}, Predict: "lotaru", Faults: faults},
	}
}

func sessionTestWorkflow(seed int64) (*dag.Workflow, *randx.Source) {
	rng := randx.New(seed)
	opts := dag.GenOpts{MeanDur: 300, CVDur: 0.8, Cores: 1, MaxCores: 4, MeanMem: 2e9}
	return dag.MontageLike(rng, 8, opts), rng
}

func allProfiles(t *testing.T) map[string]fault.Profile {
	t.Helper()
	out := map[string]fault.Profile{"none": {}}
	for _, name := range []string{"mtbf", "spot", "storm"} {
		p, err := fault.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = p
	}
	return out
}

// TestSessionWarmMatchesCold runs the same (workflow, seed) jobs through a
// reused session and through the cold per-run path and requires identical
// result fingerprints — across FIFO, CWS, and prediction-loop envs, with and
// without the storm profile, and with the warm session deliberately
// alternating seeds so every run after the first starts from a reset.
func TestSessionWarmMatchesCold(t *testing.T) {
	storm, err := fault.ByName("storm")
	if err != nil {
		t.Fatal(err)
	}
	for _, faults := range []fault.Profile{{}, storm} {
		for name, env := range sessionTestEnvs(t, faults) {
			sess, err := env.NewSession()
			if err != nil {
				t.Fatalf("%s/%s: NewSession: %v", name, faults.Name, err)
			}
			for _, seed := range []int64{1, 7, 1, 42, 7} {
				w, rng := sessionTestWorkflow(seed)
				warm, err := sess.RunSeeded(w, rng.Fork())
				if err != nil {
					t.Fatalf("%s/%s seed %d warm: %v", name, faults.Name, seed, err)
				}
				wc, rngC := sessionTestWorkflow(seed)
				cold, err := env.RunSeeded(wc, rngC.Fork())
				if err != nil {
					t.Fatalf("%s/%s seed %d cold: %v", name, faults.Name, seed, err)
				}
				if wf, cf := warm.Fingerprint(), cold.Fingerprint(); wf != cf {
					t.Errorf("%s/%s seed %d:\n warm %s\n cold %s", name, faults.Name, seed, wf, cf)
				}
			}
		}
	}
}

// TestSessionAuditCleanAfterChaos runs each env shape under every chaos
// profile and audits the session afterwards: the post-Reset state must be
// field-for-field identical to a fresh construction.
func TestSessionAuditCleanAfterChaos(t *testing.T) {
	for pname, faults := range allProfiles(t) {
		for ename, env := range sessionTestEnvs(t, faults) {
			sess, err := env.NewSession()
			if err != nil {
				t.Fatalf("%s/%s: NewSession: %v", ename, pname, err)
			}
			for _, seed := range []int64{3, 11} {
				w, rng := sessionTestWorkflow(seed)
				if _, err := sess.RunSeeded(w, rng.Fork()); err != nil {
					t.Fatalf("%s/%s seed %d: %v", ename, pname, seed, err)
				}
			}
			if diffs := sess.Audit(); len(diffs) > 0 {
				t.Errorf("%s/%s: %d leaked paths after reset:\n  %s",
					ename, pname, len(diffs), strings.Join(diffs, "\n  "))
			}
		}
	}
}

// auditableSession builds a CWS session, runs one storm-profile workflow on
// it, and resets it — the clean post-reset state the negative tests then
// sabotage.
func auditableSession(t *testing.T) *Session {
	t.Helper()
	storm, err := fault.ByName("storm")
	if err != nil {
		t.Fatal(err)
	}
	env := &KubernetesEnv{Nodes: 4, CoresPerNode: 8, Strategy: cwsi.Rank{}, Faults: storm}
	rs, err := env.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	s := rs.(*Session)
	w, rng := sessionTestWorkflow(5)
	if _, err := s.RunSeeded(w, rng.Fork()); err != nil {
		t.Fatal(err)
	}
	s.reset()
	s.cws.Reset(s.strat, nil)
	if diffs := s.auditDiff(); len(diffs) > 0 {
		t.Fatalf("precondition: reset session not clean:\n  %s", strings.Join(diffs, "\n  "))
	}
	return s
}

func requirePath(t *testing.T, diffs []string, fragment string) {
	t.Helper()
	if len(diffs) == 0 {
		t.Fatalf("audit reported clean, want a leak naming %q", fragment)
	}
	for _, d := range diffs {
		if strings.Contains(d, fragment) {
			return
		}
	}
	t.Fatalf("no audit line names %q; got:\n  %s", fragment, strings.Join(diffs, "\n  "))
}

// TestSessionAuditCatchesLeakedInjector sabotages a reset session with an
// armed per-run CWS hook — the canonical "callback survived Reset" bug — and
// requires the audit to fail naming the task observer's path.
func TestSessionAuditCatchesLeakedInjector(t *testing.T) {
	s := auditableSession(t)
	s.cws.SetTaskObserver(func(string, dag.TaskID, int, rm.Result) {})
	requirePath(t, s.auditDiff(), "cws.observer")
}

// TestSessionAuditCatchesLeakedNodeState downs a node after reset and
// requires the audit to name the node's state path.
func TestSessionAuditCatchesLeakedNodeState(t *testing.T) {
	s := auditableSession(t)
	s.cl.FailNode(s.cl.Nodes()[0])
	requirePath(t, s.auditDiff(), "down")
}

// TestSessionAuditCatchesLeakedRunnerState plants a stale fault plan on a
// FIFO session's runner and requires the audit to name it.
func TestSessionAuditCatchesLeakedRunnerState(t *testing.T) {
	env := &KubernetesEnv{Nodes: 4, CoresPerNode: 8}
	rs, err := env.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	s := rs.(*Session)
	w, rng := sessionTestWorkflow(9)
	if _, err := s.RunSeeded(w, rng.Fork()); err != nil {
		t.Fatal(err)
	}
	s.reset()
	s.runner.FailPlan = func(int) int { return 2 }
	requirePath(t, s.auditDiff(), "FailPlan")
}

// TestStreamingSessionWarmMatchesCold pins the lean streaming session: a
// warm StreamingEnv session (sharded engine, bounded window) replaying
// alternating seeds, fault-free and under storm, matches the cold per-run
// path fingerprint for fingerprint and audits clean afterwards.
func TestStreamingSessionWarmMatchesCold(t *testing.T) {
	storm, err := fault.ByName("storm")
	if err != nil {
		t.Fatal(err)
	}
	for _, faults := range []fault.Profile{{}, storm} {
		env := &StreamingEnv{KubernetesEnv: KubernetesEnv{
			Nodes: 4, CoresPerNode: 8, Sites: 4, StreamWindow: 48, Faults: faults,
		}}
		rs, err := env.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		if s, ok := rs.(*Session); !ok || !s.lean {
			t.Fatalf("StreamingEnv.NewSession returned %T, want a lean *Session", rs)
		}
		for _, seed := range []int64{2, 9, 2, 4} {
			w, rng := sessionTestWorkflow(seed)
			warm, err := rs.RunSeeded(w, rng.Fork())
			if err != nil {
				t.Fatalf("%s seed %d warm: %v", faults.Name, seed, err)
			}
			wc, rngC := sessionTestWorkflow(seed)
			cold, err := env.RunSeeded(wc, rngC.Fork())
			if err != nil {
				t.Fatalf("%s seed %d cold: %v", faults.Name, seed, err)
			}
			if wf, cf := warm.Fingerprint(), cold.Fingerprint(); wf != cf {
				t.Errorf("%s seed %d:\n warm %s\n cold %s", faults.Name, seed, wf, cf)
			}
		}
		if diffs := rs.Audit(); len(diffs) > 0 {
			t.Errorf("%s: %d leaked paths after reset:\n  %s",
				faults.Name, len(diffs), strings.Join(diffs, "\n  "))
		}
	}
}
