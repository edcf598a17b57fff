package cwsi

import (
	"strings"
	"testing"

	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

// Recovery semantics of the two ways a workflow reaches the executor, pinned
// side by side: the CWS (StartWorkflow) and the plain runner. Without a
// policy both make one attempt; they differ on purpose in what follows — the
// CWS fails the workflow, the runner cascade-skips — and with a policy they
// must agree on every recovery count.

// semanticsWorkflow is a→b plus an independent 30s branch c, so a terminal
// failure of a leaves work that degrades gracefully or is cut short.
func semanticsWorkflow() *dag.Workflow {
	w := dag.New("sem")
	w.Add(&dag.Task{ID: "a", Name: "a", NominalDur: 10})
	w.Add(&dag.Task{ID: "b", Name: "b", NominalDur: 10, Deps: []dag.TaskID{"a"}})
	w.Add(&dag.Task{ID: "c", Name: "c", NominalDur: 30})
	return w
}

// semOutcome is the path-independent view of one run.
type semOutcome struct {
	makespan sim.Time
	err      error
	// failures, retries, terminal, skipped and backoff are the recovery
	// accounting (rm.RunStats for both paths).
	failures, retries, terminal, skipped int
	backoff                              float64
	// attemptsA lists task a's attempts as (submitted, finished) pairs;
	// delays lists the provenance retry annotations of a's failed attempts.
	attemptsA [][2]sim.Time
	delays    []float64
	ranB      bool
}

// runCWS drives semanticsWorkflow through the CWS with task a failing its
// first failA attempts, by the fault plan StartWorkflow hands the executor.
func runCWS(t *testing.T, policy *fault.RetryPolicy, failA int) semOutcome {
	t.Helper()
	eng := sim.NewEngine()
	cws := New(rm.NewTaskManager(smallCluster(eng, 2, 8), nil), Baseline{}, nil)
	if policy != nil {
		cws.SetRecovery(*policy, nil)
	}
	if err := cws.RegisterWorkflow("sem", semanticsWorkflow()); err != nil {
		t.Fatal(err)
	}
	var o semOutcome
	err := cws.StartWorkflow("sem", []int{failA, 0, 0}, func(ms sim.Time, err error) {
		o.makespan, o.err = ms, err
		if err != nil {
			eng.Halt()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	st := cws.RecoveryStats()
	o.failures, o.retries, o.terminal, o.skipped, o.backoff =
		st.Failures, st.Retries, st.TerminalFailures, st.Skipped, st.BackoffSec
	for _, r := range cws.Provenance().ByWorkflow("sem") {
		switch r.TaskID {
		case "a":
			o.attemptsA = append(o.attemptsA, [2]sim.Time{r.SubmittedAt, r.FinishedAt})
			if r.Failed && r.RetryPolicy != "" {
				o.delays = append(o.delays, r.RetryDelaySec)
			}
		case "b":
			o.ranB = true
		}
	}
	return o
}

// runRunner drives semanticsWorkflow through the plain runner with the same
// injected failures.
func runRunner(t *testing.T, policy *fault.RetryPolicy, failA int) semOutcome {
	t.Helper()
	eng := sim.NewEngine()
	w := semanticsWorkflow()
	x, err := dag.NewWorkflowExpander(w)
	if err != nil {
		t.Fatal(err)
	}
	var o semOutcome
	sr := &rm.StreamRunner{Manager: rm.NewTaskManager(smallCluster(eng, 2, 8), nil), Source: x, WorkflowID: "sem"}
	sr.Retry = policy
	if policy != nil {
		sr.Breaker = policy.NewBreaker()
	}
	sr.FailPlan = func(i int) int {
		if i == 0 { // task a
			return failA
		}
		return 0
	}
	sr.Observe = func(task *dag.Task, r rm.Result) {
		if task.ID == "b" {
			o.ranB = true
		}
	}
	o.makespan = sr.Run()
	o.err = sr.Err()
	st := sr.Stats()
	o.failures, o.retries, o.terminal, o.skipped, o.backoff =
		st.Failures, st.Retries, st.TerminalFailures, st.Skipped, st.BackoffSec
	return o
}

func TestRecoverySemanticsPinned(t *testing.T) {
	backoff := &fault.RetryPolicy{MaxAttempts: 5, BaseDelaySec: 5, Multiplier: 2}
	breaker := &fault.RetryPolicy{MaxAttempts: 10, BaseDelaySec: 1, BreakThreshold: 2}

	t.Run("cws-no-policy", func(t *testing.T) {
		// a fails its one attempt, and that fails the workflow.
		o := runCWS(t, nil, 99)
		if o.err == nil || !strings.Contains(o.err.Error(), "task a failed") {
			t.Fatalf("err = %v, want terminal workflow failure", o.err)
		}
		if want := [2]sim.Time{0, 10}; len(o.attemptsA) != 1 || o.attemptsA[0] != want {
			t.Fatalf("attempts of a = %v, want [%v]", o.attemptsA, want)
		}
		if o.failures != 1 || o.retries != 0 || o.terminal != 1 || o.skipped != 0 || o.backoff != 0 {
			t.Fatalf("stats = %+v, want 1 failure, 0 retries, 1 terminal", o)
		}
		if len(o.delays) != 0 || o.ranB {
			t.Fatalf("delays %v ranB %v: want no annotations and b never run", o.delays, o.ranB)
		}
	})

	t.Run("runner-no-policy", func(t *testing.T) {
		// One attempt, then b is cascade-skipped and c finishes the run.
		o := runRunner(t, nil, 1)
		if o.err != nil || o.makespan != 30 {
			t.Fatalf("makespan %v err %v, want 30 and no error", o.makespan, o.err)
		}
		if o.failures != 1 || o.retries != 0 || o.terminal != 1 || o.skipped != 1 || o.ranB {
			t.Fatalf("stats = %+v, want 1 failure, 1 terminal, 1 skipped", o)
		}
	})

	for _, tc := range []struct {
		name   string
		policy *fault.RetryPolicy
		failA  int
		want   semOutcome
		delays []float64
	}{
		// a: 10 fail + 5 backoff + 10 fail + 10 backoff + 10 ok; b: 10.
		{"policy-backoff", backoff, 2,
			semOutcome{makespan: 55, failures: 2, retries: 2, backoff: 15, ranB: true}, []float64{5, 10}},
		// Two consecutive failures open the circuit: a is terminal, b is
		// skipped, and c carries the run.
		{"policy-breaker", breaker, 99,
			semOutcome{makespan: 30, failures: 2, retries: 1, terminal: 1, skipped: 1, backoff: 1}, []float64{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := func(path string, o semOutcome) {
				t.Helper()
				if o.err != nil || o.makespan != tc.want.makespan || o.ranB != tc.want.ranB {
					t.Fatalf("%s: makespan %v err %v ranB %v, want %v/nil/%v",
						path, o.makespan, o.err, o.ranB, tc.want.makespan, tc.want.ranB)
				}
				if o.failures != tc.want.failures || o.retries != tc.want.retries ||
					o.terminal != tc.want.terminal || o.skipped != tc.want.skipped || o.backoff != tc.want.backoff {
					t.Fatalf("%s: stats %d/%d/%d/%d/%v, want %d/%d/%d/%d/%v", path,
						o.failures, o.retries, o.terminal, o.skipped, o.backoff,
						tc.want.failures, tc.want.retries, tc.want.terminal, tc.want.skipped, tc.want.backoff)
				}
			}
			cw := runCWS(t, tc.policy, tc.failA)
			check("cws", cw)
			check("runner", runRunner(t, tc.policy, tc.failA))
			if len(cw.delays) != len(tc.delays) {
				t.Fatalf("provenance retry annotations %v, want %v", cw.delays, tc.delays)
			}
			for i := range tc.delays {
				if cw.delays[i] != tc.delays[i] {
					t.Fatalf("provenance retry annotations %v, want %v", cw.delays, tc.delays)
				}
			}
		})
	}
}
