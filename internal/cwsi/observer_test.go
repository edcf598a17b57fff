package cwsi

import (
	"strings"
	"testing"

	"hhcw/internal/dag"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

// The task observer is the service layer's accounting tap: it must see every
// terminal attempt exactly once, after provenance capture, with the result's
// node/time fields intact.
func TestTaskObserverSeesEveryAttempt(t *testing.T) {
	eng := sim.NewEngine()
	cws := New(rm.NewTaskManager(smallCluster(eng, 2, 4), nil), Baseline{}, nil)
	type seen struct {
		wf      string
		task    dag.TaskID
		attempt int
		started bool
	}
	var log []seen
	cws.SetTaskObserver(func(wfID string, taskID dag.TaskID, attempt int, r rm.Result) {
		if got := cws.Provenance().Len() + cws.Provenance().Folded(); got != len(log)+1 {
			t.Errorf("observer fired before provenance capture: %d records at call %d", got, len(log))
		}
		log = append(log, seen{wfID, taskID, attempt, r.Node != nil})
	})
	w := chainWorkflow()
	if err := cws.RegisterWorkflow("wf", w); err != nil {
		t.Fatal(err)
	}
	if _, err := cws.RunWorkflow("wf"); err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 {
		t.Fatalf("observer saw %d attempts, want 2: %+v", len(log), log)
	}
	for i, want := range []dag.TaskID{"a", "b"} {
		if log[i].wf != "wf" || log[i].task != want || log[i].attempt != 1 || !log[i].started {
			t.Fatalf("attempt %d = %+v, want wf/%s#1 started", i, log[i], want)
		}
	}
}

// ReleaseWorkflow must drop both the scheduler's and the provenance store's
// per-workflow structure so a long-running service stays O(in-flight), while
// leaving captured task records queryable.
func TestReleaseWorkflowDropsState(t *testing.T) {
	eng := sim.NewEngine()
	cws := New(rm.NewTaskManager(smallCluster(eng, 2, 4), nil), Baseline{}, nil)
	if err := cws.RegisterWorkflow("wf", chainWorkflow()); err != nil {
		t.Fatal(err)
	}
	if _, err := cws.RunWorkflow("wf"); err != nil {
		t.Fatal(err)
	}
	if _, err := cws.Provenance().Lineage("wf", "b"); err != nil {
		t.Fatalf("lineage before release: %v", err)
	}
	cws.ReleaseWorkflow("wf")
	if cws.ctx.Workflow("wf") != nil {
		t.Fatal("scheduler state survived release")
	}
	if _, err := cws.Provenance().Lineage("wf", "b"); err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("provenance structure survived release: %v", err)
	}
	if got := len(cws.Provenance().ByWorkflow("wf")); got != 2 {
		t.Fatalf("task records lost on release: %d, want 2", got)
	}
	// Released id is registerable again — the service reuses nothing, but
	// the invariant keeps RegisterWorkflow's duplicate check honest.
	if err := cws.RegisterWorkflow("wf", chainWorkflow()); err != nil {
		t.Fatalf("re-register after release: %v", err)
	}
	cws.ReleaseWorkflow("ghost") // no-op
}
