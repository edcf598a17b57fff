package entk

import (
	"fmt"
	"strings"
	"testing"

	"hhcw/internal/core"
	"hhcw/internal/randx"
)

// TestDynamicStageCreation exercises §4's dynamic-workflow capability: a
// stage's PostExec inspects results and appends a refinement stage.
func TestDynamicStageCreation(t *testing.T) {
	_, cl, bm := setup(4)
	am := NewAppManager(cl, bm, ResourceDesc{Nodes: 4, Walltime: 1e6})

	p := &Pipeline{Name: "adaptive"}
	first := p.AddStage(&Stage{Name: "coarse"})
	for i := 0; i < 4; i++ {
		first.AddTask(&Task{ID: fmt.Sprintf("c%d", i), Nodes: 1, DurationSec: 50})
	}
	refined := false
	first.PostExec = func(pl *Pipeline, s *Stage) {
		// "Create new workflow stages based on the status of previously
		// executed stages": refine when everything converged.
		allOK := true
		for _, task := range s.Tasks {
			if task.State() != Executed {
				allOK = false
			}
		}
		if allOK {
			refined = true
			fine := &Stage{Name: "fine"}
			for i := 0; i < 2; i++ {
				fine.AddTask(&Task{ID: fmt.Sprintf("f%d", i), Nodes: 1, DurationSec: 30})
			}
			pl.AddStage(fine)
		}
	}

	rep, err := am.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !refined {
		t.Fatal("PostExec never fired")
	}
	if rep.TasksExecuted != 6 {
		t.Fatalf("executed = %d, want 6 (4 coarse + 2 dynamic)", rep.TasksExecuted)
	}
	if rep.TTX != 80 { // 50 coarse wave + 30 fine wave
		t.Fatalf("TTX = %v, want 80", rep.TTX)
	}
	if len(p.Stages) != 2 {
		t.Fatalf("pipeline grew to %d stages, want 2", len(p.Stages))
	}
}

// TestDynamicStagesChain verifies cascaded growth: a dynamically added stage
// can itself add another stage.
func TestDynamicStagesChain(t *testing.T) {
	_, cl, bm := setup(2)
	am := NewAppManager(cl, bm, ResourceDesc{Nodes: 2, Walltime: 1e6})

	p := &Pipeline{Name: "cascade"}
	depth := 0
	var grow func(pl *Pipeline, s *Stage)
	grow = func(pl *Pipeline, s *Stage) {
		if depth >= 3 {
			return
		}
		depth++
		next := &Stage{Name: fmt.Sprintf("g%d", depth)}
		next.AddTask(&Task{ID: fmt.Sprintf("t%d", depth), Nodes: 1, DurationSec: 10})
		next.PostExec = grow
		pl.AddStage(next)
	}
	root := p.AddStage(&Stage{Name: "root"})
	root.AddTask(&Task{ID: "t0", Nodes: 1, DurationSec: 10})
	root.PostExec = grow

	rep, err := am.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TasksExecuted != 4 { // root + 3 grown
		t.Fatalf("executed = %d, want 4", rep.TasksExecuted)
	}
	if rep.TTX != 40 {
		t.Fatalf("TTX = %v, want 40 (sequential growth)", rep.TTX)
	}
}

// TestDynamicStageWithFailureStillResubmits ensures dynamic stages
// participate in order-preserving resubmission.
func TestDynamicStageWithFailureStillResubmits(t *testing.T) {
	_, cl, bm := setup(2)
	am := NewAppManager(cl, bm, ResourceDesc{Nodes: 2, Walltime: 1e6})

	p := &Pipeline{Name: "dynfail"}
	root := p.AddStage(&Stage{Name: "root"})
	root.AddTask(&Task{ID: "r", Nodes: 1, DurationSec: 10})
	var victim *Task
	root.PostExec = func(pl *Pipeline, s *Stage) {
		dyn := &Stage{Name: "dyn"}
		victim = dyn.AddTask(&Task{ID: "v", Nodes: 1, DurationSec: 10, FailAttempts: 1})
		pl.AddStage(dyn)
	}
	rep, err := am.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if victim == nil || victim.State() != Executed {
		t.Fatalf("dynamic task not recovered: %+v", victim)
	}
	if rep.Rounds != 2 || rep.ResubmittedOK != 1 {
		t.Fatalf("rounds=%d resubmittedOK=%d", rep.Rounds, rep.ResubmittedOK)
	}
}

// TestPostExecOnEmptyStage covers the empty-stage PostExec path.
func TestPostExecOnEmptyStage(t *testing.T) {
	_, cl, bm := setup(2)
	am := NewAppManager(cl, bm, ResourceDesc{Nodes: 2, Walltime: 1e6})
	p := &Pipeline{Name: "empty"}
	fired := false
	p.AddStage(&Stage{Name: "hollow", PostExec: func(pl *Pipeline, s *Stage) {
		fired = true
		dyn := &Stage{Name: "dyn"}
		dyn.AddTask(&Task{ID: "d", Nodes: 1, DurationSec: 5})
		pl.AddStage(dyn)
	}})
	rep, err := am.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !fired || rep.TasksExecuted != 1 {
		t.Fatalf("fired=%v executed=%d", fired, rep.TasksExecuted)
	}
}

// badHookPipeline's only stage, when it drains, appends a stage the
// expander must refuse: a duplicate task ID or a non-positive duration.
func badHookPipeline(dup bool) *Pipeline {
	p := &Pipeline{Name: "bad-hook"}
	s := p.AddStage(&Stage{Name: "s"})
	s.AddTask(&Task{ID: "t", Nodes: 1, DurationSec: 10})
	s.PostExec = func(pl *Pipeline, _ *Stage) {
		bad := pl.AddStage(&Stage{Name: "grown"})
		if dup {
			bad.AddTask(&Task{ID: "x", Nodes: 1, DurationSec: 10})
			bad.AddTask(&Task{ID: "x", Nodes: 1, DurationSec: 10})
		} else {
			bad.AddTask(&Task{ID: "x", Nodes: 1, DurationSec: 0})
		}
		pl.AddStage(&Stage{Name: "after"}).AddTask(&Task{ID: "y", Nodes: 1, DurationSec: 10})
	}
	return p
}

// A PostExec hook that appends an invalid stage is an error on every path,
// not a panic: emission stops before the bad stage, the run drains on what
// came before, and AppManager and KubernetesEnv.RunExpander return the error.
func TestInvalidPostExecStageIsAnError(t *testing.T) {
	for _, dup := range []bool{true, false} {
		want := "non-positive duration"
		if dup {
			want = "duplicate task"
		}
		check := func(path string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), "PostExec appended an invalid stage") ||
				!strings.Contains(err.Error(), want) {
				t.Errorf("%s: err = %v, want an invalid-stage error naming %q", path, err, want)
			}
		}
		_, cl, bm := setup(2)
		am := NewAppManager(cl, bm, ResourceDesc{Nodes: 2, Walltime: 1e6})
		_, err := am.Run(badHookPipeline(dup))
		check("Run", err)
		_, err = am.RunPerJob([]*Pipeline{badHookPipeline(dup)}, []ResourceDesc{{Nodes: 2, Walltime: 1e6}})
		check("RunPerJob", err)

		x, err := badHookPipeline(dup).Expand()
		if err != nil {
			t.Fatal(err)
		}
		_, err = (&core.KubernetesEnv{Nodes: 2, CoresPerNode: 8}).RunExpander(x, randx.New(1))
		check("RunExpander", err)
		if x.Total() != 1 {
			t.Errorf("Total = %d, want 1: the bad stage and those after it stay out", x.Total())
		}
	}
}
