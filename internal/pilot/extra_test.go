package pilot

import (
	"testing"
)

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		Pending: "pending", Bootstrapping: "bootstrapping", Active: "active", Done: "done",
	}
	for s, str := range want {
		if s.String() != str {
			t.Fatalf("%d.String() = %q, want %q", s, s.String(), str)
		}
	}
}

func TestOnActiveAfterActive(t *testing.T) {
	eng, cl, bm := setup(2)
	p, _ := Submit(bm, cl, Config{Nodes: 2, Walltime: 1e6})
	eng.RunUntil(1) // pilot granted and active (no bootstrap)
	fired := false
	p.OnActive(func() { fired = true })
	if !fired {
		t.Fatal("OnActive on an active pilot should fire immediately")
	}
}

func TestStartedAtAndSeries(t *testing.T) {
	eng, cl, bm := setup(2)
	p, _ := Submit(bm, cl, Config{Nodes: 2, Walltime: 1e6, BootstrapSec: 5})
	start(t, p, cl, []spec{{"t", 1, 10}})
	eng.Run()
	if p.StartedAt() != 0 {
		t.Fatalf("StartedAt = %v", p.StartedAt())
	}
	if p.LaunchedSeries().Value() != 1 {
		t.Fatalf("launched = %v", p.LaunchedSeries().Value())
	}
	if p.TTX() != 10 {
		t.Fatalf("TTX = %v", p.TTX())
	}
}

func TestTTXBeforeAnyTask(t *testing.T) {
	eng, cl, bm := setup(2)
	p, _ := Submit(bm, cl, Config{Nodes: 2, Walltime: 1e6})
	eng.Run()
	if p.TTX() != 0 {
		t.Fatalf("idle TTX = %v, want 0", p.TTX())
	}
}

func TestReleaseIdempotentAndBlocksSubmit(t *testing.T) {
	eng, cl, bm := setup(2)
	p, _ := Submit(bm, cl, Config{Nodes: 2, Walltime: 1e6})
	eng.RunUntil(1)
	p.Release()
	p.Release() // idempotent
	if p.State() != Done {
		t.Fatal("not done after release")
	}
	r := start(t, p, cl, []spec{{"x", 1, 1}})
	// Nodes returned to the batch pool: a new pilot can start.
	p2, err := Submit(bm, cl, Config{Nodes: 2, Walltime: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	r2 := start(t, p2, cl, []spec{{"y", 1, 1}})
	eng.Run()
	if !r.results["x"].Failed {
		t.Fatal("submit after release accepted")
	}
	if res, ok := r2.results["y"]; !ok || res.Failed {
		t.Fatal("second pilot did not run")
	}
}

func TestPilotFailedTaskWithFailFlag(t *testing.T) {
	// An attempt the fault plan fails ends unsuccessfully halfway through
	// its run time.
	eng, cl, bm := setup(2)
	p, _ := Submit(bm, cl, Config{Nodes: 2, Walltime: 1e6})
	r := start(t, p, cl, []spec{{"bad", 1, 100}}, "bad")
	eng.Run()
	if res := r.results["bad"]; !res.Failed || res.FinishedAt != 50 {
		t.Fatalf("failed=%v at %v, want failure at 50", res.Failed, res.FinishedAt)
	}
	if r.sr.Stats().TerminalFailures != 1 {
		t.Fatalf("stats = %+v", r.sr.Stats())
	}
}
