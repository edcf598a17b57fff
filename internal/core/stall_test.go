package core

import (
	"strings"
	"testing"

	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/randx"
)

// stallProbe is a 1-core task followed by a dependent 64-core task: on a
// 2-node × 8-core cluster the second can never be placed.
func stallProbe() *dag.Workflow {
	w := dag.New("probe")
	w.Add(&dag.Task{ID: "small", Name: "small", Cores: 1, NominalDur: 10})
	w.Add(&dag.Task{ID: "huge", Name: "huge", Cores: 64, NominalDur: 10, Deps: []dag.TaskID{"small"}})
	return w
}

// A workflow the cluster can never finish returns an error naming the
// workflow and its progress on every run path — eager, streaming, CWS and a
// prebuilt expansion — instead of panicking.
func TestStallReturnsError(t *testing.T) {
	base := KubernetesEnv{Nodes: 2, CoresPerNode: 8}
	cws := base
	cws.Strategy = cwsi.Rank{}
	paths := map[string]func() (*Result, error){
		"eager": func() (*Result, error) { return base.RunSeeded(stallProbe(), randx.New(1)) },
		"streaming": func() (*Result, error) {
			return (&StreamingEnv{KubernetesEnv: base}).RunSeeded(stallProbe(), randx.New(1))
		},
		"cws": func() (*Result, error) { return cws.RunSeeded(stallProbe(), randx.New(1)) },
		"expander": func() (*Result, error) {
			x, err := dag.NewWorkflowExpander(stallProbe())
			if err != nil {
				t.Fatal(err)
			}
			return base.RunExpander(x, randx.New(1))
		},
	}
	for name, run := range paths {
		res, err := run()
		if err == nil {
			t.Fatalf("%s: stalled run returned %+v, want an error", name, res)
		}
		if msg := err.Error(); !strings.Contains(msg, "probe") || !strings.Contains(msg, "1/2 tasks done") {
			t.Fatalf("%s: error %q does not name the workflow and its progress", name, msg)
		}
	}
	// A warm session recovers from the stalled run: the next run is clean.
	s, err := base.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunSeeded(stallProbe(), randx.New(1)); err == nil {
		t.Fatal("warm session: stalled run returned no error")
	}
	w, rng := sessionTestWorkflow(3)
	warm, err := s.RunSeeded(w, rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	wc, rngC := sessionTestWorkflow(3)
	cold, err := base.RunSeeded(wc, rngC.Fork())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Fingerprint() != cold.Fingerprint() {
		t.Fatalf("run after a stall: warm %s != cold %s", warm.Fingerprint(), cold.Fingerprint())
	}
}
