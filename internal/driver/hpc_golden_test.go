package driver

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"hhcw/internal/fault"
	"hhcw/internal/sweep"
)

// goldenHPC25 pins the pilot-job environment across builds: every synthetic
// family at wfsim's defaults (size 16, 4 nodes × 8 cores) on the hpc env,
// seeds 1..25, as the sha256 of the sweep's per-run fingerprints. It was
// captured before HPCEnv moved onto the one executor (rm.StreamRunner). If
// a change moves it, the pilot's schedule changed.
const goldenHPC25 = "6e40d1e91fec1ec7a5224119ff6087534cd859839d8a850698d37de60878fd8f"

func TestGoldenHPCFingerprints(t *testing.T) {
	env, err := BuildEnv("hpc", 4, 8, fault.Profile{})
	if err != nil {
		t.Fatal(err)
	}
	var wfs []sweep.WorkflowSpec
	for _, name := range strings.Split(WorkflowFamilies, "|") {
		w, err := WorkflowFamily(name, 16, 0)
		if err != nil {
			t.Fatal(err)
		}
		wfs = append(wfs, *w)
	}
	rep, err := sweep.Run(sweep.Config{
		Workflows: wfs,
		Envs:      []sweep.EnvSpec{*env},
		Seeds:     sweep.Seeds(1, 25),
		Workers:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(rep.Fingerprint()))); got != goldenHPC25 {
		t.Errorf("hpc fingerprint sha256 = %s, want golden %s", got, goldenHPC25)
	}
}
