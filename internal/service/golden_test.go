package service

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"hhcw/internal/fault"
)

// goldenChaos pins service mode under faults across builds: the contended
// three-tenant scenario (FIFO and fair share) on a one-hour horizon, under
// three fault profiles — node crashes with rare transient task failures,
// the storm profile, and heavy persistent transient failures — for seeds
// 1..15, as the sha256 of every run's fingerprint and TenantResult fields.
// Transient failures reach the CWS through the per-workflow fault plan
// drawn at admission; if a change moves the digest, the service's schedule,
// fault plan or recovery changed.
const goldenChaos = "0e9da99145ec3866fcfe4a8b862c4c16ec4e600b787f7d005e5bfc1ba72e7847"

func TestGoldenServiceChaos(t *testing.T) {
	profiles := []fault.Profile{
		faultyProfile(),
		fault.Storm(),
		{Name: "transient", TaskFailProb: 0.2, TaskFailPersist: 3},
	}
	h := sha256.New()
	for _, fair := range []bool{false, true} {
		for _, p := range profiles {
			for seed := int64(1); seed <= 15; seed++ {
				cfg := ContendedScenario(fair)
				cfg.HorizonSec = 3600
				cfg.Faults = p
				res, err := Run(cfg, seed)
				if err != nil {
					t.Fatalf("fair=%v %s seed %d: %v", fair, p.Name, seed, err)
				}
				fmt.Fprintf(h, "%s\n%+v\n", res.Fingerprint(), res.Tenants)
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != goldenChaos {
		t.Errorf("service chaos sha256 = %s, want golden %s", got, goldenChaos)
	}
}
