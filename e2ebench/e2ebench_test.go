package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

const testWorkers = 2

var (
	benchMu    sync.Mutex
	benchCache = map[string]*bench{}
)

// reference returns the untraced workload at the default seed, built once
// per test binary.
func reference(t *testing.T, name string) *bench {
	t.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if b := benchCache[name]; b != nil {
		return b
	}
	b, err := build(setups[name], defaultSeed, testWorkers, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	benchCache[name] = b
	return b
}

func sumCounts(b *bench, keep func(job int) bool) counts {
	var c counts
	for j, o := range b.ref {
		if keep == nil || keep(j) {
			c.add(o.counts)
		}
	}
	return c
}

func TestGoldenDigests(t *testing.T) {
	for _, name := range workloadNames {
		if got, want := refDigest(reference(t, name).ref), goldenDigests[name]; got != want {
			t.Errorf("%s: digest %s, golden %s", name, got, want)
		}
	}
}

// The traced run swaps delegating wrappers in around the program's layers;
// they must not change a single decision.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, name := range workloadNames {
		ref := reference(t, name)
		tr := newTracer(testWorkers)
		tb, err := build(setups[name], defaultSeed, testWorkers, tr)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		for j := range ref.ref {
			if tb.ref[j].digest != ref.ref[j].digest {
				t.Fatalf("%s job %d: traced digest %s, untraced %s", name, j, tb.ref[j].digest, ref.ref[j].digest)
			}
		}
		if len(tr.totals()) == 0 {
			t.Errorf("%s: traced run recorded no spans", name)
		}
	}
}

// Dense has no backfill oracle, so the candidate query the wrapper re-issues
// inside PickNode sees the manager's exact state and must return exactly
// the candidates the manager passed.
func TestDenseReissuedQueryMatches(t *testing.T) {
	tr := newTracer(testWorkers)
	if _, err := build(setupDense, defaultSeed, testWorkers, tr); err != nil {
		t.Fatal(err)
	}
	c := tr.counts()
	if c.queries == 0 {
		t.Fatal("no candidate queries reached PickNode")
	}
	if c.mismatches != 0 {
		t.Fatalf("%d of %d re-issued queries differed from the manager's candidates", c.mismatches, c.queries)
	}
}

func TestEnsembleColdMatchesWarm(t *testing.T) {
	if err := ensembleColdCheck(reference(t, "ensemble"), defaultSeed, testWorkers, 1); err != nil {
		t.Fatal(err)
	}
}

// The §3.5 effect must be present, unlike the uncontended SweepMontage
// cluster whose cut is 0.
func TestEnsembleRankCutsMakespan(t *testing.T) {
	b := reference(t, "ensemble")
	nEnv := len(ensembleEnvNames)
	sum, n := 0.0, 0
	for j := 0; j < len(b.ref); j += nEnv {
		fifo, rank := b.ref[j].makespan, b.ref[j+1].makespan
		sum += 1 - rank/fifo
		n++
	}
	if cut := 100 * sum / float64(n); !(cut > 0) {
		t.Fatalf("cws-rank mean makespan cut vs fifo = %.3f %%, want > 0", cut)
	}
}

func TestStormRetries(t *testing.T) {
	b := reference(t, "ensemble")
	nEnv := len(ensembleEnvNames)
	c := sumCounts(b, func(j int) bool { return ensembleEnvNames[j%nEnv] == "storm" })
	if c.retries == 0 {
		t.Fatal("storm environment recorded no retries")
	}
}

func TestDenseChurnAndQueue(t *testing.T) {
	c := sumCounts(reference(t, "dense"), nil)
	if c.failedTasks == 0 {
		t.Error("node churn failed no tasks")
	}
	if nodes := 3*densePerType + denseGPUs; c.peakPending <= float64(nodes) {
		t.Errorf("peak pending queue %.0f, want more than the %d nodes", c.peakPending, nodes)
	}
}

func TestServiceAdmissionPaths(t *testing.T) {
	c := sumCounts(reference(t, "service"), nil)
	if c.rejected+c.deferred == 0 {
		t.Fatal("admission control neither rejected nor deferred a workflow")
	}
}

func TestStreamResidency(t *testing.T) {
	c := sumCounts(reference(t, "stream"), nil)
	if c.peakResident != streamMaxResident {
		t.Fatalf("peak residency %d, want MaxResident %d", c.peakResident, streamMaxResident)
	}
}

func TestCLIRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "bogus"}, `unknown workload "bogus"`},
		{[]string{}, `unknown workload ""`},
		{[]string{"-workload", "dense", "-seed", "0"}, "seed must be positive"},
		{[]string{"-workload", "dense", "-seed", "-4"}, "seed must be positive"},
		{[]string{"-workload", "dense", "-seconds", "0"}, "seconds must be in"},
		{[]string{"-workload", "dense", "-trace", "2"}, "trace must be 0 or 1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code == 0 {
			t.Errorf("%v: exit 0, want nonzero", tc.args)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr %q does not name %q", tc.args, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed a result: %q", tc.args, stdout.String())
		}
	}
}

// A run whose digest differs from its job's reference counts as failed.
func TestClosedLoopChecksDigests(t *testing.T) {
	b := reference(t, "service")
	order := jobOrder(b.jobs, defaultSeed)
	st := closedLoop(b, 200*time.Millisecond, order)
	if st.attempted == 0 || st.failed != 0 {
		t.Fatalf("attempted %d, failed %d (%s)", st.attempted, st.failed, st.firstErr)
	}
	bad := *b
	bad.ref = slices.Clone(b.ref)
	for j := range bad.ref {
		bad.ref[j].digest = "wrong"
	}
	st = closedLoop(&bad, 100*time.Millisecond, order)
	if st.attempted == 0 || st.failed != st.attempted {
		t.Fatalf("tampered references: attempted %d, failed %d", st.attempted, st.failed)
	}
}

// The last line of output carries exactly the metrics BENCHMARK.json names:
// every end_to_end metric untraced, every per_layer metric traced.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark twice")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for trace, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"-workload", "stream", "-seconds", "0.3", "-trace", trace}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res struct {
			Correct   bool                       `json:"correct"`
			Attempted int                        `json:"attempted"`
			Failed    int                        `json:"failed"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line: %v", trace, err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("trace %s: correct %v, attempted %d, failed %d", trace, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, BENCHMARK.json names %d", trace, len(res.Metrics), len(want))
		}
		for _, m := range want {
			var got struct {
				Value float64
				Unit  string
			}
			if err := json.Unmarshal(res.Metrics[m.Name], &got); err != nil || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s = %s, want unit %s", trace, m.Name, res.Metrics[m.Name], m.Unit)
			}
		}
	}
}
