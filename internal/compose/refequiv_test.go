package compose

import (
	"fmt"
	"strings"
	"testing"

	"hhcw/internal/core"
	"hhcw/internal/dag"
	"hhcw/internal/randx"
)

// tapeEmit is one emission as seen by a streaming runner: everything that can
// influence scheduling must match bit-for-bit between static and lazy
// expansion.
type tapeEmit struct {
	id    dag.TaskID
	idx   int
	name  string
	cores int
	dur   float64
	in    float64
	out   float64
	mem   float64
}

// tapeTerm is one terminal report: the write-off count and running Total are
// part of the contract (they drive completion accounting and fault plans).
type tapeTerm struct {
	id      dag.TaskID
	failed  bool
	skipped int
	total   int
}

// driveTape runs an expander to completion under a deterministic driver:
// emit everything ready, then complete (or fail, per drv.Bernoulli) a
// drv-chosen in-flight task, retiring before the terminal report exactly as
// rm.StreamRunner does.
func driveTape(t *testing.T, x dag.Expander, drv *randx.Source, failProb float64) ([]tapeEmit, []tapeTerm) {
	t.Helper()
	var emits []tapeEmit
	var terms []tapeTerm
	var inflight []*dag.Task
	for {
		for {
			task, idx, ok := x.Next()
			if !ok {
				break
			}
			emits = append(emits, tapeEmit{task.ID, idx, task.Name, task.Cores,
				task.NominalDur, task.InputBytes, task.OutputBytes, task.MemBytes})
			inflight = append(inflight, task)
		}
		if len(inflight) == 0 {
			break
		}
		k := drv.Intn(len(inflight))
		task := inflight[k]
		inflight = append(inflight[:k], inflight[k+1:]...)
		id := task.ID
		fail := failProb > 0 && drv.Bernoulli(failProb)
		x.Retire(task) // StreamRunner retires before the terminal report
		if fail {
			terms = append(terms, tapeTerm{id, true, x.TaskFailed(id), x.Total()})
		} else {
			x.TaskDone(id)
			terms = append(terms, tapeTerm{id, false, 0, x.Total()})
		}
	}
	skipped := 0
	for _, tr := range terms {
		skipped += tr.skipped
	}
	if len(emits)+skipped != x.Total() {
		t.Fatalf("%s: accounting broken: %d emitted + %d skipped != Total %d",
			x.Name(), len(emits), skipped, x.Total())
	}
	return emits, terms
}

// assertTapeEquivalence drives a WorkflowExpander over the static expansion
// and a RefExpander over the original side by side, with identically seeded
// drivers, and requires the two tapes to match field for field — the
// equivalence that makes static and lazy run fingerprints bit-identical.
func assertTapeEquivalence(t *testing.T, reg *Registry, root *dag.Workflow, seed int64, failProb float64) {
	t.Helper()
	staticW, err := reg.Expand(root)
	if err != nil {
		t.Fatalf("seed %d: static expand: %v", seed, err)
	}
	sx, err := dag.NewWorkflowExpander(staticW)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	lx, err := reg.Expander(root)
	if err != nil {
		t.Fatalf("seed %d: lazy expander: %v", seed, err)
	}
	if sx.Total() != lx.Total() || sx.Name() != lx.Name() {
		t.Fatalf("seed %d: Name/Total mismatch: %q/%d vs %q/%d",
			seed, sx.Name(), sx.Total(), lx.Name(), lx.Total())
	}
	se, st := driveTape(t, sx, randx.New(1000+seed), failProb)
	le, lt := driveTape(t, lx, randx.New(1000+seed), failProb)
	if len(se) != len(le) {
		t.Fatalf("seed %d p=%.2f: emitted %d static vs %d lazy", seed, failProb, len(se), len(le))
	}
	for i := range se {
		if se[i] != le[i] {
			t.Fatalf("seed %d p=%.2f: emission %d diverges:\n static %+v\n lazy   %+v",
				seed, failProb, i, se[i], le[i])
		}
	}
	if len(st) != len(lt) {
		t.Fatalf("seed %d p=%.2f: %d terminal events static vs %d lazy", seed, failProb, len(st), len(lt))
	}
	for i := range st {
		if st[i] != lt[i] {
			t.Fatalf("seed %d p=%.2f: terminal %d diverges:\n static %+v\n lazy   %+v",
				seed, failProb, i, st[i], lt[i])
		}
	}
}

// randomLayerWF generates a random workflow whose tasks may reference
// registry entries (refables) and may declare produced/consumed types for
// edge inference. Types are unique per producer, and consumers only consume
// types produced by earlier tasks, so inference never turns up ambiguity or
// cycles — those corner cases have their own deterministic tests.
func randomLayerWF(rng *randx.Source, name string, refables []string) *dag.Workflow {
	w := dag.New(name)
	n := 3 + rng.Intn(5)
	type prod struct {
		id  dag.TaskID
		typ string
	}
	var producers []prod
	for i := 0; i < n; i++ {
		id := dag.TaskID(fmt.Sprintf("t%d", i))
		var deps []dag.TaskID
		for j := 0; j < i; j++ {
			if rng.Float64() < 0.3 {
				deps = append(deps, dag.TaskID(fmt.Sprintf("t%d", j)))
			}
		}
		var task *dag.Task
		if len(refables) > 0 && rng.Float64() < 0.35 {
			task = dag.WorkflowRef(id, refables[rng.Intn(len(refables))], nil)
			task.InputBytes = float64(rng.Intn(8))
		} else {
			out := 0.0
			if rng.Float64() >= 0.25 { // leave some outputs zero-byte
				out = float64(1 + rng.Intn(100))
			}
			task = &dag.Task{
				ID: id, Name: string(id),
				NominalDur:  1 + rng.Float64()*4,
				Cores:       1 + rng.Intn(2),
				MemBytes:    float64(rng.Intn(4)) * 1e9,
				InputBytes:  float64(rng.Intn(6)),
				OutputBytes: out,
			}
		}
		task.Deps = deps
		if rng.Float64() < 0.5 {
			typ := fmt.Sprintf("%s:ty%d", name, i)
			task.Produces = []string{typ}
			producers = append(producers, prod{id, typ})
		}
		if len(producers) > 0 && rng.Float64() < 0.3 {
			p := producers[rng.Intn(len(producers))]
			if p.id != id {
				task.Consumes = []string{p.typ}
			}
		}
		w.Add(task)
	}
	return w
}

// randomComposition builds a three-level random registry — plain leaf
// templates, mid templates that may reference leaves, and a root that may
// reference either — exercising nested namespaces, inferred edges, barrier
// stitching, and byte propagation all at once.
func randomComposition(rng *randx.Source) (*Registry, *dag.Workflow) {
	reg := NewRegistry()
	var leaves []string
	for i := 0; i < 2+rng.Intn(2); i++ {
		name := fmt.Sprintf("leaf%d", i)
		reg.Register(name, Workflow{W: randomLayerWF(rng, name, nil)})
		leaves = append(leaves, name)
	}
	all := append([]string(nil), leaves...)
	for i := 0; i < 1+rng.Intn(2); i++ {
		name := fmt.Sprintf("mid%d", i)
		reg.Register(name, Workflow{W: randomLayerWF(rng, name, leaves)})
		all = append(all, name)
	}
	return reg, randomLayerWF(rng, "root", all)
}

// TestRefTapeEquivalenceRandom is the property-test core of the recursive
// composition contract: over randomized registries and roots, a RefExpander's
// emission tape (IDs, eager indices, task shapes, stitched bytes), terminal
// accounting, and write-off counts are identical to a WorkflowExpander over
// the static expansion — fault-free and under 20% random terminal failures.
func TestRefTapeEquivalenceRandom(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		reg, root := randomComposition(randx.New(seed))
		assertTapeEquivalence(t, reg, root, seed, 0)
		assertTapeEquivalence(t, reg, root, seed, 0.2)
	}
}

// An infeasible lazily expanded run returns an error naming the workflow and
// its progress instead of panicking.
func TestLazyEnvStallReturnsError(t *testing.T) {
	probe := dag.New("probe")
	probe.Add(&dag.Task{ID: "small", Name: "small", Cores: 1, NominalDur: 10})
	probe.Add(&dag.Task{ID: "huge", Name: "huge", Cores: 64, NominalDur: 10, Deps: []dag.TaskID{"small"}})
	env := &LazyEnv{KubernetesEnv: core.KubernetesEnv{Nodes: 2, CoresPerNode: 8}, Registry: NewRegistry()}
	_, err := env.RunSeeded(probe, randx.New(1))
	if err == nil || !strings.Contains(err.Error(), "probe") || !strings.Contains(err.Error(), "1/2 tasks done") {
		t.Fatalf("err = %v, want a stall error naming probe and 1/2 tasks done", err)
	}
}
