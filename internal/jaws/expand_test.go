package jaws

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/fault"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

const expandWDL = `
workflow metasweep
task prep cpu=2 mem=4G dur=120s overhead=30s
task align cpu=4 mem=8G dur=300s overhead=60s scatter=24 after=prep
task filter cpu=2 mem=2G dur=90s overhead=30s scatter=24 after=align
task stats cpu=1 mem=1G dur=60s after=prep
task merge cpu=8 mem=16G dur=240s overhead=60s after=filter,stats
`

// Every emission of the expander must carry the eager insertion index of the
// identical task Compile materializes — same ID, resources, duration — and
// cover each index exactly once.
func TestScatterExpanderMatchesCompile(t *testing.T) {
	def, err := Parse(expandWDL)
	if err != nil {
		t.Fatal(err)
	}
	w, err := def.Compile()
	if err != nil {
		t.Fatal(err)
	}
	x, err := def.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if x.Name() != w.Name || x.Total() != w.Len() {
		t.Fatalf("Name/Total: %q/%d, want %q/%d", x.Name(), x.Total(), w.Name, w.Len())
	}
	want := w.Tasks()
	seen := make([]bool, len(want))
	var frontier []dag.TaskID
	emitted := 0
	for {
		for {
			task, idx, ok := x.Next()
			if !ok {
				break
			}
			if idx < 0 || idx >= len(want) || seen[idx] {
				t.Fatalf("emission %d: bad or repeated index %d", emitted, idx)
			}
			seen[idx] = true
			ref := want[idx]
			if task.ID != ref.ID || task.Name != ref.Name || task.Cores != ref.Cores ||
				task.MemBytes != ref.MemBytes || task.NominalDur != ref.NominalDur {
				t.Fatalf("index %d mismatch:\n got  %+v\n want %+v", idx, task, ref)
			}
			frontier = append(frontier, task.ID)
			emitted++
			x.Retire(task)
		}
		if len(frontier) == 0 {
			break
		}
		x.TaskDone(frontier[0])
		frontier = frontier[1:]
	}
	if emitted != len(want) {
		t.Fatalf("emitted %d tasks, want %d", emitted, len(want))
	}
}

func expandTestCluster(nodes, cores int) (*sim.Engine, *rm.TaskManager) {
	eng := sim.NewEngine()
	cl := cluster.New(eng, "site", cluster.Spec{
		Type:  cluster.NodeType{Name: "node", Cores: cores, MemBytes: 64e9},
		Count: nodes,
	})
	return eng, rm.NewTaskManager(cl, nil)
}

// The lazy scatter expansion must drive the executor event-for-event like
// the eager expansion of the compiled workflow: same makespan, same utilization,
// same failure accounting — fault-free and with injected failures (one
// recovered by retry, one terminal with cascade skips).
func TestScatterExpanderEagerEquivalence(t *testing.T) {
	for _, faulty := range []bool{false, true} {
		name := "fault-free"
		if faulty {
			name = "faulty"
		}
		t.Run(name, func(t *testing.T) {
			def, err := Parse(expandWDL)
			if err != nil {
				t.Fatal(err)
			}
			w, err := def.Compile()
			if err != nil {
				t.Fatal(err)
			}
			retry := fault.DefaultRetryPolicy()

			// Fault plan keyed by eager insertion index: task 3 retries once
			// and recovers; task 10 (an align shard) exhausts the budget and
			// cascade-skips its dependents.
			plan := map[int]int{3: 1, 10: retry.MaxAttempts + 1}

			_, mgrE := expandTestCluster(16, 16)
			wx, err := dag.NewWorkflowExpander(w)
			if err != nil {
				t.Fatal(err)
			}
			eager := &rm.StreamRunner{
				Manager:    mgrE,
				Source:     wx,
				WorkflowID: w.Name,
			}
			if faulty {
				r := retry
				eager.Retry = &r
				eager.RetryRNG = randx.New(7)
				eager.Breaker = r.NewBreaker()
				eager.FailPlan = func(i int) int { return plan[i] }
			}
			msE := eager.Run()

			x, err := def.Expand()
			if err != nil {
				t.Fatal(err)
			}
			_, mgrS := expandTestCluster(16, 16)
			stream := &rm.StreamRunner{
				Manager:    mgrS,
				Source:     x,
				WorkflowID: w.Name,
			}
			if faulty {
				r := retry
				stream.Retry = &r
				stream.RetryRNG = randx.New(7)
				stream.Breaker = r.NewBreaker()
				stream.FailPlan = func(i int) int { return plan[i] }
			}
			msS := stream.Run()

			if msS != msE {
				t.Fatalf("makespan: streaming %v != eager %v", msS, msE)
			}
			utE := mgrE.Cluster().Utilization(0, msE)
			utS := mgrS.Cluster().Utilization(0, msS)
			if utS != utE {
				t.Fatalf("utilization: streaming %v != eager %v", utS, utE)
			}
			if mgrS.Completed() != mgrE.Completed() || mgrS.Failed() != mgrE.Failed() {
				t.Fatalf("manager counts: streaming %d/%d != eager %d/%d",
					mgrS.Completed(), mgrS.Failed(), mgrE.Completed(), mgrE.Failed())
			}
			if stream.Stats() != eager.Stats() {
				t.Fatalf("run stats:\n streaming %+v\n eager     %+v", stream.Stats(), eager.Stats())
			}
		})
	}
}

// Def-granular skip accounting: failing one shard writes off every shard of
// every transitively dependent def, exactly once.
func TestScatterExpanderFailureSkips(t *testing.T) {
	def, err := Parse(expandWDL)
	if err != nil {
		t.Fatal(err)
	}
	x, err := def.Expand()
	if err != nil {
		t.Fatal(err)
	}
	prep, _, ok := x.Next()
	if !ok || prep.Name != "prep" {
		t.Fatalf("first emission: %v", prep)
	}
	x.TaskDone(prep.ID)
	shard, _, ok := x.Next()
	if !ok || shard.Name != "align" {
		t.Fatalf("second emission: %v", shard)
	}
	// filter (24) + merge (1) are downstream of align; stats is not.
	if n := x.TaskFailed(shard.ID); n != 25 {
		t.Fatalf("TaskFailed skipped %d, want 25", n)
	}
	// The rest of align and stats still run; nothing downstream surfaces.
	rest := 0
	var pending []dag.TaskID
	for {
		task, _, ok := x.Next()
		if !ok {
			if len(pending) == 0 {
				break
			}
			x.TaskDone(pending[0])
			pending = pending[1:]
			continue
		}
		if task.Name != "align" && task.Name != "stats" {
			t.Fatalf("skipped def %q surfaced", task.Name)
		}
		pending = append(pending, task.ID)
		rest++
	}
	if rest != 24 { // 23 remaining align shards + stats
		t.Fatalf("emitted %d post-failure tasks, want 24", rest)
	}
	if got := x.Resident(); got != 0 {
		t.Fatalf("resident after drain: %d", got)
	}
}

// scatterDef builds the memory-ceiling workload: prep -> scatter N -> gather.
func scatterDef(t testing.TB, shards int) *ScatterExpander {
	t.Helper()
	def, err := Parse(fmt.Sprintf(`
workflow bigscatter
task prep cpu=1 dur=10s
task work cpu=1 dur=60s scatter=%d after=prep
task gather cpu=1 dur=10s after=work
`, shards))
	if err != nil {
		t.Fatal(err)
	}
	x, err := def.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// The memory-ceiling regression: a streaming scatter run's peak resident task
// records must hit a fixed constant — the admission window — independent of
// task count, and heap growth must stay bounded while the run is in flight.
// The full run drives a million tasks; -short scales down but still compares
// two sizes an order of magnitude apart.
func TestStreamingScatterMemoryCeiling(t *testing.T) {
	sizes := []int{100_000, 1_000_000}
	heapBound := uint64(512 << 20)
	if testing.Short() {
		sizes = []int{10_000, 100_000}
		heapBound = 256 << 20
	}
	const window = 2048

	peaks := make([]int, len(sizes))
	for i, n := range sizes {
		x := scatterDef(t, n)
		eng, mgr := expandTestCluster(128, 8)
		// Shard the event engine too: the ceiling must hold on the
		// extreme-scale configuration, not just the monolithic queue.
		eng.SetShards(4)
		mgr.SetLean()
		mgr.Cluster().FoldMetrics()
		var peakHeap uint64
		retired := 0
		sr := &rm.StreamRunner{
			Manager:     mgr,
			Source:      x,
			WorkflowID:  "bigscatter",
			MaxResident: window,
			Observe: func(*dag.Task, rm.Result) {
				retired++
				if retired%20_000 == 0 {
					var ms runtime.MemStats
					runtime.ReadMemStats(&ms)
					if ms.HeapAlloc > peakHeap {
						peakHeap = ms.HeapAlloc
					}
				}
			},
		}
		sr.Run()
		if mgr.Completed() != n+2 {
			t.Fatalf("n=%d: completed %d, want %d", n, mgr.Completed(), n+2)
		}
		if sr.PeakResident() > window {
			t.Fatalf("n=%d: peak resident %d exceeds window %d", n, sr.PeakResident(), window)
		}
		if peakHeap > heapBound {
			t.Fatalf("n=%d: peak heap %dMB exceeds bound %dMB — resident state is no longer O(in-flight)",
				n, peakHeap>>20, heapBound>>20)
		}
		peaks[i] = sr.PeakResident()
		t.Logf("n=%d: peak resident %d, sampled peak heap %dMB", n, peaks[i], peakHeap>>20)
	}
	if peaks[0] != peaks[1] {
		t.Fatalf("peak resident scales with task count: %v for sizes %v", peaks, sizes)
	}
}

// Compile and the expander mint shard IDs through one formatter; it must
// match the "%s/shard%04d" rendering byte for byte on both sides of every
// padding boundary.
func TestAppendShardIDMatchesSprintf(t *testing.T) {
	for _, s := range []int{0, 7, 999, 1000, 9999, 10000, 123456} {
		want := fmt.Sprintf("%s/shard%04d", "work", s)
		if got := string(appendShardID([]byte("stale"), "work", s)[len("stale"):]); got != want {
			t.Errorf("shard %d: got %q, want %q", s, got, want)
		}
	}
}

// The in-flight set is keyed by eager index and reached by parsing the
// reported ID, so the parse must accept exactly the IDs Next minted: every
// other ID — unknown def, out-of-range index, non-canonical digits, a shard
// suffix on an unscattered def, a second report — must panic as an unknown
// shard, through TaskDone and TaskFailed alike, without disturbing the set.
func TestScatterExpanderRejectsUnknownShard(t *testing.T) {
	def, err := Parse(`
workflow guard
task prep cpu=1 dur=10s
task work cpu=1 dur=60s scatter=12 after=prep
task gather cpu=1 dur=10s after=work
`)
	if err != nil {
		t.Fatal(err)
	}
	x, err := def.Expand()
	if err != nil {
		t.Fatal(err)
	}
	mustReject := func(id dag.TaskID) {
		t.Helper()
		for _, report := range []struct {
			name string
			call func(dag.TaskID)
		}{
			{"TaskDone", x.TaskDone},
			{"TaskFailed", func(id dag.TaskID) { x.TaskFailed(id) }},
		} {
			resident := x.Resident()
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, "unknown shard") {
						t.Errorf("%s(%q): recovered %q, want an unknown-shard panic", report.name, id, msg)
					}
				}()
				report.call(id)
			}()
			if x.Resident() != resident {
				t.Fatalf("%s(%q) changed Resident %d -> %d", report.name, id, resident, x.Resident())
			}
		}
	}
	next := func() *dag.Task {
		t.Helper()
		task, _, ok := x.Next()
		if !ok {
			t.Fatal("expander ran dry")
		}
		return task
	}
	prep := next()
	mustReject("prep/shard0000") // before its report, too: not a minted ID
	x.TaskDone(prep.ID)
	x.Retire(prep)
	mustReject("prep") // reported already

	var shards []dag.TaskID
	for task, _, ok := x.Next(); ok; task, _, ok = x.Next() {
		shards = append(shards, task.ID)
	}
	if len(shards) != 12 || x.Resident() != 12 {
		t.Fatalf("emitted %d shards, %d resident; want 12 of each", len(shards), x.Resident())
	}
	for _, id := range []dag.TaskID{
		"nope", "nope/shard0001", "/shard0001", "", // unknown def names
		"work/shard0012", "work/shard9999", "work/shard123456789012345678901234567890", // index >= Shards()
		"work/shard1", "work/shard00001", "work/shard001", "work/shard-001", "work/shard+001", "work/shard00x1",
		"work", "work/", "work/shard", "work/Shard0001", "work/shard0001/shard0001", // non-canonical forms
		"gather/shard0000", // not emitted yet
	} {
		mustReject(id)
	}

	// A second report while siblings are still in flight: once after a
	// success, once after a terminal failure (which writes off gather).
	x.TaskDone(shards[0])
	mustReject(shards[0])
	if n := x.TaskFailed(shards[1]); n != 1 {
		t.Fatalf("TaskFailed skipped %d, want 1 (gather)", n)
	}
	mustReject(shards[1])
	for _, id := range shards[2:] {
		x.TaskDone(id)
	}
	if task, _, ok := x.Next(); ok {
		t.Fatalf("skipped gather surfaced as %q", task.ID)
	}
	if got := x.Resident(); got != 0 {
		t.Fatalf("resident after drain: %d", got)
	}
}
