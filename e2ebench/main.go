// Command e2ebench is the repository's end-to-end benchmark. It sets up one
// workload from a seed, runs it as a closed loop on one worker per CPU for a
// fixed time, checks every run's output against a reference digest, and
// prints every end-to-end metric with its unit and sample count. With
// -trace 1 it also runs the workload through delegating wrappers around the
// program's layers and reports per-layer metrics instead.
//
// Usage:
//
//	e2ebench -workload ensemble|dense|service|stream [-seed 1] [-seconds 10] [-trace 0|1] [-spans file]
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. See README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// defaultSeed is the seed whose digests are committed in golden.go.
const defaultSeed = 1

// setupRepeats is how many times a run sets the workload up; setup_s is the
// median.
const setupRepeats = 5

// coldCheckSeeds is how many seeds of the ensemble block are re-run on the
// cold sweep.Run path.
const coldCheckSeeds = 2

type setupFunc func(seed int64, workers int, tr *tracer) (*bench, error)

var workloadNames = []string{"ensemble", "dense", "service", "stream"}

var setups = map[string]setupFunc{
	"ensemble": setupEnsemble,
	"dense":    setupDense,
	"service":  setupService,
	"stream":   setupStream,
}

// engineSpans are the spans whose self time is simulation work: the
// engine, the resource manager and the cluster index.
var engineSpans = []string{
	"core.run.fifo", "core.run.cws", "core.run.storm", "core.run.lotaru",
	"rm.run", "rm.stream", "service.run", "service.solo",
}

// rootSpans are the names of the runs' root spans.
var rootSpans = []string{
	"core.run.fifo", "core.run.cws", "core.run.storm", "core.run.lotaru",
	"rm.run", "rm.stream", "service.run_with_baselines",
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value
}

// report is everything one invocation measured.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	notes     []string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", defaultSeed, "input seed, positive")
	seconds := fs.Float64("seconds", 10, "measured seconds per timed loop")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	spansPath := fs.String("spans", "", "file the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "e2ebench: "+format+"\n", a...)
		return 2
	}
	setup, ok := setups[*workload]
	switch {
	case fs.NArg() > 0:
		return fail("unexpected argument %q", fs.Arg(0))
	case !ok:
		return fail("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames, ", "))
	case *seed <= 0:
		return fail("seed must be positive, got %d", *seed)
	case !(*seconds > 0) || *seconds > 120:
		return fail("seconds must be in (0, 120], got %v", *seconds)
	case *traceFlag != 0 && *traceFlag != 1:
		return fail("trace must be 0 or 1, got %d", *traceFlag)
	}
	rep, err := measure(*workload, setup, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1, *spansPath)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", *workload, err)
		return 1
	}
	fmt.Fprintf(stdout, "e2ebench workload=%s seed=%d seconds=%v trace=%d workers=%d\n",
		*workload, *seed, *seconds, *traceFlag, runtime.NumCPU())
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, n)
	}
	out := map[string]any{}
	for _, m := range rep.metrics {
		fmt.Fprintf(stdout, "  %-30s %16.6g %-8s n=%d\n", m.name, m.value, m.unit, m.n)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rep.correct,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// build sets a workload up and warms it: input generation, substrate
// construction and one reference run of every job on every worker.
func build(setup setupFunc, seed int64, workers int, tr *tracer) (*bench, error) {
	b, err := setup(seed, workers, tr)
	if err != nil {
		return nil, err
	}
	if err := warmUp(b); err != nil {
		return nil, err
	}
	return b, nil
}

func measure(name string, setup setupFunc, seed int64, d time.Duration, traced bool, spansPath string) (*report, error) {
	workers := runtime.NumCPU()
	rep := &report{correct: true}
	note := func(format string, a ...any) { rep.notes = append(rep.notes, fmt.Sprintf(format, a...)) }

	var b *bench
	var setupS []float64
	setupMs := map[string][]float64{}
	for i := 0; i < setupRepeats; i++ {
		b = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if b, err = build(setup, seed, workers, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		for k, v := range b.setupMs {
			setupMs[k] = append(setupMs[k], v)
		}
	}
	order := jobOrder(b.jobs, seed)

	runtime.GC()
	debug.FreeOSMemory()
	if !resetPeakRSS() {
		note("  peak RSS could not be reset; peak_rss_mb includes set-up")
	}
	st := closedLoop(b, d, order)
	rss := peakRSSMB()
	rep.attempted, rep.failed = st.attempted, st.failed
	if st.firstErr != "" {
		rep.correct = false
		note("  first failed run: %s", st.firstErr)
	}
	if b.audit != nil {
		if leaks := b.audit(); len(leaks) > 0 {
			rep.correct = false
			rep.failed = rep.attempted
			note("  warm-state audit: %d leaked field paths, first: %s", len(leaks), leaks[0])
		} else {
			note("  warm-state audit: clean")
		}
	}
	digest := refDigest(b.ref)
	if seed == defaultSeed {
		if want := goldenDigests[name]; digest != want {
			rep.correct = false
			rep.failed = rep.attempted
			note("  golden digest: %s, committed %s: MISMATCH", digest, want)
		} else {
			note("  golden digest: %s matches", digest)
		}
	} else {
		note("  reference digest: %s (golden digests cover seed %d)", digest, defaultSeed)
	}
	if name == "ensemble" {
		if err := ensembleColdCheck(b, seed, workers, coldCheckSeeds); err != nil {
			rep.correct = false
			note("  cold sweep.Run check: %v", err)
		} else {
			note("  cold sweep.Run check: %d seeds match the warm reference", coldCheckSeeds)
		}
	}
	failedPct := 0.0
	if rep.attempted > 0 {
		failedPct = 100 * float64(rep.failed) / float64(rep.attempted)
	}
	note("  failed_runs_pct %g %% of n=%d attempted runs", failedPct, rep.attempted)

	if !traced {
		rep.metrics = endToEnd(b, st, setupS, rss)
		if len(st.ms) < 100 {
			note("  run_ms_p90 has fewer than ten samples beyond it (n=%d)", len(st.ms))
		}
		return rep, nil
	}

	tr := newTracer(workers)
	tb, err := build(setup, seed, workers, tr)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	for j := range tb.ref {
		if tb.ref[j].digest != b.ref[j].digest {
			rep.correct = false
			note("  traced job %d digest %s differs from untraced %s", j, tb.ref[j].digest, b.ref[j].digest)
			break
		}
	}
	warm := tr.counts()
	if warm.mismatches > 0 {
		rep.correct = false
		note("  %d re-issued candidate queries differed from the manager's", warm.mismatches)
	}
	tr.reset()
	tst := closedLoop(tb, d, order)
	rep.attempted += tst.attempted
	rep.failed += tst.failed
	if tst.firstErr != "" {
		rep.correct = false
		note("  first failed traced run: %s", tst.firstErr)
	}
	totals := tr.totals()
	rep.metrics = perLayer(b, st, tb, tst, warm, tr.counts(), totals, setupMs)
	rep.notes = append(rep.notes, "  layer split of the traced loop (self time as a share of run time):",
		strings.TrimRight(splitTable(totals, rootSpans), "\n"))
	if spansPath != "" {
		if err := tr.write(spansPath); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		note("  spans written to %s (%d more beyond %d per worker not kept)", spansPath, tr.dropped(), maxSpans)
	}
	return rep, nil
}

// endToEnd computes the end-to-end metrics of the untraced loop.
func endToEnd(b *bench, st loopStats, setupS []float64, rss float64) []metric {
	wall := st.wall.Seconds()
	good := st.attempted - st.failed
	var makespans, utils, waits []float64
	for _, o := range b.ref {
		makespans = append(makespans, o.makespan)
		utils = append(utils, o.util)
		waits = append(waits, o.waits...)
	}
	waitP99 := quantile(waits, 0.99)
	if b.tenantP99 {
		waitP99 = mean(waits)
	}
	return []metric{
		{"tasks_per_s", float64(st.tasks) / wall, "1/s", good},
		{"runs_per_s", float64(good) / wall, "1/s", good},
		{"run_ms_p50", quantile(st.ms, 0.5), "ms", len(st.ms)},
		{"run_ms_p90", quantile(st.ms, 0.9), "ms", len(st.ms)},
		{"setup_s", quantile(setupS, 0.5), "s", len(setupS)},
		{"peak_rss_mb", rss, "MiB", 1},
		{"sim_makespan_s", quantile(makespans, 0.5), "s", len(makespans)},
		{"sim_util_pct", 100 * mean(utils), "%", len(utils)},
		{"sim_wait_s_p99", waitP99, "s", len(waits)},
	}
}

// perLayer computes the per-layer metrics. Counts come from the traced
// warm-up pass, which runs every job once per worker, so they repeat
// exactly; times come from the traced loop; the runtime and busy shares come
// from the untraced loop.
func perLayer(b *bench, st loopStats, tb *bench, tst loopStats, warm, loop layerCounts,
	totals map[string]*spanTotal, setupMs map[string][]float64) []metric {
	div := func(a, c float64) float64 {
		if c == 0 {
			return 0
		}
		return a / c
	}
	perRun := func(x int64) float64 { return div(float64(x), float64(warm.runs)) }
	span := func(name string) spanTotal {
		if s := totals[name]; s != nil {
			return *s
		}
		return spanTotal{}
	}
	perCall := func(name string) float64 { s := span(name); return div(float64(s.total), float64(s.calls)) }
	msPerCall := func(name string) float64 { return perCall(name) / 1e6 }
	setup := func(name string) float64 { return quantile(setupMs[name], 0.5) }

	var engineTotal, engineSelf int64
	for _, n := range engineSpans {
		engineSelf += span(n).self
		if !strings.HasPrefix(n, "service.") {
			engineTotal += span(n).total
		}
	}
	var ref counts
	for _, o := range b.ref {
		ref.add(o.counts)
	}
	jobs := float64(len(b.ref))

	genMs := setup("dag.gen_ms")
	if s := span("dag.gen"); s.calls > 0 {
		genMs = div(float64(s.total)/1e6, float64(loop.runs))
	}
	tpsU := float64(st.tasks) / st.wall.Seconds()
	tpsT := float64(tst.tasks) / tst.wall.Seconds()
	return []metric{
		{"sim.events", perRun(warm.events), "1/run", int(warm.runs)},
		{"sim.ns_per_event", div(float64(engineTotal), float64(loop.events)), "ns", int(loop.events)},
		{"cluster.queries", perRun(warm.queries), "1/run", int(warm.runs)},
		{"cluster.candidates_per_query", div(float64(warm.candidates), float64(warm.queries)), "count", int(warm.queries)},
		{"cluster.query_ns", perCall("cluster.query"), "ns", int(span("cluster.query").calls)},
		{"rm.passes", perRun(warm.passes), "1/run", int(warm.runs)},
		{"rm.pending_scanned", perRun(warm.scanned), "1/run", int(warm.runs)},
		{"rm.placements", perRun(warm.placements), "1/run", int(warm.runs)},
		{"rm.place_per_scan", div(float64(warm.placements), float64(warm.scanned)), "ratio", int(warm.scanned)},
		{"rm.dispatch_self_ms", div(float64(engineSelf)/1e6, float64(loop.runs)), "ms", int(loop.runs)},
		{"cwsi.priority_calls", perRun(warm.prioCalls), "1/run", int(warm.runs)},
		{"cwsi.priority_ns", perCall("cwsi.priority"), "ns", int(span("cwsi.priority").calls)},
		{"cwsi.pick_ns", div(float64(span("cwsi.pick").self), float64(span("cwsi.pick").calls)), "ns", int(span("cwsi.pick").calls)},
		{"dag.gen_ms", genMs, "ms", max(int(span("dag.gen").calls), len(setupMs["dag.gen_ms"]))},
		{"dag.next_calls", perRun(warm.nextCalls), "1/run", int(warm.runs)},
		{"dag.next_ns", perCall("dag.next"), "ns", int(span("dag.next").calls)},
		{"dag.done_ns", perCall("dag.done"), "ns", int(span("dag.done").calls)},
		{"jaws.expand_ms", setup("jaws.expand_ms"), "ms", len(setupMs["jaws.expand_ms"])},
		{"core.session_build_ms", setup("core.session_build_ms"), "ms", len(setupMs["core.session_build_ms"])},
		{"core.run_ms.fifo", msPerCall("core.run.fifo"), "ms", int(span("core.run.fifo").calls)},
		{"core.run_ms.cws", msPerCall("core.run.cws"), "ms", int(span("core.run.cws").calls)},
		{"core.run_ms.storm", msPerCall("core.run.storm"), "ms", int(span("core.run.storm").calls)},
		{"core.run_ms.lotaru", msPerCall("core.run.lotaru"), "ms", int(span("core.run.lotaru").calls)},
		{"provenance.records_per_run", div(float64(ref.records), float64(ref.cwsRuns)), "1/run", ref.cwsRuns},
		{"fault.failed_attempts", div(float64(ref.failedAttempts), jobs), "1/run", len(b.ref)},
		{"fault.retries", div(float64(ref.retries), jobs), "1/run", len(b.ref)},
		{"fault.attempts_per_task", div(float64(ref.tasksRun+ref.retries), float64(ref.tasksRun)), "ratio", ref.tasksRun},
		{"predict.samples", div(float64(ref.predSamples), float64(ref.predRuns)), "1/run", ref.predRuns},
		{"predict.mre_pct", div(ref.predMRE, float64(ref.predRuns)), "%", ref.predRuns},
		{"service.run_ms", msPerCall("service.run"), "ms", int(span("service.run").calls)},
		{"service.solo_ms", msPerCall("service.solo"), "ms", int(span("service.solo").calls)},
		{"service.admitted", div(float64(ref.admitted), jobs), "1/run", len(b.ref)},
		{"service.rejected_pct", 100 * div(float64(ref.rejected), float64(ref.arrivals)), "%", ref.arrivals},
		{"service.deferrals", div(float64(ref.deferred), jobs), "1/run", len(b.ref)},
		{"sweep.worker_busy_pct", 100 * div(st.busy.Seconds(), float64(b.workers)*st.wall.Seconds()), "%", st.attempted},
		{"runtime.alloc_kb_per_run", div(st.rt.allocBytes/1024, float64(st.attempted)), "KiB", st.attempted},
		{"runtime.gc_cpu_pct", 100 * div(st.rt.gcCPU, st.rt.totalCPU), "%", st.attempted},
		{"trace.overhead_pct", 100 * div(tpsU-tpsT, tpsU), "%", tst.attempted},
	}
}

// refDigest folds the reference digests of every job, in job order, into
// one 64-bit FNV-1a digest.
func refDigest(ref []outcome) string {
	h := fnv.New64a()
	for _, o := range ref {
		io.WriteString(h, o.digest)
		io.WriteString(h, "\n")
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
