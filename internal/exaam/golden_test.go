package exaam

// Golden pins of complete EnTK reports. Each run's every Report field is
// encoded bit-exactly (IEEE-754 bits for times and rates, a sha256 over the
// Fig 4/5 series) and compared with the bytes captured before AppManager
// moved onto the one executor (rm.StreamRunner). A change here is a change
// in what the §4 reproduction reports: fix it, or re-capture deliberately
// and say why in CHANGES.md.

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/entk"
	"hhcw/internal/metrics"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

// reportFingerprint renders every Report field: counts in decimal, times and
// rates as IEEE-754 bits, and each series as a digest of its point bits.
func reportFingerprint(r *entk.Report) string {
	series := func(pts []metrics.Point) string {
		h := sha256.New()
		for _, p := range pts {
			fmt.Fprintf(h, "%016x:%016x;", math.Float64bits(float64(p.T)), math.Float64bits(p.V))
		}
		return fmt.Sprintf("%d@%x", len(pts), h.Sum(nil)[:8])
	}
	return fmt.Sprintf("rounds=%d runtime=%016x ovh=%016x ttx=%016x util=%016x exec=%d failed=%d resubOK=%d sched=%016x launch=%016x running=%s scheduled=%s busy=%s",
		r.Rounds,
		math.Float64bits(float64(r.JobRuntime)),
		math.Float64bits(float64(r.Overhead)),
		math.Float64bits(float64(r.TTX)),
		math.Float64bits(r.Utilization),
		r.TasksExecuted, r.TasksFailed, r.ResubmittedOK,
		math.Float64bits(r.MeasuredSchedRate),
		math.Float64bits(r.MeasuredLaunchRate),
		series(r.Running), series(r.Scheduled), series(r.BusyNodes))
}

func checkGolden(t *testing.T, name string, r *entk.Report, want string) {
	t.Helper()
	got := reportFingerprint(r)
	if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(got))); sum != want {
		t.Errorf("%s: report sha256 = %s, want golden %s\n  report: %s", name, sum, want, got)
	}
}

// Stage 3 on 1000 Frontier nodes, 2625 ExaConstit tasks, with transient
// (resubmitted) and persistent (terminal) failures.
func TestGoldenStage3Report(t *testing.T) {
	eng := sim.NewEngine()
	cl := cluster.Frontier(eng, 1000)
	bm := rm.NewBatchManager(cl, rm.FrontierPolicy)
	cfg := FrontierConfig()
	cfg.RVEs = 1
	cfg.TransientFailures, cfg.PersistentFailures = 8, 2
	am := entk.NewAppManager(cl, bm, entk.FrontierResource(1000, 12*3600))
	am.Policy = rm.FrontierPolicy
	rep, err := am.Run(Stage3Pipeline(cfg))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "stage3", rep, goldenStage3)
}

// The full UQ pipeline on 500 nodes: the 7875-task Stage 3 outlives its
// 12 h walltime, so expiry kills and resubmission rounds are both pinned.
func TestGoldenRunFullReports(t *testing.T) {
	eng := sim.NewEngine()
	cl := cluster.Frontier(eng, 500)
	bm := rm.NewBatchManager(cl, rm.FrontierPolicy)
	cfg := FrontierConfig()
	cfg.TransientFailures, cfg.PersistentFailures = 8, 2
	res, err := RunFull(cl, bm, cfg, 500)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		rep  *entk.Report
		want string
	}{
		{"stage0", res.Stage0, goldenFullStage0},
		{"stage1af", res.Stage1AF, goldenFullStage1AF},
		{"stage1ca", res.Stage1CA, goldenFullStage1CA},
		{"stage3", res.Stage3, goldenFullStage3},
		{"optimize", res.Optimize, goldenFullOptimize},
	} {
		checkGolden(t, c.name, c.rep, c.want)
	}
}

// The self-growing Stage 3: three PostExec rounds, with a node lost in the
// first so a dynamic pipeline's failure is resubmitted too.
func TestGoldenAdaptiveStage3Report(t *testing.T) {
	eng := sim.NewEngine()
	cl := cluster.Frontier(eng, 64)
	bm := rm.NewBatchManager(cl, nil)
	cfg := Config{GridDim: 2, GridLevel: 1, MeltPoolCases: 2, MicroParams: 1,
		LoadingDirections: 2, Temperatures: 1, RVEs: 1, Seed: 9}
	p := AdaptiveStage3Pipeline(cfg, 5, func(round int) bool { return round >= 3 })
	eng.At(400, func() { cl.FailNode(cl.Nodes()[3]) })
	am := entk.NewAppManager(cl, bm, entk.FrontierResource(64, 12*3600))
	rep, err := am.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reportFingerprint(rep), "rounds=2") {
		t.Errorf("adaptive run did not resubmit: %s", reportFingerprint(rep))
	}
	checkGolden(t, "adaptive", rep, goldenAdaptive)
}

const (
	goldenStage3       = "b22710e17e9261bb5debc1f5fbf5594526a870b9ce43fd15e9a941f8b966c79a"
	goldenFullStage0   = "f8db1fa9996d371628f8489d9a2b3360ebcaf0b2a2ebdda2e3ba07f51cebb930"
	goldenFullStage1AF = "e52525c1bb760dd0a1b617b0a6b04fc828afd8922bffe8b33fb1f25872aae4f8"
	goldenFullStage1CA = "61d041c52eff932081aadf06a9ffd7c6a9077c3167101787c4b4a1e69b720697"
	goldenFullStage3   = "33d14a90bb0dbe33622821013269c90597a77680d762f5c50ae781abf4434f71"
	goldenFullOptimize = "46eb7243f5a00cd3121f90b474a919a0c71a1c8b7295630b20273f03054ecca5"
	goldenAdaptive     = "0b50c61f3659103c7ba9a270435ec687da1acd2826c3d06108235a7151e8e1e8"
)
