package exaam

import (
	"fmt"

	"hhcw/internal/cluster"
	"hhcw/internal/entk"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
)

// Config parameterizes the UQ pipeline. The Frontier defaults reproduce the
// paper's published counts: 7875 ExaConstit tasks = (melt-pool cases ×
// microstructure params) × (loading directions × temperatures × RVEs).
type Config struct {
	// Stage 0: process-parameter grid.
	GridDim   int
	GridLevel int
	// MeltPoolCases caps how many grid points become melt-pool cases
	// (0 = all).
	MeltPoolCases int

	// Stage 1.
	MicroParams int // microstructure UQ parameters per thermal case

	// Stage 3.
	LoadingDirections int
	Temperatures      int
	RVEs              int

	// Failure injection for the §4.3 fault-tolerance reproduction ("we
	// registered only 10 task failures"): TransientFailures tasks fail
	// once and succeed on EnTK resubmission (the paper's 8 node-fault
	// victims); PersistentFailures tasks fail every attempt (the paper's 2
	// last-step numerical failures, which "were still far enough out" to
	// be acceptable).
	TransientFailures  int
	PersistentFailures int

	Seed int64
}

// FrontierConfig reproduces the §4.3 run: 25 melt-pool cases × 5
// microstructure parameters = 125 microstructures; ×63 property cases =
// 7875 ExaConstit tasks on 8000 nodes.
func FrontierConfig() Config {
	return Config{
		GridDim:           2,
		GridLevel:         3,
		MeltPoolCases:     25,
		MicroParams:       5,
		LoadingDirections: 7,
		Temperatures:      3,
		RVEs:              3,
		Seed:              1,
	}
}

// Microstructures returns the Stage-1 output count (thermal cases × micro
// params).
func (c Config) Microstructures() int { return c.meltPools() * c.MicroParams }

// PropertyTasks returns the Stage-3 ExaConstit task count.
func (c Config) PropertyTasks() int {
	return c.Microstructures() * c.LoadingDirections * c.Temperatures * c.RVEs
}

func (c Config) meltPools() int {
	n := len(SparseGrid(c.GridDim, c.GridLevel))
	if c.MeltPoolCases > 0 && c.MeltPoolCases < n {
		n = c.MeltPoolCases
	}
	return n
}

// Task shapes from §4.3. Durations are lognormal around the values implied
// by the paper's node-hour totals; ExaConstit is uniform on the stated
// 10–25 min.
const (
	additiveFOAMNodes = 4 // "every task requires 4 nodes with 56 cores per node"
	exaCANodes        = 1 // "every task requires 1 node ... 8 MPI ranks"
	exaConstitNodes   = 8 // "every task requires 8 nodes with 8 MPI ranks per node"
)

// Stage0Pipeline builds the UQ-grid generation and input-prep application.
func Stage0Pipeline(cfg Config) *entk.Pipeline {
	p := &entk.Pipeline{Name: "uq-stage0"}
	gen := p.AddStage(&entk.Stage{Name: "tasmanian"})
	gen.AddTask(&entk.Task{ID: "uq-grid", Nodes: 1, DurationSec: 60})
	prep := p.AddStage(&entk.Stage{Name: "input-prep"})
	for i := 0; i < cfg.meltPools(); i++ {
		prep.AddTask(&entk.Task{ID: fmt.Sprintf("prep-%03d", i), Nodes: 1, DurationSec: 10})
	}
	return p
}

// Stage1AFPipeline builds the AdditiveFOAM half of stage 1, the melt-pool +
// microstructure application: pre-processing, even and odd AdditiveFOAM
// runs, and a gather step, in its own batch job ("AdditiveFOAM workflow
// utilized 40 compute nodes for 2 hours"). Stage1CAPipeline is the other
// half.
func Stage1AFPipeline(cfg Config) *entk.Pipeline {
	rng := randx.New(cfg.Seed + 1)
	p := &entk.Pipeline{Name: "uq-stage1-af"}
	pre := p.AddStage(&entk.Stage{Name: "af-pre"})
	pre.AddTask(&entk.Task{ID: "af-preprocess", Nodes: 1, DurationSec: 120})
	even := p.AddStage(&entk.Stage{Name: "additivefoam-even"})
	for i := 0; i < cfg.meltPools(); i++ {
		even.AddTask(&entk.Task{
			ID:          fmt.Sprintf("af-even-%03d", i),
			Nodes:       additiveFOAMNodes,
			DurationSec: rng.LogNormalMeanCV(1300, 0.15),
		})
	}
	odd := p.AddStage(&entk.Stage{Name: "additivefoam-odd"})
	for i := 0; i < cfg.meltPools(); i++ {
		odd.AddTask(&entk.Task{
			ID:          fmt.Sprintf("af-odd-%03d", i),
			Nodes:       additiveFOAMNodes,
			DurationSec: rng.LogNormalMeanCV(1300, 0.15),
		})
	}
	gather := p.AddStage(&entk.Stage{Name: "af-gather"})
	gather.AddTask(&entk.Task{ID: "af-postprocess", Nodes: 1, DurationSec: 300})
	return p
}

// Stage1CAPipeline builds the ExaCA half of stage 1 (its own batch job:
// "ExaCA workflow utilized 125 compute nodes for 4 hours").
func Stage1CAPipeline(cfg Config) *entk.Pipeline {
	rng := randx.New(cfg.Seed + 2)
	p := &entk.Pipeline{Name: "uq-stage1-ca"}
	ca := p.AddStage(&entk.Stage{Name: "exaca"})
	for i := 0; i < cfg.meltPools(); i++ {
		for j := 0; j < cfg.MicroParams; j++ {
			ca.AddTask(&entk.Task{
				ID:          fmt.Sprintf("exaca-%03d-%02d", i, j),
				Nodes:       exaCANodes,
				DurationSec: rng.LogNormalMeanCV(12600, 0.1),
			})
		}
	}
	an := p.AddStage(&entk.Stage{Name: "exaca-analysis"})
	an.AddTask(&entk.Task{ID: "exaca-post", Nodes: 1, DurationSec: 300})
	return p
}

// Stage3Pipeline builds the local-property application: one ExaConstit
// ensemble member per microstructure × loading direction × temperature ×
// RVE. The optimization script that fits macroscopic material-model
// parameters runs after the ensemble job (see OptimizePipeline), matching
// the paper's driver structure.
func Stage3Pipeline(cfg Config) *entk.Pipeline {
	rng := randx.New(cfg.Seed + 3)
	p := &entk.Pipeline{Name: "uq-stage3"}
	sims := p.AddStage(&entk.Stage{Name: "exaconstit"})
	for m := 0; m < cfg.Microstructures(); m++ {
		for l := 0; l < cfg.LoadingDirections; l++ {
			for tc := 0; tc < cfg.Temperatures; tc++ {
				for r := 0; r < cfg.RVEs; r++ {
					sims.AddTask(&entk.Task{
						ID:          fmt.Sprintf("ec-m%03d-l%d-t%d-r%d", m, l, tc, r),
						Nodes:       exaConstitNodes,
						DurationSec: rng.Uniform(600, 1500), // "runtime ~10-25 min"
					})
				}
			}
		}
	}
	markFailures(rng, sims.Tasks, cfg.TransientFailures, cfg.PersistentFailures)
	return p
}

// markFailures marks distinct random tasks as transient (fail once) or
// persistent (fail always) failures.
func markFailures(rng *randx.Source, tasks []*entk.Task, transient, persistent int) {
	total := transient + persistent
	if total == 0 || len(tasks) == 0 {
		return
	}
	if total > len(tasks) {
		total = len(tasks)
	}
	perm := rng.Perm(len(tasks))
	for i := 0; i < total; i++ {
		if i < transient {
			tasks[perm[i]].FailAttempts = 1
		} else {
			tasks[perm[i]].FailAttempts = 1 << 30
		}
	}
}

// AdaptiveStage3Pipeline builds a local-property application that grows
// itself: after each ensemble round, the converged callback inspects the
// round index and decides whether another refinement round (one more RVE per
// case) is needed — EnTK's dynamic-workflow capability applied to UQ
// refinement ("create a new workflow stages based on the status of
// previously executed stages", §4). maxRounds bounds growth.
func AdaptiveStage3Pipeline(cfg Config, maxRounds int, converged func(round int) bool) *entk.Pipeline {
	rng := randx.New(cfg.Seed + 7)
	p := &entk.Pipeline{Name: "uq-stage3-adaptive"}

	buildRound := func(round int) *entk.Stage {
		st := &entk.Stage{Name: fmt.Sprintf("exaconstit-r%d", round)}
		for m := 0; m < cfg.Microstructures(); m++ {
			for l := 0; l < cfg.LoadingDirections; l++ {
				for tc := 0; tc < cfg.Temperatures; tc++ {
					st.AddTask(&entk.Task{
						ID:          fmt.Sprintf("ec-r%d-m%03d-l%d-t%d", round, m, l, tc),
						Nodes:       exaConstitNodes,
						DurationSec: rng.Uniform(600, 1500),
					})
				}
			}
		}
		return st
	}
	var attach func(st *entk.Stage, round int)
	attach = func(st *entk.Stage, round int) {
		st.PostExec = func(pl *entk.Pipeline, _ *entk.Stage) {
			if round >= maxRounds || converged(round) {
				return
			}
			next := buildRound(round + 1)
			attach(next, round+1)
			pl.AddStage(next)
		}
	}
	first := buildRound(1)
	attach(first, 1)
	p.AddStage(first)
	return p
}

// OptimizePipeline is the post-ensemble optimization script that "calculates
// the necessary macroscopic material model parameters to be used in full
// part-builds".
func OptimizePipeline() *entk.Pipeline {
	p := &entk.Pipeline{Name: "uq-optimize"}
	opt := p.AddStage(&entk.Stage{Name: "optimize"})
	opt.AddTask(&entk.Task{ID: "fit-material-model", Nodes: 1, DurationSec: 600})
	return p
}

// StageResources returns the paper's per-stage resource requests (§4.3):
// AdditiveFOAM 40 nodes / 2 h, ExaCA 125 nodes / 4 h, ExaConstit `nodes`
// (8000 on Frontier) / up to 12 h.
func StageResources(stage int, nodes int) entk.ResourceDesc {
	switch stage {
	case 0:
		return entk.FrontierResource(minInt(nodes, 8), 3600)
	case 1:
		return entk.FrontierResource(minInt(nodes, 125), 6*3600)
	default:
		return entk.FrontierResource(nodes, 12*3600)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Result bundles per-stage EnTK reports for the full pipeline. Stage1AF and
// Stage1CA are the two stage-1 batch jobs (AdditiveFOAM, ExaCA).
type Result struct {
	Stage0, Stage3, Optimize *entk.Report
	Stage1AF, Stage1CA       *entk.Report
}

// RunFull executes the three-stage UQ pipeline on the given cluster, each
// stage as its own EnTK application with its own resource request — "having
// a dedicated application per UQ stage allows us to execute the stages
// individually or as part of the whole UQ pipeline."
func RunFull(cl *cluster.Cluster, bm *rm.BatchManager, cfg Config, stage3Nodes int) (*Result, error) {
	res := &Result{}
	var err error

	am0 := entk.NewAppManager(cl, bm, StageResources(0, len(cl.UpNodes())))
	am0.Policy = rm.FrontierPolicy
	if res.Stage0, err = am0.Run(Stage0Pipeline(cfg)); err != nil {
		return nil, fmt.Errorf("exaam: stage 0: %w", err)
	}
	// Stage 1 runs as two batch jobs with the paper's allocations:
	// AdditiveFOAM on up to 40 nodes, then ExaCA on up to 125.
	am1a := entk.NewAppManager(cl, bm, entk.FrontierResource(minInt(len(cl.UpNodes()), 40), 2*3600))
	am1a.Policy = rm.FrontierPolicy
	af, err := am1a.Run(Stage1AFPipeline(cfg))
	if err != nil {
		return nil, fmt.Errorf("exaam: stage 1 (AdditiveFOAM): %w", err)
	}
	am1b := entk.NewAppManager(cl, bm, StageResources(1, len(cl.UpNodes())))
	am1b.Policy = rm.FrontierPolicy
	ca, err := am1b.Run(Stage1CAPipeline(cfg))
	if err != nil {
		return nil, fmt.Errorf("exaam: stage 1 (ExaCA): %w", err)
	}
	res.Stage1AF, res.Stage1CA = af, ca
	if up := len(cl.UpNodes()); stage3Nodes <= 0 || stage3Nodes > up {
		stage3Nodes = up
	}
	am3 := entk.NewAppManager(cl, bm, StageResources(3, stage3Nodes))
	am3.Policy = rm.FrontierPolicy
	if res.Stage3, err = am3.Run(Stage3Pipeline(cfg)); err != nil {
		return nil, fmt.Errorf("exaam: stage 3: %w", err)
	}
	amOpt := entk.NewAppManager(cl, bm, StageResources(0, len(cl.UpNodes())))
	amOpt.Policy = rm.FrontierPolicy
	if res.Optimize, err = amOpt.Run(OptimizePipeline()); err != nil {
		return nil, fmt.Errorf("exaam: optimize: %w", err)
	}
	return res, nil
}

// TotalExecuted sums successful tasks across stages.
func (r *Result) TotalExecuted() int {
	n := r.Stage0.TasksExecuted + r.Stage3.TasksExecuted
	for _, rep := range []*entk.Report{r.Stage1AF, r.Stage1CA, r.Optimize} {
		if rep != nil {
			n += rep.TasksExecuted
		}
	}
	return n
}
