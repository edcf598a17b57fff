// exaam_uq: the §4 ExaAM uncertainty-quantification pipeline at laptop
// scale — three EnTK applications (grid generation, melt-pool + micro-
// structure, local properties) on a simulated 128-node allocation, with a
// node fault injected mid-run to show the resubmission machinery.
package main

import (
	"fmt"
	"log"

	"hhcw/internal/cluster"
	"hhcw/internal/exaam"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

func main() {
	eng := sim.NewEngine()
	cl := cluster.Frontier(eng, 128)
	bm := rm.NewBatchManager(cl, nil)

	// A reduced UQ study: 5 melt-pool cases × 2 microstructure parameters,
	// 3 loading directions × 2 temperatures × 1 RVE → 60 ExaConstit runs.
	cfg := exaam.Config{
		GridDim: 2, GridLevel: 2, MeltPoolCases: 5,
		MicroParams: 2, LoadingDirections: 3, Temperatures: 2, RVEs: 1,
		Seed: 11,
	}
	fmt.Printf("UQ grid points: %d (Smolyak sparse grid, dim=%d level=%d)\n",
		len(exaam.SparseGrid(cfg.GridDim, cfg.GridLevel)), cfg.GridDim, cfg.GridLevel)
	fmt.Printf("microstructures: %d, ExaConstit ensemble members: %d\n\n",
		cfg.Microstructures(), cfg.PropertyTasks())

	// Kill one node during the property stage; EnTK resubmits its victims
	// in a follow-up batch job.
	fi := cluster.NewFaultInjector(cl, randx.New(3))
	fi.ScheduleNodeFailures(1, 9000)

	res, err := exaam.RunFull(cl, bm, cfg, 128)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-28s %8s %8s %8s %8s\n", "stage", "tasks", "failed", "TTX", "util")
	print := func(name string, tasks, failed int, ttx float64, util float64) {
		fmt.Printf("%-28s %8d %8d %7.0fs %7.1f%%\n", name, tasks, failed, ttx, util*100)
	}
	print("stage0 grid+prep", res.Stage0.TasksExecuted, res.Stage0.TasksFailed, float64(res.Stage0.TTX), res.Stage0.Utilization)
	print("stage1 AdditiveFOAM", res.Stage1AF.TasksExecuted, res.Stage1AF.TasksFailed, float64(res.Stage1AF.TTX), res.Stage1AF.Utilization)
	print("stage1 ExaCA", res.Stage1CA.TasksExecuted, res.Stage1CA.TasksFailed, float64(res.Stage1CA.TTX), res.Stage1CA.Utilization)
	print("stage3 ExaConstit", res.Stage3.TasksExecuted, res.Stage3.TasksFailed, float64(res.Stage3.TTX), res.Stage3.Utilization)
	print("optimize", res.Optimize.TasksExecuted, res.Optimize.TasksFailed, float64(res.Optimize.TTX), res.Optimize.Utilization)
	note := "no faults hit the ensemble"
	if res.Stage3.Rounds > 1 {
		note = "resubmission jobs recovered the node-fault victims"
	}
	fmt.Printf("\ntotal tasks executed: %d; stage-3 batch jobs: %d (%s)\n",
		res.TotalExecuted(), res.Stage3.Rounds, note)
}
