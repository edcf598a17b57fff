package cwsi

import (
	"fmt"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

// WMS adapters model how the engines §3.2 discusses drive a resource
// manager, with and without CWSI support.

// RunResult summarizes one workflow execution for the §3 comparisons.
type RunResult struct {
	Engine           string
	Strategy         string
	Makespan         sim.Time
	RequestedCoreSec float64 // core-seconds reserved from the cluster
	UsedCoreSec      float64 // core-seconds actually computing
}

// Waste returns the fraction of reserved core-seconds left idle.
func (r RunResult) Waste() float64 {
	if r.RequestedCoreSec <= 0 {
		return 0
	}
	return 1 - r.UsedCoreSec/r.RequestedCoreSec
}

// RunNextflowStyle models Nextflow/Argo without CWSI: the WMS submits each
// ready task individually and the resource manager schedules FIFO ("Argo
// also submits each task individually, and Kubernetes then schedules them in
// a FIFO manner"). With a CWS installed, the same submission pattern becomes
// workflow-aware — that is the whole point of the interface.
func RunNextflowStyle(engineName string, cl *cluster.Cluster, w *dag.Workflow, strategy Strategy) (RunResult, error) {
	mgr := rm.NewTaskManager(cl, nil)
	var makespan sim.Time
	var err error
	stratName := "fifo"
	if strategy != nil {
		cws := New(mgr, strategy, nil)
		if err = cws.RegisterWorkflow(w.Name, w); err != nil {
			return RunResult{}, err
		}
		makespan, err = cws.RunWorkflow(w.Name)
		stratName = strategy.Name()
	} else {
		var x *dag.WorkflowExpander
		if x, err = dag.NewWorkflowExpander(w); err != nil {
			return RunResult{}, err
		}
		runner := &rm.StreamRunner{Manager: mgr, Source: x, WorkflowID: w.Name}
		makespan = runner.Run()
		err = runner.Err()
	}
	if err != nil {
		return RunResult{}, err
	}
	used := 0.0
	for _, t := range w.Tasks() {
		used += t.CPUSeconds()
	}
	return RunResult{
		Engine:           engineName,
		Strategy:         stratName,
		Makespan:         makespan,
		RequestedCoreSec: used, // pods request exactly task shapes for task durations
		UsedCoreSec:      used,
	}, nil
}

// RunAirflowBigWorker models Airflow's Kubernetes strategy (§3.2): "Airflow
// starts a big worker on every node for the whole workflow execution and
// assigns tasks into these worker pods bypassing Kubernetes' task assignment
// logic... the big containers will request resources for the entire workflow
// execution time regardless of the actual load."
//
// Every node is fully reserved from start to finish; tasks are packed into
// worker capacity greedily (FIFO over ready tasks). The result exposes the
// waste at merge points the paper calls out.
func RunAirflowBigWorker(cl *cluster.Cluster, w *dag.Workflow) (RunResult, error) {
	x, err := dag.NewWorkflowExpander(w)
	if err != nil {
		return RunResult{}, err
	}
	eng := cl.Engine()
	start := eng.Now()

	// Reserve every node completely for the whole run.
	var allocs []*cluster.Alloc
	for _, n := range cl.UpNodes() {
		a, err := cl.Allocate(n, n.Type.Cores, n.Type.GPUs, n.Type.MemBytes)
		if err != nil {
			return RunResult{}, fmt.Errorf("cwsi: big-worker reservation failed: %w", err)
		}
		allocs = append(allocs, a)
	}

	// Internal capacity ledger per worker.
	type worker struct {
		node      *cluster.Node
		freeCores int
		freeMem   float64
	}
	var workers []*worker
	for _, a := range allocs {
		workers = append(workers, &worker{node: a.Node, freeCores: a.Cores, freeMem: a.Mem})
	}

	// Readiness comes from the expander; ready is the worker pool's own
	// FIFO of tasks waiting for worker capacity.
	var ready []*dag.Task
	takeReady := func() {
		for t, _, ok := x.Next(); ok; t, _, ok = x.Next() {
			ready = append(ready, t)
		}
	}
	remaining := w.Len()
	usedCoreSec := 0.0
	var finish sim.Time

	var schedule func()
	runTask := func(t *dag.Task, wk *worker) {
		dur := rm.DefaultRuntime(t, wk.node)
		usedCoreSec += dur * float64(t.Cores)
		eng.After(sim.Time(dur), func() {
			wk.freeCores += t.Cores
			wk.freeMem += t.MemBytes
			remaining--
			if remaining == 0 {
				finish = eng.Now()
			}
			x.TaskDone(t.ID)
			takeReady()
			schedule()
		})
	}
	schedule = func() {
		var later []*dag.Task
		for _, t := range ready {
			placed := false
			for _, wk := range workers {
				if wk.freeCores >= t.Cores && wk.freeMem >= t.MemBytes {
					wk.freeCores -= t.Cores
					wk.freeMem -= t.MemBytes
					runTask(t, wk)
					placed = true
					break
				}
			}
			if !placed {
				later = append(later, t)
			}
		}
		ready = later
	}
	takeReady()
	eng.After(0, schedule)
	eng.Run()
	if remaining != 0 {
		return RunResult{}, fmt.Errorf("cwsi: big-worker run stalled with %d tasks left", remaining)
	}
	for _, a := range allocs {
		cl.Release(a)
	}
	makespan := finish - start
	requested := 0.0
	for _, a := range allocs {
		requested += float64(a.Cores) * float64(makespan)
	}
	return RunResult{
		Engine:           "airflow-bigworker",
		Strategy:         "bigworker",
		Makespan:         makespan,
		RequestedCoreSec: requested,
		UsedCoreSec:      usedCoreSec,
	}, nil
}

// ConcurrentResult reports a multi-tenant run: several workflows sharing one
// cluster under one scheduling policy.
type ConcurrentResult struct {
	Strategy     string
	Makespans    []sim.Time // per workflow, submission order
	MeanMakespan sim.Time
	MaxMakespan  sim.Time
}

// RunConcurrent executes all workflows concurrently on the cluster under the
// given strategy (nil = FIFO baseline) — the shared-cluster setting where
// workflow-aware scheduling pays: the resource manager sees tasks from many
// DAGs interleaved and, with CWSI, can order them by workflow criticality.
func RunConcurrent(cl *cluster.Cluster, wfs []*dag.Workflow, strategy Strategy) (*ConcurrentResult, error) {
	mgr := rm.NewTaskManager(cl, nil)
	if strategy == nil {
		strategy = Baseline{}
	}
	cws := New(mgr, strategy, nil)
	res := &ConcurrentResult{Strategy: strategy.Name(), Makespans: make([]sim.Time, len(wfs))}
	var firstErr error
	remaining := len(wfs)
	for i, w := range wfs {
		i, w := i, w
		if err := cws.RegisterWorkflow(fmt.Sprintf("%s#%d", w.Name, i), w); err != nil {
			return nil, err
		}
		err := cws.StartWorkflow(fmt.Sprintf("%s#%d", w.Name, i), nil, func(ms sim.Time, err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			res.Makespans[i] = ms
			remaining--
		})
		if err != nil {
			return nil, err
		}
	}
	cl.Engine().Run()
	if firstErr != nil {
		return nil, firstErr
	}
	if remaining != 0 {
		return nil, fmt.Errorf("cwsi: %d workflows stalled", remaining)
	}
	var sum sim.Time
	for _, ms := range res.Makespans {
		sum += ms
		if ms > res.MaxMakespan {
			res.MaxMakespan = ms
		}
	}
	res.MeanMakespan = sum / sim.Time(len(res.Makespans))
	return res, nil
}

// CompareStrategies runs the same workflow shape under each strategy on
// fresh identical clusters and returns makespans keyed by strategy name,
// with "fifo" as the oblivious baseline. buildCluster must return an
// identical cluster each call (fresh engine included). buildWorkflow is
// called once — Workflow accessors are read-only during runs, so every
// strategy executes the very same DAG instead of regenerating it per run.
func CompareStrategies(buildCluster func() *cluster.Cluster, buildWorkflow func() *dag.Workflow, strategies ...Strategy) (map[string]sim.Time, error) {
	out := map[string]sim.Time{}
	w := buildWorkflow()
	base, err := RunNextflowStyle("nextflow", buildCluster(), w, nil)
	if err != nil {
		return nil, err
	}
	out["fifo"] = base.Makespan
	for _, s := range strategies {
		r, err := RunNextflowStyle("nextflow", buildCluster(), w, s)
		if err != nil {
			return nil, err
		}
		out[s.Name()] = r.Makespan
	}
	return out, nil
}
