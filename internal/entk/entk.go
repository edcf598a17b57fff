// Package entk implements a RADICAL-EnTK-style Ensemble Toolkit (§4): the
// Pipeline-Stage-Task (PST) programming model on top of a pilot runtime.
//
// "Pipeline is a sequence of Stages, and each Stage is a set of independent
// computing Tasks. Multiple pipelines can be executed concurrently, while
// stages, within each pipeline, are executed sequentially."
//
// Fault tolerance follows the paper's ExaAM applications: tasks that fail
// (e.g. from node faults) are collected and re-submitted "as part of the
// consecutive batch job (i.e., the next EnTK run)", with a smaller job whose
// size "correlates to the number of failed tasks", preserving the order of
// the original stages.
//
// Execution goes through the repository's one DAG executor. Each pipeline
// is a StageExpander (the PST stage barrier and PostExec growth), driven by
// an rm.StreamRunner whose manager's submit side is the job's pilot.Pilot:
// the agent's scheduling and launch rates apply to every attempt. The same
// expander runs pipelines lazily on any other environment (see Expand);
// AppManager only changes what a failure means — the task waits for the
// next job instead of stopping its pipeline.
package entk

import (
	"fmt"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/metrics"
	"hhcw/internal/pilot"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

// TaskState tracks a task through the EnTK state model.
type TaskState int

// Task states.
const (
	Initial TaskState = iota
	Scheduling
	Executed
	Failed
)

// String returns the state name.
func (s TaskState) String() string {
	switch s {
	case Initial:
		return "initial"
	case Scheduling:
		return "scheduling"
	case Executed:
		return "executed"
	default:
		return "failed"
	}
}

// Task is one EnTK computing task (whole-node granularity, like the ExaAM
// codes: AdditiveFOAM 4 nodes, ExaCA 1 node, ExaConstit 8 nodes).
type Task struct {
	ID          string
	Nodes       int
	DurationSec float64

	// FailAttempts makes the first N submissions fail at half the task's
	// duration — the knob fault-injection experiments use to model
	// application-level failures (the paper's "too large of a time step"
	// cases) independent of node faults.
	FailAttempts int

	state    TaskState
	attempts int
}

// State returns the task's current state.
func (t *Task) State() TaskState { return t.state }

// Attempts returns how many times the task was submitted.
func (t *Task) Attempts() int { return t.attempts }

// Stage is a set of independent tasks.
type Stage struct {
	Name  string
	Tasks []*Task

	// PostExec, when set, fires once when every task of the stage is
	// terminal in its first job, before the next stage starts. It may
	// append stages to the pipeline — EnTK's dynamic-workflow capability:
	// "handle the size of a workflow dynamically, e.g., create a new
	// workflow stages based on the status of previously executed stages"
	// (§4). Stages appended by PostExec run in order after the existing
	// ones.
	PostExec func(p *Pipeline, s *Stage)

	postExecFired bool
}

// AddTask appends a task and returns it (builder style).
func (s *Stage) AddTask(t *Task) *Task {
	s.Tasks = append(s.Tasks, t)
	return t
}

// Pipeline is a sequence of stages.
type Pipeline struct {
	Name   string
	Stages []*Stage
}

// AddStage appends a stage and returns it (builder style).
func (p *Pipeline) AddStage(s *Stage) *Stage {
	p.Stages = append(p.Stages, s)
	return s
}

// ResourceDesc describes the pilot allocation an AppManager acquires —
// EnTK's resource description, reconfigured per platform (§4.3).
type ResourceDesc struct {
	Nodes    int
	Walltime sim.Time
	Account  string

	BootstrapSec float64 // agent overhead (Fig 4 OVH)
	SchedRate    float64 // tasks/s (Fig 5, ~269 on Frontier)
	LaunchRate   float64 // tasks/s (Fig 5, ~51 on Frontier)
}

// FrontierResource returns the §4.3 Frontier configuration for a given node
// count.
func FrontierResource(nodes int, walltime sim.Time) ResourceDesc {
	return ResourceDesc{
		Nodes:        nodes,
		Walltime:     walltime,
		Account:      "exaam",
		BootstrapSec: 85,
		SchedRate:    269,
		LaunchRate:   51,
	}
}

// Report summarizes one AppManager run for the Fig 4 / Fig 5 analyses.
type Report struct {
	Rounds        int      // 1 + resubmission jobs
	JobRuntime    sim.Time // first job: grant → release
	Overhead      sim.Time // first job OVH
	TTX           sim.Time // first job: first launch → last completion
	Utilization   float64  // node-seconds busy / (nodes × job runtime), first job
	TasksExecuted int
	TasksFailed   int // terminal failures across all rounds
	ResubmittedOK int // tasks that failed once but succeeded on resubmission

	// Measured agent throughputs of the first job (Fig 5 slopes).
	MeasuredSchedRate  float64
	MeasuredLaunchRate float64

	// Series from the first job for plotting Fig 4/5.
	Running   []metrics.Point
	Scheduled []metrics.Point
	BusyNodes []metrics.Point
}

// AppManager executes pipelines on pilots, handling acquisition,
// concurrency, and resubmission.
type AppManager struct {
	Resource ResourceDesc
	// MaxResubmitRounds bounds the consecutive smaller jobs for failed
	// tasks (the paper's runs needed one).
	MaxResubmitRounds int
	// Policy, when set, caps every job's walltime to the facility limit
	// for its node count — "each ensemble respects Frontier's job
	// scheduling policy in terms of walltime limits per amount of
	// requested compute nodes" (§4.2).
	Policy rm.WalltimePolicy

	cl *cluster.Cluster
	bm *rm.BatchManager
}

// NewAppManager creates an AppManager over a cluster and batch manager.
func NewAppManager(cl *cluster.Cluster, bm *rm.BatchManager, res ResourceDesc) *AppManager {
	return &AppManager{Resource: res, MaxResubmitRounds: 1, cl: cl, bm: bm}
}

// RunPerJob executes each pipeline in its own batch job with its own
// resource description — §4's requirement (ii): "either having one large
// batch job for all workflows or setting a workflow per batch job with the
// different numbers of acquired compute nodes and runtime." Jobs run
// concurrently (subject to batch-queue capacity); each gets its own report
// and its own resubmission jobs. resources must be parallel to pipelines.
func (am *AppManager) RunPerJob(pipelines []*Pipeline, resources []ResourceDesc) ([]*Report, error) {
	if len(pipelines) != len(resources) {
		return nil, fmt.Errorf("entk: %d pipelines but %d resource descriptions", len(pipelines), len(resources))
	}
	reports := make([]*Report, len(pipelines))
	jobs := make([]*job, len(pipelines))
	// Start every job before driving the engine, so the pilots coexist
	// (batch queueing serializes only those that do not fit together).
	for i, pl := range pipelines {
		reports[i] = &Report{Rounds: 1}
		j, err := am.startJob(resources[i], []*Pipeline{pl}, reports[i], true)
		if err != nil {
			return reports, fmt.Errorf("entk: pipeline %q: %w", pl.Name, err)
		}
		jobs[i] = j
	}
	am.cl.Engine().Run()
	failed := make([][][]*Task, len(pipelines))
	for i, pl := range pipelines {
		var err error
		if failed[i], err = jobs[i].finish(); err != nil {
			return reports, fmt.Errorf("entk: pipeline %q: %w", pl.Name, err)
		}
	}
	for i, pl := range pipelines {
		if err := am.resubmit(pl.Name+"-resubmit", resources[i], failed[i], reports[i]); err != nil {
			return reports, err
		}
	}
	return reports, nil
}

// Run executes the pipelines in one job, then its resubmission jobs, and
// returns the report. It drives the sim engine.
func (am *AppManager) Run(pipelines ...*Pipeline) (*Report, error) {
	rep := &Report{Rounds: 1}
	failed, err := am.runJob(am.Resource, pipelines, rep, true)
	if err == nil {
		err = am.resubmit("resubmit", am.Resource, failed, rep)
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// resubmit runs an application's resubmission jobs: while failed tasks
// remain and the round budget allows, a smaller job sized to the failed
// work reruns them — one stage per original stage with failures, in the
// original stage order (§4.2) — and whatever still fails is terminal.
func (am *AppManager) resubmit(name string, res ResourceDesc, failed [][]*Task, rep *Report) error {
	for round := 0; round < am.MaxResubmitRounds; round++ {
		rp := &Pipeline{Name: name}
		nodes, maxNodes := 0, 0
		for i, tasks := range failed {
			if len(tasks) == 0 {
				continue
			}
			for _, t := range tasks {
				nodes += max(t.Nodes, 1)
				maxNodes = max(maxNodes, t.Nodes)
			}
			rp.Stages = append(rp.Stages, &Stage{Name: fmt.Sprintf("resubmit-%d", i), Tasks: tasks})
		}
		if len(rp.Stages) == 0 {
			break
		}
		// Job size correlates with the failed-task count (§4.2), bounded
		// by the original allocation.
		r := res
		r.Nodes = max(min(nodes, res.Nodes), maxNodes)
		var err error
		if failed, err = am.runJob(r, []*Pipeline{rp}, rep, false); err != nil {
			return err
		}
		rep.Rounds++
	}
	for _, tasks := range failed {
		rep.TasksFailed += len(tasks)
	}
	return nil
}

// runJob runs one job to completion (see startJob) and returns its failed
// tasks grouped by global stage index.
func (am *AppManager) runJob(res ResourceDesc, pipelines []*Pipeline, rep *Report, first bool) ([][]*Task, error) {
	j, err := am.startJob(res, pipelines, rep, first)
	if err != nil {
		return nil, err
	}
	am.cl.Engine().Run()
	return j.finish()
}

// job is one pilot job: the pilot, one executor per pipeline on it, and the
// failed tasks grouped by a global stage index — pipeline-major, then the
// stages PostExec hooks append, in the order they appear — so that the
// resubmission job keeps the original stage order.
type job struct {
	am         *AppManager
	p          *pilot.Pilot
	nodes      int
	runs       []*pipelineRun
	stageIndex map[*Stage]int
	failed     [][]*Task
	active     int // pipelines still executing
	rep        *Report
	first      bool // the application's first job, whose pilot the report measures
}

// startJob expands the pipelines, requests the pilot and arms one executor
// per pipeline to start when the agent is active, without driving the
// engine; call finish after the engine drains. The split lets several jobs
// run concurrently (RunPerJob).
func (am *AppManager) startJob(res ResourceDesc, pipelines []*Pipeline, rep *Report, first bool) (*job, error) {
	j := &job{am: am, nodes: res.Nodes, stageIndex: map[*Stage]int{}, rep: rep, first: first, active: len(pipelines)}
	for _, pl := range pipelines {
		r := &pipelineRun{j: j, pl: pl}
		r.index()
		j.runs = append(j.runs, r)
	}
	for _, r := range j.runs {
		x, err := r.pl.Expand()
		if err != nil {
			return nil, err
		}
		r.StageExpander = x
		r.index() // leading empty stages' hooks fire during Expand
	}
	if am.Policy != nil {
		if cap := am.Policy(res.Nodes); res.Walltime > cap {
			res.Walltime = cap
		}
	}
	p, err := pilot.Submit(am.bm, am.cl, pilot.Config{
		Nodes:        res.Nodes,
		Walltime:     res.Walltime,
		Account:      res.Account,
		CoresPerNode: 1, // PST tasks carry their node count in Cores
		BootstrapSec: res.BootstrapSec,
		SchedRate:    res.SchedRate,
		LaunchRate:   res.LaunchRate,
	})
	if err != nil {
		return nil, err
	}
	j.p = p
	mgr := rm.NewTaskManager(am.cl, p)
	for _, r := range j.runs {
		r.sr = rm.StreamRunner{
			Manager:    mgr,
			Source:     r,
			WorkflowID: r.pl.Name,
			Runtime:    pilot.Runtime,
			FailPlan:   r.failPlan,
			Observe:    r.observe,
			OnComplete: j.pipelineDone,
		}
	}
	p.OnActive(func() {
		for _, r := range j.runs {
			r.sr.Start()
		}
	})
	return j, nil
}

// pipelineDone releases the pilot once every pipeline has finished.
func (j *job) pipelineDone() {
	if j.active--; j.active == 0 {
		j.p.Release()
	}
}

// finish reads the job's outcome after the engine drains: the failed tasks
// by global stage index and, for an application's first job, the Fig 4/5
// measurements of its pilot.
func (j *job) finish() ([][]*Task, error) {
	p := j.p
	if p.State() == pilot.Pending {
		return nil, fmt.Errorf("entk: pilot for %d nodes was never granted (cluster has %d healthy nodes)",
			j.nodes, len(j.am.cl.UpNodes()))
	}
	for _, r := range j.runs {
		if err := r.Err(); err != nil {
			return nil, err
		}
		if err := r.sr.Err(); err != nil {
			return nil, err
		}
	}
	if j.first {
		rep := j.rep
		rep.Overhead = p.Overhead()
		rep.TTX = p.TTX()
		end := p.StartedAt() + p.Overhead() + p.TTX()
		rep.JobRuntime = end - p.StartedAt()
		if j.nodes > 0 && rep.JobRuntime > 0 {
			rep.Utilization = p.BusyNodesSeries().Integral(p.StartedAt(), end) /
				(float64(j.nodes) * float64(rep.JobRuntime))
		}
		rep.MeasuredSchedRate = measuredRate(p.ScheduledSeries().Points())
		rep.MeasuredLaunchRate = measuredRate(p.LaunchedSeries().Points())
		rep.Running = copySeries(p.RunningSeries().Points())
		rep.Scheduled = copySeries(p.ScheduledSeries().Points())
		rep.BusyNodes = copySeries(p.BusyNodesSeries().Points())
	}
	return j.failed, nil
}

// pipelineRun is one pipeline's executor in a job, and the source that
// executor reads: the pipeline's StageExpander, except that a failed task
// counts as done for the stage barrier. In a pilot job a failure does not
// stop its pipeline; the task waits for the next job.
type pipelineRun struct {
	*StageExpander
	j     *job
	pl    *Pipeline
	known int // pl.Stages entries already given a global stage index
	sr    rm.StreamRunner
}

// index gives every stage appended to the pipeline since the last call the
// next global stage index.
func (r *pipelineRun) index() {
	for ; r.known < len(r.pl.Stages); r.known++ {
		if _, ok := r.j.stageIndex[r.pl.Stages[r.known]]; !ok {
			r.j.stageIndex[r.pl.Stages[r.known]] = len(r.j.failed)
			r.j.failed = append(r.j.failed, nil)
		}
	}
}

// TaskDone implements dag.Expander: the barrier step, then indexing of any
// stages the PostExec hooks it fired appended.
func (r *pipelineRun) TaskDone(id dag.TaskID) {
	r.StageExpander.TaskDone(id)
	r.index()
}

// TaskFailed implements dag.Expander. Observe has already queued the task
// for the next job, so the barrier counts it done and nothing is skipped.
func (r *pipelineRun) TaskFailed(id dag.TaskID) int {
	r.TaskDone(id)
	return 0
}

// failPlan is the executor's FailPlan, called once per task at submission:
// it counts the attempt and fails it while the task's FailAttempts knob
// lasts (the pilot ends a failing attempt halfway through its duration).
func (r *pipelineRun) failPlan(idx int) int {
	_, t := r.at(idx)
	t.state = Scheduling
	t.attempts++
	if t.attempts <= t.FailAttempts {
		return 1
	}
	return 0
}

// observe records a task's outcome before the stage barrier — and any
// PostExec hook inspecting task states — hears of it.
func (r *pipelineRun) observe(dt *dag.Task, res rm.Result) {
	st, t := r.lookup(dt.ID)
	if res.Failed {
		t.state = Failed
		gi := r.j.stageIndex[st]
		r.j.failed[gi] = append(r.j.failed[gi], t)
		return
	}
	t.state = Executed
	r.j.rep.TasksExecuted++
	if !r.j.first {
		r.j.rep.ResubmittedOK++
	}
}

// measuredRate returns events/second over the initial ramp of a cumulative
// counter series — the slope the paper reads off Fig 5 ("initial slopes of
// blue and orange lines"). The ramp ends at the first inter-event gap an
// order of magnitude above the running mean gap (i.e. when launches stall
// waiting for completions) or at the series end.
func measuredRate(pts []metrics.Point) float64 {
	if len(pts) < 2 {
		return 0
	}
	end := len(pts) - 1
	meanGap := 0.0
	for i := 1; i < len(pts); i++ {
		gap := float64(pts[i].T - pts[i-1].T)
		if i >= 3 && meanGap > 0 && gap > 10*meanGap {
			end = i - 1
			break
		}
		meanGap += (gap - meanGap) / float64(i)
	}
	span := float64(pts[end].T - pts[0].T)
	if span <= 0 {
		return 0
	}
	return (pts[end].V - pts[0].V) / span
}

func copySeries(pts []metrics.Point) []metrics.Point {
	return append([]metrics.Point(nil), pts...)
}
