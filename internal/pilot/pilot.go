// Package pilot implements a RADICAL-Pilot-style pilot-job runtime (§4.1):
// a placeholder batch job acquires a block of nodes; an agent bootstraps on
// the allocation and then schedules and launches many small tasks inside it
// without further round-trips to the batch system.
//
// The agent models the two throughput limits the paper measures on Frontier
// (§4.3, Fig 5): a scheduling rate (tasks assigned to resources, ~269/s) and
// a launching rate (tasks started on nodes, ~51/s), plus a fixed bootstrap
// overhead (Fig 4's OVH, ~85 s). Node failures inside the allocation kill
// the tasks running there; the pool shrinks accordingly.
//
// Tasks reach the agent through the one DAG executor. A Pilot is the
// strategy and submit side (rm.Submitter) of an rm.TaskManager, the seam the
// CWS uses too, so a pilot run is
//
//	sr := rm.StreamRunner{Manager: rm.NewTaskManager(cl, p), Source: x, Runtime: pilot.Runtime}
//
// started once the pilot is active. Every attempt the runner submits is
// queued, scheduled and launched by the agent rather than the manager, and
// its terminal result (success, application failure, node loss, walltime
// expiry or rejection) reaches the runner through the attempt's Done hook.
// EnTK's AppManager and core.HPCEnv both run this way.
package pilot

import (
	"fmt"
	"sort"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/metrics"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

// Config shapes a pilot.
type Config struct {
	Nodes    int
	Walltime sim.Time
	Account  string
	// CoresPerNode converts a task's core request into whole nodes: a task
	// occupies ceil(Cores / CoresPerNode) nodes, at least one. Zero means
	// one, i.e. Cores already counts nodes (the EnTK PST convention).
	CoresPerNode int

	// BootstrapSec is the agent startup overhead after the allocation is
	// granted (Fig 4 OVH).
	BootstrapSec float64
	// SchedRate is the agent scheduler throughput in tasks/second
	// (0 = unlimited).
	SchedRate float64
	// LaunchRate is the task launcher throughput in tasks/second
	// (0 = unlimited).
	LaunchRate float64
}

// Runtime is the executor runtime model of pilot runs: a task runs for its
// nominal duration on whichever nodes the agent hands it.
func Runtime(t *dag.Task, _ *cluster.Node) float64 { return t.NominalDur }

// State is the pilot lifecycle state.
type State int

// Pilot lifecycle states.
const (
	Pending State = iota // submitted to the batch system
	Bootstrapping
	Active
	Done
)

// String returns the lifecycle state name.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Bootstrapping:
		return "bootstrapping"
	case Active:
		return "active"
	default:
		return "done"
	}
}

// Pilot is an acquired allocation plus the agent running inside it. The
// embedded FIFO completes rm.Strategy; the manager never queues a
// submission of its own, so its ordering and placement are never consulted.
type Pilot struct {
	rm.FIFO

	cfg   Config
	eng   *sim.Engine
	state State

	alloc     *rm.BatchAlloc
	freeNodes []*cluster.Node
	dead      map[int]bool // node ID → failed

	queue     []*pending // submitted, not yet scheduled
	scheduled []*pending // assigned resources conceptually, awaiting launch
	// running holds launched attempts; each knows its slot. A slice, not a
	// map keyed by task ID: two pipelines may run same-named tasks at once.
	running []*pending

	nextSchedFree  sim.Time // earliest time the scheduler can process the next task
	nextLaunchFree sim.Time
	schedPumping   bool
	launchPumping  bool

	startedAt    sim.Time // allocation granted
	activeAt     sim.Time // agent ready
	firstTaskAt  sim.Time
	sawFirstTask bool
	lastDoneAt   sim.Time

	schedCount  *metrics.Counter
	launchCount *metrics.Counter
	runningN    *metrics.Gauge
	busyNodes   *metrics.Gauge

	onActive []func()
}

// pending is one attempt inside the agent, from submission to its result.
type pending struct {
	a           *rm.Attempt
	nodes       int // whole nodes the attempt occupies
	submittedAt sim.Time
	alloc       []*cluster.Node
	slot        int // index in Pilot.running while launched
	endEv       *sim.Event
	launchedAt  sim.Time
}

// Submit requests a pilot through the batch manager; the returned Pilot
// becomes Active after the allocation is granted and the agent bootstraps.
func Submit(bm *rm.BatchManager, cl *cluster.Cluster, cfg Config) (*Pilot, error) {
	p := &Pilot{
		cfg:         cfg,
		eng:         cl.Engine(),
		state:       Pending,
		dead:        map[int]bool{},
		schedCount:  metrics.NewCounter("pilot.scheduled"),
		launchCount: metrics.NewCounter("pilot.launched"),
		runningN:    metrics.NewGauge("pilot.running"),
		busyNodes:   metrics.NewGauge("pilot.busy_nodes"),
	}
	job := &rm.BatchJob{
		ID:       fmt.Sprintf("pilot-%d-nodes", cfg.Nodes),
		Account:  cfg.Account,
		Nodes:    cfg.Nodes,
		Walltime: cfg.Walltime,
		OnStart:  p.onGranted,
		OnExpire: p.onExpire,
	}
	if err := bm.Submit(job); err != nil {
		return nil, err
	}
	cl.OnNodeDown(p.onNodeDown)
	return p, nil
}

// State returns the pilot lifecycle state.
func (p *Pilot) State() State { return p.state }

// OnActive registers a callback for when the agent finishes bootstrapping.
func (p *Pilot) OnActive(fn func()) {
	if p.state == Active {
		fn()
		return
	}
	p.onActive = append(p.onActive, fn)
}

// Overhead returns the Fig-4 OVH: time from allocation grant to agent ready.
func (p *Pilot) Overhead() sim.Time { return p.activeAt - p.startedAt }

// TTX returns total execution span: first task launch to last completion.
func (p *Pilot) TTX() sim.Time {
	if p.lastDoneAt < p.firstTaskAt {
		return 0
	}
	return p.lastDoneAt - p.firstTaskAt
}

// StartedAt returns when the allocation was granted.
func (p *Pilot) StartedAt() sim.Time { return p.startedAt }

// RunningSeries exposes the running-task trajectory (Fig 5 orange line).
func (p *Pilot) RunningSeries() *metrics.Gauge { return p.runningN }

// ScheduledSeries exposes the cumulative scheduling trajectory (Fig 5 blue
// line's integral).
func (p *Pilot) ScheduledSeries() *metrics.Counter { return p.schedCount }

// LaunchedSeries exposes the cumulative launch trajectory.
func (p *Pilot) LaunchedSeries() *metrics.Counter { return p.launchCount }

// BusyNodesSeries exposes the busy-node trajectory for utilization plots.
func (p *Pilot) BusyNodesSeries() *metrics.Gauge { return p.busyNodes }

// Release ends the pilot and returns the allocation.
func (p *Pilot) Release() {
	if p.state == Done {
		return
	}
	p.state = Done
	if p.alloc != nil {
		p.alloc.Release()
	}
}

func (p *Pilot) onGranted(a *rm.BatchAlloc) {
	p.alloc = a
	p.startedAt = p.eng.Now()
	p.state = Bootstrapping
	p.freeNodes = append([]*cluster.Node(nil), a.Nodes...)
	p.eng.After(sim.Time(p.cfg.BootstrapSec), func() {
		p.state = Active
		p.activeAt = p.eng.Now()
		for _, fn := range p.onActive {
			fn()
		}
		p.onActive = nil
		p.pumpScheduler()
	})
}

func (p *Pilot) onExpire() {
	p.state = Done
	// Kill everything still running; pending tasks fail too.
	for _, q := range inKillOrder(append([]*pending(nil), p.running...)) {
		q.endEv.Cancel()
		p.finish(q, fmt.Errorf("pilot: walltime expired"))
	}
	waiting := append(p.queue, p.scheduled...)
	p.queue, p.scheduled = nil, nil
	for _, q := range waiting {
		p.fail(q, fmt.Errorf("pilot: walltime expired before task ran"))
	}
}

// SubmitAttempt implements rm.Submitter: the attempt joins the agent's
// schedule queue and occupies whole nodes (see Config.CoresPerNode). Attempts
// submitted before the agent is active queue up and flow once bootstrapping
// completes. An attempt the pilot can never run — more nodes than the
// allocation, or a finished pilot — fails at the current virtual time from
// a zero-delay event, so no runner is re-entered from inside its own submit.
func (p *Pilot) SubmitAttempt(a *rm.Attempt) string {
	t := a.Task()
	per := max(p.cfg.CoresPerNode, 1)
	q := &pending{a: a, nodes: max((t.Cores+per-1)/per, 1), submittedAt: p.eng.Now()}
	var err error
	switch {
	case p.state == Done:
		err = fmt.Errorf("pilot: task %s submitted to a finished pilot", t.ID)
	case q.nodes > p.cfg.Nodes:
		err = fmt.Errorf("pilot: task %s requests %d nodes, pilot has %d", t.ID, q.nodes, p.cfg.Nodes)
	}
	if err != nil {
		p.eng.After(0, func() { p.fail(q, err) })
		return string(t.ID)
	}
	p.queue = append(p.queue, q)
	if p.state == Active {
		p.pumpScheduler()
	}
	return string(t.ID)
}

// RetryScheduled implements rm.Submitter. Pilot runs carry no retry policy —
// a failed task waits for the next pilot job — so there is nothing to note.
func (p *Pilot) RetryScheduled(*rm.Attempt, sim.Time) {}

// pumpScheduler moves tasks from queue to scheduled at SchedRate.
func (p *Pilot) pumpScheduler() {
	if p.schedPumping || p.state != Active || len(p.queue) == 0 {
		return
	}
	p.schedPumping = true
	now := p.eng.Now()
	at := p.nextSchedFree
	if at < now {
		at = now
	}
	p.eng.At(at, func() {
		p.schedPumping = false
		if p.state != Active || len(p.queue) == 0 {
			return
		}
		q := p.queue[0]
		p.queue = p.queue[1:]
		p.scheduled = append(p.scheduled, q)
		p.schedCount.Inc(p.eng.Now(), 1)
		if p.cfg.SchedRate > 0 {
			p.nextSchedFree = p.eng.Now() + sim.Time(1/p.cfg.SchedRate)
		}
		p.pumpScheduler()
		p.pumpLauncher()
	})
}

// fitting returns the index of the first scheduled task that fits the free
// pool (FIFO with skip-over, like the agent's continuous scheduler), or -1.
func (p *Pilot) fitting() int {
	for i, q := range p.scheduled {
		if q.nodes <= len(p.freeNodes) {
			return i
		}
	}
	return -1
}

// pumpLauncher moves scheduled tasks onto free nodes at LaunchRate.
func (p *Pilot) pumpLauncher() {
	if p.launchPumping || p.state != Active || p.fitting() < 0 {
		return
	}
	p.launchPumping = true
	now := p.eng.Now()
	at := p.nextLaunchFree
	if at < now {
		at = now
	}
	p.eng.At(at, func() {
		p.launchPumping = false
		if p.state != Active {
			return
		}
		// Re-find a fitting task; the pool may have changed.
		idx := p.fitting()
		if idx < 0 {
			return
		}
		q := p.scheduled[idx]
		p.scheduled = append(p.scheduled[:idx], p.scheduled[idx+1:]...)
		q.alloc = p.freeNodes[:q.nodes]
		p.freeNodes = p.freeNodes[q.nodes:]
		p.launch(q)
		if p.cfg.LaunchRate > 0 {
			p.nextLaunchFree = p.eng.Now() + sim.Time(1/p.cfg.LaunchRate)
		}
		p.pumpLauncher()
	})
}

// launch starts q on its nodes. Its run time comes from the attempt's
// runtime model; an attempt whose validation fails (an injected application
// error) terminates unsuccessfully halfway through that time.
func (p *Pilot) launch(q *pending) {
	now := p.eng.Now()
	q.launchedAt = now
	if !p.sawFirstTask {
		p.sawFirstTask = true
		p.firstTaskAt = now
	}
	q.slot = len(p.running)
	p.running = append(p.running, q)
	p.runningN.AddDelta(now, 1)
	p.busyNodes.AddDelta(now, float64(q.nodes))
	p.launchCount.Inc(now, 1)
	dur := q.a.RuntimeOn(q.alloc[0])
	err := q.a.ValidateOn(q.alloc[0])
	if err != nil {
		dur /= 2
	}
	q.endEv = p.eng.After(sim.Time(dur), func() { p.finish(q, err) })
}

// finish ends a launched attempt — failed when err is set — returning its
// healthy nodes to the pool before the runner hears of the result.
func (p *Pilot) finish(q *pending, err error) {
	now := p.eng.Now()
	last := len(p.running) - 1
	moved := p.running[last]
	p.running[q.slot], moved.slot = moved, q.slot
	p.running[last] = nil
	p.running = p.running[:last]
	p.runningN.AddDelta(now, -1)
	p.busyNodes.AddDelta(now, -float64(q.nodes))
	for _, n := range q.alloc {
		if !p.dead[n.ID] {
			p.freeNodes = append(p.freeNodes, n)
		}
	}
	p.lastDoneAt = now
	q.a.Done(rm.Result{
		Node:        q.alloc[0],
		SubmittedAt: q.submittedAt,
		StartedAt:   q.launchedAt,
		FinishedAt:  now,
		Failed:      err != nil,
		Err:         err,
	})
	p.pumpLauncher()
	p.pumpScheduler()
}

// fail delivers the failure of an attempt that never launched.
func (p *Pilot) fail(q *pending, err error) {
	now := p.eng.Now()
	q.a.Done(rm.Result{SubmittedAt: q.submittedAt, StartedAt: now, FinishedAt: now, Failed: true, Err: err})
}

// inKillOrder sorts attempts by their submission label, workflow/task#n — the
// order kills are delivered in, so every run replays them identically. Equal
// labels keep their running-set order.
func inKillOrder(qs []*pending) []*pending {
	keys := make(map[*pending]string, len(qs))
	for _, q := range qs {
		keys[q] = fmt.Sprintf("%s/%s#%d", q.a.WorkflowID(), q.a.Task().ID, q.a.Number())
	}
	sort.SliceStable(qs, func(i, j int) bool { return keys[qs[i]] < keys[qs[j]] })
	return qs
}

func (p *Pilot) onNodeDown(n *cluster.Node) {
	if p.alloc == nil {
		return
	}
	mine := false
	for _, an := range p.alloc.Nodes {
		if an == n {
			mine = true
			break
		}
	}
	if !mine {
		return
	}
	p.dead[n.ID] = true
	// Remove from the free pool if idle.
	for i, fn := range p.freeNodes {
		if fn == n {
			p.freeNodes = append(p.freeNodes[:i], p.freeNodes[i+1:]...)
			break
		}
	}
	// Kill tasks using this node.
	var victims []*pending
	for _, q := range p.running {
		for _, qn := range q.alloc {
			if qn == n {
				victims = append(victims, q)
				break
			}
		}
	}
	for _, q := range inKillOrder(victims) {
		q.endEv.Cancel()
		p.finish(q, fmt.Errorf("pilot: node %s failed", n.Name()))
	}
}
