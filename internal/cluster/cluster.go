// Package cluster models a heterogeneous HPC cluster: nodes with cores, GPUs
// and memory, grouped into node types with distinct machine speed factors
// (the heterogeneity Lotaru/Tarema exploit, §3.4), plus allocation tracking
// and fault injection (the node failures EnTK recovers from, §4.3).
//
// The cluster is a passive resource ledger: resource managers (internal/rm)
// and pilots (internal/pilot) decide placement; the cluster enforces capacity
// invariants and records utilization.
package cluster

import (
	"fmt"
	"sort"

	"hhcw/internal/metrics"
	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

// NodeType describes a homogeneous family of nodes.
type NodeType struct {
	Name     string
	Cores    int
	GPUs     int
	MemBytes float64
	// SpeedFactor scales task durations: a task's nominal duration is
	// divided by SpeedFactor on this node type (1.0 = reference machine).
	SpeedFactor float64
	// IOFactor scales I/O-bound phase durations similarly.
	IOFactor float64
}

// Node is one machine in the cluster.
type Node struct {
	ID   int
	Type *NodeType

	freeCores int
	freeGPUs  int
	freeMem   float64
	down      bool
	// epoch increments at every failure; allocations remember the epoch
	// they were granted in so releases from before a crash cannot credit
	// capacity the repair already reset.
	epoch int
	// name memoizes Name(): the scheduler hot path records placements by
	// node name, and re-rendering it per record was a measurable share of
	// steady-state allocations.
	name string `statediff:"keep"`
}

// FreeCores returns currently unallocated cores.
func (n *Node) FreeCores() int { return n.freeCores }

// FreeGPUs returns currently unallocated GPUs.
func (n *Node) FreeGPUs() int { return n.freeGPUs }

// FreeMem returns currently unallocated memory in bytes.
func (n *Node) FreeMem() float64 { return n.freeMem }

// Down reports whether the node has failed.
func (n *Node) Down() bool { return n.down }

// Name returns a stable human-readable node name.
func (n *Node) Name() string {
	if n.name == "" {
		n.name = fmt.Sprintf("%s-%04d", n.Type.Name, n.ID)
	}
	return n.name
}

// Alloc is a resource reservation on a single node.
type Alloc struct {
	Node  *Node
	Cores int
	GPUs  int
	Mem   float64

	released bool
	epoch    int
}

// Revoked reports whether the node failed after this allocation was granted:
// the reservation no longer backs any capacity, even if the node has since
// been repaired.
func (a *Alloc) Revoked() bool { return a.epoch != a.Node.epoch }

// Cluster is a set of nodes plus utilization accounting.
type Cluster struct {
	Name  string
	nodes []*Node
	types []*NodeType
	idx   *capIndex

	eng *sim.Engine

	totalCores int
	totalGPUs  int
	usedCores  *metrics.Gauge
	usedGPUs   *metrics.Gauge
	downNodes  *metrics.Gauge

	// onNodeDown callbacks fire when a node fails, letting runtimes kill
	// and resubmit affected work.
	onNodeDown []func(*Node)
	// onNodeUp callbacks fire when a node is repaired, letting runtimes
	// kick their schedulers at restored capacity (without this, work queued
	// while the whole cluster was down would wait forever).
	onNodeUp []func(*Node)
}

// New builds a cluster on the given engine from (type, count) specs.
func New(eng *sim.Engine, name string, specs ...Spec) *Cluster {
	c := &Cluster{
		Name:      name,
		eng:       eng,
		usedCores: metrics.NewGauge(name + ".used_cores"),
		usedGPUs:  metrics.NewGauge(name + ".used_gpus"),
		downNodes: metrics.NewGauge(name + ".down_nodes"),
	}
	id := 0
	for _, s := range specs {
		nt := s.Type
		if nt.SpeedFactor == 0 {
			nt.SpeedFactor = 1
		}
		if nt.IOFactor == 0 {
			nt.IOFactor = 1
		}
		tcopy := nt
		c.types = append(c.types, &tcopy)
		// One slab per spec instead of one heap object per node: large
		// clusters (the paper's 8,000-node Frontier runs) are rebuilt per
		// simulation, and per-node allocation dominated construction.
		slab := make([]Node, s.Count)
		for i := 0; i < s.Count; i++ {
			n := &slab[i]
			n.ID = id
			n.Type = &tcopy
			n.freeCores = tcopy.Cores
			n.freeGPUs = tcopy.GPUs
			n.freeMem = tcopy.MemBytes
			id++
			c.nodes = append(c.nodes, n)
			c.totalCores += tcopy.Cores
			c.totalGPUs += tcopy.GPUs
		}
	}
	c.idx = newCapIndex(c.nodes)
	return c
}

// Reset returns the cluster to its just-constructed state in place: every
// node back to full free capacity, up, and at epoch zero; the segment index
// rebuilt over the same backing arrays, with the capacity-gain clock and
// stamps back at their built values; the utilization gauges truncated.
// Construction-time identity survives — node slabs, memoized node names,
// folded-metrics mode, and registered OnNodeDown/OnNodeUp subscribers are all
// retained, which is exactly why warm sessions must not re-register their
// callbacks after Reset.
func (c *Cluster) Reset() {
	for _, n := range c.nodes {
		n.freeCores = n.Type.Cores
		n.freeGPUs = n.Type.GPUs
		n.freeMem = n.Type.MemBytes
		n.down = false
		n.epoch = 0
	}
	c.idx.reset()
	c.usedCores.Reset()
	c.usedGPUs.Reset()
	c.downNodes.Reset()
}

// Spec pairs a node type with a node count for cluster construction.
type Spec struct {
	Type  NodeType
	Count int
}

// Engine returns the simulation engine the cluster runs on.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Nodes returns all nodes (including down ones).
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Types returns the node types in declaration order.
func (c *Cluster) Types() []*NodeType { return c.types }

// TotalCores returns the cluster-wide core count.
func (c *Cluster) TotalCores() int { return c.totalCores }

// TotalGPUs returns the cluster-wide GPU count.
func (c *Cluster) TotalGPUs() int { return c.totalGPUs }

// NodeCount returns the number of nodes.
func (c *Cluster) NodeCount() int { return len(c.nodes) }

// UpNodes returns nodes that are not down.
func (c *Cluster) UpNodes() []*Node {
	up := make([]*Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		if !n.down {
			up = append(up, n)
		}
	}
	return up
}

// UsedCoresSeries exposes the allocated-cores trajectory for Fig-4-style
// utilization plots.
func (c *Cluster) UsedCoresSeries() *metrics.Gauge { return c.usedCores }

// UsedGPUsSeries exposes the allocated-GPU trajectory.
func (c *Cluster) UsedGPUsSeries() *metrics.Gauge { return c.usedGPUs }

// FoldMetrics switches the cluster's trajectory series (used cores, used
// GPUs, down nodes) to running-aggregate mode so a million-allocation run
// retains no per-event samples. Whole-run Utilization/GPUUtilization stay
// bit-identical (the folded integral accumulates the same terms in the same
// order); point-level trajectory queries become unavailable. Must be called
// before any allocation or fault activity.
func (c *Cluster) FoldMetrics() {
	c.usedCores.Fold()
	c.usedGPUs.Fold()
	c.downNodes.Fold()
}

// Allocate reserves cores/GPUs/memory on node n. It returns an error when
// the node is down or lacks capacity, and when a request is negative or the
// memory request is NaN (which would compare as fitting every node and
// leave the node's free memory NaN); partial allocation never occurs.
func (c *Cluster) Allocate(n *Node, cores, gpus int, mem float64) (*Alloc, error) {
	if n.down {
		return nil, fmt.Errorf("cluster: node %s is down", n.Name())
	}
	if cores < 0 || gpus < 0 || !(mem >= 0) {
		return nil, fmt.Errorf("cluster: negative resource request (%d cores, %d gpus, %.0f mem)", cores, gpus, mem)
	}
	if cores > n.freeCores || gpus > n.freeGPUs || mem > n.freeMem {
		return nil, fmt.Errorf("cluster: node %s cannot fit %d cores/%d gpus/%.0fB (free %d/%d/%.0fB)",
			n.Name(), cores, gpus, mem, n.freeCores, n.freeGPUs, n.freeMem)
	}
	n.freeCores -= cores
	n.freeGPUs -= gpus
	n.freeMem -= mem
	c.idx.update(n)
	c.usedCores.AddDelta(c.eng.Now(), float64(cores))
	c.usedGPUs.AddDelta(c.eng.Now(), float64(gpus))
	return &Alloc{Node: n, Cores: cores, GPUs: gpus, Mem: mem, epoch: n.epoch}, nil
}

// AllocateInto is Allocate backed by a caller-provided record: dst is
// overwritten with the new reservation on success and untouched on error.
// It lets a manager that grants and releases one reservation per task
// recycle records instead of heap-allocating each. The caller must own dst
// exclusively and must not reuse it until the previous reservation written
// through it has been released.
func (c *Cluster) AllocateInto(dst *Alloc, n *Node, cores, gpus int, mem float64) error {
	if n.down {
		return fmt.Errorf("cluster: node %s is down", n.Name())
	}
	if cores < 0 || gpus < 0 || !(mem >= 0) {
		return fmt.Errorf("cluster: negative resource request (%d cores, %d gpus, %.0f mem)", cores, gpus, mem)
	}
	if cores > n.freeCores || gpus > n.freeGPUs || mem > n.freeMem {
		return fmt.Errorf("cluster: node %s cannot fit %d cores/%d gpus/%.0fB (free %d/%d/%.0fB)",
			n.Name(), cores, gpus, mem, n.freeCores, n.freeGPUs, n.freeMem)
	}
	n.freeCores -= cores
	n.freeGPUs -= gpus
	n.freeMem -= mem
	c.idx.update(n)
	c.usedCores.AddDelta(c.eng.Now(), float64(cores))
	c.usedGPUs.AddDelta(c.eng.Now(), float64(gpus))
	*dst = Alloc{Node: n, Cores: cores, GPUs: gpus, Mem: mem, epoch: n.epoch}
	return nil
}

// AllocateAll reserves every listed node in full (the whole-node grants a
// batch manager hands out), backing all reservations with one slab instead
// of one heap object per node. On any failure it rolls the granted prefix
// back and returns the error, leaving the cluster unchanged.
func (c *Cluster) AllocateAll(nodes []*Node) ([]*Alloc, error) {
	slab := make([]Alloc, len(nodes))
	out := make([]*Alloc, len(nodes))
	now := c.eng.Now()
	for i, n := range nodes {
		if n.down {
			for _, a := range out[:i] {
				c.Release(a)
			}
			return nil, fmt.Errorf("cluster: node %s is down", n.Name())
		}
		if n.freeCores < n.Type.Cores || n.freeGPUs < n.Type.GPUs || n.freeMem < n.Type.MemBytes {
			for _, a := range out[:i] {
				c.Release(a)
			}
			return nil, fmt.Errorf("cluster: node %s is not wholly free (%d/%d/%.0fB free)",
				n.Name(), n.freeCores, n.freeGPUs, n.freeMem)
		}
		n.freeCores -= n.Type.Cores
		n.freeGPUs -= n.Type.GPUs
		n.freeMem -= n.Type.MemBytes
		c.idx.update(n)
		c.usedCores.AddDelta(now, float64(n.Type.Cores))
		c.usedGPUs.AddDelta(now, float64(n.Type.GPUs))
		slab[i] = Alloc{Node: n, Cores: n.Type.Cores, GPUs: n.Type.GPUs, Mem: n.Type.MemBytes, epoch: n.epoch}
		out[i] = &slab[i]
	}
	return out, nil
}

// Release returns an allocation's resources. Releasing twice is a no-op, so
// failure paths can release defensively. A revoked allocation (node failed
// after the grant) only settles the utilization gauges: the node's free
// counters were reset by RepairNode, and crediting them again would
// manufacture capacity beyond the node's physical total. A release that does
// credit the node advances the capacity-gain clock (see index.go).
func (c *Cluster) Release(a *Alloc) {
	if a == nil || a.released {
		return
	}
	a.released = true
	c.usedCores.AddDelta(c.eng.Now(), -float64(a.Cores))
	c.usedGPUs.AddDelta(c.eng.Now(), -float64(a.GPUs))
	if a.Revoked() {
		return
	}
	a.Node.freeCores += a.Cores
	a.Node.freeGPUs += a.GPUs
	a.Node.freeMem += a.Mem
	c.idx.gain(a.Node)
}

// OnNodeDown registers a callback invoked when any node fails.
func (c *Cluster) OnNodeDown(fn func(*Node)) { c.onNodeDown = append(c.onNodeDown, fn) }

// OnNodeUp registers a callback invoked when any node is repaired.
func (c *Cluster) OnNodeUp(fn func(*Node)) { c.onNodeUp = append(c.onNodeUp, fn) }

// FailNode marks a node down immediately and notifies subscribers. Resources
// currently allocated on the node are NOT auto-released: the owning runtime
// must release them from its failure handler (mirroring how a real RM reaps
// jobs from a dead node).
func (c *Cluster) FailNode(n *Node) {
	if n.down {
		return
	}
	n.down = true
	n.epoch++
	c.idx.update(n)
	c.downNodes.AddDelta(c.eng.Now(), 1)
	for _, fn := range c.onNodeDown {
		fn(n)
	}
}

// RepairNode brings a failed node back with full capacity free and notifies
// subscribers. Allocations that were live at failure time are revoked (their
// epoch no longer matches), so a straggling Release cannot credit free
// capacity on top of this reset. The repair advances the capacity-gain clock.
func (c *Cluster) RepairNode(n *Node) {
	if !n.down {
		return
	}
	n.down = false
	n.freeCores = n.Type.Cores
	n.freeGPUs = n.Type.GPUs
	n.freeMem = n.Type.MemBytes
	c.idx.gain(n)
	c.downNodes.AddDelta(c.eng.Now(), -1)
	for _, fn := range c.onNodeUp {
		fn(n)
	}
}

// Utilization returns time-averaged core utilization over [from,to] as a
// fraction of total cores.
func (c *Cluster) Utilization(from, to sim.Time) float64 {
	if c.totalCores == 0 || to <= from {
		return 0
	}
	return c.usedCores.Integral(from, to) / (float64(c.totalCores) * float64(to-from))
}

// GPUUtilization returns time-averaged GPU utilization over [from,to].
func (c *Cluster) GPUUtilization(from, to sim.Time) float64 {
	if c.totalGPUs == 0 || to <= from {
		return 0
	}
	return c.usedGPUs.Integral(from, to) / (float64(c.totalGPUs) * float64(to-from))
}

// FaultInjector schedules random node failures, modeling the hardware faults
// the paper's Frontier run hit (a single node failure killed 8 tasks, §4.3).
type FaultInjector struct {
	cluster *Cluster
	rng     *randx.Source
}

// NewFaultInjector returns an injector bound to the cluster.
func NewFaultInjector(c *Cluster, rng *randx.Source) *FaultInjector {
	return &FaultInjector{cluster: c, rng: rng}
}

// ScheduleNodeFailures schedules exactly count distinct node failures at
// uniform random times in (0, horizon). It returns the failed nodes in
// failure-time order.
func (f *FaultInjector) ScheduleNodeFailures(count int, horizon sim.Time) []*Node {
	nodes := f.cluster.UpNodes()
	if count > len(nodes) {
		count = len(nodes)
	}
	perm := f.rng.Perm(len(nodes))
	type plan struct {
		at   sim.Time
		node *Node
	}
	plans := make([]plan, count)
	for i := 0; i < count; i++ {
		plans[i] = plan{at: sim.Time(f.rng.Float64() * float64(horizon)), node: nodes[perm[i]]}
	}
	sort.Slice(plans, func(i, j int) bool { return plans[i].at < plans[j].at })
	out := make([]*Node, count)
	for i, p := range plans {
		p := p
		out[i] = p.node
		f.cluster.eng.At(p.at, func() { f.cluster.FailNode(p.node) })
	}
	return out
}

// Frontier builds a Frontier-like cluster: the paper's runs used nodes with
// 64 cores (56 usable for compute after 8 reserved for system processes) and
// 8 GPUs. We model the usable 56 cores + 8 GPUs directly so 8000 nodes gives
// the paper's 448,000 CPU cores and 64,000 GPUs (Fig 4 caption).
func Frontier(eng *sim.Engine, nodes int) *Cluster {
	return New(eng, "frontier", Spec{
		Type: NodeType{
			Name:        "frontier",
			Cores:       56,
			GPUs:        8,
			MemBytes:    512e9,
			SpeedFactor: 1.0,
			IOFactor:    1.0,
		},
		Count: nodes,
	})
}

// Heterogeneous builds a small heterogeneous commodity cluster like the
// Lotaru/Tarema test-beds: three node families with distinct speed factors.
func Heterogeneous(eng *sim.Engine, perType int) *Cluster {
	return New(eng, "hetero",
		Spec{Type: NodeType{Name: "a", Cores: 8, MemBytes: 32e9, SpeedFactor: 1.0, IOFactor: 1.0}, Count: perType},
		Spec{Type: NodeType{Name: "b", Cores: 16, MemBytes: 64e9, SpeedFactor: 1.4, IOFactor: 1.2}, Count: perType},
		Spec{Type: NodeType{Name: "c", Cores: 32, MemBytes: 128e9, SpeedFactor: 2.0, IOFactor: 1.5}, Count: perType},
	)
}
