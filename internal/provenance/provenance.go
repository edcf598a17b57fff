// Package provenance implements the centralized provenance store §3.3
// argues the CWS should be: because the CWSI sits between every WMS and the
// resource manager, it sees both the workflow structure (from the WMS) and
// the node-level traces (from the resource manager), and can persist them
// uniformly across engines. Records feed the predictors (internal/predict)
// and export to a W3C-PROV-flavoured JSON document.
package provenance

import (
	"encoding/json"
	"fmt"
	"sort"

	"hhcw/internal/dag"
	"hhcw/internal/predict"
	"hhcw/internal/sim"
)

// TaskRecord is one task execution attempt as seen by the CWS.
type TaskRecord struct {
	WorkflowID string
	TaskID     dag.TaskID
	Name       string // process/tool name
	Attempt    int

	SubmittedAt sim.Time
	StartedAt   sim.Time
	FinishedAt  sim.Time

	Node        string
	MachineType string
	SpeedFactor float64

	Cores       int
	MemRequest  float64
	PeakMem     float64
	InputBytes  float64
	OutputBytes float64

	Failed bool
	Error  string

	// Recovery-policy metadata, set via AnnotateRetry on failed attempts the
	// policy decided to resubmit: the backoff delay chosen before the next
	// attempt and a rendering of the policy that chose it.
	RetryDelaySec float64
	RetryPolicy   string

	Params map[string]string
}

// Runtime returns the execution wall time.
func (r TaskRecord) Runtime() sim.Time { return r.FinishedAt - r.StartedAt }

// NodeEvent is a resource-manager-side trace entry (node up/down), the data
// "the resource manager traces" that a WMS alone cannot see (§3.3).
type NodeEvent struct {
	At   sim.Time
	Node string
	Kind string // "down" | "up"
}

// refAgg is the running reference-runtime aggregate for one process name:
// speed-normalized runtimes of successful executions, accumulated in
// insertion order so the mean is bit-identical to a rescan.
type refAgg struct {
	sum float64
	n   int
}

// statAgg is the running StatsByName aggregate for one process name,
// maintained incrementally so per-name summaries cost O(1) per query
// instead of a full record scan.
type statAgg struct {
	execs    int
	failures int
	ok       int
	sumRT    float64
	sumMem   float64
	maxRT    float64
}

// Store is the central provenance store.
type Store struct {
	records    []TaskRecord
	byWorkflow map[string][]int
	byName     map[string][]int
	refByName  map[string]refAgg
	statByName map[string]statAgg
	nodeEvents []NodeEvent
	workflows  map[string]*dag.Workflow
	// Tenant dimension (see SetTenantResolver): running per-tenant
	// aggregates, O(tenants) regardless of record retention.
	tenantOf func(wfID string) string
	byTenant map[string]tenantAgg
	// compact drops record retention: AddTask folds into the running
	// aggregates and discards the record, keeping memory O(process names)
	// at any task count (see SetCompact).
	compact bool
	folded  int
	// observer, when set, sees every record AddTask ingests (see
	// SetTaskObserver).
	observer func(TaskRecord)
	// freeIdx recycles the byWorkflow/byName index slices across Reset:
	// warm sessions replay the same workflow shapes, so steady-state
	// indexing reuses harvested capacity instead of regrowing from nil.
	freeIdx [][]int `statediff:"keep"`
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		// A store that records anything records at least a workflow's worth
		// of tasks; skip the first several append-doublings.
		records:    make([]TaskRecord, 0, 64),
		byWorkflow: map[string][]int{},
		byName:     map[string][]int{},
		refByName:  map[string]refAgg{},
		statByName: map[string]statAgg{},
		workflows:  map[string]*dag.Workflow{},
	}
}

// Reset empties the store in place: records, indexes, aggregates, node
// events, and registered workflows are all cleared with their backing
// capacity retained, and the per-run configuration (tenant resolver, compact
// mode) reverts to the just-constructed default. The task observer survives:
// it is construction-time wiring (the CWS trains predictors through it) and
// warm sessions must not re-register it.
func (s *Store) Reset() {
	clear(s.records)
	s.records = s.records[:0]
	for _, v := range s.byWorkflow {
		s.freeIdx = append(s.freeIdx, v[:0])
	}
	for _, v := range s.byName {
		s.freeIdx = append(s.freeIdx, v[:0])
	}
	clear(s.byWorkflow)
	clear(s.byName)
	clear(s.refByName)
	clear(s.statByName)
	s.nodeEvents = s.nodeEvents[:0]
	clear(s.workflows)
	s.tenantOf = nil
	clear(s.byTenant)
	s.compact = false
	s.folded = 0
}

// RegisterWorkflow stores workflow structure for lineage queries.
func (s *Store) RegisterWorkflow(id string, w *dag.Workflow) {
	s.workflows[id] = w
}

// ReleaseWorkflow drops the registered workflow structure for id — the
// lineage index for a workflow an open-system service has finished with.
// Task records and aggregates are untouched; Lineage for the id starts
// failing with "not registered". A service admitting workflows per arrival
// pairs each RegisterWorkflow with a release so structure memory stays
// O(in-flight), not O(arrivals).
func (s *Store) ReleaseWorkflow(id string) { delete(s.workflows, id) }

// SetTenantResolver installs the workflow-ID→tenant mapping that turns on
// the per-tenant running aggregates. Must be set before the records it
// should classify arrive; records added while no resolver is installed are
// not attributed. The service layer names workflows "tenant/wf-N" and
// resolves by prefix.
func (s *Store) SetTenantResolver(fn func(wfID string) string) {
	s.tenantOf = fn
	if s.byTenant == nil {
		s.byTenant = map[string]tenantAgg{}
	}
}

// tenantAgg is the per-tenant running aggregate, folded on every AddTask so
// it survives compact mode unchanged.
type tenantAgg struct {
	execs    int
	failures int
	started  int
	waitSum  float64
	coreSec  float64
}

// TenantStats summarizes one tenant's footprint across all its workflows.
type TenantStats struct {
	Tenant       string
	Executions   int     // terminal attempts observed
	Failures     int     // failed attempts (incl. pending aborts)
	Started      int     // attempts that reached a node
	QueueWaitSum float64 // Σ (StartedAt−SubmittedAt) over started attempts
	CoreSeconds  float64 // Σ cores×runtime over successful attempts
}

// StatsByTenant returns per-tenant summaries sorted by tenant ID, read from
// the running aggregates — O(tenants), valid in compact mode.
func (s *Store) StatsByTenant() []TenantStats {
	tenants := make([]string, 0, len(s.byTenant))
	for t := range s.byTenant {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	out := make([]TenantStats, 0, len(tenants))
	for _, t := range tenants {
		a := s.byTenant[t]
		out = append(out, TenantStats{
			Tenant: t, Executions: a.execs, Failures: a.failures,
			Started: a.started, QueueWaitSum: a.waitSum, CoreSeconds: a.coreSec,
		})
	}
	return out
}

// SetCompact switches record retention on or off. With compact on, AddTask
// folds every record into the running aggregates (StatsByName,
// MeanRefRuntime) and drops it, so a million-task streaming run keeps
// provenance memory bounded by the number of distinct process names.
// Record-level queries (All, ByWorkflow, Lineage, Observations, ExportPROV,
// AnnotateRetry) see only records added while retention was on.
func (s *Store) SetCompact(on bool) { s.compact = on }

// Compact reports whether record retention is off.
func (s *Store) Compact() bool { return s.compact }

// Folded returns the number of records folded into aggregates without being
// retained. Len() + Folded() is the total executions observed.
func (s *Store) Folded() int { return s.folded }

// SetTaskObserver installs a hook invoked with every record AddTask
// ingests, whether or not the record is retained (compact mode folds and
// drops records, but the observer still sees each one exactly once). This
// is the §3.4 provenance→prediction feed: online predictors subscribe here
// and train as attempts complete, instead of rescanning Observations().
func (s *Store) SetTaskObserver(fn func(TaskRecord)) { s.observer = fn }

// AddTask appends a task execution record (unless the store is compact) and
// folds it into the per-name running aggregates.
func (s *Store) AddTask(r TaskRecord) {
	if s.observer != nil {
		s.observer(r)
	}
	if s.compact {
		s.folded++
	} else {
		idx := len(s.records)
		s.records = append(s.records, r)
		wfIdx, ok := s.byWorkflow[r.WorkflowID]
		if !ok {
			wfIdx = s.popIdx()
		}
		s.byWorkflow[r.WorkflowID] = append(wfIdx, idx)
		nameIdx, ok := s.byName[r.Name]
		if !ok {
			nameIdx = s.popIdx()
		}
		s.byName[r.Name] = append(nameIdx, idx)
	}

	if s.tenantOf != nil {
		t := s.tenantOf(r.WorkflowID)
		a := s.byTenant[t]
		a.execs++
		if r.Failed {
			a.failures++
		}
		if r.Node != "" { // pending aborts never reached a node
			a.started++
			a.waitSum += float64(r.StartedAt - r.SubmittedAt)
			if !r.Failed {
				a.coreSec += float64(r.Cores) * float64(r.Runtime())
			}
		}
		s.byTenant[t] = a
	}

	st := s.statByName[r.Name]
	st.execs++
	if r.Failed {
		st.failures++
		s.statByName[r.Name] = st
		return
	}
	rt := float64(r.Runtime())
	st.ok++
	st.sumRT += rt
	st.sumMem += r.PeakMem
	if rt > st.maxRT {
		st.maxRT = rt
	}
	s.statByName[r.Name] = st

	sf := r.SpeedFactor
	if sf <= 0 {
		sf = 1
	}
	a := s.refByName[r.Name]
	a.sum += float64(r.Runtime()) * sf
	a.n++
	s.refByName[r.Name] = a
}

// popIdx takes a zero-length, capacity-bearing index slice from the Reset
// harvest, or nil when the pool is dry (a fresh key on a cold store).
func (s *Store) popIdx() []int {
	if n := len(s.freeIdx); n > 0 {
		sl := s.freeIdx[n-1]
		s.freeIdx = s.freeIdx[:n-1]
		return sl
	}
	return nil
}

// MeanRefRuntime returns the running mean of the speed-normalized runtimes
// of name's successful executions (ok=false before any). Accumulation order
// matches insertion order, so the result is bit-identical to rescanning the
// records — but O(1) per call.
func (s *Store) MeanRefRuntime(name string) (float64, bool) {
	a := s.refByName[name]
	if a.n == 0 {
		return 0, false
	}
	return a.sum / float64(a.n), true
}

// AddNodeEvent appends a node trace entry.
func (s *Store) AddNodeEvent(e NodeEvent) { s.nodeEvents = append(s.nodeEvents, e) }

// AnnotateRetry attaches recovery metadata to the most recent failed record
// of (wfID, taskID): the policy chose to resubmit that attempt after
// delaySec of backoff. It reports whether a matching record was found.
func (s *Store) AnnotateRetry(wfID string, taskID dag.TaskID, delaySec float64, policy string) bool {
	idx := s.byWorkflow[wfID]
	for i := len(idx) - 1; i >= 0; i-- {
		r := &s.records[idx[i]]
		if r.TaskID == taskID && r.Failed {
			r.RetryDelaySec = delaySec
			r.RetryPolicy = policy
			return true
		}
	}
	return false
}

// Len returns the number of task records.
func (s *Store) Len() int { return len(s.records) }

// All returns a copy of all task records.
func (s *Store) All() []TaskRecord { return append([]TaskRecord(nil), s.records...) }

// ByWorkflow returns records for a workflow in insertion order.
func (s *Store) ByWorkflow(id string) []TaskRecord {
	return s.collect(s.byWorkflow[id])
}

// ByTaskName returns records for a process name in insertion order.
func (s *Store) ByTaskName(name string) []TaskRecord {
	return s.collect(s.byName[name])
}

func (s *Store) collect(idx []int) []TaskRecord {
	out := make([]TaskRecord, len(idx))
	for i, j := range idx {
		out[i] = s.records[j]
	}
	return out
}

// NodeEvents returns all node trace entries.
func (s *Store) NodeEvents() []NodeEvent { return append([]NodeEvent(nil), s.nodeEvents...) }

// Observations converts successful records into predictor training data —
// the §3.4 pipeline from provenance to runtime prediction.
func (s *Store) Observations() []predict.Observation {
	var out []predict.Observation
	for _, r := range s.records {
		if r.Failed {
			continue
		}
		out = append(out, predict.Observation{
			TaskName:    r.Name,
			InputBytes:  r.InputBytes,
			RuntimeSec:  float64(r.Runtime()),
			PeakMem:     r.PeakMem,
			MachineName: r.MachineType,
			SpeedFactor: r.SpeedFactor,
		})
	}
	return out
}

// Lineage returns the upstream task records that produced inputs for taskID
// in workflow wfID (direct dependencies only), using the registered
// workflow structure.
func (s *Store) Lineage(wfID string, taskID dag.TaskID) ([]TaskRecord, error) {
	w := s.workflows[wfID]
	if w == nil {
		return nil, fmt.Errorf("provenance: workflow %q not registered", wfID)
	}
	t := w.Task(taskID)
	if t == nil {
		return nil, fmt.Errorf("provenance: task %q not in workflow %q", taskID, wfID)
	}
	deps := map[dag.TaskID]bool{}
	for _, d := range t.Deps {
		deps[d] = true
	}
	var out []TaskRecord
	for _, r := range s.ByWorkflow(wfID) {
		if deps[r.TaskID] {
			out = append(out, r)
		}
	}
	return out, nil
}

// Stats summarizes one process name across executions.
type Stats struct {
	Name        string
	Executions  int
	Failures    int
	MeanRuntime float64
	MaxRuntime  float64
	MeanPeakMem float64
}

// StatsByName returns per-process summaries sorted by name, read from the
// running aggregates — O(names), not O(records).
func (s *Store) StatsByName() []Stats {
	names := make([]string, 0, len(s.statByName))
	for n := range s.statByName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Stats, 0, len(names))
	for _, n := range names {
		a := s.statByName[n]
		st := Stats{
			Name:       n,
			Executions: a.execs,
			Failures:   a.failures,
			MaxRuntime: a.maxRT,
		}
		if a.ok > 0 {
			st.MeanRuntime = a.sumRT / float64(a.ok)
			st.MeanPeakMem = a.sumMem / float64(a.ok)
		}
		out = append(out, st)
	}
	return out
}

// provDoc is the W3C-PROV-flavoured export schema.
type provDoc struct {
	Prefix     map[string]string    `json:"prefix"`
	Activity   map[string]provItem  `json:"activity"`
	Entity     map[string]provItem  `json:"entity"`
	WasGenBy   map[string]provRel   `json:"wasGeneratedBy"`
	Used       map[string]provRel   `json:"used"`
	NodeTraces []map[string]any     `json:"nodeTraces"`
	Workflows  map[string][]provDep `json:"workflows"`
}

type provItem map[string]any

type provRel struct {
	Activity string `json:"prov:activity"`
	Entity   string `json:"prov:entity"`
}

type provDep struct {
	Task string   `json:"task"`
	Deps []string `json:"deps"`
}

// ExportPROV serializes the store to a W3C-PROV-flavoured JSON document so
// provenance "will be available across different WMS" (§3.3).
func (s *Store) ExportPROV() ([]byte, error) {
	doc := provDoc{
		Prefix:    map[string]string{"cws": "https://example.org/cws#"},
		Activity:  map[string]provItem{},
		Entity:    map[string]provItem{},
		WasGenBy:  map[string]provRel{},
		Used:      map[string]provRel{},
		Workflows: map[string][]provDep{},
	}
	for i, r := range s.records {
		aid := fmt.Sprintf("cws:%s/%s#%d", r.WorkflowID, r.TaskID, r.Attempt)
		item := provItem{
			"cws:name":       r.Name,
			"prov:startTime": float64(r.StartedAt),
			"prov:endTime":   float64(r.FinishedAt),
			"cws:node":       r.Node,
			"cws:failed":     r.Failed,
		}
		if r.RetryPolicy != "" {
			item["cws:retryDelaySec"] = r.RetryDelaySec
			item["cws:retryPolicy"] = r.RetryPolicy
		}
		doc.Activity[aid] = item
		eid := fmt.Sprintf("cws:data/%s/%s", r.WorkflowID, r.TaskID)
		doc.Entity[eid] = provItem{"cws:bytes": r.OutputBytes}
		doc.WasGenBy[fmt.Sprintf("g%d", i)] = provRel{Activity: aid, Entity: eid}
	}
	for _, e := range s.nodeEvents {
		doc.NodeTraces = append(doc.NodeTraces, map[string]any{
			"at": float64(e.At), "node": e.Node, "kind": e.Kind,
		})
	}
	for id, w := range s.workflows {
		for _, t := range w.Tasks() {
			deps := make([]string, len(t.Deps))
			for i, d := range t.Deps {
				deps[i] = string(d)
			}
			doc.Workflows[id] = append(doc.Workflows[id], provDep{Task: string(t.ID), Deps: deps})
		}
	}
	return json.MarshalIndent(doc, "", "  ")
}
