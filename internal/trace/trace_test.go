package trace

import (
	"encoding/json"
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/provenance"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

func TestFromProvenanceBasic(t *testing.T) {
	s := provenance.NewStore()
	s.AddTask(provenance.TaskRecord{
		WorkflowID: "w", TaskID: "a", Name: "proc", Attempt: 1,
		StartedAt: 10, FinishedAt: 25, Node: "n-0001", MachineType: "x",
	})
	s.AddTask(provenance.TaskRecord{
		WorkflowID: "w", TaskID: "b", Name: "proc", Attempt: 1,
		StartedAt: 25, FinishedAt: 60, Node: "n-0002", Failed: true,
	})
	doc := FromProvenance(s)
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("events = %d", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].TS != 10e6 || doc.TraceEvents[0].Dur != 15e6 {
		t.Fatalf("event timing: %+v", doc.TraceEvents[0])
	}
	if doc.TraceEvents[1].Cat != "failed" {
		t.Fatal("failed attempt not categorized")
	}
	if doc.Lanes() != 2 {
		t.Fatalf("lanes = %d", doc.Lanes())
	}
	if doc.Span() != 50 {
		t.Fatalf("span = %v, want 50", doc.Span())
	}
}

func TestJSONValid(t *testing.T) {
	s := provenance.NewStore()
	s.AddTask(provenance.TaskRecord{WorkflowID: "w", TaskID: "a", StartedAt: 0, FinishedAt: 1, Node: "n"})
	raw, err := FromProvenance(s).JSON()
	if err != nil {
		t.Fatal(err)
	}
	var parsed map[string]json.RawMessage
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatal(err)
	}
	if _, ok := parsed["traceEvents"]; !ok {
		t.Fatal("missing traceEvents")
	}
}

func TestEndToEndFromCWSRun(t *testing.T) {
	eng := sim.NewEngine()
	cl := cluster.New(eng, "k", cluster.Spec{
		Type:  cluster.NodeType{Name: "n", Cores: 8, MemBytes: 64e9},
		Count: 2,
	})
	cws := cwsi.New(rm.NewTaskManager(cl, nil), cwsi.Rank{}, nil)
	w := dag.ForkJoin(randx.New(5), 2, 4, dag.GenOpts{MeanDur: 60})
	if err := cws.RegisterWorkflow(w.Name, w); err != nil {
		t.Fatal(err)
	}
	ms, err := cws.RunWorkflow(w.Name)
	if err != nil {
		t.Fatal(err)
	}
	doc := FromProvenance(cws.Provenance())
	if len(doc.TraceEvents) != w.Len() {
		t.Fatalf("events = %d, want %d", len(doc.TraceEvents), w.Len())
	}
	// The trace span equals the makespan.
	if got := doc.Span(); got != float64(ms) {
		t.Fatalf("span = %v, makespan = %v", got, ms)
	}
	// At most 2 lanes (2 nodes).
	if doc.Lanes() > 2 {
		t.Fatalf("lanes = %d", doc.Lanes())
	}
}

func TestEmptyStore(t *testing.T) {
	doc := FromProvenance(provenance.NewStore())
	if len(doc.TraceEvents) != 0 || doc.Span() != 0 || doc.Lanes() != 0 {
		t.Fatal("empty store should give empty trace")
	}
}

func TestSpanSeedsBothExtrema(t *testing.T) {
	// All events end before t=0: with hi anchored at 0 the span was
	// stretched to -lo instead of the true extent.
	d := &Doc{TraceEvents: []Event{
		{TS: -100e6, Dur: 20e6},
		{TS: -70e6, Dur: 10e6},
	}}
	if got := d.Span(); got != 40 {
		t.Fatalf("span = %v, want 40", got)
	}
	// Single event: span is its duration regardless of where it sits.
	d = &Doc{TraceEvents: []Event{{TS: 500e6, Dur: 30e6}}}
	if got := d.Span(); got != 30 {
		t.Fatalf("span = %v, want 30", got)
	}
}

func TestFromProvenanceSortedByTS(t *testing.T) {
	// Store order is completion order; emission must be (TS, TID) order.
	s := provenance.NewStore()
	s.AddTask(provenance.TaskRecord{
		WorkflowID: "w", TaskID: "late", StartedAt: 50, FinishedAt: 60, Node: "n-0001",
	})
	s.AddTask(provenance.TaskRecord{
		WorkflowID: "w", TaskID: "early", StartedAt: 5, FinishedAt: 90, Node: "n-0002",
	})
	s.AddTask(provenance.TaskRecord{
		WorkflowID: "w", TaskID: "tie-lane2", StartedAt: 5, FinishedAt: 7, Node: "n-0003",
	})
	doc := FromProvenance(s)
	want := []string{"early", "tie-lane2", "late"}
	for i, name := range want {
		if doc.TraceEvents[i].Name != name {
			t.Fatalf("event %d = %q, want %q (order: %+v)", i, doc.TraceEvents[i].Name, name, doc.TraceEvents)
		}
	}
	if doc.TraceEvents[0].TID >= doc.TraceEvents[1].TID {
		t.Fatal("TS ties must break by TID")
	}
}

func TestFailedEventCarriesRecoveryMetadata(t *testing.T) {
	s := provenance.NewStore()
	s.AddTask(provenance.TaskRecord{
		WorkflowID: "w", TaskID: "a", Attempt: 1, StartedAt: 0, FinishedAt: 5,
		Node: "n-0001", Failed: true, Error: "node down",
	})
	if !s.AnnotateRetry("w", "a", 12.5, "retry(max=5)") {
		t.Fatal("AnnotateRetry found no record")
	}
	doc := FromProvenance(s)
	ev := doc.TraceEvents[0]
	if ev.Cat != "failed" {
		t.Fatalf("cat = %q", ev.Cat)
	}
	if ev.Args["retryDelaySec"] != 12.5 || ev.Args["retryPolicy"] != "retry(max=5)" {
		t.Fatalf("recovery metadata missing: %+v", ev.Args)
	}
	if ev.Args["error"] != "node down" {
		t.Fatalf("error missing: %+v", ev.Args)
	}
}
