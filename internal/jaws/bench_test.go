package jaws

import (
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/sim"
	"hhcw/internal/storage"
)

// BenchmarkParse measures the mini-WDL parser.
func BenchmarkParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Parse(sampleWDL); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineScatterRun measures one full engine execution of a
// 24-shard scatter workflow.
func BenchmarkEngineScatterRun(b *testing.B) {
	def, err := Parse(sampleWDL)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		cl := cluster.New(eng, "s", cluster.Spec{
			Type:  cluster.NodeType{Name: "n", Cores: 16, MemBytes: 256e9},
			Count: 4,
		})
		e := NewEngine(cl, storage.NewStore("fs", 0, 0, 0))
		if _, err := e.Run(def, "u"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSignature measures call-cache key derivation (computed per shard
// per run).
func BenchmarkSignature(b *testing.B) {
	def, err := Parse(sampleWDL)
	if err != nil {
		b.Fatal(err)
	}
	t := def.Task("merge")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = def.Signature(t, i%24)
	}
}

// BenchmarkLint measures the migration linter.
func BenchmarkLint(b *testing.B) {
	def, err := Parse(sampleWDL)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Lint(def)
	}
}

// BenchmarkScatterExpanderCycle measures the expander's per-shard life cycle —
// Next, TaskDone, Retire — over one 10⁵-shard def. One op is one shard; the
// shard's ID string is its only allocation.
func BenchmarkScatterExpanderCycle(b *testing.B) {
	def, err := Parse(`
workflow cycle
task work cpu=1 dur=60s scatter=100000
`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	x, err := def.Expand()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, _, ok := x.Next()
		if !ok {
			b.StopTimer()
			if x, err = def.Expand(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			t, _, _ = x.Next()
		}
		x.TaskDone(t.ID)
		x.Retire(t)
	}
}
