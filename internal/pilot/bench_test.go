package pilot

import (
	"fmt"
	"testing"

	"hhcw/internal/cluster"
	"hhcw/internal/dag"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

// BenchmarkPilotScale10k exercises §4.1's RADICAL-Pilot scale claim — "up to
// 10^4 heterogeneous computing tasks" inside one allocation — end to end in
// virtual time, through the executor.
func BenchmarkPilotScale10k(b *testing.B) {
	const n = 10000
	w := dag.New("scale")
	for j := 0; j < n; j++ {
		w.Add(&dag.Task{
			ID:         dag.TaskID(fmt.Sprintf("t%05d", j)),
			Cores:      1 + j%4, // heterogeneous shapes
			NominalDur: 300 + float64(j%7)*100,
		})
	}
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		cl := cluster.New(eng, "big", cluster.Spec{
			Type:  cluster.NodeType{Name: "n", Cores: 8, GPUs: 1, MemBytes: 1e12},
			Count: 2000,
		})
		bm := rm.NewBatchManager(cl, nil)
		p, err := Submit(bm, cl, Config{Nodes: 2000, Walltime: 1e7, SchedRate: 269, LaunchRate: 51})
		if err != nil {
			b.Fatal(err)
		}
		x, err := dag.NewWorkflowExpander(w)
		if err != nil {
			b.Fatal(err)
		}
		sr := &rm.StreamRunner{Manager: rm.NewTaskManager(cl, p), Source: x, Runtime: Runtime}
		sr.Start()
		eng.Run()
		if err := sr.Err(); err != nil || sr.Stats().Failures != 0 {
			b.Fatalf("run: %v, %+v", err, sr.Stats())
		}
	}
}
