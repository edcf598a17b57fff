// cws_scheduling: the §3 story — the same workflow on the same cluster,
// scheduled without and with workflow awareness through the Common Workflow
// Scheduler Interface.
package main

import (
	"fmt"
	"log"

	"hhcw/internal/cluster"
	"hhcw/internal/cwsi"
	"hhcw/internal/dag"
	"hhcw/internal/randx"
	"hhcw/internal/rm"
	"hhcw/internal/sim"
)

func main() {
	buildCluster := func() *cluster.Cluster {
		return cluster.New(sim.NewEngine(), "k8s", cluster.Spec{
			Type:  cluster.NodeType{Name: "node", Cores: 8, MemBytes: 64e9},
			Count: 2,
		})
	}
	buildWorkflow := func() *dag.Workflow {
		return dag.RNASeqLike(randx.New(1990), 12,
			dag.GenOpts{MeanDur: 300, CVDur: 1.5, Cores: 1, MaxCores: 4})
	}

	results, err := cwsi.CompareStrategies(buildCluster, buildWorkflow,
		cwsi.Rank{}, cwsi.FileSize{}, cwsi.HEFT{})
	if err != nil {
		log.Fatal(err)
	}
	fifo := float64(results["fifo"])
	fmt.Println("strategy        makespan   vs FIFO")
	for _, name := range []string{"fifo", "rank", "filesize-desc", "heft"} {
		ms := float64(results[name])
		fmt.Printf("%-14s %8.0fs   %+6.1f%%\n", name, ms, (ms-fifo)/fifo*100)
	}

	// The CWS also centralizes provenance (§3.3): run once more with a CWS
	// attached and export the PROV document.
	cl := buildCluster()
	cws := cwsi.New(rm.NewTaskManager(cl, nil), cwsi.Rank{}, nil)
	w := buildWorkflow()
	if err := cws.RegisterWorkflow(w.Name, w); err != nil {
		log.Fatal(err)
	}
	if _, err := cws.RunWorkflow(w.Name); err != nil {
		log.Fatal(err)
	}
	doc, err := cws.Provenance().ExportPROV()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprovenance: %d task records, %d-byte PROV export\n",
		cws.Provenance().Len(), len(doc))
}
