package core

import (
	"strings"
	"testing"

	"hhcw/internal/dag"
	"hhcw/internal/jaws"
)

const bridgeWDL = `
workflow asm
container docker://x@sha256:aa
task filter dur=600s overhead=60s
task align dur=120s overhead=30s after=filter scatter=4
task merge dur=300s overhead=60s after=align
`

func TestFromJAWSStructure(t *testing.T) {
	def, err := jaws.Parse(bridgeWDL)
	if err != nil {
		t.Fatal(err)
	}
	w, err := def.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 1+4+1 {
		t.Fatalf("tasks = %d, want 6", w.Len())
	}
	// Shards depend on filter; merge depends on all shards.
	merge := w.Task("merge")
	if merge == nil || len(merge.Deps) != 4 {
		t.Fatalf("merge deps = %+v", merge)
	}
	for _, d := range merge.Deps {
		if !strings.HasPrefix(string(d), "align/shard") {
			t.Fatalf("unexpected merge dep %s", d)
		}
	}
	// Overhead folded into duration.
	if got := w.Task("filter").NominalDur; got != 660 {
		t.Fatalf("filter dur = %v, want 660", got)
	}
	cp, _ := w.CriticalPath(dag.NominalDur)
	if cp != 660+150+360 {
		t.Fatalf("critical path = %v, want 1170", cp)
	}
}

func TestFromJAWSRunsOnEnvironments(t *testing.T) {
	def, err := jaws.Parse(bridgeWDL)
	if err != nil {
		t.Fatal(err)
	}
	w, err := def.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, env := range []Environment{
		&KubernetesEnv{Nodes: 2, CoresPerNode: 8},
		&CloudEnv{MaxInstances: 4},
	} {
		res, err := env.Run(w)
		if err != nil {
			t.Fatalf("%s: %v", env.Name(), err)
		}
		if res.TasksRun != 6 {
			t.Fatalf("%s ran %d tasks", env.Name(), res.TasksRun)
		}
	}
}

func TestFromJAWSInvalid(t *testing.T) {
	bad := &jaws.WorkflowDef{} // no name
	if _, err := bad.Compile(); err == nil {
		t.Fatal("invalid def accepted")
	}
}

func TestFromJAWSDeclarationOrderIndependent(t *testing.T) {
	// Tasks declared in reverse dependency order still compile (Kahn).
	def, err := jaws.Parse(`
workflow rev
task c dur=10s after=b
task b dur=10s after=a
task a dur=10s
`)
	if err != nil {
		t.Fatal(err)
	}
	w, err := def.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cp, _ := w.CriticalPath(dag.NominalDur)
	if cp != 30 {
		t.Fatalf("critical path = %v", cp)
	}
}
