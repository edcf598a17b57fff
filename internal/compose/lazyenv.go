package compose

import (
	"hhcw/internal/core"
	"hhcw/internal/dag"
	"hhcw/internal/randx"
)

// LazyEnv executes workflows containing WorkflowRef tasks through lazy
// runtime expansion: instead of statically expanding with Registry.Expand
// and running eagerly, each workflow is wrapped in a dag.RefExpander and
// driven by the KubernetesEnv's one run body on a warm lean session
// (core.NewExpandingSession), so referenced sub-workflows splice into the
// frontier only as their inputs resolve, under the environment's bounded
// residency window (StreamWindow).
//
// Name() delegates to the inner environment, so a lazy result's fingerprint
// is directly comparable to the static-expansion one — the equivalence the
// recursive golden battery asserts bit-for-bit across seeds, fault profiles,
// and worker counts.
type LazyEnv struct {
	core.KubernetesEnv
	Registry *Registry
}

// Run implements core.Environment.
func (e *LazyEnv) Run(w *dag.Workflow) (*core.Result, error) {
	return e.RunSeeded(w, randx.New(1))
}

// RunSeeded implements core.SeededEnvironment on a one-shot session.
func (e *LazyEnv) RunSeeded(w *dag.Workflow, rng *randx.Source) (*core.Result, error) {
	s, err := e.NewSession()
	if err != nil {
		return nil, err
	}
	return s.RunSeeded(w, rng)
}

// NewSession overrides the promoted KubernetesEnv.NewSession, which would
// run the unexpanded reference root instead of resolving it.
func (e *LazyEnv) NewSession() (core.RunSession, error) {
	return core.NewExpandingSession(&e.KubernetesEnv, func(w *dag.Workflow) (dag.Expander, error) {
		return e.Registry.Expander(w)
	})
}
