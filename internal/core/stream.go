package core

import (
	"hhcw/internal/dag"
	"hhcw/internal/randx"
)

// StreamingEnv is a KubernetesEnv that executes on a lean session: the same
// run body as the eager environment, with metric series and manager
// observation folded to running aggregates, a compact provenance store, and
// the StreamWindow residency bound — so memory stays O(window) at any task
// count. Name() is inherited unchanged, so a streaming result's fingerprint
// is directly comparable to the eager environment's — the equivalence the
// sweep tests assert bit-for-bit. Native streaming sources (jaws scatter,
// entk stages) hand their expanders straight to RunExpander.
type StreamingEnv struct {
	KubernetesEnv
}

// Run implements Environment.
func (e *StreamingEnv) Run(w *dag.Workflow) (*Result, error) {
	return e.RunSeeded(w, randx.New(1))
}

// RunSeeded implements SeededEnvironment on a one-shot lean session.
func (e *StreamingEnv) RunSeeded(w *dag.Workflow, rng *randx.Source) (*Result, error) {
	s, err := e.newSession(true, nil)
	if err != nil {
		return nil, err
	}
	return s.RunSeeded(w, rng)
}

// NewSession implements SessionEnvironment with a warm lean session, so
// streaming sweeps reuse their substrate like eager ones.
func (e *StreamingEnv) NewSession() (RunSession, error) {
	s, err := e.newSession(true, nil)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// NewExpandingSession returns a warm lean session over env whose runs drive
// expand(w) instead of w itself — the hook lazy reference expansion
// (compose.LazyEnv) runs through.
func NewExpandingSession(env *KubernetesEnv, expand func(*dag.Workflow) (dag.Expander, error)) (RunSession, error) {
	s, err := env.newSession(true, expand)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// RunExpander executes a prebuilt expansion on a one-shot lean session — the
// extreme-scale entry point: the DAG is never materialized and terminal
// tasks are retired into a compact provenance store as they finish. CWS
// strategies need the whole DAG for ranking and are rejected here; run
// materialized workflows through RunSeeded for those studies.
func (e *KubernetesEnv) RunExpander(x dag.Expander, rng *randx.Source) (*Result, error) {
	s, err := e.newSession(true, nil)
	if err != nil {
		return nil, err
	}
	return s.run(x, nil, rng)
}
