// Package stream implements append-only streaming ingestion of
// provenance: a Session wraps a live aggregated expression together
// with its compiled evaluation plan, and Append folds a batch of new
// tensors (new annotations, tuples, or extensions of existing
// polynomials) into both. The expression itself is immutable — each
// batch produces a fresh *provenance.Agg, so concurrent readers
// (running summarization jobs, evaluation handlers) keep a consistent
// snapshot — while the compiled plan is patched in place through
// Plan.ApplyAppend, which also builds that next expression: only the
// batch's tensors are simplified, and the current ones are merged with
// them in key order as they stand. A patch the plan refuses recompiles
// from the expression the patch built; only a session whose expression
// does not plan builds it with NewAgg over every tensor. Patch and
// recompile counts are exposed for the server's prox_stream_* metrics.
//
// Durability lives a layer up: the server journals one
// codec.IngestRecord per batch, and a restarted server rebuilds the
// session by replaying the ingest log over the base expression with the
// same Append calls.
package stream

import (
	"errors"
	"sync"

	"repro/internal/provenance"
)

// Session is the streaming state of one provenance session. All methods
// are safe for concurrent use.
type Session struct {
	mu   sync.Mutex
	agg  *provenance.Agg
	plan *provenance.Plan

	batches    uint64
	tensors    uint64
	patches    uint64
	recompiles uint64
}

// Stats is a point-in-time snapshot of a session's ingest counters.
type Stats struct {
	// Batches and Tensors count Append calls and the tensors they
	// carried.
	Batches, Tensors uint64
	// PlanPatches counts batches folded into the compiled plan in place;
	// PlanRecompiles counts batches that fell back to a full recompile
	// (including sessions whose expression cannot be planned at all).
	PlanPatches, PlanRecompiles uint64
}

// NewSession wraps a session's current expression, compiling its plan.
// agg must not be nil.
func NewSession(agg *provenance.Agg) *Session {
	return &Session{agg: agg, plan: provenance.NewPlan(agg)}
}

// Expr returns the current (immutable) expression snapshot.
func (s *Session) Expr() *provenance.Agg {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.agg
}

// Plan returns the compiled plan of the current expression, or nil when
// the expression cannot be planned. The plan is patched or replaced by
// Append; callers must not hold it across Append calls.
func (s *Session) Plan() *provenance.Plan {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.plan
}

// Append folds a batch of tensors into the session: the expression
// becomes NewAgg over the current tensors plus the batch (so Simplify's
// congruences — duplicate-key merging, zero dropping, key ordering —
// hold exactly as if the expression had been built whole), and the
// compiled plan is patched in place when possible. A planned session
// reads that expression off the patch (Plan.ApplyAppend), which
// simplifies only the batch. It returns the new expression snapshot and
// whether the plan patch succeeded (false also covers unplannable
// sessions, which recompile to a nil plan).
func (s *Session) Append(added []provenance.Tensor) (*provenance.Agg, bool, error) {
	if len(added) == 0 {
		return nil, false, errors.New("stream: empty ingest batch")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var next *provenance.Agg
	patched := false
	if s.plan != nil {
		next, patched = s.plan.ApplyAppend(added)
	}
	if next == nil {
		tensors := make([]provenance.Tensor, 0, len(s.agg.Tensors)+len(added))
		tensors = append(tensors, s.agg.Tensors...)
		tensors = append(tensors, added...)
		next = provenance.NewAgg(s.agg.Agg.Kind, tensors...)
	}
	if patched {
		s.patches++
	} else {
		s.plan = provenance.NewPlan(next)
		s.recompiles++
	}
	s.agg = next
	s.batches++
	s.tensors += uint64(len(added))
	return next, patched, nil
}

// Stats snapshots the session's ingest counters.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Batches: s.batches, Tensors: s.tensors,
		PlanPatches: s.patches, PlanRecompiles: s.recompiles,
	}
}
