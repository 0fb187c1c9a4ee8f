package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/distance"
	"repro/internal/provenance"
)

// Checkpoint is a resumable snapshot of a summarization run, taken
// between merge steps. It captures everything the greedy search depends
// on that is not already determined by (p0, Config): the merge trace so
// far — from which the current expression, cumulative mapping h, and the
// rollback state are rebuilt deterministically — the distances the run
// has measured (which in sampling mode cannot be recomputed without
// disturbing the random stream), and the positions of the two random
// streams (candidate-cap shuffling and Monte-Carlo sampling).
//
// Resume replays the trace onto p0 and continues the loop; the scoring
// is deterministic at any Parallelism and sampling draws follow the
// restored random stream, so the resumed run is bit-identical to an
// uninterrupted one.
type Checkpoint struct {
	// Step is the number of committed merge steps the snapshot covers
	// (always len(Steps); kept explicit for serialized forms).
	Step int
	// Steps is the merge trace up to Step, in order.
	Steps []Step
	// InitDist is the distance measured after the free Prop. 4.2.1
	// pre-step, before the first merge. Steps[i].Dist carries the
	// distance after each merge, so together these reconstruct the
	// current and rollback distances without re-measuring.
	InitDist float64
	// RandState is the position of Config.RandSrc (candidate-cap
	// shuffling); nil when the run has no candidate-sampling RNG.
	RandState *uint64
	// EstRandState is the position of Estimator.RandSrc (Monte-Carlo
	// sampling); nil when the run enumerates the valuation class.
	EstRandState *uint64
	// TraceParent is the opaque trace context (a W3C traceparent value)
	// of the run that emitted the snapshot, copied from
	// Config.TraceParent. It plays no part in the computation; it lets a
	// resumed run rejoin the distributed trace of the original request.
	TraceParent string
	// ExtendFrom is the number of leading Steps entries that are a seeded
	// prior partition (Summarizer.Extend) rather than merges chosen by
	// the run. Seed steps replay without merge-name validation (their
	// names were registered by an earlier run under a registry state that
	// cannot be replayed), the step budget and the TARGET-DIST rollback
	// count only the steps after them, and the Prop. 4.2.1 pre-step is
	// skipped for the whole run. 0 for ordinary runs.
	ExtendFrom int
}

// clone deep-copies a checkpoint so the caller and the summarizer never
// share mutable state (Members slices in particular).
func (cp Checkpoint) clone() Checkpoint {
	out := cp
	out.Steps = cloneSteps(cp.Steps)
	if cp.RandState != nil {
		v := *cp.RandState
		out.RandState = &v
	}
	if cp.EstRandState != nil {
		v := *cp.EstRandState
		out.EstRandState = &v
	}
	return out
}

func cloneSteps(steps []Step) []Step {
	out := make([]Step, len(steps))
	for i, st := range steps {
		out[i] = st
		out[i].Members = append([]provenance.Annotation(nil), st.Members...)
	}
	return out
}

// Resume continues a run snapshotted by CheckpointSink: it replays the
// checkpoint's merge trace onto p0 (re-registering the summary
// annotations through the policy, exactly as the original run did),
// restores the random streams, and runs the remaining steps. The final
// summary is bit-identical to an uninterrupted run of the same Config
// over p0.
//
// The Summarizer must be configured identically to the run that emitted
// the checkpoint (same weights, bounds, estimator class, φ, VAL-FUNC and
// sampling); Resume can detect only trace-level divergence (a replayed
// merge naming differently than recorded), which it reports as an
// error.
func (s *Summarizer) Resume(ctx context.Context, p0 provenance.Expression, cp *Checkpoint) (*Summary, error) {
	if cp == nil {
		return s.run(ctx, p0, nil)
	}
	if cp.Step != len(cp.Steps) {
		return nil, fmt.Errorf("core: corrupt checkpoint: Step = %d but trace has %d steps", cp.Step, len(cp.Steps))
	}
	return s.run(ctx, p0, cp)
}

// emitCheckpoint snapshots the current trace through the configured
// sink. res.Steps carries the full trace (including a restored prefix),
// so the snapshot is self-contained whatever run emitted it.
func (s *Summarizer) emitCheckpoint(res *Summary, initDist float64) error {
	cfg := s.cfg
	if cfg.CheckpointSink == nil {
		return nil
	}
	cp := Checkpoint{
		Step:        len(res.Steps),
		Steps:       cloneSteps(res.Steps),
		InitDist:    initDist,
		TraceParent: cfg.TraceParent,
		ExtendFrom:  res.ExtendedFrom,
	}
	if cfg.RandSrc != nil {
		state := cfg.RandSrc.State()
		cp.RandState = &state
	}
	if cfg.Estimator.RandSrc != nil {
		state := cfg.Estimator.RandSrc.State()
		cp.EstRandState = &state
	}
	if err := cfg.CheckpointSink(cp); err != nil {
		return fmt.Errorf("core: checkpoint sink failed at step %d: %w", cp.Step, err)
	}
	return nil
}

// restoredState is the loop state rebuilt from a checkpoint.
type restoredState struct {
	cur, prev         provenance.Expression
	cum, prevCum      provenance.Mapping
	curDist, prevDist float64
}

// restore replays a checkpoint's merge trace onto the post-pre-step
// state (cur, cum), re-registering each step's summary annotation via
// Policy.MergeName — the same registrations the original run performed,
// so subsequent merge naming (attribute-name disambiguation, LCA
// lookups) behaves identically. The leading cp.ExtendFrom seed steps
// are an exception: their names were chosen by an earlier run whose
// registry state cannot be replayed, so they register directly under
// the recorded name with the members' shared attributes — the same
// entry Universe.Merge (or the LCA branch of MergeName) wrote when the
// group was first formed. Each merge replays through the run's plan
// (distance.Run.Replay), which patches one compiled plan step by step
// instead of re-simplifying the whole expression, and leaves it cached
// for the run's CheckPlan and first step. It fills
// res.Steps with the restored trace and returns the rebuilt loop
// state, including the one-step-back rollback state.
func (s *Summarizer) restore(r *distance.Run, cp *Checkpoint, cur provenance.Expression, cum provenance.Mapping, res *Summary) (restoredState, error) {
	cfg := s.cfg
	if cp.ExtendFrom < 0 || cp.ExtendFrom > len(cp.Steps) {
		return restoredState{}, fmt.Errorf("core: corrupt checkpoint: ExtendFrom = %d with %d steps", cp.ExtendFrom, len(cp.Steps))
	}
	st := restoredState{
		cur: cur, prev: cur,
		cum: cum, prevCum: cum,
		curDist: cp.InitDist, prevDist: cp.InitDist,
	}
	res.Steps = cloneSteps(cp.Steps)
	replay := r.Replay
	if s.replay != nil {
		replay = s.replay
	}
	for i, rec := range cp.Steps {
		if len(rec.Members) < 2 {
			return restoredState{}, fmt.Errorf("core: corrupt checkpoint: step %d has %d members", i+1, len(rec.Members))
		}
		if i < cp.ExtendFrom {
			u := cfg.Policy.Universe
			attrSets := make([]provenance.Attrs, 0, len(rec.Members))
			for _, m := range rec.Members {
				if a := u.AttrsOf(m); a != nil {
					attrSets = append(attrSets, a)
				}
			}
			u.Add(rec.New, u.Table(rec.Members[0]), provenance.Shared(attrSets))
		} else {
			name := cfg.Policy.MergeName(rec.Members)
			if name != rec.New {
				return restoredState{}, fmt.Errorf("core: checkpoint replay diverged at step %d: merge of %v named %q, recorded %q (was the run configured differently?)", i+1, rec.Members, name, rec.New)
			}
		}
		st.prev, st.prevCum, st.prevDist = st.cur, st.cum, st.curDist
		st.cur = replay(st.cur, rec.Members, rec.New)
		st.cum = st.cum.Compose(provenance.MergeMapping(rec.New, rec.Members...))
		st.curDist = rec.Dist
		if i < cp.ExtendFrom && res.Steps[i].Size == 0 {
			res.Steps[i].Size = st.cur.Size()
		}
	}

	// A fresh Extend builds its synthetic seed checkpoint from the live
	// Config, so absent RNG states there mean "this run has none", not "a
	// differently-configured run emitted this"; the strict two-way checks
	// apply only to deserialized checkpoints (which always measured
	// InitDist).
	freshExtend := math.IsNaN(cp.InitDist)
	if cp.RandState != nil {
		if cfg.RandSrc == nil {
			return restoredState{}, fmt.Errorf("core: checkpoint carries a candidate-sampling RNG state but Config.RandSrc is unset")
		}
		cfg.RandSrc.Restore(*cp.RandState)
	} else if cfg.Rand != nil && !freshExtend {
		return restoredState{}, fmt.Errorf("core: Config.Rand is set but the checkpoint has no candidate-sampling RNG state; resuming would diverge")
	}
	if cp.EstRandState != nil {
		if cfg.Estimator.RandSrc == nil {
			return restoredState{}, fmt.Errorf("core: checkpoint carries an estimator RNG state but Estimator.RandSrc is unset")
		}
		cfg.Estimator.RandSrc.Restore(*cp.EstRandState)
	} else if cfg.Estimator.Samples > 0 && !freshExtend {
		return restoredState{}, fmt.Errorf("core: Estimator.Samples > 0 but the checkpoint has no estimator RNG state; resuming would diverge")
	}
	return st, nil
}
