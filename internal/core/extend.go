package core

import (
	"context"
	"math"
	"sort"

	"repro/internal/provenance"
)

// Extend warm-starts Algorithm 1 from a prior summary's partition: the
// greedy search begins with prior's groups already merged (annotations
// absent from prior enter as singletons, exactly as in a fresh run) and
// only searches for the merges the extended expression still needs. It
// reuses the checkpoint/trace-replay layer: the prior partition becomes
// a synthetic seed trace replayed the way Resume replays a crash
// snapshot, so checkpointing, step observation and /-style trace replay
// work unchanged on the result — Summary.Steps carries the seed prefix
// (Summary.ExtendedFrom entries) followed by the run's own merges.
//
// With an empty (or all-singleton) prior the seed trace is empty and
// Extend delegates to the exact from-scratch path, so its result is
// bit-identical to Summarize on every scoring engine by construction.
//
// The step budget (Config.MaxSteps) and the post-loop TARGET-DIST
// rollback apply only to the run's own merges; the Prop. 4.2.1
// equivalence pre-step is skipped for seeded runs (the prior partition
// already reflects the class's equivalences, and an equivalence merge
// would race the seed replay for the same members).
func (s *Summarizer) Extend(ctx context.Context, p0 provenance.Expression, prior provenance.Groups) (*Summary, error) {
	seed := SeedSteps(prior)
	if len(seed) == 0 {
		return s.run(ctx, p0, nil)
	}
	cp := &Checkpoint{
		Step:  len(seed),
		Steps: seed,
		// Sentinel: no distance has been measured yet. run measures the
		// baseline after the seed replay and backfills the trace; the
		// NaN never reaches a serialized checkpoint.
		InitDist:    math.NaN(),
		ExtendFrom:  len(seed),
		TraceParent: s.cfg.TraceParent,
	}
	// Capture the live RNG positions so restore's state round-trip is a
	// no-op: the seed replay consumes no randomness.
	if s.cfg.RandSrc != nil {
		st := s.cfg.RandSrc.State()
		cp.RandState = &st
	}
	if s.cfg.Estimator.RandSrc != nil {
		st := s.cfg.Estimator.RandSrc.State()
		cp.EstRandState = &st
	}
	return s.run(ctx, p0, cp)
}

// SeedSteps converts a prior partition into the canonical synthetic
// seed trace Extend replays: one step per non-singleton group, groups
// in sorted name order with sorted members. Singleton groups need no
// step (their annotation is already itself). Seed steps carry no score
// or size and a NaN distance placeholder; the seeded run fills both.
// The canonical ordering makes the trace — and therefore the seed
// fingerprint warm-start caches key on — a pure function of the
// partition.
func SeedSteps(prior provenance.Groups) []Step {
	names := make([]provenance.Annotation, 0, len(prior))
	for name, ms := range prior {
		if len(ms) >= 2 {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	steps := make([]Step, 0, len(names))
	for _, name := range names {
		ms := append([]provenance.Annotation(nil), prior[name]...)
		sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
		steps = append(steps, Step{
			A: ms[0], B: ms[1], Members: ms, New: name,
			Dist: math.NaN(),
		})
	}
	return steps
}

// GroupsFromSteps rebuilds the cumulative partition a merge trace ends
// at: each step gathers its members' current groups (or the members
// themselves when still singletons) into the step's summary annotation,
// exactly as composing the trace's mappings would. Fed a summary's
// Equivalences followed by its Steps, it yields that summary's
// non-singleton Groups, the prior a later Extend seeds from; its Steps
// alone leave out the Prop. 4.2.1 pre-step's merges.
func GroupsFromSteps(steps []Step) provenance.Groups {
	groups := make(provenance.Groups)
	for _, st := range steps {
		ms := make([]provenance.Annotation, 0, len(st.Members))
		for _, m := range st.Members {
			if g, ok := groups[m]; ok {
				ms = append(ms, g...)
				delete(groups, m)
			} else {
				ms = append(ms, m)
			}
		}
		sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
		groups[st.New] = ms
	}
	return groups
}
