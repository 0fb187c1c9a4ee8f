package core_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/distance"
)

// TestRunsLeaveNoState pins the lifetime of a run's scoring state: a
// Summarize, an Extend and a baseline run each begin their own
// distance.Run and drop it when they return, so the estimator they
// share holds no plan, arena, rows, truth columns or probes between
// runs — only its configuration, its counters and its pooled sweep
// scratch. A second and third round of the same runs on the same
// estimator move every counter by exactly what the first moved, except
// CacheResets, which counts each run begun after the estimator's first.
func TestRunsLeaveNoState(t *testing.T) {
	var est *distance.Estimator
	var first distance.Stats
	for round := 0; round < 3; round++ {
		// A fresh workload per round: the policy's universe registers
		// every merge's name, so the rounds start from the same state.
		w := movieLens(t)
		if est == nil {
			est = w.Estimator(datasets.CancelSingleAnnotation)
		}
		before := est.Stats()
		s, err := core.New(core.Config{Policy: w.Policy, Estimator: est, WDist: 0.7, WSize: 0.3, MaxSteps: matrixSteps})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := s.Summarize(w.Prov)
		if err != nil {
			t.Fatal(err)
		}
		checkIdle(t, est, "Summarize")
		if _, err := s.Extend(context.Background(), w.Prov, core.GroupsFromSteps(sum.Steps)); err != nil {
			t.Fatal(err)
		}
		checkIdle(t, est, "Extend")
		rnd, err := baseline.NewRandom(baseline.Config{Policy: w.Policy, Estimator: est, MaxSteps: 4}, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rnd.Summarize(w.Prov); err != nil {
			t.Fatal(err)
		}
		checkIdle(t, est, "a baseline run")

		d := statsDelta(est.Stats(), before)
		wantResets := uint64(3)
		if round == 0 {
			wantResets = 2
		}
		if d.CacheResets != wantResets {
			t.Fatalf("round %d: CacheResets moved by %d, want %d", round, d.CacheResets, wantResets)
		}
		d.CacheResets = 0
		if round == 0 {
			first = d
		} else if d != first {
			t.Fatalf("round %d moved the counters by\n%+v\nthe first round by\n%+v", round, d, first)
		}
	}
	if first.MergePatches == 0 || first.DeltaCalls == 0 || first.CacheHits == 0 {
		t.Fatalf("the runs did not score on carried plans: %+v", first)
	}
}

// checkIdle fails the test when the estimator holds anything beyond its
// configuration (exported fields), counters and pooled scratch (struct
// fields).
func checkIdle(t *testing.T, est *distance.Estimator, after string) {
	t.Helper()
	v := reflect.ValueOf(est).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, sf := v.Field(i), v.Type().Field(i)
		if sf.IsExported() || f.Kind() == reflect.Struct {
			continue
		}
		if !f.IsZero() {
			t.Fatalf("after %s the estimator still holds its %s", after, sf.Name)
		}
	}
}

// statsDelta is after − before with the wall-clock fields zeroed.
func statsDelta(after, before distance.Stats) distance.Stats {
	return distance.Stats{
		Evaluations:       after.Evaluations - before.Evaluations,
		CacheHits:         after.CacheHits - before.CacheHits,
		CacheMisses:       after.CacheMisses - before.CacheMisses,
		CacheResets:       after.CacheResets - before.CacheResets,
		Samples:           after.Samples - before.Samples,
		DistanceCalls:     after.DistanceCalls - before.DistanceCalls,
		DeltaCalls:        after.DeltaCalls - before.DeltaCalls,
		DeltaCandidates:   after.DeltaCandidates - before.DeltaCandidates,
		DeltaSkips:        after.DeltaSkips - before.DeltaSkips,
		DeltaSubtreeEvals: after.DeltaSubtreeEvals - before.DeltaSubtreeEvals,
		DeltaFullEvals:    after.DeltaFullEvals - before.DeltaFullEvals,
		MergePatches:      after.MergePatches - before.MergePatches,
		MergeRecompiles:   after.MergeRecompiles - before.MergeRecompiles,
		ProbesCarried:     after.ProbesCarried - before.ProbesCarried,
		ProbesBuilt:       after.ProbesBuilt - before.ProbesBuilt,
	}
}
