// External test package: the seeded-dataset determinism tests need
// internal/datasets, which depends on core via the baselines, so they
// cannot live in package core.
package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/provenance"
)

func movieLens(t *testing.T) *datasets.Workload {
	t.Helper()
	cfg := datasets.DefaultMovieLensConfig()
	cfg.Users = 14
	cfg.Movies = 6
	return datasets.MovieLens(cfg, rand.New(rand.NewSource(9)))
}

func mlSummaryKey(t *testing.T, sum *core.Summary) string {
	t.Helper()
	if len(sum.Steps) == 0 {
		t.Fatal("workload produced no merges")
	}
	var b strings.Builder
	for _, st := range sum.Steps {
		fmt.Fprintf(&b, "%v->%s score=%b dist=%b size=%d\n", st.Members, st.New, st.Score, st.Dist, st.Size)
	}
	fmt.Fprintf(&b, "dist=%b stop=%s expr=%s", sum.Dist, sum.StopReason, sum.Expr)
	return b.String()
}

// TestMovieLensScoringModesIdentical runs the same seeded MovieLens
// workload through every scoring layout — candidate-major sequential,
// materialized batch (FullEvalScoring), and the default incremental
// delta engine, each at Parallelism 1 and 4 — and requires byte-identical
// summaries: same merges, bit-identical scores and distances, same
// rendered expression. The delta runs must actually exercise the delta
// engine (counters move), not silently fall back.
func TestMovieLensScoringModesIdentical(t *testing.T) {
	run := func(seqScoring, fullEval, legacy, scalar bool, workers int, wantDelta bool) string {
		w := movieLens(t)
		est := w.Estimator(datasets.CancelSingleAnnotation)
		s, err := core.New(core.Config{
			Policy:            w.Policy,
			Estimator:         est,
			WDist:             0.7,
			WSize:             0.3,
			MaxSteps:          6,
			SequentialScoring: seqScoring,
			FullEvalScoring:   fullEval,
			LegacyEval:        legacy,
			ScalarEval:        scalar,
			Parallelism:       workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := s.Summarize(w.Prov)
		if err != nil {
			t.Fatal(err)
		}
		st := est.Stats()
		if wantDelta && st.DeltaCalls == 0 {
			t.Fatal("delta-mode run never reached the delta engine")
		}
		if !wantDelta && st.DeltaCalls != 0 {
			t.Fatalf("non-delta run made %d delta calls", st.DeltaCalls)
		}
		if wantDelta && st.DeltaSkips == 0 {
			t.Fatal("delta-mode run never short-circuited a truth-stable pair")
		}
		return mlSummaryKey(t, sum)
	}
	want := run(true, false, false, false, 1, false)
	for _, tc := range []struct {
		name                      string
		seq, full, legacy, scalar bool
		workers                   int
	}{
		{"sequential-parallel", true, false, false, false, 4},
		{"full-eval-batch", false, true, false, false, 1},
		{"full-eval-batch-parallel", false, true, false, false, 4},
		{"delta", false, false, false, false, 1},
		{"delta-parallel", false, false, false, false, 4},
		// LegacyEval disables the arena evaluators (and the delta path):
		// the recursive reference must reproduce the arena runs
		// byte-for-byte, in both remaining scoring layouts.
		{"legacy-sequential", true, false, true, false, 1},
		{"legacy-sequential-parallel", true, false, true, false, 4},
		{"legacy-batch", false, false, true, false, 1},
		{"legacy-batch-parallel", false, false, true, false, 4},
		{"legacy-full-eval-batch", false, true, true, false, 1},
		// ScalarEval disables only the valuation-blocked kernel: every
		// scoring layout falls back to per-valuation arena evaluation
		// and must reproduce the blocked runs byte-for-byte.
		{"scalar-sequential", true, false, false, true, 1},
		{"scalar-sequential-parallel", true, false, false, true, 4},
		{"scalar-full-eval-batch", false, true, false, true, 1},
		{"scalar-full-eval-batch-parallel", false, true, false, true, 4},
		{"scalar-delta", false, false, false, true, 1},
		{"scalar-delta-parallel", false, false, false, true, 4},
	} {
		wantDelta := !tc.seq && !tc.full && !tc.legacy
		if got := run(tc.seq, tc.full, tc.legacy, tc.scalar, tc.workers, wantDelta); got != want {
			t.Fatalf("%s diverged from candidate-major sequential:\n%s\n--- want ---\n%s", tc.name, got, want)
		}
	}
}

// TestMovieLensMergePatchEquivalence is the acceptance test for
// Plan.ApplyMerge: a full seeded MovieLens run with in-place merge
// patching (the default) must be byte-identical to the same run with
// NoMergePatch forcing a plan recompile after every commit — and the
// default run must actually patch (MergePatches moves). Some commits
// may still recompile by design: ApplyMerge bails when the patch would
// be unsound or leave the arena more than half dead.
func TestMovieLensMergePatchEquivalence(t *testing.T) {
	run := func(noPatch bool, workers int) (string, uint64, uint64) {
		w := movieLens(t)
		est := w.Estimator(datasets.CancelSingleAnnotation)
		est.NoMergePatch = noPatch
		s, err := core.New(core.Config{
			Policy:      w.Policy,
			Estimator:   est,
			WDist:       0.7,
			WSize:       0.3,
			MaxSteps:    6,
			Parallelism: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := s.Summarize(w.Prov)
		if err != nil {
			t.Fatal(err)
		}
		st := est.Stats()
		return mlSummaryKey(t, sum), st.MergePatches, st.MergeRecompiles
	}
	want, patches, _ := run(false, 1)
	if patches == 0 {
		t.Fatal("default run never patched a plan in place")
	}
	got, patches, recompiles := run(true, 1)
	if got != want {
		t.Fatalf("recompile-per-step run diverged from patched run:\n%s\n--- want ---\n%s", got, want)
	}
	if patches != 0 || recompiles == 0 {
		t.Fatalf("NoMergePatch run: patches=%d recompiles=%d, want 0/>0", patches, recompiles)
	}
	if got, _, _ := run(false, 4); got != want {
		t.Fatalf("patched parallel run diverged:\n%s\n--- want ---\n%s", got, want)
	}
}

// TestMovieLensSampledParallelIdentical is the sampling half of the
// acceptance criterion on a real workload: Samples > 0 with
// Parallelism > 1 must reproduce the sequential run byte-identically
// given the same seed, because each step's sample set is drawn once
// before the candidate fan-out — on the default delta path and on the
// materialized batch path alike.
func TestMovieLensSampledParallelIdentical(t *testing.T) {
	run := func(fullEval, legacy bool, workers int) string {
		w := movieLens(t)
		est := w.Estimator(datasets.CancelSingleAnnotation)
		est.Samples = 8
		est.Rand = rand.New(rand.NewSource(21))
		s, err := core.New(core.Config{
			Policy:          w.Policy,
			Estimator:       est,
			WDist:           0.7,
			WSize:           0.3,
			MaxSteps:        5,
			FullEvalScoring: fullEval,
			LegacyEval:      legacy,
			Parallelism:     workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := s.Summarize(w.Prov)
		if err != nil {
			t.Fatal(err)
		}
		return mlSummaryKey(t, sum)
	}
	want := run(false, false, 1)
	for _, workers := range []int{2, 6} {
		if got := run(false, false, workers); got != want {
			t.Fatalf("delta workers=%d diverged from sequential sampled run:\n%s\n--- want ---\n%s", workers, got, want)
		}
	}
	for _, workers := range []int{1, 6} {
		if got := run(true, false, workers); got != want {
			t.Fatalf("full-eval workers=%d diverged from delta sampled run:\n%s\n--- want ---\n%s", workers, got, want)
		}
	}
	for _, workers := range []int{1, 6} {
		if got := run(false, true, workers); got != want {
			t.Fatalf("legacy-eval workers=%d diverged from delta sampled run:\n%s\n--- want ---\n%s", workers, got, want)
		}
	}
}

func ddpWorkload(t *testing.T) *datasets.Workload {
	t.Helper()
	return datasets.DDP(datasets.DefaultDDPConfig(), rand.New(rand.NewSource(13)))
}

// ddpScoringMode is one row of the DDP determinism matrix.
type ddpScoringMode struct {
	name             string
	seq, full, delta bool
	workers, samples int
}

// runDDP summarizes (or, with prior groups, extends) the seeded DDP
// workload under one scoring mode and returns the summary key. A delta
// mode must score every cohort on the DDP block plan: no DistanceBatch
// fallback at all.
func runDDP(t *testing.T, m ddpScoringMode, prior provenance.Groups) string {
	t.Helper()
	w := ddpWorkload(t)
	est := w.Estimator(datasets.CancelSingleAttribute)
	if m.samples > 0 {
		est.Samples = m.samples
		est.Rand = rand.New(rand.NewSource(5))
	}
	s, err := core.New(core.Config{
		Policy:            w.Policy,
		Estimator:         est,
		WDist:             0.5,
		WSize:             0.5,
		MaxSteps:          8,
		SequentialScoring: m.seq,
		FullEvalScoring:   m.full,
		Parallelism:       m.workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum *core.Summary
	if prior != nil {
		sum, err = s.Extend(context.Background(), w.Prov, prior)
	} else {
		sum, err = s.Summarize(w.Prov)
	}
	if err != nil {
		t.Fatal(err)
	}
	st := est.Stats()
	if m.delta && (st.BatchCalls != 0 || st.DeltaCalls == 0 || st.DeltaSkips == 0) {
		t.Fatalf("%s: DDP run fell back to batch scoring: BatchCalls=%d DeltaCalls=%d DeltaSkips=%d", m.name, st.BatchCalls, st.DeltaCalls, st.DeltaSkips)
	}
	if !m.delta && st.DeltaCalls != 0 {
		t.Fatalf("%s: non-delta run made %d delta calls", m.name, st.DeltaCalls)
	}
	return mlSummaryKey(t, sum)
}

// TestDDPScoringModesIdentical is the determinism matrix's DDP row: the
// seeded DDP workload summarized under the default delta engine (the
// tropical block plan), materialized batch scoring (FullEvalScoring) and
// candidate-major SequentialScoring, at Parallelism 1 and 2, must give
// byte-identical summaries — and so must the sampling-mode runs among
// themselves, and an Extend run warm-started from a prior summary's
// groups. The default runs must never fall back to DistanceBatch.
func TestDDPScoringModesIdentical(t *testing.T) {
	check := func(rows []ddpScoringMode, prior provenance.Groups) {
		t.Helper()
		want := runDDP(t, rows[0], prior)
		for _, m := range rows[1:] {
			if got := runDDP(t, m, prior); got != want {
				t.Fatalf("%s diverged from %s:\n%s\n--- want ---\n%s", m.name, rows[0].name, got, want)
			}
		}
	}
	check([]ddpScoringMode{
		{name: "delta", delta: true, workers: 1},
		{name: "delta-parallel", delta: true, workers: 2},
		{name: "full-eval-batch", full: true, workers: 1},
		{name: "full-eval-batch-parallel", full: true, workers: 2},
		{name: "sequential", seq: true, workers: 1},
		{name: "sequential-parallel", seq: true, workers: 2},
	}, nil)
	check([]ddpScoringMode{
		{name: "sampled-delta", delta: true, workers: 1, samples: 80},
		{name: "sampled-delta-parallel", delta: true, workers: 2, samples: 80},
		{name: "sampled-full-eval-batch", full: true, workers: 1, samples: 80},
		{name: "sampled-full-eval-batch-parallel", full: true, workers: 2, samples: 80},
	}, nil)

	// Extend: warm-start from the groups of a short default run.
	w := ddpWorkload(t)
	s, err := core.New(core.Config{Policy: w.Policy, Estimator: w.Estimator(datasets.CancelSingleAttribute), WDist: 0.5, WSize: 0.5, MaxSteps: 3})
	if err != nil {
		t.Fatal(err)
	}
	prior, err := s.Summarize(w.Prov)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior.Groups) == 0 {
		t.Fatal("prior run produced no groups")
	}
	check([]ddpScoringMode{
		{name: "extend-delta", delta: true, workers: 1},
		{name: "extend-delta-parallel", delta: true, workers: 2},
		{name: "extend-full-eval-batch", full: true, workers: 1},
		{name: "extend-sequential", seq: true, workers: 1},
	}, prior.Groups)
}
