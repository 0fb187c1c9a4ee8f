// External test package: the warm-start tests run real seeded MovieLens
// workloads from internal/datasets, like the determinism matrix.
package core_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/distance"
	"repro/internal/provenance"
	"repro/internal/valuation"
)

// TestExtendEmptyPriorMatchesSummarize is the warm-start oracle: Extend
// with an empty (or all-singleton) prior must be byte-identical to
// Summarize on every row of the scoring matrix (scoringRows), with exact
// enumeration and with Monte-Carlo sampling alike. Extend delegates to
// the from-scratch path when the seed trace is empty, so any divergence
// here means the delegation (or the singleton filtering in SeedSteps)
// broke. On a refused row both must refuse the input.
func TestExtendEmptyPriorMatchesSummarize(t *testing.T) {
	for _, tc := range scoringRows {
		t.Run(tc.name, func(t *testing.T) {
			run := func(prior provenance.Groups, extend bool) string {
				w, cfg := checkpointConfig(t, tc)
				s, err := core.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var sum *core.Summary
				if extend {
					sum, err = s.Extend(context.Background(), w.Prov, prior)
				} else {
					sum, err = s.Summarize(w.Prov)
				}
				if tc.refused {
					checkRefused(t, err)
					return ""
				}
				if err != nil {
					t.Fatal(err)
				}
				if extend && sum.ExtendedFrom != 0 {
					t.Fatalf("ExtendedFrom = %d for an empty prior, want 0", sum.ExtendedFrom)
				}
				return mlSummaryKey(t, sum)
			}
			want := run(nil, false)
			if got := run(nil, true); got != want {
				t.Fatalf("Extend(nil prior) diverged from Summarize:\n%s\n--- want ---\n%s", got, want)
			}
			// All-singleton priors contribute no seed steps either.
			w, _ := checkpointConfig(t, tc)
			singles := make(provenance.Groups)
			for _, a := range w.Prov.Annotations() {
				singles[a] = []provenance.Annotation{a}
			}
			if got := run(singles, true); got != want {
				t.Fatalf("Extend(all-singleton prior) diverged from Summarize:\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}

// extendSplit cuts the seeded MovieLens workload into a base expression
// (all tensors but the last few) and the full expression, modeling an
// ingest that extended the stream by under 10%. It returns the workload,
// both expressions and the number of held-back tensors.
func extendSplit(t *testing.T) (*datasets.Workload, *provenance.Agg, *provenance.Agg, int) {
	t.Helper()
	w := movieLens(t)
	full, ok := w.Prov.(*provenance.Agg)
	if !ok {
		t.Fatalf("MovieLens provenance is %T, want *provenance.Agg", w.Prov)
	}
	held := len(full.Tensors) / 12
	if held == 0 {
		held = 1
	}
	base := provenance.NewAgg(full.Agg.Kind, full.Tensors[:len(full.Tensors)-held]...)
	return w, base, full, held
}

// estimatorOver builds an exact-enumeration estimator for a
// sub-expression of the workload (the valuation class must range over
// the sub-expression's annotations, not the full workload's).
func estimatorOver(w *datasets.Workload, p provenance.Expression) *distance.Estimator {
	return &distance.Estimator{
		Class:    valuation.NewCancelSingleAnnotation(p.Annotations()),
		Phi:      provenance.CombineOr,
		VF:       w.VF,
		MaxError: w.MaxError,
	}
}

// TestExtendWarmStartReplaysSeed pins the seeded path end to end:
// summarize a base expression, extend the grown expression from the
// base summary's partition, and require (1) the seed prefix of the
// trace reproduces the prior partition exactly, (2) every prior group
// survives into the final partition (possibly merged further), (3) the
// step budget constrains only the run's own merges, and (4) the
// extended summary's own merges were chosen by a live run (scores
// present), not copied.
func TestExtendWarmStartReplaysSeed(t *testing.T) {
	w, base, full, _ := extendSplit(t)

	sBase, err := core.New(core.Config{
		Policy:    w.Policy,
		Estimator: estimatorOver(w, base),
		WDist:     0.7,
		WSize:     0.3,
		MaxSteps:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	prior, err := sBase.Summarize(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior.Groups) == 0 {
		t.Fatal("base run produced no groups to seed from")
	}

	const maxSteps = 6
	sExt, err := core.New(core.Config{
		Policy:    w.Policy,
		Estimator: estimatorOver(w, full),
		WDist:     0.7,
		WSize:     0.3,
		MaxSteps:  maxSteps,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := sExt.Extend(context.Background(), full, prior.Groups)
	if err != nil {
		t.Fatal(err)
	}

	seed := core.SeedSteps(prior.Groups)
	if sum.ExtendedFrom != len(seed) {
		t.Fatalf("ExtendedFrom = %d, want %d seed steps", sum.ExtendedFrom, len(seed))
	}
	if len(sum.Steps) < len(seed) {
		t.Fatalf("trace has %d steps, shorter than the %d-step seed", len(sum.Steps), len(seed))
	}
	for i, want := range seed {
		got := sum.Steps[i]
		if got.New != want.New || fmt.Sprint(got.Members) != fmt.Sprint(want.Members) {
			t.Fatalf("seed step %d replayed as %v->%s, want %v->%s",
				i, got.Members, got.New, want.Members, want.New)
		}
	}
	if own := len(sum.Steps) - sum.ExtendedFrom; own > maxSteps {
		t.Fatalf("run committed %d own merges past a MaxSteps=%d budget", own, maxSteps)
	}

	// Every prior group must land intact inside one final group.
	dest := make(map[provenance.Annotation]provenance.Annotation)
	for name, ms := range sum.Groups {
		for _, m := range ms {
			dest[m] = name
		}
	}
	for name, ms := range prior.Groups {
		first, ok := dest[ms[0]]
		if !ok {
			t.Fatalf("prior group %s: member %s is a singleton in the extended summary", name, ms[0])
		}
		for _, m := range ms[1:] {
			if dest[m] != first {
				t.Fatalf("prior group %s split: %s in %s, %s in %s", name, ms[0], first, m, dest[m])
			}
		}
	}

	// The cumulative partition the trace rebuilds must agree with the
	// summary's own Groups view, minus the singletons GroupsFromSteps
	// leaves implicit (this is what version records persist).
	merged := make(provenance.Groups)
	for name, ms := range sum.Groups {
		if len(ms) >= 2 {
			merged[name] = ms
		}
	}
	rebuilt := core.GroupsFromSteps(sum.Steps)
	if fmt.Sprint(rebuilt) != fmt.Sprint(merged) {
		t.Fatalf("GroupsFromSteps diverged from Summary.Groups:\n%v\n--- want ---\n%v", rebuilt, merged)
	}
}

// TestExtendCheckpointResumeIdentical extends the resume determinism
// guarantee to seeded runs: a warm-started Extend checkpointed after
// every step and resumed from each snapshot — in a fresh summarizer, as
// after a process restart — must reproduce the uninterrupted extended
// run byte-identically, including from checkpoints that still sit
// inside the seed prefix.
func TestExtendCheckpointResumeIdentical(t *testing.T) {
	w, base, full, _ := extendSplit(t)
	sBase, err := core.New(core.Config{
		Policy:    w.Policy,
		Estimator: estimatorOver(w, base),
		WDist:     0.7,
		WSize:     0.3,
		MaxSteps:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	prior, err := sBase.Summarize(base)
	if err != nil {
		t.Fatal(err)
	}

	var cps []core.Checkpoint
	cfg := core.Config{
		Policy:          w.Policy,
		Estimator:       estimatorOver(w, full),
		WDist:           0.7,
		WSize:           0.3,
		MaxSteps:        6,
		CheckpointEvery: 1,
		CheckpointSink: func(cp core.Checkpoint) error {
			cps = append(cps, cp)
			return nil
		},
	}
	s, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Extend(context.Background(), full, prior.Groups)
	if err != nil {
		t.Fatal(err)
	}
	want := mlSummaryKey(t, sum)
	if len(cps) == 0 {
		t.Fatal("seeded run emitted no checkpoints")
	}
	if cps[0].Step != sum.ExtendedFrom {
		t.Fatalf("first checkpoint at step %d, want %d (post-seed snapshot)", cps[0].Step, sum.ExtendedFrom)
	}
	for _, cp := range cps {
		if cp.ExtendFrom != sum.ExtendedFrom {
			t.Fatalf("checkpoint at step %d carries ExtendFrom=%d, want %d", cp.Step, cp.ExtendFrom, sum.ExtendedFrom)
		}
	}

	for _, cp := range cps {
		cp := cp
		t.Run(fmt.Sprintf("resume-at-%d", cp.Step), func(t *testing.T) {
			// Fresh workload, estimator and summarizer, as after a process
			// restart. Merge-name disambiguation (#N suffixes) depends on
			// the universe's registered names, so the restart must replay
			// the base run's registrations before resuming — exactly what
			// the server does by rebuilding journaled summaries (which
			// registers every trace step's name) before requeueing
			// interrupted jobs.
			w2, base2, full2, _ := extendSplit(t)
			sBase2, err := core.New(core.Config{
				Policy:    w2.Policy,
				Estimator: estimatorOver(w2, base2),
				WDist:     0.7,
				WSize:     0.3,
				MaxSteps:  4,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sBase2.Summarize(base2); err != nil {
				t.Fatal(err)
			}
			s2, err := core.New(core.Config{
				Policy:    w2.Policy,
				Estimator: estimatorOver(w2, full2),
				WDist:     0.7,
				WSize:     0.3,
				MaxSteps:  6,
			})
			if err != nil {
				t.Fatal(err)
			}
			sum2, err := s2.Resume(context.Background(), full2, &cp)
			if err != nil {
				t.Fatal(err)
			}
			if sum2.ExtendedFrom != sum.ExtendedFrom {
				t.Fatalf("resumed ExtendedFrom = %d, want %d", sum2.ExtendedFrom, sum.ExtendedFrom)
			}
			if got := mlSummaryKey(t, sum2); got != want {
				t.Fatalf("resume at step %d diverged:\n%s\n--- want ---\n%s", cp.Step, got, want)
			}
		})
	}
}

// TestSeedStepsCanonical pins the seed-trace canonicalization warm-start
// cache keys depend on: group iteration order must not leak into the
// trace, singletons contribute nothing, and GroupsFromSteps inverts
// SeedSteps.
func TestSeedStepsCanonical(t *testing.T) {
	prior := provenance.Groups{
		"g2": {"c", "a"},
		"g1": {"z", "y", "x"},
		"s":  {"only"},
	}
	steps := core.SeedSteps(prior)
	if len(steps) != 2 {
		t.Fatalf("got %d seed steps, want 2 (singleton must be dropped)", len(steps))
	}
	if steps[0].New != "g1" || steps[1].New != "g2" {
		t.Fatalf("seed steps out of name order: %s, %s", steps[0].New, steps[1].New)
	}
	if fmt.Sprint(steps[0].Members) != "[x y z]" || fmt.Sprint(steps[1].Members) != "[a c]" {
		t.Fatalf("seed members not sorted: %v, %v", steps[0].Members, steps[1].Members)
	}
	back := core.GroupsFromSteps(steps)
	if len(back) != 2 || fmt.Sprint(back["g1"]) != "[x y z]" || fmt.Sprint(back["g2"]) != "[a c]" {
		t.Fatalf("GroupsFromSteps did not invert SeedSteps: %v", back)
	}
}
