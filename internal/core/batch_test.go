package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/constraints"
	"repro/internal/distance"
	"repro/internal/provenance"
	"repro/internal/valuation"
)

// sumFixture builds a SUM aggregation over four same-gender users with
// distinct values, so every merge has a small positive distance — the
// shape needed to exercise the TARGET-DIST rollback interactions.
func sumFixture() (*provenance.Agg, *constraints.Policy, *distance.Estimator) {
	u := provenance.NewUniverse()
	anns := []provenance.Annotation{"A", "B", "C", "D"}
	vals := []float64{1, 2, 4, 8}
	tensors := make([]provenance.Tensor, len(anns))
	for i, a := range anns {
		u.Add(a, "users", provenance.Attrs{"gender": "F"})
		tensors[i] = provenance.Tensor{Prov: provenance.V(a), Value: vals[i], Count: 1, Group: ""}
	}
	pol := constraints.NewPolicy(u, constraints.SameTable(), constraints.SharedAttr("gender"))
	est := &distance.Estimator{
		Class:    valuation.NewCancelSingleAnnotation(anns),
		Phi:      provenance.CombineOr,
		VF:       distance.Euclidean(),
		MaxError: 15, // sum of all values: normalizes distances into [0,1]
	}
	return provenance.NewAgg(provenance.AggSum, tensors...), pol, est
}

// TestRollbackOverridesTargetSizeStopReason: the loop stops because the
// merge reached TARGET-SIZE, but that same merge exceeds the distance
// bound, so the post-loop rollback retracts it — and StopReason must
// follow the retraction, not the loop's exit test, or StopReason,
// Expr.Size() and Dist would be mutually inconsistent.
func TestRollbackOverridesTargetSizeStopReason(t *testing.T) {
	p0, pol, est := sumFixture()
	s, err := New(Config{
		Policy: pol, Estimator: est, WSize: 1,
		TargetSize: p0.Size() - 1, TargetDist: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Summarize(p0)
	if err != nil {
		t.Fatal(err)
	}
	if sum.StopReason != "target-dist" {
		t.Fatalf("StopReason = %q, want target-dist after rollback", sum.StopReason)
	}
	if len(sum.Steps) != 0 {
		t.Fatalf("retracted merge still in trace: %v", sum.Steps)
	}
	if sum.Expr.Size() != p0.Size() {
		t.Fatalf("size = %d, want the pre-merge %d", sum.Expr.Size(), p0.Size())
	}
	if sum.Dist >= 0.001 {
		t.Fatalf("Dist = %g, want < bound after rollback", sum.Dist)
	}
}

// TestRollbackAfterTargetDistStop: the loop itself stops on TARGET-DIST
// and the rollback retracts the offending merge; StopReason stays
// "target-dist" and the returned state is the last one within the bound.
func TestRollbackAfterTargetDistStop(t *testing.T) {
	p0, pol, est := sumFixture()
	s, err := New(Config{
		Policy: pol, Estimator: est, WSize: 1,
		TargetSize: 1, TargetDist: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Summarize(p0)
	if err != nil {
		t.Fatal(err)
	}
	if sum.StopReason != "target-dist" {
		t.Fatalf("StopReason = %q, want target-dist", sum.StopReason)
	}
	if len(sum.Steps) != 0 || sum.Expr.Size() != p0.Size() {
		t.Fatalf("rollback must retract the only merge: steps=%d size=%d", len(sum.Steps), sum.Expr.Size())
	}
	if sum.Dist >= 0.001 {
		t.Fatalf("Dist = %g, want < bound", sum.Dist)
	}
}

// TestTargetSizeWithinDistBoundKeepsReason: when the distance bound is in
// force but not exceeded, reaching TARGET-SIZE must not trigger the
// rollback and the reason stays "target-size".
func TestTargetSizeWithinDistBoundKeepsReason(t *testing.T) {
	p0, pol, est := sumFixture()
	s, err := New(Config{
		Policy: pol, Estimator: est, WSize: 1,
		TargetSize: p0.Size() - 1, TargetDist: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Summarize(p0)
	if err != nil {
		t.Fatal(err)
	}
	if sum.StopReason != "target-size" {
		t.Fatalf("StopReason = %q, want target-size", sum.StopReason)
	}
	if len(sum.Steps) != 1 {
		t.Fatalf("steps = %d, want 1", len(sum.Steps))
	}
	if sum.Dist >= 0.9 || sum.Dist <= 0 {
		t.Fatalf("Dist = %g, want in (0, 0.9)", sum.Dist)
	}
}

// TestSamplingRequiresRand: an estimator with Samples > 0 and no Rand
// used to nil-pointer-panic inside Class.Sample on the first Distance
// call; core.New must reject it up front with a descriptive error.
func TestSamplingRequiresRand(t *testing.T) {
	p0, pol, est := sumFixture()
	est.Samples = 10
	_, err := New(Config{Policy: pol, Estimator: est, WDist: 1})
	if err == nil {
		t.Fatal("Samples > 0 without Rand must be rejected")
	}
	if !strings.Contains(err.Error(), "Rand") {
		t.Fatalf("error %q does not name the missing field", err)
	}
	est.Rand = rand.New(rand.NewSource(1))
	s, err := New(Config{Policy: pol, Estimator: est, WDist: 1, MaxSteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Summarize(p0); err != nil {
		t.Fatal(err)
	}
}

// summaryKey renders the parts of a Summary that must agree across
// scoring paths, with float bit patterns (%b) so the comparison is
// byte-identical, not approximate.
func summaryKey(sum *Summary) string {
	var b strings.Builder
	for _, st := range sum.Steps {
		fmt.Fprintf(&b, "%v->%s score=%b dist=%b size=%d\n", st.Members, st.New, st.Score, st.Dist, st.Size)
	}
	fmt.Fprintf(&b, "dist=%b stop=%s expr=%s", sum.Dist, sum.StopReason, sum.Expr)
	return b.String()
}

// TestCohortMatchesCandidateMajorScoring: the summarizer's cohort scoring
// must choose the summary candidate-major reference scoring chooses —
// every step's merge a minimal-score pair when each candidate is
// materialized and scored alone by refDistance, with bit-identical
// distances (same summands, same addition order) — at Parallelism 1
// and 4.
func TestCohortMatchesCandidateMajorScoring(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p0, pol, est := bigFixture()
		est.Parallelism = workers
		cfg := Config{Policy: pol, Estimator: est, WDist: 0.6, WSize: 0.4, MaxSteps: 4}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := s.Summarize(p0)
		if err != nil {
			t.Fatal(err)
		}
		if len(sum.Steps) == 0 {
			t.Fatal("fixture produced no merges")
		}
		checkStepsByRef(t, cfg, p0, sum, est.Class.Valuations)
	}
}

// TestParallelSamplingDeterministic pins the acceptance criterion for
// common random numbers: with Samples > 0 the cohort sweep draws one
// shared sample set per step before any candidate work, so the same seed
// yields byte-identical summaries at any Parallelism.
func TestParallelSamplingDeterministic(t *testing.T) {
	run := func(workers int) string {
		p0, pol, est := bigFixture()
		est.Samples = 16
		est.Rand = rand.New(rand.NewSource(11))
		est.Parallelism = workers
		s, err := New(Config{
			Policy: pol, Estimator: est, WDist: 0.6, WSize: 0.4,
			MaxSteps: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := s.Summarize(p0)
		if err != nil {
			t.Fatal(err)
		}
		if len(sum.Steps) == 0 {
			t.Fatal("fixture produced no merges")
		}
		return summaryKey(sum)
	}
	want := run(1)
	for _, workers := range []int{2, 4, 8} {
		if got := run(workers); got != want {
			t.Fatalf("workers=%d diverged:\n%s\n--- want ---\n%s", workers, got, want)
		}
	}
}

// TestParallelCandidateTimeNotInflated is the regression test for the
// CandidateTime accounting: a parallel sweep must add its wall time, not
// the summed lifetimes of its workers (a since-removed candidate-major
// pool once counted workers idling on its work channel, so CandidateTime
// came out near workers × wall time). With GOMAXPROCS pinned to 1 the
// scoring time cannot exceed the run's wall time, so CandidateTime must
// stay within a small factor of Elapsed.
func TestParallelCandidateTimeNotInflated(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p0, pol, est := bigFixture()
	inner := est.VF
	est.VF = distance.ValFunc{Name: "slow", F: func(v provenance.Valuation, orig, summ provenance.Result) float64 {
		x := 0.0
		for i := 0; i < 20000; i++ {
			x += float64(i % 7)
		}
		if x < 0 {
			t.Error("unreachable")
		}
		return inner.F(v, orig, summ)
	}}
	est.Parallelism = 8
	s, err := New(Config{Policy: pol, Estimator: est, WDist: 1, MaxSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Summarize(p0)
	if err != nil {
		t.Fatal(err)
	}
	if sum.CandidateTime <= 0 {
		t.Fatal("CandidateTime not recorded")
	}
	if sum.CandidateTime > 2*sum.Elapsed {
		t.Fatalf("CandidateTime %v > 2 × Elapsed %v: parallel accounting counts worker idle time",
			sum.CandidateTime, sum.Elapsed)
	}
}

// TestGroupEquivalentSkipsPartiallyMergeable: an equivalence class whose
// members are not pairwise mergeable must be skipped entirely by the
// Prop. 4.2.1 pre-step — even its mergeable sub-pairs — so semantic
// constraints are never violated by the free merges.
func TestGroupEquivalentSkipsPartiallyMergeable(t *testing.T) {
	u := provenance.NewUniverse()
	u.Add("a", "users", provenance.Attrs{"gender": "F"})
	u.Add("b", "users", provenance.Attrs{"gender": "F"})
	u.Add("c", "pages", nil)
	p0 := provenance.NewAgg(provenance.AggSum,
		provenance.Tensor{Prov: provenance.V("a"), Value: 1, Count: 1, Group: ""},
		provenance.Tensor{Prov: provenance.V("b"), Value: 2, Count: 1, Group: ""},
		provenance.Tensor{Prov: provenance.V("c"), Value: 4, Count: 1, Group: ""},
	)
	// One valuation cancelling all three: a, b, c form a single
	// equivalence class, but c (table "pages") may not merge with a or b
	// (table "users").
	class := &valuation.Explicit{Vals: []provenance.Valuation{
		provenance.CancelSet("cancel abc", "a", "b", "c"),
	}}
	est := &distance.Estimator{Class: class, Phi: provenance.CombineOr, VF: distance.Euclidean()}
	pol := constraints.NewPolicy(u, constraints.SameTable(), constraints.SharedAttr("gender"))
	s, err := New(Config{Policy: pol, Estimator: est, WDist: 1, TargetSize: p0.Size()})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Summarize(p0)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []provenance.Annotation{"a", "b", "c"} {
		if sum.Mapping.Rename(a) != a {
			t.Fatalf("pre-step merged %s from a partially-mergeable class: %v", a, sum.Mapping.Pairs())
		}
	}
	if len(sum.Steps) != 0 {
		t.Fatalf("unexpected scored merges: %v", sum.Steps)
	}
}
