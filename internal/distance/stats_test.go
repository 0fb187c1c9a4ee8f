package distance

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/provenance"
	"repro/internal/valuation"
)

func TestStatsCountsCacheAndEvaluations(t *testing.T) {
	p0 := matchPoint()
	h := provenance.MergeMapping("Audience", "U1", "U3")
	pc := p0.Apply(h)
	groups := provenance.GroupsOf(p0.Annotations(), h)
	class := valuation.NewCancelSingleAnnotation([]provenance.Annotation{"U1", "U2", "U3"})
	e := estimator(class, AbsDiff(nil))

	e.Distance(p0, pc, h, groups)
	st := e.Stats()
	if st.DistanceCalls != 1 {
		t.Fatalf("DistanceCalls = %d, want 1", st.DistanceCalls)
	}
	if st.Evaluations != 3 {
		t.Fatalf("Evaluations = %d, want 3 (one per class valuation)", st.Evaluations)
	}
	if st.CacheMisses != 3 || st.CacheHits != 0 {
		t.Fatalf("cold run hits/misses = %d/%d, want 0/3", st.CacheHits, st.CacheMisses)
	}

	// A second Distance over the same original reuses every evaluation.
	e.Distance(p0, pc, h, groups)
	st = e.Stats()
	if st.CacheHits != 3 || st.CacheMisses != 3 {
		t.Fatalf("warm run hits/misses = %d/%d, want 3/3", st.CacheHits, st.CacheMisses)
	}
	if st.DistanceTime <= 0 {
		t.Fatalf("DistanceTime = %v, want > 0", st.DistanceTime)
	}

	if e.Stats().CacheResets != 0 {
		t.Fatalf("resets = %d before any reset", e.Stats().CacheResets)
	}
	// A run begun after the first is a reset, and drops the run the
	// one-shot Distance kept: its next call evaluates the original again.
	e.Begin(p0)
	if got := e.Stats().CacheResets; got != 1 {
		t.Fatalf("CacheResets = %d, want 1", got)
	}
	e.Distance(p0, pc, h, groups)
	if st = e.Stats(); st.CacheResets != 2 || st.CacheMisses != 6 || st.CacheHits != 3 {
		t.Fatalf("after Begin: resets/misses/hits = %d/%d/%d, want 2/6/3", st.CacheResets, st.CacheMisses, st.CacheHits)
	}
}

// TestPrewarmMakesParallelLookupsHits pins the contract the parallel
// sweeps rely on: the original-expression cache is consulted once per
// valuation, on the calling goroutine, before the cohort fans out — so
// workers never touch it. A cold parallel sweep misses exactly once per
// valuation and a warm one only hits, however many candidates and
// workers share it (run under -race to check the workers stay off the
// cache).
func TestPrewarmMakesParallelLookupsHits(t *testing.T) {
	p0, anns, base, sets, _ := deltaFixture(8)
	e := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
	e.Parallelism = 4
	vals := uint64(len(e.Class.Valuations()))
	run := e.Begin(p0)
	sweep := func() {
		t.Helper()
		if _, _, err := run.DistanceDelta(p0, provenance.NewMapping(), base, sets, "Z"); err != nil {
			t.Fatal(err)
		}
	}

	sweep()
	st := e.Stats()
	if st.CacheMisses != vals || st.CacheHits != 0 {
		t.Fatalf("cold sweep hits/misses = %d/%d, want 0/%d", st.CacheHits, st.CacheMisses, vals)
	}
	sweep()
	st = e.Stats()
	if st.CacheMisses != vals {
		t.Fatalf("warm sweeps missed: misses = %d, want %d", st.CacheMisses, vals)
	}
	if st.CacheHits == 0 {
		t.Fatal("warm sweeps never hit the cache")
	}
}

func TestStatsCountsSamples(t *testing.T) {
	p0 := matchPoint()
	h := provenance.MergeMapping("Audience", "U1", "U3")
	pc := p0.Apply(h)
	groups := provenance.GroupsOf(p0.Annotations(), h)
	class := valuation.NewCancelSingleAnnotation([]provenance.Annotation{"U1", "U2", "U3"})
	e := estimator(class, AbsDiff(nil))
	e.Samples = 17
	e.Rand = rand.New(rand.NewSource(1))

	e.Distance(p0, pc, h, groups)
	st := e.Stats()
	if st.Samples != 17 {
		t.Fatalf("Samples = %d, want 17", st.Samples)
	}
	if st.Evaluations != 17 {
		t.Fatalf("Evaluations = %d, want 17", st.Evaluations)
	}
}

// TestDistanceRouting pins where Distance's work goes. On an expression
// that plans, Distance is the delta sweep with no candidate: it counts
// DistanceCalls and one Evaluation per valuation, never a delta or batch
// call, skip or re-evaluation, and it leaves pc's plan cached for the
// step that probes pc's merges next. On one that does not plan (a
// negative constant), it panics naming CheckPlan, which refuses the
// expression, and counts no evaluation.
func TestDistanceRouting(t *testing.T) {
	p0, anns, base, sets, _ := deltaFixture(6)
	h := provenance.MergeMapping("Z", anns[0], anns[1])
	pc := p0.Apply(h)
	e := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
	vals := uint64(len(e.Class.Valuations()))
	e.Distance(p0, pc, h, provenance.GroupsOf(anns, h))
	st := e.Stats()
	if st.DistanceCalls != 1 || st.Evaluations != vals {
		t.Fatalf("DistanceCalls=%d Evaluations=%d, want 1 and %d", st.DistanceCalls, st.Evaluations, vals)
	}
	if st.DeltaCalls != 0 || st.DeltaSkips != 0 || st.DeltaFullEvals != 0 || st.DeltaSubtreeEvals != 0 || st.BatchTime != 0 {
		t.Fatalf("Distance counted as a sweep: %+v", st)
	}
	run := e.last
	if run.plan == nil || run.planFor != pc {
		t.Fatal("Distance did not leave pc's plan cached")
	}
	plan := run.plan
	if _, _, err := run.DistanceDelta(p0, provenance.NewMapping(), base, sets, "Y"); err != nil || run.plan == plan {
		t.Fatal("DistanceDelta on another expression did not replan")
	}

	neg := provenance.NewAgg(provenance.AggSum,
		provenance.Tensor{Prov: provenance.Sum{Terms: []provenance.Expr{provenance.V("a"), provenance.Const{N: -1}}}, Value: 2, Count: 1, Group: "g"},
		provenance.Tensor{Prov: provenance.V("b"), Value: 3, Count: 1, Group: "g"},
	)
	negAnns := neg.Annotations()
	ne := estimator(valuation.NewCancelSingleAnnotation(negAnns), Euclidean())
	id := provenance.NewMapping()
	var pe *PlanError
	if err := ne.Begin(neg).CheckPlan(neg, ""); !errors.As(err, &pe) {
		t.Fatalf("CheckPlan of a negative constant: %v, want a *PlanError", err)
	}
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "CheckPlan") {
				t.Fatalf("Distance on a negative constant: recovered %v, want a panic naming CheckPlan", r)
			}
		}()
		ne.Distance(neg, neg, id, provenance.GroupsOf(negAnns, id))
	}()
	if st := ne.Stats(); st.Evaluations != 0 || st.DeltaCalls != 0 {
		t.Fatalf("refused Distance counted as %+v", st)
	}
}
