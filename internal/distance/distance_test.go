package distance

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/provenance"
	"repro/internal/valuation"
)

// matchPoint is P_s of Example 3.1.1 (MAX aggregation, one movie group).
func matchPoint() *provenance.Agg {
	return provenance.NewAgg(provenance.AggMax,
		provenance.Tensor{Prov: provenance.V("U1"), Value: 3, Count: 1, Group: "MP"},
		provenance.Tensor{Prov: provenance.V("U2"), Value: 5, Count: 1, Group: "MP"},
		provenance.Tensor{Prov: provenance.V("U3"), Value: 3, Count: 1, Group: "MP"},
	)
}

func estimator(class valuation.Class, vf ValFunc) *Estimator {
	return &Estimator{Class: class, Phi: provenance.CombineOr, VF: vf}
}

func TestDistanceZeroForAudienceMerge(t *testing.T) {
	// Example 3.2.3: P''_s = Audience⊗(3,2) ⊕ U2⊗(5,1) is at distance 0
	// from P_s w.r.t. single-cancellation valuations.
	p0 := matchPoint()
	h := provenance.MergeMapping("Audience", "U1", "U3")
	pc := p0.Apply(h)
	groups := provenance.GroupsOf(p0.Annotations(), h)
	class := valuation.NewCancelSingleAnnotation([]provenance.Annotation{"U1", "U2", "U3"})
	e := estimator(class, AbsDiff(nil))
	if d := e.Distance(p0, pc, h, groups); d != 0 {
		t.Fatalf("distance = %g, want 0", d)
	}
}

func TestDistancePositiveForFemaleMerge(t *testing.T) {
	// Example 3.2.3: P'_s = Female⊗(5,2) ⊕ U3⊗(3,1) differs from P_s for
	// the valuation cancelling U2 (orig MAX drops to 3, summary stays 5).
	p0 := matchPoint()
	h := provenance.MergeMapping("Female", "U1", "U2")
	pc := p0.Apply(h)
	groups := provenance.GroupsOf(p0.Annotations(), h)
	class := valuation.NewCancelSingleAnnotation([]provenance.Annotation{"U1", "U2", "U3"})

	e := estimator(class, AbsDiff(nil))
	// only 1 of 3 valuations disagrees, with |5-3| = 2: distance 2/3.
	if d := e.Distance(p0, pc, h, groups); math.Abs(d-2.0/3.0) > 1e-12 {
		t.Fatalf("AbsDiff distance = %g, want 2/3", d)
	}

	e = estimator(class, Disagree(nil))
	if d := e.Distance(p0, pc, h, groups); math.Abs(d-1.0/3.0) > 1e-12 {
		t.Fatalf("Disagree distance = %g, want 1/3", d)
	}

	e = estimator(class, Euclidean())
	if d := e.Distance(p0, pc, h, groups); math.Abs(d-2.0/3.0) > 1e-12 {
		t.Fatalf("Euclidean distance = %g, want 2/3 (single coordinate)", d)
	}
}

func TestDistanceNormalization(t *testing.T) {
	p0 := matchPoint()
	h := provenance.MergeMapping("Female", "U1", "U2")
	pc := p0.Apply(h)
	groups := provenance.GroupsOf(p0.Annotations(), h)
	class := valuation.NewCancelSingleAnnotation([]provenance.Annotation{"U1", "U2", "U3"})
	e := estimator(class, AbsDiff(nil))
	e.MaxError = 5 // max possible rating error
	if d := e.Distance(p0, pc, h, groups); math.Abs(d-2.0/15.0) > 1e-12 {
		t.Fatalf("normalized distance = %g, want 2/15", d)
	}
	e.MaxError = 0.1 // normalization clamps to 1
	if d := e.Distance(p0, pc, h, groups); d != 1 {
		t.Fatalf("clamped distance = %g, want 1", d)
	}
}

func TestDistanceMultiGroupExample423(t *testing.T) {
	// Example 4.2.3: over {cancel single annotation} with Euclidean
	// VAL-FUNC, mapping U1,U3↦Audience has distance 0, mapping
	// U1,U2↦Female has positive distance (the Blue Jasmine review).
	p0 := provenance.NewAgg(provenance.AggMax,
		provenance.Tensor{Prov: provenance.V("U1"), Value: 3, Count: 1, Group: "MP"},
		provenance.Tensor{Prov: provenance.V("U2"), Value: 5, Count: 1, Group: "MP"},
		provenance.Tensor{Prov: provenance.V("U3"), Value: 3, Count: 1, Group: "MP"},
		provenance.Tensor{Prov: provenance.V("U2"), Value: 4, Count: 1, Group: "BJ"},
	)
	class := valuation.NewCancelSingleAnnotation([]provenance.Annotation{"U1", "U2", "U3"})

	hAud := provenance.MergeMapping("Audience", "U1", "U3")
	dAud := estimator(class, Euclidean()).Distance(p0, p0.Apply(hAud), hAud, provenance.GroupsOf(p0.Annotations(), hAud))
	if dAud != 0 {
		t.Fatalf("Audience distance = %g, want 0", dAud)
	}

	hFem := provenance.MergeMapping("Female", "U1", "U2")
	dFem := estimator(class, Euclidean()).Distance(p0, p0.Apply(hFem), hFem, provenance.GroupsOf(p0.Annotations(), hFem))
	if dFem <= 0 {
		t.Fatalf("Female distance = %g, want > 0", dFem)
	}
	if dFem <= dAud {
		t.Fatal("algorithm must prefer the Audience merge")
	}
}

func TestDistanceWithMergedGroupKeys(t *testing.T) {
	// Wikipedia-style: merging page annotations merges vector coordinates;
	// the original vector must be re-aggregated before comparison
	// (Example 5.2.1). Here the summary is exact for the all-true
	// valuation but differs when a user is cancelled.
	p0 := provenance.NewAgg(provenance.AggSum,
		provenance.Tensor{Prov: provenance.P("Dubulge", "CelineDion"), Value: 1, Count: 1, Group: "CelineDion"},
		provenance.Tensor{Prov: provenance.P("Toxin", "Adele"), Value: 0, Count: 1, Group: "Adele"},
	)
	h := provenance.MergeMapping("wn_singer", "CelineDion", "Adele")
	pc := p0.Apply(h)
	groups := provenance.GroupsOf(p0.Annotations(), h)
	class := &valuation.Explicit{Vals: []provenance.Valuation{provenance.AllTrue}}
	d := estimator(class, Euclidean()).Distance(p0, pc, h, groups)
	if d != 0 {
		t.Fatalf("all-true distance = %g, want 0 after vector alignment", d)
	}
}

func TestSamplingApproximatesExact(t *testing.T) {
	p0 := matchPoint()
	h := provenance.MergeMapping("Female", "U1", "U2")
	pc := p0.Apply(h)
	groups := provenance.GroupsOf(p0.Annotations(), h)
	class := valuation.NewCancelSingleAnnotation([]provenance.Annotation{"U1", "U2", "U3"})

	exact := estimator(class, AbsDiff(nil)).Distance(p0, pc, h, groups)

	e := estimator(class, AbsDiff(nil))
	e.Samples = 6000
	e.Rand = rand.New(rand.NewSource(42))
	approx := e.Distance(p0, pc, h, groups)
	if math.Abs(approx-exact) > 0.1 {
		t.Fatalf("sampled distance %g too far from exact %g", approx, exact)
	}
}

func TestSamplingOverFullValuationSpace(t *testing.T) {
	// DIST-COMP over all 2^n valuations is #P-hard in general; for this
	// tiny instance we can enumerate and check the sampler converges.
	p0 := matchPoint()
	h := provenance.MergeMapping("G", "U1", "U2")
	pc := p0.Apply(h)
	groups := provenance.GroupsOf(p0.Annotations(), h)
	all := valuation.NewAll([]provenance.Annotation{"U1", "U2", "U3"})

	exact := estimator(all, AbsDiff(nil)).Distance(p0, pc, h, groups)
	e := estimator(all, AbsDiff(nil))
	e.Samples = 8000
	e.Rand = rand.New(rand.NewSource(7))
	approx := e.Distance(p0, pc, h, groups)
	if math.Abs(approx-exact) > 0.15 {
		t.Fatalf("sampled %g vs exact %g", approx, exact)
	}
}

func TestSampleSize(t *testing.T) {
	// VAL-FUNC bounded in [0,1]: variance bound 1/4.
	n := SampleSize(0.1, 0.9, 0.25)
	if n != 250 {
		t.Fatalf("SampleSize = %d, want 250", n)
	}
	if SampleSize(0, 0.9, 0.25) != 1 || SampleSize(0.1, 0, 0.25) != 1 || SampleSize(0.1, 1, 0.25) != 1 {
		t.Fatal("degenerate inputs must return 1")
	}
	if SampleSize(10, 0.5, 0.25) != 1 {
		t.Fatal("tiny variance must clamp to 1")
	}
}

func TestWeightedValFuncs(t *testing.T) {
	w := func(v provenance.Valuation) float64 {
		if v.Name() == "cancel U2" {
			return 2
		}
		return 1
	}
	p0 := matchPoint()
	h := provenance.MergeMapping("Female", "U1", "U2")
	pc := p0.Apply(h)
	groups := provenance.GroupsOf(p0.Annotations(), h)
	class := valuation.NewCancelSingleAnnotation([]provenance.Annotation{"U1", "U2", "U3"})
	// only cancel-U2 disagrees, weighted 2: AbsDiff avg = 2*2/3, Disagree avg = 2/3
	if d := estimator(class, AbsDiff(w)).Distance(p0, pc, h, groups); math.Abs(d-4.0/3.0) > 1e-12 {
		t.Fatalf("weighted AbsDiff = %g", d)
	}
	if d := estimator(class, Disagree(w)).Distance(p0, pc, h, groups); math.Abs(d-2.0/3.0) > 1e-12 {
		t.Fatalf("weighted Disagree = %g", d)
	}
}

func TestTrustWeight(t *testing.T) {
	anns := []provenance.Annotation{"U1", "U2"}
	trust := map[provenance.Annotation]float64{"U1": 0.9} // U2 defaults to p0
	w := TrustWeight(trust, 0.5, anns)

	// all true: 0.9 * 0.5
	if got := w(provenance.AllTrue); math.Abs(got-0.45) > 1e-12 {
		t.Fatalf("w(all-true) = %g, want 0.45", got)
	}
	// cancel U1: 0.1 * 0.5
	if got := w(provenance.CancelAnnotation("U1")); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("w(cancel U1) = %g, want 0.05", got)
	}
	// weights over all 2^n valuations sum to 1
	total := 0.0
	for _, v := range valuation.NewAll(anns).Valuations() {
		total += w(v)
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("weights sum to %g, want 1", total)
	}

	// A weighted AbsDiff distance is dominated by likely valuations:
	// with U2 almost surely kept, the Female-merge error (which needs U2
	// cancelled) gets a small weight.
	p0 := matchPoint()
	h := provenance.MergeMapping("Female", "U1", "U2")
	pc := p0.Apply(h)
	groups := provenance.GroupsOf(p0.Annotations(), h)
	class := valuation.NewCancelSingleAnnotation([]provenance.Annotation{"U1", "U2", "U3"})
	wHigh := TrustWeight(map[provenance.Annotation]float64{"U2": 0.99}, 0.5, []provenance.Annotation{"U1", "U2", "U3"})
	dWeighted := estimator(class, AbsDiff(wHigh)).Distance(p0, pc, h, groups)
	dUniform := estimator(class, AbsDiff(nil)).Distance(p0, pc, h, groups)
	if dWeighted >= dUniform {
		t.Fatalf("trust-weighted distance %g should be below uniform %g", dWeighted, dUniform)
	}
}

func TestResultsEqual(t *testing.T) {
	if !ResultsEqual(provenance.Scalar(2), provenance.Scalar(2)) {
		t.Fatal("equal scalars")
	}
	if ResultsEqual(provenance.Scalar(2), provenance.Scalar(3)) {
		t.Fatal("unequal scalars")
	}
	a := provenance.Vector{"x": 1}
	b := provenance.Vector{"x": 1, "y": 0}
	if !ResultsEqual(a, b) {
		t.Fatal("vectors equal up to zero coordinates")
	}
	if ResultsEqual(a, provenance.Vector{"x": 2}) {
		t.Fatal("unequal vectors")
	}
	if ResultsEqual(provenance.Scalar(1), provenance.Vector{"x": 1}) {
		t.Fatal("mixed result kinds are unequal")
	}
}

func TestAbsDiffVectors(t *testing.T) {
	vf := AbsDiff(nil)
	a := provenance.Vector{"x": 3, "y": 1}
	b := provenance.Vector{"x": 1, "z": 2}
	got := vf.F(provenance.AllTrue, a, b)
	if got != 2+1+2 {
		t.Fatalf("vector AbsDiff = %g, want 5", got)
	}
}

// Property: distance is non-negative and AbsDiff >= Disagree under
// integer-valued results (each disagreement contributes >= 1 when results
// are integers differing by >= 1... here simply check nonnegativity and
// the zero law: distance(p, p) == 0 for identity mapping).
func TestDistanceZeroLaw(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tensors := make([]provenance.Tensor, 4+r.Intn(5))
		for i := range tensors {
			tensors[i] = provenance.Tensor{
				Prov:  provenance.V(provenance.Annotation(rune('a' + r.Intn(6)))),
				Value: float64(1 + r.Intn(5)),
				Count: 1,
				Group: provenance.Annotation(rune('A' + r.Intn(2))),
			}
		}
		p0 := provenance.NewAgg(provenance.AggSum, tensors...)
		id := provenance.NewMapping()
		groups := provenance.GroupsOf(p0.Annotations(), id)
		class := valuation.NewCancelSingleAnnotation(p0.Annotations())
		d := estimator(class, Euclidean()).Distance(p0, p0, id, groups)
		return d == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: monotonicity (Prop. 4.2.2) — applying a second merge never
// decreases the distance from the original, for MAX aggregation, φ=OR
// and the AbsDiff VAL-FUNC.
func TestDistanceMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		users := []provenance.Annotation{"a", "b", "c", "d", "e"}
		tensors := make([]provenance.Tensor, 6)
		for i := range tensors {
			tensors[i] = provenance.Tensor{
				Prov:  provenance.V(users[r.Intn(len(users))]),
				Value: float64(1 + r.Intn(5)),
				Count: 1,
				Group: "G",
			}
		}
		p0 := provenance.NewAgg(provenance.AggMax, tensors...)
		class := valuation.NewCancelSingleAnnotation(users)

		h1 := provenance.MergeMapping("X", "a", "b")
		p1 := p0.Apply(h1)
		h2 := h1.Compose(provenance.MergeMapping("Y", "X", "c"))
		p2 := p0.Apply(h2)

		e1 := estimator(class, AbsDiff(nil))
		d1 := e1.Distance(p0, p1, h1, provenance.GroupsOf(p0.Annotations(), h1))
		e2 := estimator(class, AbsDiff(nil))
		d2 := e2.Distance(p0, p2, h2, provenance.GroupsOf(p0.Annotations(), h2))
		return d2 >= d1-1e-12 && p2.Size() <= p1.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
