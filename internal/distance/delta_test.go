package distance

import (
	"math/rand"
	"testing"

	"repro/internal/provenance"
	"repro/internal/valuation"
)

// deltaFixture extends batchFixture's pair cohort with merges the delta
// path must handle beyond plain polynomial renames: a group-coordinate
// merge, a mixed polynomial+group merge, and a 3-ary merge. It returns
// the cohort both as member sets (for DistanceDelta) and as materialized
// BatchCandidates (for the reference paths), in the same order.
func deltaFixture(n int) (*provenance.Agg, []provenance.Annotation, provenance.Groups, [][]provenance.Annotation, []BatchCandidate) {
	p0, anns, cands := batchFixture(n)
	base := provenance.GroupsOf(anns, provenance.NewMapping())
	var sets [][]provenance.Annotation
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sets = append(sets, []provenance.Annotation{anns[i], anns[j]})
		}
	}
	extras := [][]provenance.Annotation{
		{"G1", "G2"},
		{anns[0], "G1"},
		{anns[1], anns[3], anns[5]},
	}
	for _, ms := range extras {
		h := provenance.MergeMapping("Z", ms...)
		g := make(provenance.Groups, len(base)+1)
		for name, members := range base {
			g[name] = members
		}
		var merged []provenance.Annotation
		for _, m := range ms {
			merged = append(merged, base.Members(m)...)
			delete(g, m)
		}
		g["Z"] = merged
		sets = append(sets, ms)
		cands = append(cands, BatchCandidate{Expr: p0.Apply(h), Cumulative: h, Groups: g})
	}
	return p0, anns, base, sets, cands
}

// TestDistanceDeltaMatchesDistanceAndBatch pins the tentpole's core
// contract: probe-without-materialize scoring is bit-identical to both a
// per-candidate Distance call and the DistanceBatch sweep, and the
// incremental candidate sizes equal Apply(...).Size().
func TestDistanceDeltaMatchesDistanceAndBatch(t *testing.T) {
	p0, anns, base, sets, cands := deltaFixture(8)
	for _, maxErr := range []float64{0, 25} {
		d := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
		d.MaxError = maxErr
		got, sizes, ok := d.DistanceDelta(p0, p0, provenance.NewMapping(), base, sets, "Z")
		if !ok {
			t.Fatalf("maxErr=%g: DistanceDelta fell back", maxErr)
		}
		bref := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
		bref.MaxError = maxErr
		batch := bref.DistanceBatch(p0, cands)
		ref := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
		ref.MaxError = maxErr
		for i, c := range cands {
			want := ref.Distance(p0, c.Expr, c.Cumulative, c.Groups)
			if got[i] != want {
				t.Fatalf("maxErr=%g candidate %d (%v): delta %v != distance %v", maxErr, i, sets[i], got[i], want)
			}
			if got[i] != batch[i] {
				t.Fatalf("maxErr=%g candidate %d (%v): delta %v != batch %v", maxErr, i, sets[i], got[i], batch[i])
			}
			if want := c.Expr.Size(); sizes[i] != want {
				t.Fatalf("candidate %d (%v): incremental size %d != Apply size %d", i, sets[i], sizes[i], want)
			}
		}
	}
}

// TestDistanceDeltaMidRunMatchesBatch checks the same equivalence on a
// mid-run step (non-identity cumulative mapping, multi-member base
// groups) — the regime the delta engine is built for.
func TestDistanceDeltaMidRunMatchesBatch(t *testing.T) {
	sc := benchStep(t)
	d := estimator(valuation.NewCancelSingleAnnotation(sc.anns), Euclidean())
	got, sizes, ok := d.DistanceDelta(sc.p0, sc.cur, sc.cum, sc.base, sc.sets, "Z")
	if !ok {
		t.Fatal("DistanceDelta fell back on a mid-run step")
	}
	bref := estimator(valuation.NewCancelSingleAnnotation(sc.anns), Euclidean())
	batch := bref.DistanceBatch(sc.p0, sc.cands)
	ref := estimator(valuation.NewCancelSingleAnnotation(sc.anns), Euclidean())
	for i, c := range sc.cands {
		want := ref.Distance(sc.p0, c.Expr, c.Cumulative, c.Groups)
		if got[i] != want {
			t.Fatalf("candidate %d (%v): delta %v != distance %v", i, sc.sets[i], got[i], want)
		}
		if got[i] != batch[i] {
			t.Fatalf("candidate %d (%v): delta %v != batch %v", i, sc.sets[i], got[i], batch[i])
		}
		if want := c.Expr.Size(); sizes[i] != want {
			t.Fatalf("candidate %d (%v): incremental size %d != Apply size %d", i, sc.sets[i], sizes[i], want)
		}
	}
}

// TestDistanceDeltaParallelBitIdentical: like the batch sweep, the delta
// sweep partitions candidates across workers while each candidate's sum
// accumulates in valuation order, so results are byte-identical at any
// Parallelism.
func TestDistanceDeltaParallelBitIdentical(t *testing.T) {
	p0, anns, base, sets, _ := deltaFixture(8)
	seq := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
	want, _, ok := seq.DistanceDelta(p0, p0, provenance.NewMapping(), base, sets, "Z")
	if !ok {
		t.Fatal("DistanceDelta fell back")
	}
	for _, workers := range []int{2, 4, 16} {
		par := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
		par.Parallelism = workers
		got, _, ok := par.DistanceDelta(p0, p0, provenance.NewMapping(), base, sets, "Z")
		if !ok {
			t.Fatalf("parallelism %d: DistanceDelta fell back", workers)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parallelism %d candidate %d: %v != %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestDistanceDeltaSharedSamples: sampling mode draws one shared sample
// set up front exactly like DistanceBatch, so the same seed produces
// bitwise-identical distances on both paths, at any Parallelism.
func TestDistanceDeltaSharedSamples(t *testing.T) {
	p0, anns, base, sets, cands := deltaFixture(8)
	want := func() []float64 {
		e := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
		e.Samples = 5
		e.Rand = rand.New(rand.NewSource(7))
		return e.DistanceBatch(p0, cands)
	}()
	for _, workers := range []int{1, 4} {
		e := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
		e.Samples = 5
		e.Rand = rand.New(rand.NewSource(7))
		e.Parallelism = workers
		got, _, ok := e.DistanceDelta(p0, p0, provenance.NewMapping(), base, sets, "Z")
		if !ok {
			t.Fatal("DistanceDelta fell back")
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d candidate %d: delta %v != batch %v with same seed", workers, i, got[i], want[i])
			}
		}
	}
}

func TestDistanceDeltaStats(t *testing.T) {
	p0, anns, base, sets, _ := deltaFixture(8)
	e := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
	_, _, ok := e.DistanceDelta(p0, p0, provenance.NewMapping(), base, sets, "Z")
	if !ok {
		t.Fatal("DistanceDelta fell back")
	}
	st := e.Stats()
	if st.DeltaCalls != 1 {
		t.Fatalf("DeltaCalls = %d, want 1", st.DeltaCalls)
	}
	if st.DeltaCandidates != uint64(len(sets)) {
		t.Fatalf("DeltaCandidates = %d, want %d", st.DeltaCandidates, len(sets))
	}
	vals := uint64(len(e.Class.Valuations()))
	if got, want := st.DeltaSkips+st.DeltaFullEvals, uint64(len(sets))*vals; got != want {
		t.Fatalf("DeltaSkips+DeltaFullEvals = %d, want %d (every candidate × valuation pair)", got, want)
	}
	if st.DeltaSkips == 0 {
		t.Fatal("expected truth-delta short-circuits on unaffected valuations")
	}
	if st.DeltaFullEvals == 0 {
		t.Fatal("expected full evaluations on truth-changing valuations")
	}
	if st.Evaluations != st.DeltaFullEvals {
		t.Fatalf("Evaluations = %d, want %d (only full evals compute VAL-FUNC summands)", st.Evaluations, st.DeltaFullEvals)
	}
	if st.DeltaSubtreeEvals == 0 {
		t.Fatal("expected subtree re-evaluations to be counted")
	}
	if st.DistanceCalls != 0 || st.BatchCalls != 0 {
		t.Fatalf("DistanceCalls = %d, BatchCalls = %d, want 0 (delta only)", st.DistanceCalls, st.BatchCalls)
	}
}

// sliceExpr is an Expression whose dynamic type is non-comparable (slice
// field). Identity-keyed caches must not compare it — interface
// comparison of two sliceExpr values panics at runtime.
type sliceExpr struct {
	weights []float64
	anns    []provenance.Annotation
}

func (s sliceExpr) Size() int                                      { return 1 }
func (s sliceExpr) Annotations() []provenance.Annotation           { return s.anns }
func (s sliceExpr) Apply(provenance.Mapping) provenance.Expression { return s }
func (s sliceExpr) Eval(v provenance.Valuation) provenance.Result {
	var total float64
	for i, a := range s.anns {
		if v.Truth(a) {
			total += s.weights[i]
		}
	}
	return provenance.Vector{"": total}
}
func (s sliceExpr) AlignResult(r provenance.Result, _ provenance.Mapping) provenance.Result {
	return r
}
func (s sliceExpr) String() string { return "sliceExpr" }

// TestDistanceDeltaFallback: expressions that cannot be planned, and
// probes that cannot be compiled soundly, report ok=false without
// touching the delta counters, so callers fall back to DistanceBatch.
func TestDistanceDeltaFallback(t *testing.T) {
	p0, anns, base, sets, _ := deltaFixture(8)
	e := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
	opaque := sliceExpr{weights: []float64{1}, anns: anns[:1]}
	if _, _, ok := e.DistanceDelta(opaque, opaque, provenance.NewMapping(), base, sets, "Z"); ok {
		t.Fatal("DistanceDelta must fall back on a non-aggregated expression")
	}
	// newAnn already occurs in the expression: rewritten tensor keys could
	// collide with unaffected ones, so the probe refuses to compile.
	if _, _, ok := e.DistanceDelta(p0, p0, provenance.NewMapping(), base, sets, anns[0]); ok {
		t.Fatal("DistanceDelta must fall back when newAnn occurs in the expression")
	}
	if st := e.Stats(); st.DeltaCalls != 0 || st.DeltaCandidates != 0 {
		t.Fatalf("fallbacks counted as delta calls: %+v", st)
	}
}

// TestEvalOriginalNonComparableExpression is a regression test: the
// original-expression cache used to compare p0 against its previous key
// with !=, which panics ("comparing uncomparable type") on the second
// valuation for any Expression with a non-comparable dynamic type. Such
// expressions are now evaluated uncached.
func TestEvalOriginalNonComparableExpression(t *testing.T) {
	anns := []provenance.Annotation{"a1", "a2"}
	p0 := sliceExpr{weights: []float64{1, 2}, anns: anns}
	pc := sliceExpr{weights: []float64{3}, anns: anns[:1]}
	e := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
	groups := provenance.GroupsOf(anns, provenance.NewMapping())
	first := e.Distance(p0, pc, provenance.NewMapping(), groups)
	second := e.Distance(p0, pc, provenance.NewMapping(), groups)
	if first != second {
		t.Fatalf("uncached evaluation not deterministic: %v != %v", first, second)
	}
	st := e.Stats()
	if st.CacheHits != 0 {
		t.Fatalf("CacheHits = %d, want 0 (non-comparable expressions bypass the cache)", st.CacheHits)
	}
	if st.CacheMisses == 0 {
		t.Fatal("uncached evaluations must still count as cache misses")
	}
}

func BenchmarkSummarizeStepScoringDelta(b *testing.B) {
	sc := benchStep(b)
	e := estimator(valuation.NewCancelSingleAnnotation(sc.anns), Euclidean())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := e.DistanceDelta(sc.p0, sc.cur, sc.cum, sc.base, sc.sets, "Z"); !ok {
			b.Fatal("DistanceDelta fell back")
		}
	}
}

// BenchmarkSummarizeStepScoringDeltaScalar is the block-eval A/B partner
// of BenchmarkSummarizeStepScoringDelta: the same cohort with ScalarEval
// forcing one scalar arena pass per valuation. The gap between the pair
// is the valuation-blocked kernel's speedup on the delta path.
func BenchmarkSummarizeStepScoringDeltaScalar(b *testing.B) {
	sc := benchStep(b)
	e := estimator(valuation.NewCancelSingleAnnotation(sc.anns), Euclidean())
	e.ScalarEval = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := e.DistanceDelta(sc.p0, sc.cur, sc.cum, sc.base, sc.sets, "Z"); !ok {
			b.Fatal("DistanceDelta fell back")
		}
	}
}

// TestBlockedScalarBitIdentical pins the valuation-blocked kernel to its
// per-valuation scalar A/B partner (ScalarEval) on a mid-run step: all
// three scoring engines must produce byte-identical distances either
// way, sequential and parallel.
func TestBlockedScalarBitIdentical(t *testing.T) {
	sc := benchStep(t)
	for _, workers := range []int{1, 4} {
		blocked := estimator(valuation.NewCancelSingleAnnotation(sc.anns), Euclidean())
		blocked.Parallelism = workers
		scalar := estimator(valuation.NewCancelSingleAnnotation(sc.anns), Euclidean())
		scalar.Parallelism = workers
		scalar.ScalarEval = true

		got, _, ok := blocked.DistanceDelta(sc.p0, sc.cur, sc.cum, sc.base, sc.sets, "Z")
		if !ok {
			t.Fatalf("workers=%d: blocked DistanceDelta fell back", workers)
		}
		want, _, ok := scalar.DistanceDelta(sc.p0, sc.cur, sc.cum, sc.base, sc.sets, "Z")
		if !ok {
			t.Fatalf("workers=%d: scalar DistanceDelta fell back", workers)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d delta candidate %d: blocked %v != scalar %v", workers, i, got[i], want[i])
			}
		}

		gotBatch := blocked.DistanceBatch(sc.p0, sc.cands)
		wantBatch := scalar.DistanceBatch(sc.p0, sc.cands)
		for i := range wantBatch {
			if gotBatch[i] != wantBatch[i] {
				t.Fatalf("workers=%d batch candidate %d: blocked %v != scalar %v", workers, i, gotBatch[i], wantBatch[i])
			}
		}

		for i, c := range sc.cands[:4] {
			gd := blocked.Distance(sc.p0, c.Expr, c.Cumulative, c.Groups)
			wd := scalar.Distance(sc.p0, c.Expr, c.Cumulative, c.Groups)
			if gd != wd {
				t.Fatalf("workers=%d distance candidate %d: blocked %v != scalar %v", workers, i, gd, wd)
			}
		}
	}
}

// countingValuation counts Truth calls through to its inner valuation.
type countingValuation struct {
	inner provenance.Valuation
	calls *int
}

func (c countingValuation) Truth(a provenance.Annotation) bool {
	*c.calls++
	return c.inner.Truth(a)
}

func (c countingValuation) Name() string { return c.inner.Name() }

// TestDeltaTruthsResetPullsEachRawTruthOnce pins the shared-interner
// contract of deltaTruths: per reset, the valuation is queried exactly
// once per interned base annotation — group members and the plan's raw
// annotations share one truth table, so no raw truth is pulled through
// the valuation twice, on the first reset or any later one.
func TestDeltaTruthsResetPullsEachRawTruthOnce(t *testing.T) {
	p0 := provenance.NewAgg(provenance.AggSum,
		provenance.Tensor{Prov: provenance.V("a"), Value: 1, Count: 1, Group: "u"},
		provenance.Tensor{Prov: provenance.V("b"), Value: 2, Count: 1, Group: "u"},
		provenance.Tensor{Prov: provenance.V("c"), Value: 3, Count: 1, Group: "u"},
	)
	cum := provenance.MergeMapping("S", "a", "c")
	cur, ok := p0.Apply(cum).(*provenance.Agg)
	if !ok {
		t.Fatal("Apply did not return an aggregation")
	}
	base := provenance.GroupsOf(p0.Annotations(), cum)
	plan := provenance.NewPlan(cur)
	shared := newDeltaTruths(plan.Annotations(), base, provenance.CombineOr)
	if want := 4; shared.baseIn.Len() != want {
		t.Fatalf("interned %d base annotations, want %d (members a,c plus raw b and group key u)", shared.baseIn.Len(), want)
	}
	e := &Estimator{}
	d := e.forkTruths(shared)
	for round := 1; round <= 2; round++ {
		calls := 0
		d.reset(countingValuation{inner: provenance.CancelAnnotation("a"), calls: &calls})
		if want := shared.baseIn.Len(); calls != want {
			t.Fatalf("reset round %d made %d Truth calls, want %d (one per interned base annotation)", round, calls, want)
		}
	}
	// And the dense extension is still correct: S = a ∨ c with a
	// cancelled is true, raw b is true.
	for _, ann := range []provenance.Annotation{"S", "b"} {
		id, ok := plan.AnnID(ann)
		if !ok {
			t.Fatalf("annotation %s not interned in the plan", ann)
		}
		if got := d.truthOf(ann, id); got != 1 {
			t.Fatalf("extended truth of %s = %d, want 1", ann, got)
		}
	}
}

// TestCommitMergePatchesPlan pins the arena-reuse contract of the merge
// commit: after CommitMerge the cached plan is patched in place
// (MergePatches counts it, nothing recompiles), and scoring the next
// step on the patched plan is bit-identical to a fresh estimator that
// compiles the committed expression from scratch. NoMergePatch forces
// the recompile path and must also score identically.
func TestCommitMergePatchesPlan(t *testing.T) {
	sc := benchStep(t)
	members := sc.sets[0]
	newAnn := provenance.Annotation("M1")
	step := provenance.MergeMapping(newAnn, members...)
	next := sc.cur.Apply(step)
	nextCum := sc.cum.Compose(step)
	nextBase := provenance.GroupsOf(sc.anns, nextCum)
	summaries := next.Annotations()
	var nextSets [][]provenance.Annotation
	for i := 0; i < len(summaries); i++ {
		for j := i + 1; j < len(summaries); j++ {
			nextSets = append(nextSets, []provenance.Annotation{summaries[i], summaries[j]})
		}
	}

	run := func(e *Estimator) []float64 {
		t.Helper()
		if _, _, ok := e.DistanceDelta(sc.p0, sc.cur, sc.cum, sc.base, sc.sets, "Z"); !ok {
			t.Fatal("DistanceDelta fell back on the first step")
		}
		e.CommitMerge(sc.cur, next, members, newAnn)
		got, _, ok := e.DistanceDelta(sc.p0, next, nextCum, nextBase, nextSets, "Z")
		if !ok {
			t.Fatal("DistanceDelta fell back on the committed step")
		}
		return got
	}

	patched := estimator(valuation.NewCancelSingleAnnotation(sc.anns), Euclidean())
	got := run(patched)
	if st := patched.Stats(); st.MergePatches != 1 || st.MergeRecompiles != 0 {
		t.Fatalf("patched estimator: patches=%d recompiles=%d, want 1/0", st.MergePatches, st.MergeRecompiles)
	}

	recompiled := estimator(valuation.NewCancelSingleAnnotation(sc.anns), Euclidean())
	recompiled.NoMergePatch = true
	gotRecompiled := run(recompiled)
	if st := recompiled.Stats(); st.MergePatches != 0 || st.MergeRecompiles != 1 {
		t.Fatalf("recompiling estimator: patches=%d recompiles=%d, want 0/1", st.MergePatches, st.MergeRecompiles)
	}

	fresh := estimator(valuation.NewCancelSingleAnnotation(sc.anns), Euclidean())
	want, _, ok := fresh.DistanceDelta(sc.p0, next, nextCum, nextBase, nextSets, "Z")
	if !ok {
		t.Fatal("fresh DistanceDelta fell back")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidate %d (%v): patched-plan %v != fresh-plan %v", i, nextSets[i], got[i], want[i])
		}
		if gotRecompiled[i] != want[i] {
			t.Fatalf("candidate %d (%v): recompiled %v != fresh %v", i, nextSets[i], gotRecompiled[i], want[i])
		}
	}
}
