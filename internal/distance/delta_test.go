package distance

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/provenance"
	"repro/internal/valuation"
)

// deltaFixture extends pairFixture's pair cohort with merges the delta
// path must handle beyond plain polynomial renames: a group-coordinate
// merge, a mixed polynomial+group merge, and a 3-ary merge. It returns
// the cohort both as member sets (for DistanceDelta) and as materialized
// reference candidates (for refDistance and Distance), in the same
// order.
func deltaFixture(n int) (*provenance.Agg, []provenance.Annotation, provenance.Groups, [][]provenance.Annotation, []refCandidate) {
	p0, anns, cands := pairFixture(n)
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
		cands = append(cands, refCandidate{Expr: p0.Apply(h), Cumulative: h, Groups: g})
	}
	return p0, anns, base, sets, cands
}

// TestDistanceDeltaMatchesDistanceAndBatch pins the delta engine's core
// contract: probe-without-materialize scoring is bit-identical to
// refDistance over the batch of materialized candidates and to a
// per-candidate Distance call, and the incremental candidate sizes equal
// Apply(...).Size().
func TestDistanceDeltaMatchesDistanceAndBatch(t *testing.T) {
	p0, anns, base, sets, cands := deltaFixture(8)
	for _, maxErr := range []float64{0, 25} {
		d := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
		d.MaxError = maxErr
		got, sizes, err := d.Begin(p0).DistanceDelta(p0, provenance.NewMapping(), base, sets, "Z")
		if err != nil {
			t.Fatalf("maxErr=%g: DistanceDelta refused: %v", maxErr, err)
		}
		one := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
		one.MaxError = maxErr
		for i, c := range cands {
			want := refDistance(d, d.Class.Valuations(), p0, c.Expr, c.Cumulative, c.Groups)
			if got[i] != want {
				t.Fatalf("maxErr=%g candidate %d (%v): delta %v != reference %v", maxErr, i, sets[i], got[i], want)
			}
			if dist := one.Distance(p0, c.Expr, c.Cumulative, c.Groups); got[i] != dist {
				t.Fatalf("maxErr=%g candidate %d (%v): delta %v != distance %v", maxErr, i, sets[i], got[i], dist)
			}
			if want := c.Expr.Size(); sizes[i] != want {
				t.Fatalf("candidate %d (%v): incremental size %d != Apply size %d", i, sets[i], sizes[i], want)
			}
		}
	}
}

// TestDistanceDeltaMidRunMatchesBatch checks the same equivalence
// against refDistance over the materialized batch on a mid-run step
// (non-identity cumulative mapping, multi-member base groups) — the
// regime the delta engine is built for.
func TestDistanceDeltaMidRunMatchesBatch(t *testing.T) {
	sc := benchStep(t)
	d := estimator(valuation.NewCancelSingleAnnotation(sc.anns), Euclidean())
	got, sizes, err := d.Begin(sc.p0).DistanceDelta(sc.cur, sc.cum, sc.base, sc.sets, "Z")
	if err != nil {
		t.Fatalf("DistanceDelta refused on a mid-run step: %v", err)
	}
	batch := refDistances(d, d.Class.Valuations(), sc.p0, sc.cands)
	ref := estimator(valuation.NewCancelSingleAnnotation(sc.anns), Euclidean())
	for i, c := range sc.cands {
		want := ref.Distance(sc.p0, c.Expr, c.Cumulative, c.Groups)
		if got[i] != want {
			t.Fatalf("candidate %d (%v): delta %v != distance %v", i, sc.sets[i], got[i], want)
		}
		if got[i] != batch[i] {
			t.Fatalf("candidate %d (%v): delta %v != reference %v", i, sc.sets[i], got[i], batch[i])
		}
		if want := c.Expr.Size(); sizes[i] != want {
			t.Fatalf("candidate %d (%v): incremental size %d != Apply size %d", i, sc.sets[i], sizes[i], want)
		}
	}
}

// TestDistanceDeltaParallelBitIdentical: the delta sweep partitions
// valuation blocks across workers while each candidate's sum
// accumulates in valuation order, so results are byte-identical at any
// Parallelism.
func TestDistanceDeltaParallelBitIdentical(t *testing.T) {
	p0, anns, base, sets, _ := deltaFixture(8)
	seq := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
	want, _, err := seq.Begin(p0).DistanceDelta(p0, provenance.NewMapping(), base, sets, "Z")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		par := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
		par.Parallelism = workers
		got, _, err := par.Begin(p0).DistanceDelta(p0, provenance.NewMapping(), base, sets, "Z")
		if err != nil {
			t.Fatalf("parallelism %d: DistanceDelta refused: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parallelism %d candidate %d: %v != %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestDistanceDeltaSharedSamples: sampling mode draws one shared sample
// set up front (common random numbers), so the same seed reproduces
// refDistance over those draws bit for bit, at any Parallelism, and a
// duplicated candidate scores identically to its original.
func TestDistanceDeltaSharedSamples(t *testing.T) {
	p0, anns, base, sets, cands := deltaFixture(8)
	sets = append(sets, sets[0])
	cands = append(cands, cands[0])
	ref := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
	want := refDistances(ref, refVals(ref.Class, 5, 7), p0, cands)
	for _, workers := range []int{1, 4} {
		e := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
		e.Samples = 5
		e.Rand = rand.New(rand.NewSource(7))
		e.Parallelism = workers
		got, _, err := e.Begin(p0).DistanceDelta(p0, provenance.NewMapping(), base, sets, "Z")
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d candidate %d: delta %v != reference %v with same seed", workers, i, got[i], want[i])
			}
		}
	}
}

func TestDistanceDeltaStats(t *testing.T) {
	p0, anns, base, sets, _ := deltaFixture(8)
	e := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
	_, _, err := e.Begin(p0).DistanceDelta(p0, provenance.NewMapping(), base, sets, "Z")
	if err != nil {
		t.Fatal(err)
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
	if st.DistanceCalls != 0 || st.BatchTime != 0 {
		t.Fatalf("DistanceCalls = %d, BatchTime = %v, want 0 (delta only)", st.DistanceCalls, st.BatchTime)
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

// TestDistanceDeltaRefuses: expressions that cannot be planned (no
// plan at all, or an arena the blocked kernel refuses), and probes that
// cannot be compiled soundly, are refused with a *PlanError — by
// DistanceDelta without touching the delta counters, by CheckPlan, and
// by Distance with a panic naming the check. Names holding key
// separators are not among them: Key escapes them, so they plan and
// score like the reference.
func TestDistanceDeltaRefuses(t *testing.T) {
	p0, anns, base, sets, _ := deltaFixture(8)
	e := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
	opaque := sliceExpr{weights: []float64{1}, anns: anns[:1]}
	refused := func(what string, err error) {
		t.Helper()
		var pe *PlanError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: err = %v, want a *PlanError", what, err)
		}
	}
	_, _, err := e.Begin(opaque).DistanceDelta(opaque, provenance.NewMapping(), base, sets, "Z")
	refused("non-aggregated expression", err)
	refused("CheckPlan of a non-aggregated expression", e.Begin(opaque).CheckPlan(opaque, "Z"))
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "CheckPlan") {
				t.Fatalf("Distance on an unplannable expression: recovered %v, want a panic naming CheckPlan", r)
			}
		}()
		e.Distance(opaque, opaque, provenance.NewMapping(), base)
	}()
	// newAnn already occurs in the expression: rewritten tensor keys could
	// collide with unaffected ones, so the probe refuses to compile.
	_, _, err = e.Begin(p0).DistanceDelta(p0, provenance.NewMapping(), base, sets, anns[0])
	refused("newAnn in the expression", err)
	refused("CheckPlan with newAnn in the expression", e.Begin(p0).CheckPlan(p0, anns[0]))
	if err := e.Begin(p0).CheckPlan(p0, "Z"); err != nil {
		t.Fatalf("CheckPlan refused a plannable expression: %v", err)
	}
	// A negative constant makes the arena unblockable: planOf refuses it.
	neg := provenance.NewAgg(provenance.AggSum,
		provenance.Tensor{Prov: provenance.Sum{Terms: []provenance.Expr{provenance.V("a"), provenance.Const{N: -1}}}, Value: 2, Count: 1, Group: "g"},
		provenance.Tensor{Prov: provenance.V("b"), Value: 3, Count: 1, Group: "g"},
	)
	negAnns := neg.Annotations()
	ne := estimator(valuation.NewCancelSingleAnnotation(negAnns), Euclidean())
	negBase := provenance.GroupsOf(negAnns, provenance.NewMapping())
	_, _, err = ne.Begin(neg).DistanceDelta(neg, provenance.NewMapping(), negBase, [][]provenance.Annotation{{"a", "b"}}, "Z")
	refused("unblockable arena", err)
	// Names with key separators are escaped in keys, so they plan.
	titled := provenance.NewAgg(provenance.AggMax,
		provenance.Tensor{Prov: provenance.Prod{Factors: []provenance.Expr{provenance.V("u1"), provenance.V("Heat (1995)")}}, Value: 4, Count: 1, Group: "g"},
		provenance.Tensor{Prov: provenance.Prod{Factors: []provenance.Expr{provenance.V("u2"), provenance.V("Heat (1995)")}}, Value: 2, Count: 1, Group: "g"},
	)
	titledAnns := titled.Annotations()
	te := estimator(valuation.NewCancelSingleAnnotation(titledAnns), Euclidean())
	titledBase := provenance.GroupsOf(titledAnns, provenance.NewMapping())
	ms := []provenance.Annotation{"u1", "u2"}
	dists, _, err := te.Begin(titled).DistanceDelta(titled, provenance.NewMapping(), titledBase, [][]provenance.Annotation{ms}, "Z")
	if err != nil {
		t.Fatalf("DistanceDelta refused on names with key separators: %v", err)
	}
	h := provenance.MergeMapping("Z", ms...)
	if want := refDistance(te, te.Class.Valuations(), titled, titled.Apply(h), h, provenance.GroupsOf(titledAnns, h)); dists[0] != want {
		t.Fatalf("titled delta distance %v, reference %v", dists[0], want)
	}
	for _, est := range []*Estimator{e, ne} {
		if st := est.Stats(); st.DeltaCalls != 0 || st.DeltaCandidates != 0 {
			t.Fatalf("refusals counted as delta calls: %+v", st)
		}
	}
}

// TestEvalOriginalNonComparableExpression is a regression test: the
// original-expression cache used to compare p0 against its previous key
// with !=, which panics ("comparing uncomparable type") on the second
// valuation for any Expression with a non-comparable dynamic type. A
// run's original is fixed when the run begins, so the run compares no
// expressions: checking such an original refuses it as often as asked,
// with a *PlanError and no panic, and the one-shot Distance begins a new
// run for it instead of comparing.
func TestEvalOriginalNonComparableExpression(t *testing.T) {
	anns := []provenance.Annotation{"a1", "a2"}
	p0 := sliceExpr{weights: []float64{1, 2}, anns: anns}
	e := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
	run := e.Begin(p0)
	for i := 0; i < 2; i++ {
		var pe *PlanError
		if err := run.CheckPlan(p0, ""); !errors.As(err, &pe) {
			t.Fatalf("check %d of a non-comparable original: %v, want a *PlanError", i, err)
		}
	}
	// sliceExpr does not plan, so Distance panics once it has its run.
	e.last = run
	func() {
		defer func() { _ = recover() }()
		e.Distance(p0, p0, provenance.NewMapping(), nil)
	}()
	if e.last == run {
		t.Fatal("Distance reused a run whose original it cannot compare")
	}
}

func BenchmarkSummarizeStepScoringDelta(b *testing.B) {
	sc := benchStep(b)
	run := estimator(valuation.NewCancelSingleAnnotation(sc.anns), Euclidean()).Begin(sc.p0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := run.DistanceDelta(sc.cur, sc.cum, sc.base, sc.sets, "Z"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBlockedScalarBitIdentical pins the valuation-blocked kernel to
// the scalar reference on a mid-run step: DistanceDelta and Distance —
// each evaluating 64 valuations per kernel pass — must reproduce
// refDistance's one-valuation-at-a-time tree walk bit for bit,
// sequential and parallel.
func TestBlockedScalarBitIdentical(t *testing.T) {
	sc := benchStep(t)
	for _, workers := range []int{1, 4} {
		e := estimator(valuation.NewCancelSingleAnnotation(sc.anns), Euclidean())
		e.Parallelism = workers
		vals := e.Class.Valuations()
		delta, _, err := e.Begin(sc.p0).DistanceDelta(sc.cur, sc.cum, sc.base, sc.sets, "Z")
		if err != nil {
			t.Fatalf("workers=%d: DistanceDelta refused: %v", workers, err)
		}
		for i, c := range sc.cands {
			want := refDistance(e, vals, sc.p0, c.Expr, c.Cumulative, c.Groups)
			if delta[i] != want {
				t.Fatalf("workers=%d delta candidate %d: blocked %v != scalar %v", workers, i, delta[i], want)
			}
			if i < 4 {
				if d := e.Distance(sc.p0, c.Expr, c.Cumulative, c.Groups); d != want {
					t.Fatalf("workers=%d distance candidate %d: blocked %v != scalar %v", workers, i, d, want)
				}
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
// contract of deltaTruths: group members and the plan's raw annotations
// share one truth table, so a delta sweep pulls each interned base
// annotation's truth from each valuation exactly once — and, in
// enumeration mode, never again on later sweeps, whose packed truth
// columns come from the memo.
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
	shared := newDeltaTruths(provenance.NewPlan(cur).Annotations(), base, provenance.CombineOr)
	if want := 4; shared.baseIn.Len() != want {
		t.Fatalf("interned %d base annotations, want %d (members a,c plus raw b and group key u)", shared.baseIn.Len(), want)
	}
	calls := 0
	vals := []provenance.Valuation{
		countingValuation{inner: provenance.CancelAnnotation("a"), calls: &calls},
		countingValuation{inner: provenance.CancelAnnotation("b"), calls: &calls},
	}
	e := estimator(&valuation.Explicit{Vals: vals}, Euclidean())
	// The original's rows read the same memo: its annotations (a, b, c
	// and group key u) are the sweep's base annotations, so evaluating
	// it pulls no truth of its own.
	sets := [][]provenance.Annotation{{"S", "b"}}
	run := e.Begin(p0)
	for round, want := range []int{shared.baseIn.Len() * len(vals), 0} {
		calls = 0
		if _, _, err := run.DistanceDelta(cur, cum, base, sets, "Z"); err != nil {
			t.Fatal(err)
		}
		if calls != want {
			t.Fatalf("sweep %d made %d Truth calls, want %d (one per interned base annotation and valuation, then none)", round+1, calls, want)
		}
	}
	if st := e.Stats(); st.CacheMisses != uint64(len(vals)) || st.CacheHits != uint64(len(vals)) {
		t.Fatalf("original rows: %d misses, %d hits; want %d of each (evaluated on the first sweep, kept for the second)", st.CacheMisses, st.CacheHits, len(vals))
	}
	// And the dense extension is still correct.
	got, _, _ := run.DistanceDelta(cur, cum, base, sets, "Z")
	step := provenance.MergeMapping("Z", "S", "b")
	g := provenance.GroupsOf(p0.Annotations(), cum.Compose(step))
	if want := refDistance(e, vals, p0, cur.Apply(step), cum.Compose(step), g); got[0] != want {
		t.Fatalf("delta %v != reference %v", got[0], want)
	}
}

// TestCommitMergePatchesPlan pins the arena-reuse contract of the merge
// commit: CommitMerge returns Apply's next expression, the cached plan
// is patched in place (MergePatches counts it once the next step
// begins, nothing recompiles), and
// scoring the next step on the patched plan is bit-identical to a fresh
// estimator that compiles the committed expression from scratch, and to
// the same estimator recompiling in a new run.
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

	run := func(e *Estimator, patch bool) []float64 {
		t.Helper()
		r := e.Begin(sc.p0)
		if _, _, err := r.DistanceDelta(sc.cur, sc.cum, sc.base, sc.sets, "Z"); err != nil {
			t.Fatalf("DistanceDelta refused on the first step: %v", err)
		}
		committed := next
		if patch {
			committed = r.CommitMerge(sc.cur, members, newAnn)
			if !reflect.DeepEqual(committed, next) {
				t.Fatalf("CommitMerge built %v, want Apply's %v", committed, next)
			}
			// The outcome counts when the next step begins, so a run's
			// last merge counts in neither counter.
			if st := e.Stats(); st.MergePatches != 0 || st.MergeRecompiles != 0 {
				t.Fatalf("commit counted before the next step: patches=%d recompiles=%d", st.MergePatches, st.MergeRecompiles)
			}
		} else {
			r = e.Begin(sc.p0)
		}
		got, _, err := r.DistanceDelta(committed, nextCum, nextBase, nextSets, "Z")
		if err != nil {
			t.Fatalf("DistanceDelta refused on the committed step: %v", err)
		}
		return got
	}

	patched := estimator(valuation.NewCancelSingleAnnotation(sc.anns), Euclidean())
	got := run(patched, true)
	if st := patched.Stats(); st.MergePatches != 1 || st.MergeRecompiles != 0 {
		t.Fatalf("patched estimator: patches=%d recompiles=%d, want 1/0", st.MergePatches, st.MergeRecompiles)
	}

	recompiled := estimator(valuation.NewCancelSingleAnnotation(sc.anns), Euclidean())
	gotRecompiled := run(recompiled, false)
	if st := recompiled.Stats(); st.MergePatches != 0 {
		t.Fatalf("reset estimator patched %d plans, want 0", st.MergePatches)
	}

	fresh := estimator(valuation.NewCancelSingleAnnotation(sc.anns), Euclidean())
	want, _, err := fresh.Begin(sc.p0).DistanceDelta(next, nextCum, nextBase, nextSets, "Z")
	if err != nil {
		t.Fatalf("fresh DistanceDelta refused: %v", err)
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
