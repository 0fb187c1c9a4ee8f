package distance

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/provenance"
	"repro/internal/valuation"
)

// originalFixture is an aggregation over 70 annotations — more than one
// 64-valuation block under the single-cancellation class — whose
// tensors mix bare variables, products, sums with a constant and
// comparison guards, spread over five groups and the scalar coordinate.
func originalFixture(kind provenance.AggKind) *provenance.Agg {
	const n = 70
	ann := func(i int) provenance.Expr { return provenance.V(provenance.Annotation(fmt.Sprintf("u%02d", i%n))) }
	tensors := make([]provenance.Tensor, n)
	for i := range tensors {
		var p provenance.Expr
		switch i % 4 {
		case 0:
			p = ann(i)
		case 1:
			p = provenance.Prod{Factors: []provenance.Expr{ann(i), ann(i*7 + 3)}}
		case 2:
			p = provenance.Sum{Terms: []provenance.Expr{ann(i), ann(i*5 + 1), provenance.Const{N: 2}}}
		default:
			p = provenance.Cmp{Inner: provenance.Sum{Terms: []provenance.Expr{ann(i), ann(i + 1)}}, Value: 2, Op: provenance.OpGT, Bound: 1}
		}
		group := provenance.Annotation(fmt.Sprintf("g%d", i%5))
		if i%9 == 0 {
			group = ""
		}
		tensors[i] = provenance.Tensor{Prov: p, Value: float64(i%7) + 0.25, Count: 1, Group: group}
	}
	return provenance.NewAgg(kind, tensors...)
}

// TestOriginalRowsMatchTreeWalk pins the original's rows, which the
// blocked kernel evaluates on the original's own arena 64 valuations
// per pass, to Agg.Eval's tree walk: under every valuation of a sweep,
// in enumeration mode and in sampling mode (whose draws repeat
// valuations), at Parallelism 1 and 4, each row lists exactly the
// sorted keys of Eval's vector (the arena's slots) with the same value
// bits.
func TestOriginalRowsMatchTreeWalk(t *testing.T) {
	for _, kind := range []provenance.AggKind{provenance.AggSum, provenance.AggMax, provenance.AggMin, provenance.AggCount} {
		p0 := originalFixture(kind)
		anns := p0.Annotations()
		for _, samples := range []int{0, 200} {
			for _, workers := range []int{1, 4} {
				row := fmt.Sprintf("%v samples=%d workers=%d", kind, samples, workers)
				e := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
				e.Parallelism = workers
				if samples > 0 {
					e.Samples = samples
					e.Rand = rand.New(rand.NewSource(3))
				}
				// A sweep compiles the original's arena and keeps it.
				id := provenance.NewMapping()
				run := e.Begin(p0)
				if d := run.Distance(p0, id, provenance.GroupsOf(anns, id)); d != 0 {
					t.Fatalf("%s: distance of the original from itself = %v", row, d)
				}
				ar := run.origArena
				vals := run.batchValuations()
				rows := run.originalRows(vals)
				seen := make(map[string]bool, len(vals))
				repeated := false
				for i, v := range vals {
					want := p0.Eval(v).(provenance.Vector)
					keys := make([]provenance.Annotation, 0, len(want))
					for k := range want {
						keys = append(keys, k)
					}
					slices.Sort(keys)
					if !slices.Equal(keys, ar.Slots()) {
						t.Fatalf("%s: slots %v, want Eval's sorted keys %v", row, ar.Slots(), keys)
					}
					for s, k := range keys {
						if math.Float64bits(rows[i][s]) != math.Float64bits(want[k]) {
							t.Fatalf("%s: valuation %d (%s) coordinate %q = %v, tree walk %v", row, i, v.Name(), k, rows[i][s], want[k])
						}
					}
					repeated = repeated || seen[v.Name()]
					seen[v.Name()] = true
				}
				if samples > 0 && !repeated {
					t.Fatalf("%s: no draw repeated a valuation", row)
				}
			}
		}
	}
}

// TestReplayPatchesThePlan pins Run.Replay: every replayed merge
// returns Apply's next expression tensor for tensor, an aggregation's
// plan is compiled once and patched in place (it stays cached for the
// last expression, so CheckPlan reuses it), and nothing is counted in
// MergePatches or MergeRecompiles. A merge the plan refuses falls back
// to Apply, an aggregation outside normal form is Applied for the rest
// of the run without another compile, and an expression without an
// arena plan compiles nothing.
func TestReplayPatchesThePlan(t *testing.T) {
	p0 := originalFixture(provenance.AggSum)
	steps := []struct {
		members []provenance.Annotation
		newAnn  provenance.Annotation
	}{
		{[]provenance.Annotation{"u01", "u02"}, "S1"},
		{[]provenance.Annotation{"u03", "u04", "g1"}, "S2"},
		{[]provenance.Annotation{"x1", "x2"}, "Ghost"}, // members absent
		{[]provenance.Annotation{"u05", "u06"}, "u05"}, // named after a member
		{[]provenance.Annotation{"u07", "u08"}, "u09"}, // the name occurs: refused, Applied
		{[]provenance.Annotation{"u10", "u11"}, "S3"},  // a fresh plan again
		{[]provenance.Annotation{"S1", "S3", "u12"}, "S4"},
	}
	e := estimator(valuation.NewCancelSingleAnnotation(p0.Annotations()), Euclidean())
	r := e.Begin(p0)
	var cur, want provenance.Expression = p0, p0
	compiled := 0
	for i, st := range steps {
		if r.planFor != cur {
			compiled++
		}
		cur = r.Replay(cur, st.members, st.newAnn)
		want = want.Apply(provenance.MergeMapping(st.newAnn, st.members...))
		if d := aggDiff(cur.(*provenance.Agg), want.(*provenance.Agg)); d != "" {
			t.Fatalf("step %d: replay %s", i, d)
		}
	}
	if compiled != 2 {
		t.Fatalf("replay compiled %d plans, want 2 (the first, and one after the refused merge)", compiled)
	}
	if r.planFor != cur || r.plan == nil || r.plan.Expr() != cur {
		t.Fatal("the replay's last expression has no cached plan")
	}
	plan := r.plan
	if err := r.CheckPlan(cur, "\x00probe"); err != nil || r.plan != plan {
		t.Fatalf("CheckPlan after the replay: err %v, reused plan %v", err, r.plan == plan)
	}
	if st := e.Stats(); st.MergePatches != 0 || st.MergeRecompiles != 0 {
		t.Fatalf("replayed merges counted: %d patches, %d recompiles", st.MergePatches, st.MergeRecompiles)
	}

	// Sum children out of key order: the plan is not probeable, so the
	// replay Applies from then on and compiles nothing more.
	odd := &provenance.Agg{Agg: p0.Agg, Tensors: []provenance.Tensor{
		{Prov: provenance.Sum{Terms: []provenance.Expr{provenance.V("b"), provenance.V("a")}}, Value: 1, Count: 1, Group: "g"},
		{Prov: provenance.V("c"), Value: 2, Count: 1, Group: "g"},
	}}
	r = e.Begin(odd)
	next := r.Replay(odd, []provenance.Annotation{"a", "c"}, "S")
	next2 := r.Replay(next, []provenance.Annotation{"S", "b"}, "T")
	if d := aggDiff(next2.(*provenance.Agg), odd.Apply(provenance.MergeMapping("S", "a", "c")).Apply(provenance.MergeMapping("T", "S", "b")).(*provenance.Agg)); d != "" {
		t.Fatalf("out-of-order replay: %s", d)
	}
	if r.plan != nil || r.planFor == next || r.planFor == next2 {
		t.Fatal("the replay compiled a plan after meeting an unprobeable one")
	}

	// An expression without an arena plan is Applied; no plan compiles.
	se := sliceExpr{weights: []float64{1, 2}, anns: []provenance.Annotation{"a1", "a2"}}
	r = e.Begin(se)
	r.Replay(se, []provenance.Annotation{"a1", "a2"}, "S")
	if r.plan != nil || r.blockPlan != nil || r.planFor != nil {
		t.Fatal("replaying a non-aggregation compiled a plan")
	}
}

// aggDiff describes the first tensor in which got differs from want —
// polynomial, value bits, count or group, compared on their %#v forms,
// which print every float in its shortest exact form — or returns ""
// when the two agree tensor for tensor.
func aggDiff(got, want *provenance.Agg) string {
	if got.Agg != want.Agg || len(got.Tensors) != len(want.Tensors) {
		return fmt.Sprintf("%s, want %s", got, want)
	}
	for i := range got.Tensors {
		if g, w := fmt.Sprintf("%#v", got.Tensors[i]), fmt.Sprintf("%#v", want.Tensors[i]); g != w {
			return fmt.Sprintf("tensor %d = %s, want %s", i, g, w)
		}
	}
	return ""
}
