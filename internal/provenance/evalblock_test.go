package provenance

import (
	"fmt"
	"testing"
)

// blockValuations enumerates `lanes` valuations over planAnns: lane j is
// planValuation(j % 32).
func blockValuations(lanes int) []Valuation {
	vals := make([]Valuation, lanes)
	for j := range vals {
		vals[j] = planValuation(j % (1 << len(planAnns)))
	}
	return vals
}

// fillBlock packs the truths of vals into tb over ar's interned
// annotations.
func fillBlock(ar *Arena, tb *TruthBlock, vals []Valuation) {
	tb.Reset(ar.NumAnns(), len(vals))
	for id, ann := range ar.Annotations() {
		var w uint64
		for j, v := range vals {
			if v.Truth(ann) {
				w |= 1 << uint(j)
			}
		}
		tb.SetWord(int32(id), w)
	}
}

// TestEvalBlockMatchesEval pins the tentpole bit-identity contract: one
// blocked sweep over V lanes produces, lane for lane, the same vector as
// V reference Agg.Eval calls — for every monoid and for partial blocks
// (V not a multiple of 64).
func TestEvalBlockMatchesEval(t *testing.T) {
	for _, kind := range []AggKind{AggSum, AggMax, AggMin, AggCount} {
		for _, lanes := range []int{1, 5, 37, 64} {
			g := planFixture(kind)
			ar := CompileArena(g)
			if !ar.Blockable() {
				t.Fatalf("%v: fixture arena unexpectedly non-blockable", kind)
			}
			vals := blockValuations(lanes)
			tb := NewTruthBlock()
			fillBlock(ar, tb, vals)
			out := make([]Vector, lanes)
			ar.EvalBlock(tb, NewBlockScratch(), out)
			for j, v := range vals {
				if want := g.Eval(v).(Vector); !vecEqual(out[j], want) {
					t.Fatalf("%v lanes=%d lane=%d: EvalBlock %v != Eval %v",
						kind, lanes, j, out[j], want)
				}
			}
		}
	}
}

// TestEvalBlockReusesOutVectors checks that non-nil out entries are
// cleared and refilled in place rather than reallocated.
func TestEvalBlockReusesOutVectors(t *testing.T) {
	g := planFixture(AggSum)
	ar := CompileArena(g)
	vals := blockValuations(8)
	tb := NewTruthBlock()
	fillBlock(ar, tb, vals)
	s := NewBlockScratch()
	out := make([]Vector, 8)
	ar.EvalBlock(tb, s, out)
	first := make([]Vector, 8)
	for j := range out {
		first[j] = out[j]
		out[j]["stale-coordinate"] = 99 // must be cleared by the refill
	}
	ar.EvalBlock(tb, s, out)
	for j := range out {
		if fmt.Sprintf("%p", out[j]) != fmt.Sprintf("%p", first[j]) {
			t.Fatalf("lane %d: out vector reallocated on reuse", j)
		}
		if _, ok := out[j]["stale-coordinate"]; ok {
			t.Fatalf("lane %d: stale coordinate survived the refill", j)
		}
	}
}

// TestCandEvalBlockMatchesApply pins the blocked probe path against the
// materialized candidate's Agg.Eval under the extended valuation on
// every lane of a block, for every cohort merge, both combiners, and
// every monoid — and checks that lanes outside the evaluated set stay
// untouched.
func TestCandEvalBlockMatchesApply(t *testing.T) {
	cohort := [][]Annotation{
		{"u1", "u2"},
		{"u1", "u3"},
		{"m1", "m2"},
		{"u2", "m1"},
		{"u1", "u2", "u3"},
	}
	const lanes = 32
	for _, kind := range []AggKind{AggSum, AggMax, AggMin, AggCount} {
		cur := planFixture(kind)
		plan := NewPlan(cur)
		ar := plan.Arena()
		vals := blockValuations(lanes)
		tb := NewTruthBlock()
		fillBlock(ar, tb, vals)
		bs := NewBlockScratch()
		base := make([][]float64, lanes)
		ar.EvalRows(tb, bs, base)
		for _, phi := range []Combiner{CombineOr, CombineAnd} {
			for _, ms := range cohort {
				pr := plan.Probe(ms, "Z")
				if pr == nil {
					t.Fatalf("%v probe %v: unexpected nil", kind, ms)
				}
				next := cur.Apply(MergeMapping("Z", ms...))
				// Merged φ-truth word over the member columns.
				words := make([]uint64, len(ms))
				for i, m := range ms {
					id, _ := ar.AnnID(m)
					words[i] = tb.Word(id)
				}
				mergedW := phi.(WordCombiner).CombineWords(words, tb.Mask())
				// Evaluate even lanes only; odd lanes must stay nil.
				evalLanes := uint64(0x5555_5555_5555_5555) & tb.Mask()
				out := make([][]float64, lanes)
				pr.CandEvalBlock(mergedW, evalLanes, base, bs, out)
				for j, v := range vals {
					if evalLanes&(1<<uint(j)) == 0 {
						if out[j] != nil {
							t.Fatalf("%v probe %v lane %d: unevaluated lane was written", kind, ms, j)
						}
						continue
					}
					got := rowVec(pr.Slots(), out[j])
					want := next.Eval(ExtendValuation(v, Groups{"Z": ms}, phi)).(Vector)
					if !vecEqual(got, want) {
						t.Fatalf("%v φ=%s probe %v lane %d:\n CandEvalBlock %v\n Eval          %v",
							kind, phi.Name(), ms, j, got, want)
					}
				}
			}
		}
	}
}

// TestEvalBlockRejectsNegativeConst checks the Blockable gate: an arena
// with a negative constant must refuse the word-level kernel (its
// sum-of-naturals nonzero propagation would be unsound).
func TestEvalBlockRejectsNegativeConst(t *testing.T) {
	g := NewAgg(AggSum,
		Tensor{Prov: Sum{Terms: []Expr{V("a"), Const{N: -1}}}, Value: 2, Count: 1, Group: "g"},
	)
	ar := CompileArena(g)
	if ar == nil {
		t.Fatal("CompileArena rejected a negative constant entirely")
	}
	if ar.Blockable() {
		t.Fatal("arena with a negative constant reported Blockable")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("EvalBlock on a non-blockable arena did not panic")
		}
	}()
	tb := NewTruthBlock()
	tb.Reset(ar.NumAnns(), 1)
	ar.EvalBlock(tb, NewBlockScratch(), make([]Vector, 1))
}

func TestTruthBlockLaneBounds(t *testing.T) {
	for _, lanes := range []int{0, 65, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Reset(%d lanes) did not panic", lanes)
				}
			}()
			NewTruthBlock().Reset(4, lanes)
		}()
	}
}

func TestScratchPoolsReuse(t *testing.T) {
	ar := CompileArena(planFixture(AggSum))
	bs := ar.GetBlockScratch()
	bs.SubtreeEvals = 42
	ar.PutBlockScratch(bs)
	if bs2 := ar.GetBlockScratch(); bs2.SubtreeEvals != 0 {
		t.Fatal("pooled BlockScratch kept its SubtreeEvals counter")
	}
}

// applyMergeStep commits one merge on a patched plan and returns the
// next expression. It fails the test when the patch is refused (callers
// that expect refusal pass wantPatch == false) or when the next
// expression the patch builds differs from cur.Apply of the merge.
func applyMergeStep(t *testing.T, plan *Plan, cur *Agg, ms []Annotation, newAnn Annotation, wantPatch bool) *Agg {
	t.Helper()
	want := cur.Apply(MergeMapping(newAnn, ms...)).(*Agg)
	next, patch := plan.ApplyMerge(ms, newAnn)
	if got := patch != nil; got != wantPatch {
		t.Fatalf("ApplyMerge(%v→%s) patched = %v, want %v", ms, newAnn, got, wantPatch)
	}
	if next == nil {
		return want
	}
	if d := aggDiff(next, want); d != "" {
		t.Fatalf("ApplyMerge(%v→%s) built a next expression unlike Apply: %s", ms, newAnn, d)
	}
	return next
}

// TestApplyMergeMatchesRecompile is the arena-vs-recompile equivalence
// test at the provenance layer: after each committed merge the patched
// plan must be observationally identical to NewPlan(next) — EvalBlock on
// every valuation, Probe sizes and CandEvalBlock on a follow-up
// candidate, and the plan's own size accounting. The end-to-end (full
// MovieLens run) variant lives in internal/core.
func TestApplyMergeMatchesRecompile(t *testing.T) {
	for _, kind := range []AggKind{AggSum, AggMax, AggMin, AggCount} {
		cur := planFixture(kind)
		plan := NewPlan(cur)
		steps := []struct {
			ms     []Annotation
			newAnn Annotation
		}{
			{[]Annotation{"u1", "u2"}, "S1"},
			{[]Annotation{"m1", "m2"}, "S2"}, // group rename
		}
		// Valuations over the *summary* annotations: extend the base
		// valuation so S1/S2 get φ-truths like a real run.
		vals := planVals()
		for mask, v := range vals {
			vals[mask] = ExtendValuation(v, Groups{"S1": {"u1", "u2"}, "S2": {"m1", "m2"}}, CombineOr)
		}
		for si, st := range steps {
			cur = applyMergeStep(t, plan, cur, st.ms, st.newAnn, true)
			fresh := NewPlan(cur)
			if plan.Expr() != cur {
				t.Fatalf("%v step %d: patched plan does not hold the committed expression", kind, si)
			}
			got, want := evalVecs(plan.Arena(), vals), evalVecs(fresh.Arena(), vals)
			for mask := range vals {
				if !vecEqual(got[mask], want[mask]) {
					t.Fatalf("%v step %d mask %d: patched EvalBlock %v != recompiled %v",
						kind, si, mask, got[mask], want[mask])
				}
			}
			pp := plan.Probe([]Annotation{"S1", "u3"}, "Z")
			fp := fresh.Probe([]Annotation{"S1", "u3"}, "Z")
			if (pp == nil) != (fp == nil) {
				t.Fatalf("%v step %d: probe nil-ness diverged", kind, si)
			}
			if pp == nil {
				continue
			}
			if pp.Size != fp.Size {
				t.Fatalf("%v step %d: probe size %d != recompiled %d", kind, si, pp.Size, fp.Size)
			}
			for _, merged := range []bool{false, true} {
				always := func(int) bool { return merged }
				got, want := candVecs(pp, vals, always), candVecs(fp, vals, always)
				for mask := range vals {
					if !vecEqual(got[mask], want[mask]) {
						t.Fatalf("%v step %d mask %d merged=%v: patched CandEvalBlock %v != recompiled %v",
							kind, si, mask, merged, got[mask], want[mask])
					}
				}
			}
		}
	}
}

// TestApplyMergeBlockedEvalAfterPatch checks that the blocked kernel
// stays bit-identical to the tree walker on a patched arena (garbage
// spans present, cone recomputed, annotation count grown).
func TestApplyMergeBlockedEvalAfterPatch(t *testing.T) {
	cur := planFixture(AggSum)
	plan := NewPlan(cur)
	next := applyMergeStep(t, plan, cur, []Annotation{"u1", "u2"}, "S1", true)
	ar := plan.Arena()
	if ar.DeadNodes() == 0 {
		t.Fatal("merge of u1/u2 left no garbage: fixture no longer exercises dead spans")
	}
	const lanes = 32
	vals := make([]Valuation, lanes)
	for j := range vals {
		vals[j] = ExtendValuation(planValuation(j), Groups{"S1": {"u1", "u2"}}, CombineOr)
	}
	tb := NewTruthBlock()
	fillBlock(ar, tb, vals)
	out := make([]Vector, lanes)
	ar.EvalBlock(tb, ar.GetBlockScratch(), out)
	for j, v := range vals {
		if want := next.Eval(v).(Vector); !vecEqual(out[j], want) {
			t.Fatalf("lane %d: blocked eval on patched arena %v != tree %v", j, out[j], want)
		}
	}
}

// TestApplyMergeRefusals pins the guard conditions under which the patch
// must refuse, build no next expression and leave the plan untouched.
func TestApplyMergeRefusals(t *testing.T) {
	cur := planFixture(AggSum)
	plan := NewPlan(cur)
	if next, patch := plan.ApplyMerge([]Annotation{"u1", "u2"}, "m1"); next != nil || patch != nil {
		t.Fatal("ApplyMerge accepted an already-interned summary annotation")
	}
	if next, patch := plan.ApplyMerge([]Annotation{"u1", One}, "S1"); next != nil || patch != nil {
		t.Fatal("ApplyMerge accepted a reserved member annotation")
	}
	// The refusals above must not have mutated the plan.
	v := planValuation(13)
	if got, want := evalVecs(plan.Arena(), []Valuation{v})[0], cur.Eval(v).(Vector); !vecEqual(got, want) {
		t.Fatalf("refused ApplyMerge mutated the plan: %v != %v", got, want)
	}
	if plan.Expr() != cur {
		t.Fatal("refused ApplyMerge replaced the plan's expression")
	}
	applyMergeStep(t, plan, cur, []Annotation{"u1", "u2"}, "S1", true)

	// A plan outside Simplify normal form builds no next expression: its
	// tensors are not the ones Apply would simplify.
	unsorted := &Agg{Agg: Aggregator{AggSum}, Tensors: []Tensor{
		{Prov: Sum{Terms: []Expr{V("u2"), V("u1")}}, Value: 1, Count: 1, Group: "m1"},
	}}
	if next, patch := NewPlan(unsorted).ApplyMerge([]Annotation{"u1", "u3"}, "S1"); next != nil || patch != nil {
		t.Fatal("ApplyMerge patched a plan whose sum lists its terms out of key order")
	}
}

// BenchmarkEvalBlock measures one 64-lane blocked sweep of the plan
// fixture into reused Vector lanes; per-valuation cost is the result
// divided by 64. BenchmarkEvalRows is the same sweep into the dense rows
// the delta sweep reads.
func BenchmarkEvalBlock(b *testing.B) {
	g := planFixture(AggSum)
	ar := CompileArena(g)
	vals := blockValuations(64)
	tb := NewTruthBlock()
	fillBlock(ar, tb, vals)
	s := NewBlockScratch()
	out := make([]Vector, 64)
	ar.EvalBlock(tb, s, out) // warm the out vectors
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ar.EvalBlock(tb, s, out)
	}
}

func BenchmarkEvalRows(b *testing.B) {
	ar := CompileArena(planFixture(AggSum))
	tb := NewTruthBlock()
	fillBlock(ar, tb, blockValuations(64))
	s := NewBlockScratch()
	rows := make([][]float64, 64)
	ar.EvalRows(tb, s, rows) // size the rows
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ar.EvalRows(tb, s, rows)
	}
}
