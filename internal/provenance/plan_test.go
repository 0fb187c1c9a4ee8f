package provenance

import (
	"fmt"
	"math"
	"testing"
)

// planFixture is a small aggregation exercising every polynomial node
// kind, group annotations that also occur inside polynomials (as in the
// MovieLens encoding), a shared-polynomial merge opportunity, and a
// scalar ("") coordinate.
func planFixture(kind AggKind) *Agg {
	return NewAgg(kind,
		Tensor{Prov: P("u1", "m1"), Value: 3, Count: 1, Group: "m1"},
		Tensor{Prov: P("u2", "m1"), Value: 5, Count: 1, Group: "m1"},
		Tensor{Prov: P("u1", "m2"), Value: 2, Count: 1, Group: "m2"},
		Tensor{Prov: Sum{Terms: []Expr{V("u2"), V("u3")}}, Value: 4, Count: 1, Group: "m2"},
		Tensor{Prov: Cmp{Inner: P("u3", "m2"), Value: 4, Op: OpGE, Bound: 3}, Value: 1, Count: 1, Group: "m1"},
		Tensor{Prov: V("u3"), Value: 7, Count: 1, Group: ""},
	)
}

var planAnns = []Annotation{"u1", "u2", "u3", "m1", "m2"}

// planValuation enumerates truth assignments over planAnns by bitmask.
func planValuation(mask int) Valuation {
	assign := make(map[Annotation]bool, len(planAnns))
	for i, a := range planAnns {
		assign[a] = mask&(1<<i) != 0
	}
	return MapValuation{Assign: assign, Default: true, Label: fmt.Sprintf("mask%d", mask)}
}

// evalVecs evaluates ar on every valuation of vals through EvalBlock,
// 64 lanes per pass, and returns each valuation's vector.
func evalVecs(ar *Arena, vals []Valuation) []Vector {
	out := make([]Vector, len(vals))
	tb, bs := NewTruthBlock(), NewBlockScratch()
	for lo := 0; lo < len(vals); lo += 64 {
		block := vals[lo:min(len(vals), lo+64)]
		fillBlock(ar, tb, block)
		ar.EvalBlock(tb, bs, out[lo:lo+len(block)])
	}
	return out
}

// candVecs evaluates pr's candidate on every valuation of vals: a base
// EvalRows pass per 64 lanes, then CandEvalBlock on all of them, with
// the merged group true on lane i when merged(i). Each candidate row is
// keyed by the probe's slots.
func candVecs(pr *Probe, vals []Valuation, merged func(i int) bool) []Vector {
	ar := pr.plan.ar
	out := make([]Vector, len(vals))
	tb, bs := NewTruthBlock(), NewBlockScratch()
	base, cand := make([][]float64, 64), make([][]float64, 64)
	for lo := 0; lo < len(vals); lo += 64 {
		block := vals[lo:min(len(vals), lo+64)]
		fillBlock(ar, tb, block)
		ar.EvalRows(tb, bs, base[:len(block)])
		var w uint64
		for j := range block {
			if merged(lo + j) {
				w |= 1 << uint(j)
			}
		}
		pr.CandEvalBlock(w, tb.Mask(), base[:len(block)], bs, cand[:len(block)])
		for j := range block {
			out[lo+j] = rowVec(pr.Slots(), cand[j])
		}
	}
	return out
}

// rowVec keys a dense row by its slots.
func rowVec(slots []Annotation, row []float64) Vector {
	vec := make(Vector, len(slots))
	for i, g := range slots {
		vec[g] = row[i]
	}
	return vec
}

// phiOf returns the merged-truth function of candVecs for members under
// φ over the valuations vals.
func phiOf(vals []Valuation, members []Annotation, phi Combiner) func(int) bool {
	return func(i int) bool {
		truths := make([]bool, len(members))
		for k, m := range members {
			truths[k] = vals[i].Truth(m)
		}
		return phi.Combine(truths)
	}
}

// planVals returns planValuation for every mask over planAnns.
func planVals() []Valuation {
	vals := make([]Valuation, 1<<len(planAnns))
	for mask := range vals {
		vals[mask] = planValuation(mask)
	}
	return vals
}

// vecEqual reports whether a and b have the same coordinates with
// bit-identical values.
func vecEqual(a, b Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || math.Float64bits(av) != math.Float64bits(bv) {
			return false
		}
	}
	return true
}

func TestPlanBaseEvalMatchesEval(t *testing.T) {
	for _, kind := range []AggKind{AggSum, AggMax, AggMin, AggCount} {
		cur := planFixture(kind)
		plan := NewPlan(cur)
		if plan == nil {
			t.Fatalf("%v: NewPlan returned nil for an *Agg", kind)
		}
		vals := planVals()
		got := evalVecs(plan.Arena(), vals)
		for mask, v := range vals {
			want := cur.Eval(v).(Vector)
			if !vecEqual(got[mask], want) {
				t.Fatalf("%v mask %d: EvalBlock %v != Eval %v", kind, mask, got[mask], want)
			}
		}
	}
}

// TestProbeMatchesApply pins the probe-without-materialize contract: for
// every candidate merge, the probe's incremental size equals
// Apply(...).Size() and CandEvalBlock is exactly Apply(...).Eval under the
// candidate's extended valuation — for every aggregation monoid, both
// combiners, and every valuation of the domain.
func TestProbeMatchesApply(t *testing.T) {
	cohort := [][]Annotation{
		{"u1", "u2"},       // polynomial-only merge
		{"u1", "u3"},       // merge creating duplicate polynomials
		{"m1", "m2"},       // group rename (coordinates merge)
		{"u2", "m1"},       // mixed: polynomial member + group member
		{"u1", "u2", "u3"}, // 3-ary merge (MergeArity > 2)
	}
	vals := planVals()
	for _, kind := range []AggKind{AggSum, AggMax, AggMin, AggCount} {
		cur := planFixture(kind)
		plan := NewPlan(cur)
		for _, phi := range []Combiner{CombineOr, CombineAnd} {
			for _, ms := range cohort {
				pr := plan.Probe(ms, "Z")
				if pr == nil {
					t.Fatalf("%v φ=%s probe %v: unexpected nil", kind, phi.Name(), ms)
				}
				step := MergeMapping("Z", ms...)
				want := cur.Apply(step).(*Agg)
				if pr.Size != want.Size() {
					t.Fatalf("%v probe %v: incremental size %d != Apply size %d", kind, ms, pr.Size, want.Size())
				}
				got := candVecs(pr, vals, phiOf(vals, ms, phi))
				for mask, v := range vals {
					ext := ExtendValuation(v, Groups{"Z": ms}, phi)
					wantVec := want.Eval(ext).(Vector)
					if !vecEqual(got[mask], wantVec) {
						t.Fatalf("%v φ=%s probe %v mask %d:\n CandEvalBlock %v\n Eval          %v",
							kind, phi.Name(), ms, mask, got[mask], wantVec)
					}
				}
			}
		}
	}
}

// TestProbeMatchesApplyMidRun exercises a probe over an expression that
// is itself a summary (non-singleton base groups): the assignment fed to
// the plan is the step's extended valuation, exactly as the distance
// layer uses it mid-run.
func TestProbeMatchesApplyMidRun(t *testing.T) {
	p0 := planFixture(AggSum)
	cum := MappingOf(map[Annotation]Annotation{"u1": "S1", "u2": "S1", "u3": "S2"})
	cur := p0.Apply(cum).(*Agg)
	base := GroupsOf(p0.Annotations(), cum)
	plan := NewPlan(cur)
	for _, ms := range [][]Annotation{{"S1", "S2"}, {"S1", "m1"}, {"m1", "m2"}} {
		pr := plan.Probe(ms, "Z")
		if pr == nil {
			t.Fatalf("probe %v: unexpected nil", ms)
		}
		step := MergeMapping("Z", ms...)
		want := cur.Apply(step).(*Agg)
		if pr.Size != want.Size() {
			t.Fatalf("probe %v: incremental size %d != Apply size %d", ms, pr.Size, want.Size())
		}
		candGroups := make(Groups, len(base)+1)
		var merged []Annotation
		for name, members := range base {
			candGroups[name] = members
		}
		for _, m := range ms {
			merged = append(merged, base.Members(m)...)
			delete(candGroups, m)
		}
		candGroups["Z"] = merged
		raw := planVals()
		baseExts := make([]Valuation, len(raw))
		for mask, v := range raw {
			baseExts[mask] = ExtendValuation(v, base, CombineOr)
		}
		baseVecs := evalVecs(plan.Arena(), baseExts)
		got := candVecs(pr, baseExts, phiOf(raw, merged, CombineOr))
		for mask, v := range raw {
			if !vecEqual(baseVecs[mask], cur.Eval(baseExts[mask]).(Vector)) {
				t.Fatalf("probe %v mask %d: EvalBlock disagrees with Eval", ms, mask)
			}
			wantVec := want.Eval(ExtendValuation(v, candGroups, CombineOr)).(Vector)
			if !vecEqual(got[mask], wantVec) {
				t.Fatalf("probe %v mask %d:\n CandEvalBlock %v\n Eval          %v", ms, mask, got[mask], wantVec)
			}
		}
	}
}

func TestProbeSubtreeEvalsCounted(t *testing.T) {
	plan := NewPlan(planFixture(AggSum))
	ar := plan.Arena()
	tb, bs := NewTruthBlock(), NewBlockScratch()
	fillBlock(ar, tb, []Valuation{planValuation(0x1f)}) // all true
	base := make([][]float64, 1)
	ar.EvalRows(tb, bs, base)
	pr := plan.Probe([]Annotation{"u1", "u2"}, "Z")
	before := bs.SubtreeEvals
	pr.CandEvalBlock(1, 1, base, bs, make([][]float64, 1))
	if bs.SubtreeEvals <= before {
		t.Fatal("substituted evaluation did not count any subtree node")
	}
}

type opaqueExpression struct{}

func (opaqueExpression) Size() int                              { return 1 }
func (opaqueExpression) Annotations() []Annotation              { return nil }
func (opaqueExpression) Apply(Mapping) Expression               { return opaqueExpression{} }
func (opaqueExpression) Eval(Valuation) Result                  { return Scalar(0) }
func (opaqueExpression) AlignResult(r Result, _ Mapping) Result { return r }
func (opaqueExpression) String() string                         { return "opaque" }

func TestPlanUnsupported(t *testing.T) {
	if NewPlan(opaqueExpression{}) != nil {
		t.Fatal("NewPlan must reject non-Agg expressions")
	}
	if NewPlan((*Agg)(nil)) != nil {
		t.Fatal("NewPlan must reject a nil *Agg")
	}
	plan := NewPlan(planFixture(AggSum))
	if plan.Probe([]Annotation{"u1", "u2"}, "m1") != nil {
		t.Fatal("Probe must reject a summary name already present in the expression")
	}
	if plan.Probe([]Annotation{"u1", "u2"}, Zero) != nil {
		t.Fatal("Probe must reject the reserved Zero annotation")
	}
	if plan.Probe([]Annotation{"u1", One}, "Z") != nil {
		t.Fatal("Probe must reject reserved member annotations")
	}
}
