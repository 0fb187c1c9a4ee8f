package provenance

import (
	"fmt"
	"testing"
)

// appendBatch extends the plan fixture with every append shape: a
// duplicate-key tensor that must fold into an existing one (combining
// values, adding counts), a fresh polynomial over new annotations in a
// new group, and a fresh compound polynomial (Cmp over Sum) mixing new
// and existing annotations in an existing group.
func appendBatch() []Tensor {
	return []Tensor{
		{Prov: P("u1", "m1"), Value: 2, Count: 1, Group: "m1"},
		{Prov: P("u4", "m3"), Value: 6, Count: 1, Group: "m3"},
		{Prov: Cmp{Inner: Sum{Terms: []Expr{V("u4"), V("u1")}}, Value: 2, Op: OpGE, Bound: 1}, Value: 2, Count: 1, Group: "m1"},
	}
}

var appendAnns = []Annotation{"u1", "u2", "u3", "u4", "m1", "m2", "m3"}

func appendValuation(mask int) Valuation {
	assign := make(map[Annotation]bool, len(appendAnns))
	for i, a := range appendAnns {
		assign[a] = mask&(1<<i) != 0
	}
	return MapValuation{Assign: assign, Default: true, Label: fmt.Sprintf("mask%d", mask)}
}

// requirePlansEquivalent checks observational identity of two plans over
// the full truth table of appendAnns: base evaluation and probe
// evaluation for a cohort of candidate merges (including merges over
// appended annotations).
func requirePlansEquivalent(t *testing.T, label string, got, want *Plan) {
	t.Helper()
	cohort := [][]Annotation{
		{"u1", "u2"},
		{"u1", "u4"}, // old + appended annotation
		{"u4", "m3"}, // appended only
		{"m1", "m3"}, // group rename into appended group
	}
	vals := make([]Valuation, 1<<len(appendAnns))
	for mask := range vals {
		vals[mask] = appendValuation(mask)
	}
	gotVecs, wantVecs := evalVecs(got.Arena(), vals), evalVecs(want.Arena(), vals)
	for mask := range vals {
		if !vecEqual(gotVecs[mask], wantVecs[mask]) {
			t.Fatalf("%s mask %d: EvalBlock %v != %v", label, mask, gotVecs[mask], wantVecs[mask])
		}
	}
	for _, ms := range cohort {
		gp, wp := got.Probe(ms, "Z"), want.Probe(ms, "Z")
		if (gp == nil) != (wp == nil) {
			t.Fatalf("%s probe %v: nil mismatch (got %v, want %v)", label, ms, gp == nil, wp == nil)
		}
		if gp == nil {
			continue
		}
		if gp.Size != wp.Size {
			t.Fatalf("%s probe %v: size %d != %d", label, ms, gp.Size, wp.Size)
		}
		for _, merged := range []bool{false, true} {
			always := func(int) bool { return merged }
			gotVecs, wantVecs := candVecs(gp, vals, always), candVecs(wp, vals, always)
			for mask := range vals {
				if !vecEqual(gotVecs[mask], wantVecs[mask]) {
					t.Fatalf("%s probe %v mask %d merged=%v: CandEvalBlock %v != %v", label, ms, mask, merged, gotVecs[mask], wantVecs[mask])
				}
			}
		}
	}
}

// TestApplyAppendMatchesNewPlan is the acceptance test for the in-place
// append patch: for every aggregation monoid, patching an ingest batch
// into a live plan must leave it observationally identical to compiling
// the extended expression from scratch.
func TestApplyAppendMatchesNewPlan(t *testing.T) {
	for _, kind := range []AggKind{AggSum, AggMax, AggMin, AggCount} {
		cur := planFixture(kind)
		plan := NewPlan(cur)
		added := appendBatch()
		tensors := append(append([]Tensor{}, cur.Tensors...), added...)
		next := NewAgg(kind, tensors...)
		if !plan.ApplyAppend(next, added) {
			t.Fatalf("%v: ApplyAppend bailed on a plain append batch", kind)
		}
		requirePlansEquivalent(t, kind.String(), plan, NewPlan(next))
	}
}

// TestApplyAppendChained pins repeated single-tensor appends (the
// streaming steady state): each patch builds on the previous one and the
// final plan still matches a from-scratch compile.
func TestApplyAppendChained(t *testing.T) {
	cur := planFixture(AggSum)
	plan := NewPlan(cur)
	for i, add := range appendBatch() {
		added := []Tensor{add}
		tensors := append(append([]Tensor{}, cur.Tensors...), added...)
		next := NewAgg(AggSum, tensors...)
		if !plan.ApplyAppend(next, added) {
			t.Fatalf("append %d: ApplyAppend bailed", i)
		}
		cur = next
	}
	requirePlansEquivalent(t, "chained", plan, NewPlan(cur))
}

// TestApplyAppendBails pins the mutation-free bail paths: a nil or
// mismatched next, an empty batch, and a non-appendable polynomial must
// all return false and leave the plan byte-equivalent to the
// pre-append compile.
func TestApplyAppendBails(t *testing.T) {
	cur := planFixture(AggSum)
	plan := NewPlan(cur)
	added := appendBatch()
	tensors := append(append([]Tensor{}, cur.Tensors...), added...)
	next := NewAgg(AggSum, tensors...)

	if plan.ApplyAppend(next, nil) {
		t.Fatal("ApplyAppend accepted an empty batch")
	}
	if plan.ApplyAppend(nil, added) {
		t.Fatal("ApplyAppend accepted a nil next expression")
	}
	// next missing the appended tensors: the one-to-one match fails.
	if plan.ApplyAppend(cur, added) {
		t.Fatal("ApplyAppend accepted a next that omits the batch")
	}
	// next with a diverging value for one tensor: self-verification fails.
	wrong := append(append([]Tensor{}, cur.Tensors...), added...)
	wrong[len(wrong)-1].Value += 100
	if plan.ApplyAppend(NewAgg(AggSum, wrong...), added) {
		t.Fatal("ApplyAppend accepted a next disagreeing with the batch")
	}

	// Every bail above must have left the plan untouched.
	requirePlansEquivalentBase(t, "after bails", plan, NewPlan(cur))

	// A successful append still works after the bails.
	if !plan.ApplyAppend(next, added) {
		t.Fatal("ApplyAppend bailed after recoverable failures")
	}
	requirePlansEquivalent(t, "after recovery", plan, NewPlan(next))
}

// requirePlansEquivalentBase compares base evaluation only, for plans
// whose expressions do not contain the appended annotations yet.
func requirePlansEquivalentBase(t *testing.T, label string, got, want *Plan) {
	t.Helper()
	vals := planVals()
	gotVecs, wantVecs := evalVecs(got.Arena(), vals), evalVecs(want.Arena(), vals)
	for mask := range vals {
		if !vecEqual(gotVecs[mask], wantVecs[mask]) {
			t.Fatalf("%s mask %d: EvalBlock %v != %v", label, mask, gotVecs[mask], wantVecs[mask])
		}
	}
}
