package provenance

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
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

// appendStep appends added to cur through plan and returns the next
// expression, failing the test when the patch is refused or when the
// next expression it builds differs from NewAgg over cur's tensors plus
// added.
func appendStep(t *testing.T, plan *Plan, cur *Agg, added []Tensor) *Agg {
	t.Helper()
	want := NewAgg(cur.Agg.Kind, append(append([]Tensor{}, cur.Tensors...), added...)...)
	next, patched := plan.ApplyAppend(added)
	if !patched {
		t.Fatalf("ApplyAppend bailed on a plain append batch onto %s", cur)
	}
	if d := aggDiff(next, want); d != "" {
		t.Fatalf("ApplyAppend built a next expression unlike NewAgg: %s", d)
	}
	if plan.Expr() != next {
		t.Fatal("patched plan does not hold the next expression")
	}
	return next
}

// TestApplyAppendMatchesNewPlan is the acceptance test for the in-place
// append patch: for every aggregation monoid, patching an ingest batch
// into a live plan must build the extended expression NewAgg builds and
// leave the plan observationally identical to compiling it from
// scratch.
func TestApplyAppendMatchesNewPlan(t *testing.T) {
	for _, kind := range []AggKind{AggSum, AggMax, AggMin, AggCount} {
		cur := planFixture(kind)
		plan := NewPlan(cur)
		next := appendStep(t, plan, cur, appendBatch())
		requirePlansEquivalent(t, kind.String(), plan, NewPlan(next))
	}
}

// TestApplyAppendChained pins repeated single-tensor appends (the
// streaming steady state): each patch builds on the previous one and the
// final plan still matches a from-scratch compile.
func TestApplyAppendChained(t *testing.T) {
	cur := planFixture(AggSum)
	plan := NewPlan(cur)
	for _, add := range appendBatch() {
		cur = appendStep(t, plan, cur, []Tensor{add})
	}
	requirePlansEquivalent(t, "chained", plan, NewPlan(cur))
}

// TestApplyAppendBails pins the mutation-free bail paths: an empty batch
// and a plan outside Simplify normal form build no next expression, and
// a polynomial the arena cannot compile builds it without patching; each
// leaves the plan equivalent to the pre-append compile.
func TestApplyAppendBails(t *testing.T) {
	cur := planFixture(AggSum)
	plan := NewPlan(cur)

	if next, patched := plan.ApplyAppend(nil); next != nil || patched {
		t.Fatal("ApplyAppend accepted an empty batch")
	}
	// A constant outside int32 does not compile: next is built, the plan
	// is not patched.
	huge := []Tensor{{Prov: Prod{Factors: []Expr{V("u4"), Const{1 << 40}}}, Value: 1, Count: 1, Group: "m1"}}
	next, patched := plan.ApplyAppend(huge)
	if patched {
		t.Fatal("ApplyAppend patched a polynomial the arena cannot compile")
	}
	if d := aggDiff(next, NewAgg(AggSum, append(append([]Tensor{}, cur.Tensors...), huge...)...)); d != "" {
		t.Fatalf("refused ApplyAppend built a next expression unlike NewAgg: %s", d)
	}
	unsorted := &Agg{Agg: Aggregator{AggSum}, Tensors: []Tensor{{Prov: V("u2"), Value: 1, Count: 1}, {Prov: V("u1"), Value: 1, Count: 1}}}
	if next, patched := NewPlan(unsorted).ApplyAppend(appendBatch()); next != nil || patched {
		t.Fatal("ApplyAppend patched a plan whose tensors are out of key order")
	}

	// Every bail above must have left the plan untouched.
	requirePlansEquivalentBase(t, "after bails", plan, NewPlan(cur))
	if plan.Expr() != cur {
		t.Fatal("a bail replaced the plan's expression")
	}

	// A successful append still works after the bails.
	next = appendStep(t, plan, cur, appendBatch())
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

// appendFixture decodes an ingest batch onto cur from fuzz bytes: copies
// of cur's tensors and of earlier batch tensors with new values (which
// fold into them), polynomials that simplify to 0 (which drop), sums
// listed out of key order (which Simplify sorts), and fresh products in
// groups that sort between cur's (m15 between m1 and m2) or in the
// scalar coordinate. Values are SUM-order-sensitive, and two of 2^52
// reach the bound of exact SUM folds.
func appendFixture(next func() byte, cur *Agg) []Tensor {
	users := []Annotation{"u1", "u2", "u6", "p*q", "b+v:c"}
	groups := []Annotation{"m1", "m15", "m5", "x (1)", "r|s", ""}
	values := []float64{0.1, 0.7, 1e16, 1, 3, 1 << 52}
	pick := func(as []Annotation) Annotation { return as[int(next())%len(as)] }
	added := make([]Tensor, int(next())%6+1)
	for i := range added {
		t := Tensor{Value: values[int(next())%len(values)], Count: int(next())%2 + 1}
		switch next() % 5 {
		case 0:
			src := cur.Tensors[int(next())%len(cur.Tensors)]
			t.Prov, t.Group = src.Prov, src.Group
		case 1:
			if i > 0 {
				src := added[int(next())%i]
				t.Prov, t.Group = src.Prov, src.Group
				break
			}
			fallthrough
		case 2:
			t.Prov, t.Group = Prod{Factors: []Expr{V(pick(users)), Const{0}}}, pick(groups)
		case 3:
			t.Prov, t.Group = Sum{Terms: []Expr{V("u9"), V(pick(users)), V("u0")}}, pick(groups)
		default:
			g := pick(groups)
			t.Prov, t.Group = P(pick(users), g, "y1"), g
		}
		added[i] = t
	}
	return added
}

// FuzzPlanAppend is the differential fuzzer of the append patch: over a
// decoded MovieLens-shaped aggregation of any monoid, two decoded ingest
// batches go through Plan.ApplyAppend one after the other. The next
// expression each builds must equal NewAgg over the current tensors
// plus the batch, tensor for tensor in polynomial structure and value
// bits, so the combine order of folded duplicates shows under SUM. The
// patched plan must equal a full rebuild over its own tensors
// (requireRebuilt), hold the tensors, size, flags and indexes a fresh
// plan of that expression has, and evaluate like it bit for bit.
func FuzzPlanAppend(f *testing.F) {
	f.Add([]byte{9, 0, 0, 2, 0, 1, 1, 1, 2, 2, 1, 3, 0, 5, 2, 0, 0, 1, 2, 3, 1, 0, 4, 2, 1, 1}, uint64(7), uint8(0))
	f.Add([]byte{11, 1, 2, 0, 1, 4, 2, 3, 3, 1, 2, 2, 0, 3, 0, 4, 1, 1, 2, 0, 3, 1, 2, 2, 1, 0, 1, 5, 0, 0, 1, 1, 0, 2, 2}, uint64(99), uint8(1))
	f.Add([]byte{5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}, uint64(1<<40|3), uint8(2))
	// The first batch opens the groups m15 and r|s.
	f.Add([]byte{1, 4, 1, 0, 1, 5, 2, 1, 0, 6, 6, 1, 5, 6, 4, 6, 2, 3, 5, 4, 5, 0, 3, 0, 1, 4, 6, 3, 2, 4, 2, 4, 6, 0, 6, 6}, uint64(11), uint8(0))
	// Under SUM the second batch's values of 2^52 take the integral
	// magnitudes to 2^53, so the plan stops being exact.
	f.Add([]byte{0, 0, 1, 4, 5, 0, 1, 1, 2, 1, 2, 3, 7, 0, 7, 1, 6, 7, 5, 5, 0, 6, 4, 3, 0, 5, 4, 4, 7, 6, 1, 5, 6, 5, 1, 4, 1, 4}, uint64(13), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, kindByte uint8) {
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		kind := AggKind(kindByte % 4)
		cur := carryFixture(next, kind)
		plan := NewPlan(cur)
		if plan == nil || !plan.probeable {
			t.Skipf("fixture does not plan: %s", cur)
		}
		for batch := 0; batch < 2; batch++ {
			added := appendFixture(next, cur)
			want := NewAgg(kind, append(append([]Tensor{}, cur.Tensors...), added...)...)
			got, patched := plan.ApplyAppend(added)
			if d := aggDiff(got, want); d != "" {
				t.Fatalf("batch %d %v onto %s: ApplyAppend built a next expression unlike NewAgg: %s", batch, added, cur, d)
			}
			if !patched {
				t.Fatalf("batch %d %v onto %s: ApplyAppend refused a compilable batch", batch, added, cur)
			}
			requireRebuilt(t, fmt.Sprintf("batch %d", batch), plan)
			requirePlanLike(t, fmt.Sprintf("batch %d", batch), plan, NewPlan(want), seed+uint64(batch))
			cur = got
		}
	})
}

// requirePlanLike holds a patched plan to a fresh plan of the same
// expression: tensor for tensor (key, value, count, group, size and the
// annotations each mentions), the plan's size and flags, the
// annotation→tensor and group→tensor indexes by name, and one
// seed-derived block of EvalRows bit for bit.
func requirePlanLike(t *testing.T, label string, got, want *Plan, seed uint64) {
	t.Helper()
	if len(got.tensors) != len(want.tensors) {
		t.Fatalf("%s: %d plan tensors, want %d", label, len(got.tensors), len(want.tensors))
	}
	for i, pt := range got.tensors {
		wt := want.tensors[i]
		if pt.key != wt.key || math.Float64bits(pt.value) != math.Float64bits(wt.value) || pt.count != wt.count ||
			pt.group != wt.group || pt.size != wt.size || !slices.Equal(annNames(got, pt.anns), annNames(want, wt.anns)) {
			t.Fatalf("%s: plan tensor %d = %+v, want %+v", label, i, pt, wt)
		}
	}
	if got.size != want.size || got.probeable != want.probeable || got.exact != want.exact {
		t.Fatalf("%s: plan size/probeable/exact %d/%v/%v, want %d/%v/%v",
			label, got.size, got.probeable, got.exact, want.size, want.probeable, want.exact)
	}
	for _, a := range want.Annotations() {
		wid, _ := want.AnnID(a)
		gid, ok := got.AnnID(a)
		if !ok {
			t.Fatalf("%s: patched plan does not intern %q", label, a)
		}
		if !slices.Equal(got.annTensors.span(gid), want.annTensors.span(wid)) ||
			!slices.Equal(got.groupTensors.span(gid), want.groupTensors.span(wid)) {
			t.Fatalf("%s: tensors of %q differ from a fresh plan's", label, a)
		}
	}
	if !slices.Equal(got.scalarTensors, want.scalarTensors) {
		t.Fatalf("%s: scalar tensors %v, want %v", label, got.scalarTensors, want.scalarTensors)
	}
	rows := func(p *Plan) [][]float64 {
		ar := p.Arena()
		tb := NewTruthBlock()
		tb.Reset(ar.NumAnns(), 64)
		for id, a := range ar.Annotations() {
			h := fnv.New64a()
			h.Write([]byte(a))
			x := h.Sum64() ^ seed
			x ^= x >> 31
			x *= 0xbf58476d1ce4e5b9
			tb.SetWord(int32(id), x^x>>29)
		}
		bs := ar.GetBlockScratch()
		defer ar.PutBlockScratch(bs)
		out := make([][]float64, 64)
		ar.EvalRows(tb, bs, out)
		return out
	}
	if !slices.Equal(got.Arena().Slots(), want.Arena().Slots()) {
		t.Fatalf("%s: slots %v, want %v", label, got.Arena().Slots(), want.Arena().Slots())
	}
	gr, wr := rows(got), rows(want)
	for j := range gr {
		for k := range gr[j] {
			if math.Float64bits(gr[j][k]) != math.Float64bits(wr[j][k]) {
				t.Fatalf("%s lane %d slot %d: patched plan %v, fresh plan %v", label, j, k, gr[j][k], wr[j][k])
			}
		}
	}
}
