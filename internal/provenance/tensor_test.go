package provenance

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// matchPoint builds the simplified "Match Point" provenance of
// Example 3.1.1: P_s = U1⊗(3,1) ⊕ U2⊗(5,1) ⊕ U3⊗(3,1) with MAX
// aggregation, all tensors grouped under the movie annotation "MP".
func matchPoint() *Agg {
	return NewAgg(AggMax,
		Tensor{Prov: V("U1"), Value: 3, Count: 1, Group: "MP"},
		Tensor{Prov: V("U2"), Value: 5, Count: 1, Group: "MP"},
		Tensor{Prov: V("U3"), Value: 3, Count: 1, Group: "MP"},
	)
}

func TestAggSizeAndAnnotations(t *testing.T) {
	p := matchPoint()
	if got := p.Size(); got != 3 {
		t.Fatalf("Size = %d, want 3", got)
	}
	anns := p.Annotations()
	want := []Annotation{"MP", "U1", "U2", "U3"}
	if len(anns) != len(want) {
		t.Fatalf("Annotations = %v, want %v", anns, want)
	}
	for i := range want {
		if anns[i] != want[i] {
			t.Fatalf("Annotations = %v, want %v", anns, want)
		}
	}
}

func TestAggApplyFemaleMerge(t *testing.T) {
	// Example 3.1.1: mapping U1,U2 ↦ Female gives
	// Female⊗(5,2) ⊕ U3⊗(3,1).
	p := matchPoint()
	h := MergeMapping("Female", "U1", "U2")
	q := p.Apply(h).(*Agg)
	if len(q.Tensors) != 2 {
		t.Fatalf("summary has %d tensors, want 2: %s", len(q.Tensors), q)
	}
	var female, u3 *Tensor
	for i := range q.Tensors {
		switch q.Tensors[i].Prov.Key() {
		case V("Female").Key():
			female = &q.Tensors[i]
		case V("U3").Key():
			u3 = &q.Tensors[i]
		}
	}
	if female == nil || u3 == nil {
		t.Fatalf("summary tensors wrong: %s", q)
	}
	if female.Value != 5 || female.Count != 2 {
		t.Fatalf("Female tensor = (%g,%d), want (5,2)", female.Value, female.Count)
	}
	if u3.Value != 3 || u3.Count != 1 {
		t.Fatalf("U3 tensor = (%g,%d), want (3,1)", u3.Value, u3.Count)
	}
	if q.Size() != 2 {
		t.Fatalf("summary size = %d, want 2", q.Size())
	}
}

func TestAggApplySumMerge(t *testing.T) {
	// Under SUM aggregation merged tensors add their values.
	p := NewAgg(AggSum,
		Tensor{Prov: V("U1"), Value: 3, Count: 1, Group: "MP"},
		Tensor{Prov: V("U2"), Value: 5, Count: 1, Group: "MP"},
	)
	q := p.Apply(MergeMapping("G", "U1", "U2")).(*Agg)
	if len(q.Tensors) != 1 {
		t.Fatalf("want single merged tensor, got %s", q)
	}
	if q.Tensors[0].Value != 8 || q.Tensors[0].Count != 2 {
		t.Fatalf("merged tensor = (%g,%d), want (8,2)", q.Tensors[0].Value, q.Tensors[0].Count)
	}
}

func TestAggApplyZeroDiscards(t *testing.T) {
	p := matchPoint()
	q := p.Apply(MergeMapping(Zero, "U2")).(*Agg)
	if len(q.Tensors) != 2 {
		t.Fatalf("mapping U2 to 0 should drop its tensor: %s", q)
	}
	for _, ten := range q.Tensors {
		if strings.Contains(ten.Prov.String(), "U2") {
			t.Fatalf("U2 still present after zero mapping: %s", q)
		}
	}
}

func TestAggEvalVector(t *testing.T) {
	p := matchPoint()
	res := p.Eval(AllTrue).(Vector)
	if got := res.At("MP"); got != 5 {
		t.Fatalf("MAX rating = %g, want 5", got)
	}

	// Example 2.3.1-style cancellation: cancelling U2 removes the max.
	res = p.Eval(CancelAnnotation("U2")).(Vector)
	if got := res.At("MP"); got != 3 {
		t.Fatalf("MAX rating after cancelling U2 = %g, want 3", got)
	}

	// Cancelling everything leaves the identity (0).
	all := CancelSet("all", "U1", "U2", "U3")
	res = p.Eval(all).(Vector)
	if got := res.At("MP"); got != 0 {
		t.Fatalf("MAX rating after cancelling all = %g, want 0", got)
	}
}

// TestSimplifyKeepsSeparatorNames is a regression test: a name holding
// "+v:" once gave (a + "b+v:c") and (a + b + c) one key, so Simplify
// merged the two tensors and the sum read g:0 under a=0, b=1, c=0.
func TestSimplifyKeepsSeparatorNames(t *testing.T) {
	g := NewAgg(AggSum,
		Tensor{Prov: Sum{Terms: []Expr{V("a"), V("b+v:c")}}, Value: 1, Count: 1, Group: "g"},
		Tensor{Prov: Sum{Terms: []Expr{V("a"), V("b"), V("c")}}, Value: 1, Count: 1, Group: "g"},
	)
	if len(g.Tensors) != 2 {
		t.Fatalf("Simplify kept %d tensors, want 2: %s", len(g.Tensors), g)
	}
	v := MapValuation{Assign: map[Annotation]bool{"b": true}, Label: "b"}
	if got := g.Eval(v).(Vector).At("g"); got != 1 {
		t.Fatalf("sum under a=0, b=1, c=0 = %g, want 1", got)
	}
}

func TestAggEvalMultiGroup(t *testing.T) {
	// Example 4.2.3: P0 = P_MP ⊕_M P_BJ with U2's review of Blue Jasmine.
	p := NewAgg(AggMax,
		Tensor{Prov: V("U1"), Value: 3, Count: 1, Group: "MP"},
		Tensor{Prov: V("U2"), Value: 5, Count: 1, Group: "MP"},
		Tensor{Prov: V("U3"), Value: 3, Count: 1, Group: "MP"},
		Tensor{Prov: V("U2"), Value: 4, Count: 1, Group: "BJ"},
	)
	res := p.Eval(CancelAnnotation("U2")).(Vector)
	if res.At("MP") != 3 || res.At("BJ") != 0 {
		t.Fatalf("cancel U2 = %s, want (MP:3, BJ:0)", res.ResultString())
	}
}

func TestExtendedValuationOr(t *testing.T) {
	// Example 4.2.3: with φ=OR, cancelling U2 does NOT cancel "Female"
	// (U1 remains true), so the Female tensor survives in the summary.
	p := matchPoint()
	h := MergeMapping("Female", "U1", "U2")
	q := p.Apply(h)
	groups := GroupsOf(p.Annotations(), h)
	v := ExtendValuation(CancelAnnotation("U2"), groups, CombineOr)
	res := q.Eval(v).(Vector)
	if got := res.At("MP"); got != 5 {
		t.Fatalf("summary under extended cancel-U2 = %g, want 5 (Female survives)", got)
	}
	// Whereas the original loses the 5 rating: distance source.
	orig := p.Eval(CancelAnnotation("U2")).(Vector)
	if got := orig.At("MP"); got != 3 {
		t.Fatalf("original under cancel-U2 = %g, want 3", got)
	}
}

func TestExtendedValuationAudienceZeroDistance(t *testing.T) {
	// Example 3.2.3: P''_s (U1,U3 ↦ Audience) is at distance 0 from P_s
	// w.r.t. single-cancellation valuations.
	p := matchPoint()
	h := MergeMapping("Audience", "U1", "U3")
	q := p.Apply(h)
	groups := GroupsOf(p.Annotations(), h)
	for _, a := range []Annotation{"U1", "U2", "U3"} {
		base := CancelAnnotation(a)
		ov := p.Eval(base).(Vector)
		sv := q.Eval(ExtendValuation(base, groups, CombineOr)).(Vector)
		if ov.At("MP") != sv.At("MP") {
			t.Fatalf("cancel %s: orig %g vs summary %g, want equal", a, ov.At("MP"), sv.At("MP"))
		}
	}
}

func TestAlignResult(t *testing.T) {
	// Merging group keys must re-aggregate original vector coordinates
	// (Example 5.2.1's vector transformation).
	p := NewAgg(AggSum,
		Tensor{Prov: V("u1"), Value: 1, Count: 1, Group: "LoriBlack"},
		Tensor{Prov: V("u2"), Value: 1, Count: 1, Group: "AlecBaillie"},
		Tensor{Prov: V("u3"), Value: 1, Count: 1, Group: "Adele"},
	)
	h := MergeMapping("wordnet_guitarist", "LoriBlack", "AlecBaillie")
	q := p.Apply(h).(*Agg)
	orig := p.Eval(AllTrue)
	aligned := q.AlignResult(orig, h).(Vector)
	if got := aligned.At("wordnet_guitarist"); got != 2 {
		t.Fatalf("aligned guitarist coordinate = %g, want 2", got)
	}
	if got := aligned.At("Adele"); got != 1 {
		t.Fatalf("aligned Adele coordinate = %g, want 1", got)
	}
	if len(aligned) != 2 {
		t.Fatalf("aligned vector = %s, want 2 coordinates", aligned.ResultString())
	}
}

func TestAggregatorMonoids(t *testing.T) {
	cases := []struct {
		kind AggKind
		x, y float64
		want float64
	}{
		{AggSum, 2, 3, 5},
		{AggMax, 2, 3, 3},
		{AggMin, 2, 3, 2},
		{AggCount, 1, 1, 2},
	}
	for _, c := range cases {
		a := Aggregator{Kind: c.kind}
		if got := a.Combine(c.x, c.y); got != c.want {
			t.Errorf("%s.Combine(%g,%g) = %g, want %g", c.kind, c.x, c.y, got, c.want)
		}
	}
	if got := (Aggregator{Kind: AggSum}).Scale(3, 4); got != 12 {
		t.Errorf("SUM scale = %g, want 12", got)
	}
	if got := (Aggregator{Kind: AggMax}).Scale(3, 4); got != 3 {
		t.Errorf("MAX scale = %g, want 3 (idempotent)", got)
	}
}

func TestParseAggKind(t *testing.T) {
	for _, s := range []string{"SUM", "max", " Min ", "COUNT"} {
		if _, err := ParseAggKind(s); err != nil {
			t.Errorf("ParseAggKind(%q) failed: %v", s, err)
		}
	}
	if _, err := ParseAggKind("AVG"); err == nil {
		t.Error("ParseAggKind(AVG) should fail")
	}
}

// randomAgg builds a random aggregated expression over nUsers user
// annotations and nGroups group annotations.
func randomAgg(r *rand.Rand, kind AggKind, nUsers, nGroups, nTensors int) *Agg {
	tensors := make([]Tensor, nTensors)
	for i := range tensors {
		u := Annotation(rune('a' + r.Intn(nUsers)))
		g := Annotation(rune('A' + r.Intn(nGroups)))
		tensors[i] = Tensor{
			Prov:  V(u),
			Value: float64(1 + r.Intn(5)),
			Count: 1,
			Group: g,
		}
	}
	return NewAgg(kind, tensors...)
}

// Property: Apply never increases Size (size monotonicity of
// Prop. 4.2.2), for random merges under MAX and SUM.
func TestApplySizeMonotone(t *testing.T) {
	f := func(seed int64, useMax bool) bool {
		r := rand.New(rand.NewSource(seed))
		kind := AggSum
		if useMax {
			kind = AggMax
		}
		p := randomAgg(r, kind, 5, 3, 8)
		anns := p.Annotations()
		if len(anns) < 2 {
			return true
		}
		i, j := r.Intn(len(anns)), r.Intn(len(anns))
		if i == j {
			return true
		}
		h := MergeMapping("Z9", anns[i], anns[j])
		return p.Apply(h).Size() <= p.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: with φ=OR and MAX/SUM aggregation, for single-cancellation
// valuations the summary value dominates the original value coordinate-
// wise after alignment (the inequality used in the monotonicity proof of
// Prop. 4.2.2 case (c)).
func TestSummaryDominatesUnderOr(t *testing.T) {
	f := func(seed int64, useMax bool) bool {
		r := rand.New(rand.NewSource(seed))
		kind := AggSum
		if useMax {
			kind = AggMax
		}
		p := randomAgg(r, kind, 5, 2, 8)
		anns := p.Annotations()
		if len(anns) < 2 {
			return true
		}
		// merge two random non-group (user) annotations
		var users []Annotation
		for _, a := range anns {
			if a >= "a" && a <= "z" {
				users = append(users, a)
			}
		}
		if len(users) < 2 {
			return true
		}
		i, j := r.Intn(len(users)), r.Intn(len(users))
		if i == j {
			return true
		}
		h := MergeMapping("Z9", users[i], users[j])
		q := p.Apply(h).(*Agg)
		groups := GroupsOf(anns, h)
		for _, cancel := range users {
			base := CancelAnnotation(cancel)
			ov := q.AlignResult(p.Eval(base), h).(Vector)
			sv := q.Eval(ExtendValuation(base, groups, CombineOr)).(Vector)
			for k, val := range sv {
				if val < ov.At(k) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAggString(t *testing.T) {
	p := matchPoint()
	s := p.String()
	for _, frag := range []string{"U1", "U2", "U3", "⊗", "⊕"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
	empty := NewAgg(AggMax)
	if empty.String() != "0" {
		t.Errorf("empty Agg String = %q, want 0", empty.String())
	}
}

func TestEuclid(t *testing.T) {
	a := Vector{"x": 3, "y": 0}
	b := Vector{"x": 0, "z": 4}
	if got := Euclid(a, b); got != 5 {
		t.Fatalf("Euclid = %g, want 5", got)
	}
	if got := Euclid(a, a); got != 0 {
		t.Fatalf("Euclid(a,a) = %g, want 0", got)
	}
}
