package core

import (
	"math"
	"testing"

	"repro/internal/constraints"
	"repro/internal/ddp"
	"repro/internal/distance"
	"repro/internal/parse"
	"repro/internal/provenance"
	"repro/internal/valuation"
)

// FuzzParsedInputPlans pins that every input the program reads plans:
// a string parse.Agg (under each aggregation) or parse.DDP accepts is
// summarized by the delta engine (DeltaCalls > 0 once a step is taken),
// never refused, with every step's distance, and the final one,
// bit-identical to refDistance of the replayed merge and every step's
// size equal to the replayed expression's. parse refuses every other
// input. Any pair of annotations may merge.
func FuzzParsedInputPlans(f *testing.F) {
	for _, seed := range []struct {
		kind uint8
		src  string
	}{
		{0, "U1·[S1·U1 ⊗ 5 > 2] ⊗ (3,1)@MatchPoint ⊕ U2 ⊗ (5,1)@MatchPoint ⊕ U3 ⊗ (4,1)@Heat"},
		{1, `u1·"Heat (1995)" ⊗ (4,1)@g ⊕ u2·"Heat (1995)" ⊗ (2,1)@g ⊕ u3·"Up (2009)" ⊗ (1,1)@g`},
		{2, "(a + b·c) ⊗ (2,1)@g ⊕ 2·b ⊗ (3,1) ⊕ c·2147483647 ⊗ (1,1)@h"},
		{3, "a·b ⊗ (1,2)@\"p*q\" ⊕ \"b+v:c\" ⊗ (2,1)@\"r|s\""},
		{4, "<c1:3,1>·<0,[d1·d2]!=0> + <0,[d2·d3]=0>·<c2:3,1> + <c3:0.1,1>"},
		{4, `<0,["a:b"·c]!=0>·<c1:1,1> + <0,[a·"b:c"]!=0>·<c2:1,1> + <a:1,1>·<b:2,1> + <"a:1*u:b":2,1>`},
		{4, "<c1:-3,1>"},
		{0, "a·65536·65536 ⊗ (1,1)@g ⊕ b ⊗ (2,1)@g"},
		{0, `"` + "\x00probe" + `" ⊗ (1,1)@g`},
	} {
		f.Add(seed.kind, seed.src)
	}
	f.Fuzz(func(t *testing.T, kind uint8, src string) {
		var p0 provenance.Expression
		var vf distance.ValFunc
		if kind%5 == 4 {
			e, err := parse.DDP(src)
			if err != nil {
				return
			}
			p0, vf = e, ddp.ValFunc(e.Penalty())
		} else {
			g, err := parse.Agg(provenance.AggKind(kind%5), src)
			if err != nil {
				return
			}
			p0, vf = g, distance.Euclidean()
		}
		anns := p0.Annotations()
		// Bound the all-pairs reference replay below, not the inputs
		// that reach the summarizer.
		if len(anns) > 10 {
			return
		}
		u := provenance.NewUniverse()
		for _, a := range anns {
			u.Add(a, "t", nil)
		}
		est := &distance.Estimator{Class: valuation.NewCancelSingleAnnotation(anns), Phi: provenance.CombineOr, VF: vf}
		s, err := New(Config{Policy: constraints.NewPolicy(u, constraints.SameTable()), Estimator: est, WDist: 0.5, WSize: 0.5, MaxSteps: 3})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := s.Summarize(p0)
		if err != nil {
			t.Fatalf("Summarize of %q, which parse accepted: %v", src, err)
		}
		if len(sum.Steps) > 0 && est.Stats().DeltaCalls == 0 {
			t.Fatalf("%q: %d steps without a delta sweep", src, len(sum.Steps))
		}
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		vals := est.Class.Valuations()
		cur, cum := p0, provenance.NewMapping()
		for i, st := range sum.Steps {
			h := provenance.MergeMapping(st.New, st.Members...)
			cur, cum = cur.Apply(h), cum.Compose(h)
			if want := refDistance(est, vals, p0, cur, cum, provenance.GroupsOf(anns, cum)); !same(st.Dist, want) {
				t.Fatalf("%q step %d %v: dist %v, reference %v", src, i+1, st.Members, st.Dist, want)
			}
			if st.Size != cur.Size() {
				t.Fatalf("%q step %d %v: size %d, replayed %d", src, i+1, st.Members, st.Size, cur.Size())
			}
		}
		if want := refDistance(est, vals, p0, sum.Expr, sum.Mapping, sum.Groups); !same(sum.Dist, want) {
			t.Fatalf("%q: final dist %v, reference %v", src, sum.Dist, want)
		}
	})
}
