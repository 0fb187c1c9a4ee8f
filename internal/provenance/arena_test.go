package provenance

import (
	"testing"
)

func TestInternerDenseIDs(t *testing.T) {
	in := NewInterner()
	if got := in.Intern("a"); got != 0 {
		t.Fatalf("first intern: got id %d, want 0", got)
	}
	if got := in.Intern("b"); got != 1 {
		t.Fatalf("second intern: got id %d, want 1", got)
	}
	if got := in.Intern("a"); got != 0 {
		t.Fatalf("re-intern: got id %d, want 0", got)
	}
	if in.Len() != 2 {
		t.Fatalf("Len: got %d, want 2", in.Len())
	}
	if id, ok := in.ID("b"); !ok || id != 1 {
		t.Fatalf("ID(b): got (%d, %v), want (1, true)", id, ok)
	}
	if _, ok := in.ID("zzz"); ok {
		t.Fatal("ID of an unknown annotation reported ok")
	}
	if in.Ann(0) != "a" || in.Ann(1) != "b" {
		t.Fatalf("Ann order: got %v", in.Annotations())
	}
}

func TestBitsetOps(t *testing.T) {
	b := NewBitset(130) // spans three words
	for _, i := range []int32{0, 63, 64, 129} {
		if b.Get(i) {
			t.Fatalf("fresh bitset has bit %d set", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
}

// TestArenaEvalMatchesAggEval checks the compiled arena's blocked
// evaluation against the reference tree evaluator on the plan fixture
// for every monoid, every truth assignment over the fixture's
// annotations, and both defaults for annotations outside the
// assignment.
func TestArenaEvalMatchesAggEval(t *testing.T) {
	for _, kind := range []AggKind{AggSum, AggMax, AggMin, AggCount} {
		g := planFixture(kind)
		ar := CompileArena(g)
		if ar == nil {
			t.Fatalf("%v: CompileArena returned nil for an *Agg", kind)
		}
		var vals []Valuation
		for mask := 0; mask < 1<<len(planAnns); mask++ {
			for _, def := range []bool{false, true} {
				mv := planValuation(mask).(MapValuation)
				mv.Default = def
				vals = append(vals, mv)
			}
		}
		got := evalVecs(ar, vals)
		for i, v := range vals {
			want, ok := g.Eval(v).(Vector)
			if !ok {
				t.Fatalf("%v: Agg.Eval did not return a Vector", kind)
			}
			if !vecEqual(got[i], want) {
				t.Fatalf("%v valuation %d: arena %v != tree %v", kind, i, got[i], want)
			}
		}
	}
}

// opaqueExpr is a polynomial node the arena compiler does not know.
type opaqueExpr struct{}

func (opaqueExpr) EvalNat(func(Annotation) int) int        { return 0 }
func (opaqueExpr) MapAnn(func(Annotation) Annotation) Expr { return opaqueExpr{} }
func (opaqueExpr) CollectAnns(map[Annotation]struct{})     {}
func (opaqueExpr) Size() int                               { return 1 }
func (opaqueExpr) Key() string                             { return "opaque" }
func (opaqueExpr) String() string                          { return "opaque" }

func TestCompileArenaRejects(t *testing.T) {
	if CompileArena(nil) != nil {
		t.Fatal("CompileArena(nil) returned a non-nil arena")
	}
	g := NewAgg(AggSum,
		Tensor{Prov: V("a"), Value: 1, Count: 1, Group: "g"},
		Tensor{Prov: Sum{Terms: []Expr{V("b"), opaqueExpr{}}}, Value: 2, Count: 1, Group: "g"},
	)
	if CompileArena(g) != nil {
		t.Fatal("CompileArena accepted an expression with an unknown node type")
	}
	wide := NewAgg(AggSum, Tensor{Prov: Prod{Factors: []Expr{V("a"), Const{1 << 33}}}, Value: 1, Count: 1, Group: "g"})
	if CompileArena(wide) != nil {
		t.Fatal("CompileArena accepted a constant its int32 node table would truncate")
	}
	if CompileArena(planFixture(AggSum)).Appendable(Const{1 << 33}) {
		t.Fatal("Appendable accepted a constant outside int32")
	}
}

// TestArenaScratchReuse checks that one block scratch gives identical
// results across repeated evaluations (no state leaks between folds).
func TestArenaScratchReuse(t *testing.T) {
	ar := CompileArena(planFixture(AggSum))
	tb, s := NewTruthBlock(), NewBlockScratch()
	fillBlock(ar, tb, []Valuation{planValuation(13)})
	first := make([]Vector, 1)
	ar.EvalBlock(tb, s, first)
	for i := 0; i < 3; i++ {
		got := make([]Vector, 1)
		if ar.EvalBlock(tb, s, got); !vecEqual(got[0], first[0]) {
			t.Fatalf("iteration %d: %v != first eval %v", i, got[0], first[0])
		}
	}
}

// BenchmarkAggEval measures one full evaluation of the plan fixture
// through the recursive tree walker, the reference evaluator the
// scorers' differential tests compare against; BenchmarkEvalBlock is the
// compiled arena's view of the same fixture, 64 valuations per pass.
func BenchmarkAggEval(b *testing.B) {
	g := planFixture(AggSum)
	v := planValuation(13)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Eval(v)
	}
}
