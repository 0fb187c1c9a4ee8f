package stream

import (
	"testing"

	"repro/internal/provenance"
)

func baseAgg() *provenance.Agg {
	return provenance.NewAgg(provenance.AggSum,
		provenance.Tensor{Prov: provenance.P("u1", "m1"), Value: 3, Count: 1, Group: "m1"},
		provenance.Tensor{Prov: provenance.P("u2", "m1"), Value: 5, Count: 1, Group: "m1"},
		provenance.Tensor{Prov: provenance.P("u1", "m2"), Value: 2, Count: 1, Group: "m2"},
	)
}

func allTrueVec(t *testing.T, e provenance.Expression) provenance.Vector {
	t.Helper()
	v, ok := e.Eval(provenance.AllTrue).(provenance.Vector)
	if !ok {
		t.Fatalf("expression %s did not evaluate to a vector", e)
	}
	return v
}

// TestAppendSnapshots pins the immutability contract: each Append
// returns a fresh expression, earlier snapshots keep their value, and
// the session's plan tracks the newest snapshot.
func TestAppendSnapshots(t *testing.T) {
	s := NewSession(baseAgg())
	before := s.Expr()
	wantBefore := allTrueVec(t, before)

	next, patched, err := s.Append([]provenance.Tensor{
		{Prov: provenance.P("u3", "m3"), Value: 7, Count: 1, Group: "m3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !patched {
		t.Fatal("plain single-tensor append did not patch the plan in place")
	}
	if next == before {
		t.Fatal("Append returned the old snapshot")
	}
	if got := allTrueVec(t, before); len(got) != len(wantBefore) {
		t.Fatalf("old snapshot changed: %v != %v", got, wantBefore)
	}
	if got := allTrueVec(t, next)["m3"]; got != 7 {
		t.Fatalf("appended coordinate m3 = %v, want 7", got)
	}
	if s.Expr() != next {
		t.Fatal("session snapshot did not advance to the appended expression")
	}

	// The patched plan must evaluate exactly like the new expression.
	plan := s.Plan()
	if plan == nil {
		t.Fatal("session lost its plan across a patched append")
	}
	ar := plan.Arena()
	tb := provenance.NewTruthBlock()
	tb.Reset(ar.NumAnns(), 1)
	for id := range ar.Annotations() {
		tb.SetWord(int32(id), 1) // AllTrue
	}
	lanes := make([]provenance.Vector, 1)
	ar.EvalBlock(tb, provenance.NewBlockScratch(), lanes)
	got := lanes[0]
	want := allTrueVec(t, next)
	if len(got) != len(want) {
		t.Fatalf("patched plan evaluates to %v, want %v", got, want)
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("patched plan coordinate %s = %v, want %v", k, got[k], w)
		}
	}
}

// TestAppendDuplicateKeyFolds pins Simplify congruence: appending a
// tensor with an existing (polynomial, group) key folds into the
// existing tensor instead of growing the expression.
func TestAppendDuplicateKeyFolds(t *testing.T) {
	s := NewSession(baseAgg())
	n := len(s.Expr().Tensors)
	next, patched, err := s.Append([]provenance.Tensor{
		{Prov: provenance.P("u1", "m1"), Value: 4, Count: 1, Group: "m1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !patched {
		t.Fatal("duplicate-key append did not patch in place")
	}
	if len(next.Tensors) != n {
		t.Fatalf("duplicate-key append grew the tensor list to %d, want %d", len(next.Tensors), n)
	}
	if got := allTrueVec(t, next)["m1"]; got != 3+5+4 {
		t.Fatalf("m1 after fold = %v, want 12", got)
	}
}

// opaqueExpr is a polynomial node type the arena cannot compile, forcing
// the recompile fallback (to a nil plan, since NewPlan rejects it too).
type opaqueExpr struct{}

func (opaqueExpr) EvalNat(func(provenance.Annotation) int) int { return 1 }
func (opaqueExpr) MapAnn(func(provenance.Annotation) provenance.Annotation) provenance.Expr {
	return opaqueExpr{}
}
func (opaqueExpr) CollectAnns(map[provenance.Annotation]struct{}) {}
func (opaqueExpr) Size() int                                      { return 1 }
func (opaqueExpr) Key() string                                    { return "opaque" }
func (opaqueExpr) String() string                                 { return "opaque" }

// TestAppendRecompileFallback pins the fallback: a batch the arena
// cannot compile recompiles instead of patching, counts a recompile,
// and the expression still advances.
func TestAppendRecompileFallback(t *testing.T) {
	s := NewSession(baseAgg())
	next, patched, err := s.Append([]provenance.Tensor{
		{Prov: opaqueExpr{}, Value: 2, Count: 1, Group: "m1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if patched {
		t.Fatal("non-compilable batch reported a successful patch")
	}
	if next == nil || len(next.Tensors) != len(baseAgg().Tensors)+1 {
		t.Fatal("expression did not advance across the recompile fallback")
	}
	st := s.Stats()
	if st.PlanRecompiles != 1 || st.PlanPatches != 0 {
		t.Fatalf("stats = %+v, want exactly one recompile", st)
	}

	// Later appends keep working (and keep recompiling: the opaque node
	// stays in the expression, so no plan exists to patch).
	if _, patched, err := s.Append([]provenance.Tensor{
		{Prov: provenance.P("u9", "m9"), Value: 1, Count: 1, Group: "m9"},
	}); err != nil {
		t.Fatal(err)
	} else if patched {
		t.Fatal("append patched a plan that cannot exist")
	}
}

// TestAppendStats pins counter accounting and the empty-batch error.
func TestAppendStats(t *testing.T) {
	s := NewSession(baseAgg())
	if _, _, err := s.Append(nil); err == nil {
		t.Fatal("empty batch must be rejected")
	}
	for i, batch := range [][]provenance.Tensor{
		{{Prov: provenance.P("a1", "g1"), Value: 1, Count: 1, Group: "g1"}},
		{
			{Prov: provenance.P("a2", "g1"), Value: 2, Count: 1, Group: "g1"},
			{Prov: provenance.P("a3", "g2"), Value: 3, Count: 1, Group: "g2"},
		},
	} {
		if _, _, err := s.Append(batch); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Batches != 2 || st.Tensors != 3 {
		t.Fatalf("stats = %+v, want 2 batches / 3 tensors", st)
	}
	if st.PlanPatches+st.PlanRecompiles != 2 {
		t.Fatalf("stats = %+v: patches+recompiles must equal batches", st)
	}
}
