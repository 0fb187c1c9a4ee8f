package ddp

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/constraints"
	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/provenance"
	"repro/internal/valuation"
)

// paperExpr is the Example 5.2.2 expression:
// ⟨c1,1⟩·⟨0,[d1·d2]≠0⟩ + ⟨0,[d2·d3]=0⟩·⟨c2,1⟩.
func paperExpr() *Expr {
	return NewExpr(
		Execution{User("c1", 3), Cond("d1", "d2", true)},
		Execution{Cond("d2", "d3", false), User("c2", 3)},
	)
}

func TestSizeAndAnnotations(t *testing.T) {
	e := paperExpr()
	if e.Size() != 6 { // 1+2 per execution
		t.Fatalf("Size = %d, want 6", e.Size())
	}
	anns := e.Annotations()
	if len(anns) != 5 {
		t.Fatalf("Annotations = %v", anns)
	}
}

func TestEvalSemantics(t *testing.T) {
	e := paperExpr()
	// All true: exec 1 satisfied with cost 3; exec 2 has [d2·d3]=0 false.
	res := e.Eval(provenance.AllTrue).(CostTruth)
	if !res.Truth || res.Cost != 3 {
		t.Fatalf("all-true = %s, want ⟨3,true⟩", res.ResultString())
	}
	// Cancel d1: exec 1 condition fails; exec 2: [d2·d3]=0 still false
	// (d2,d3 true) -> unsatisfiable.
	res = e.Eval(provenance.CancelAnnotation("d1")).(CostTruth)
	if res.Truth {
		t.Fatalf("cancel d1 = %s, want unsatisfiable", res.ResultString())
	}
	// Cancel d3: exec 2's [d2·d3]=0 becomes true; cost c2=3. Exec 1 also
	// satisfied with cost 3: min is 3, true.
	res = e.Eval(provenance.CancelAnnotation("d3")).(CostTruth)
	if !res.Truth || res.Cost != 3 {
		t.Fatalf("cancel d3 = %s, want ⟨3,true⟩", res.ResultString())
	}
	// Cancel cost var c1: exec 1 satisfied at cost 0.
	res = e.Eval(provenance.CancelAnnotation("c1")).(CostTruth)
	if !res.Truth || res.Cost != 0 {
		t.Fatalf("cancel c1 = %s, want ⟨0,true⟩", res.ResultString())
	}
}

func TestTropicalMin(t *testing.T) {
	e := NewExpr(
		Execution{User("c1", 7)},
		Execution{User("c2", 2)},
	)
	res := e.Eval(provenance.AllTrue).(CostTruth)
	if res.Cost != 2 || !res.Truth {
		t.Fatalf("min cost = %s", res.ResultString())
	}
}

func TestApplyPaperSummary(t *testing.T) {
	// Example 5.2.2: mapping d1,d3 ↦ D1 and c1,c2 ↦ C1 collapses the two
	// executions into one: ⟨C1,1⟩·⟨0,[D1·d2]≠0⟩.
	//
	// (The paper displays both conditions as ≠0 after the mapping; our
	// expression keeps the =0 condition of the second execution, which
	// therefore remains distinct. Mapping the paper's printed summary
	// requires both conditions to be ≠0, so build that variant here.)
	e := NewExpr(
		Execution{User("c1", 3), Cond("d1", "d2", true)},
		Execution{Cond("d3", "d2", true), User("c2", 3)},
	)
	m := provenance.MappingOf(map[provenance.Annotation]provenance.Annotation{
		"d1": "D1", "d3": "D1", "c1": "C1", "c2": "C1",
	})
	s := e.Apply(m).(*Expr)
	if len(s.Execs) != 1 {
		t.Fatalf("summary = %s, want a single execution", s)
	}
	if s.Size() != 3 {
		t.Fatalf("summary size = %d, want 3", s.Size())
	}
	str := s.String()
	if !strings.Contains(str, "C1") || !strings.Contains(str, "D1") {
		t.Fatalf("summary = %s", str)
	}
}

func TestApplyZeroOne(t *testing.T) {
	e := NewExpr(Execution{User("c1", 4), Cond("d1", "d2", true)})
	// Mapping d1 to Zero makes the condition unsatisfiable.
	s := e.Apply(provenance.MergeMapping(provenance.Zero, "d1")).(*Expr)
	res := s.Eval(provenance.AllTrue).(CostTruth)
	if res.Truth {
		t.Fatalf("zeroed condition must be unsatisfiable: %s", res.ResultString())
	}
	// Mapping both DB vars to One makes the condition always hold.
	s = e.Apply(provenance.MergeMapping(provenance.One, "d1", "d2")).(*Expr)
	res = s.Eval(provenance.CancelSet("cancel all db", "d1", "d2")).(CostTruth)
	if !res.Truth {
		t.Fatalf("One-mapped condition must hold: %s", res.ResultString())
	}
}

func TestValFuncExample522(t *testing.T) {
	// The Example 5.2.2 walk-through: valuation cancelling all C1-cost
	// variables yields ⟨0,true⟩ on both original and summary: VAL-FUNC 0.
	e := NewExpr(
		Execution{User("c1", 3), Cond("d1", "d2", true)},
		Execution{Cond("d3", "d2", true), User("c2", 3)},
	)
	m := provenance.MappingOf(map[provenance.Annotation]provenance.Annotation{
		"d1": "D1", "d3": "D1", "c1": "C1", "c2": "C1",
	})
	s := e.Apply(m)
	v := provenance.CancelSet("cancel cost=3", "c1", "c2")
	groups := provenance.GroupsOf(e.Annotations(), m)
	ext := provenance.ExtendValuation(v, groups, provenance.CombineOr)

	vf := ValFunc(e.Penalty())
	got := vf.F(v, e.Eval(v), s.Eval(ext))
	if got != 0 {
		t.Fatalf("VAL-FUNC = %g, want 0", got)
	}
}

func TestValFuncCases(t *testing.T) {
	vf := ValFunc(50)
	cases := []struct {
		o, s provenance.Result
		want float64
	}{
		{CostTruth{3, true}, CostTruth{5, true}, 2},
		{CostTruth{5, true}, CostTruth{3, true}, 2},
		{CostTruth{0, false}, CostTruth{9, false}, 0},
		{CostTruth{3, true}, CostTruth{3, false}, 50},
		{CostTruth{0, false}, CostTruth{0, true}, 50},
		{provenance.Scalar(1), CostTruth{0, true}, 50}, // type mismatch
	}
	for i, c := range cases {
		if got := vf.F(provenance.AllTrue, c.o, c.s); got != c.want {
			t.Errorf("case %d: VAL-FUNC = %g, want %g", i, got, c.want)
		}
	}
}

func TestPenalty(t *testing.T) {
	e := paperExpr()
	if e.Penalty() != 50 {
		t.Fatalf("penalty = %g, want 10*5 = 50", e.Penalty())
	}
}

func TestSimplifyIdempotentCongruences(t *testing.T) {
	// Duplicate condition transitions collapse; duplicate user
	// transitions are kept (their costs add).
	e := NewExpr(Execution{
		Cond("d1", "d2", true),
		Cond("d2", "d1", true), // same condition, commuted
		User("c1", 3),
		User("c1", 3), // kept: cost accumulates
	})
	if len(e.Execs[0]) != 3 {
		t.Fatalf("simplified execution = %s", e.Execs[0])
	}
	res := e.Eval(provenance.AllTrue).(CostTruth)
	if res.Cost != 6 {
		t.Fatalf("duplicate user transitions must accumulate: %g", res.Cost)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGenConfig()
	e1, u1 := Generate(cfg, rand.New(rand.NewSource(9)))
	e2, _ := Generate(cfg, rand.New(rand.NewSource(9)))
	if e1.String() != e2.String() {
		t.Fatal("generator must be deterministic per seed")
	}
	if len(e1.Execs) == 0 || e1.Size() == 0 {
		t.Fatal("generator produced empty expression")
	}
	// universe must register every variable with the right table
	for _, a := range e1.Annotations() {
		if !u1.Known(a) {
			t.Fatalf("annotation %s unregistered", a)
		}
		tb := u1.Table(a)
		if tb != TableCost && tb != TableDB {
			t.Fatalf("annotation %s in table %q", a, tb)
		}
		if tb == TableCost && u1.Attr(a, "cost") == "" {
			t.Fatalf("cost var %s lacks cost attribute", a)
		}
		if tb == TableDB && u1.Attr(a, "relation") == "" {
			t.Fatalf("db var %s lacks relation attribute", a)
		}
	}
}

// Property: Apply never increases size and preserves the congruence that
// evaluation under the extended all-true valuation can only gain
// satisfiability (φ=OR keeps summary variables alive).
func TestApplySizeMonotoneDDP(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e, _ := Generate(GenConfig{
			Executions: 3, TransitionsPerExec: 4,
			DBVars: 5, CostVars: 5, Relations: 2, CostLevels: 3,
		}, r)
		anns := e.Annotations()
		if len(anns) < 2 {
			return true
		}
		a, b := anns[r.Intn(len(anns))], anns[r.Intn(len(anns))]
		if a == b {
			return true
		}
		s := e.Apply(provenance.MergeMapping("Z", a, b))
		return s.Size() <= e.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSummarizeDDP runs Algorithm 1 end-to-end on generated DDP
// provenance with the paper's constraints (cost vars merge when costs
// match; db vars merge within a relation) and "Cancel Single Attribute"
// valuations.
func TestSummarizeDDP(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	e, u := Generate(DefaultGenConfig(), r)

	pol := constraints.NewPolicy(u,
		constraints.SameTable(),
		constraints.TableScoped(TableCost, constraints.NumericWithin("cost", 0)),
		constraints.TableScoped(TableDB, constraints.SharedAttr("relation")),
	)
	class := valuation.NewCancelSingleAttribute(u, e.Annotations(), "cost", "relation")
	if class.Len() == 0 {
		t.Fatal("empty valuation class")
	}
	est := &distance.Estimator{
		Class:    class,
		Phi:      provenance.CombineOr,
		VF:       ValFunc(e.Penalty()),
		MaxError: e.Penalty(),
	}
	s, err := core.New(core.Config{
		Policy: pol, Estimator: est, WDist: 0.5, WSize: 0.5, MaxSteps: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Summarize(e)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Expr.Size() > e.Size() {
		t.Fatalf("summary grew: %d > %d", sum.Expr.Size(), e.Size())
	}
	if sum.Dist < 0 || sum.Dist > 1 {
		t.Fatalf("normalized distance = %g", sum.Dist)
	}
	// merged groups must respect the constraints
	for _, members := range sum.Groups {
		if len(members) < 2 {
			continue
		}
		table := u.Table(members[0])
		for _, m := range members[1:] {
			if u.Table(m) != table {
				t.Fatalf("cross-table group: %v", members)
			}
		}
	}
}

func TestStringForms(t *testing.T) {
	e := paperExpr()
	s := e.String()
	for _, frag := range []string{"⟨c1:3,1⟩", "[d1·d2]≠0", "[d2·d3]=0"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String = %q missing %q", s, frag)
		}
	}
	if (&Expr{}).String() != "0" {
		t.Error("empty expression must print 0")
	}
	if (CostTruth{3, true}).ResultString() != "⟨3,true⟩" {
		t.Error("CostTruth string")
	}
}

// TestSimplifyExactCongruence pins Simplify's congruence to equality of
// executions, not of their rendered keys: names holding ':' or '*' make
// distinct executions (and distinct conditions of one execution) render
// the same key, and both must survive, in an order that does not depend
// on the input order. Eval must equal the tropical min over the raw
// executions under every valuation of their variables.
func TestSimplifyExactCongruence(t *testing.T) {
	for name, c := range map[string]struct {
		execs []Execution
		want  int // executions after Simplify
	}{
		"condition pairs":  {[]Execution{{Cond("a:b", "c", true)}, {Cond("a", "b:c", true)}}, 2},
		"user split":       {[]Execution{{User("a", 1), User("b", 2)}, {User("a:1*u:b", 2)}}, 2},
		"one execution":    {[]Execution{{Cond("a:b", "c", true), Cond("a", "b:c", true)}}, 1},
		"congruent merges": {[]Execution{{Cond("a:b", "c", true)}, {Cond("c", "a:b", true)}, {Cond("a", "b:c", true)}}, 2},
		// Fields a transition's kind does not read: a condition's cost
		// (a cost variable renamed to "" reads as a condition), a user
		// transition's operator.
		"unread fields": {[]Execution{
			{{D1: "d1", D2: "d2", NonZero: true, Cost: 2}}, {Cond("d1", "d2", true)},
			{{CostVar: "c1", Cost: 1, NonZero: true}}, {User("c1", 1)},
		}, 2},
	} {
		e := NewExpr(c.execs...)
		if len(e.Execs) != c.want {
			t.Fatalf("%s: Simplify kept %d executions, want %d: %s", name, len(e.Execs), c.want, e)
		}
		if name == "one execution" && len(e.Execs[0]) != 2 {
			t.Fatalf("%s: Simplify dropped a distinct condition: %s", name, e)
		}
		// Reversed input may keep another member of a congruence class,
		// but the same classes, in the same order.
		rev := slices.Clone(c.execs)
		slices.Reverse(rev)
		if got := NewExpr(rev...); !slices.EqualFunc(got.Execs, e.Execs, func(a, b Execution) bool { return a.exactKey() == b.exactKey() }) {
			t.Fatalf("%s: order depends on input order: %s vs %s", name, got, e)
		}
		vars := e.Annotations()
		for mask := 0; mask < 1<<len(vars); mask++ {
			v := provenance.MapValuation{Assign: make(map[provenance.Annotation]bool)}
			for i, a := range vars {
				v.Assign[a] = mask>>i&1 == 1
			}
			raw := &Expr{Execs: c.execs}
			if got, want := e.Eval(v), raw.Eval(v); got != want {
				t.Fatalf("%s: under %v Eval = %v, raw executions give %v", name, v.Assign, got, want)
			}
		}
	}
}

// TestRunCompilesOnce holds a default DDP Summarize and an Extend from
// its summary to one compile per run of the expression being scored —
// the run patches that plan at every merge it commits or replays — plus
// the one compile of the original the run evaluates, and to no
// whole-expression Apply: the run takes no fallback (MergeRecompiles
// stays 0) and every commit but the last patches.
func TestRunCompilesOnce(t *testing.T) {
	e, u := Generate(DefaultGenConfig(), rand.New(rand.NewSource(13)))
	pol := constraints.NewPolicy(u,
		constraints.SameTable(),
		constraints.TableScoped(TableCost, constraints.NumericWithin("cost", CostTolerance)),
		constraints.TableScoped(TableDB, constraints.SharedAttr("relation")),
	)
	est := &distance.Estimator{
		Class:    valuation.NewCancelSingleAttribute(u, e.Annotations(), "cost", "relation", "tuple"),
		Phi:      provenance.CombineOr,
		VF:       ValFunc(e.Penalty()),
		MaxError: e.Penalty(),
	}
	s, err := core.New(core.Config{Policy: pol, Estimator: est, WDist: 0.5, WSize: 0.5, MaxSteps: 8})
	if err != nil {
		t.Fatal(err)
	}
	run := func(name string, f func() (*core.Summary, error)) *core.Summary {
		t.Helper()
		compiles, applies := planCompiles.Load(), exprApplies.Load()
		before := est.Stats()
		sum, err := f()
		if err != nil {
			t.Fatal(err)
		}
		st := est.Stats()
		own := len(sum.Steps) - sum.ExtendedFrom
		switch {
		case own < 3:
			t.Fatalf("%s: only %d own merges", name, own)
		case planCompiles.Load()-compiles != 2 || exprApplies.Load() != applies:
			t.Fatalf("%s: %d plan compiles and %d Applies, want 2 (the original and the expression scored) and none", name, planCompiles.Load()-compiles, exprApplies.Load()-applies)
		case st.MergeRecompiles != before.MergeRecompiles || st.MergePatches-before.MergePatches != uint64(own-1):
			t.Fatalf("%s: %d patches and %d recompiles for %d own merges", name, st.MergePatches-before.MergePatches, st.MergeRecompiles-before.MergeRecompiles, own)
		}
		return sum
	}
	sum := run("summarize", func() (*core.Summary, error) { return s.Summarize(e) })
	run("extend", func() (*core.Summary, error) { return s.Extend(context.Background(), e, sum.Groups) })
}
