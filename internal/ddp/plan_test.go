package ddp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/provenance"
)

// fmtKey is the fmt-based canonical execution key that canonical
// replaced: the reference the strconv rendering must match byte for
// byte (Fingerprint, String and the benchmark's golden hashes depend on
// Simplify's order).
func fmtKey(e Execution) string {
	tkey := func(t Transition) string {
		if t.IsUser() {
			return fmt.Sprintf("u:%s:%g", t.CostVar, t.Cost)
		}
		a, b := string(t.D1), string(t.D2)
		if a > b {
			a, b = b, a
		}
		return fmt.Sprintf("d:%s:%s:%v", a, b, t.NonZero)
	}
	keys := make([]string, 0, len(e))
	seen := make(map[string]bool)
	for _, t := range e {
		k := tkey(t)
		if !t.IsUser() {
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, "*")
}

func TestCanonicalKeyMatchesFmt(t *testing.T) {
	costs := []float64{0, math.Copysign(0, -1), 0.1, 0.30000000000000004, 1, 2.5, 10, 1e21, 1e-7, 123456789, math.Inf(1), math.Inf(-1), math.NaN()}
	vars := []provenance.Annotation{"c1", "c2", "relation:R1", "d1", "d2"}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		ex := make(Execution, 1+r.Intn(6))
		for k := range ex {
			if r.Intn(2) == 0 {
				ex[k] = User(vars[r.Intn(2)], costs[r.Intn(len(costs))])
			} else {
				ex[k] = Cond(vars[2+r.Intn(3)], vars[2+r.Intn(3)], r.Intn(2) == 0)
			}
		}
		slim, key := ex.canonical()
		if want := fmtKey(ex); key != want {
			t.Fatalf("key %q, fmt reference %q", key, want)
		}
		// slim keeps the first occurrence of each condition, in order.
		var ref Execution
		seen := make(map[string]bool)
		for _, tr := range ex {
			if !tr.IsUser() {
				k := fmtKey(Execution{tr})
				if seen[k] {
					continue
				}
				seen[k] = true
			}
			ref = append(ref, tr)
		}
		if slim.String() != ref.String() {
			t.Fatalf("slim %s, want %s", slim, ref)
		}
	}
}

// TestAppendCostMatchesAppendFloat holds appendCost's integer fast path
// to strconv's shortest 'g' form byte for byte, at its edges (zero,
// negative zero, 999999, 1e6) and off them (fractions, large and
// subnormal values, NaN, infinities, negatives), and on random integers
// and reals.
func TestAppendCostMatchesAppendFloat(t *testing.T) {
	costs := []float64{
		0, math.Copysign(0, -1), 0.5, 1, 7, 10, 999999, 999999.5, 1e6, 1e6 + 1, 1e21,
		5e-324, 2.2250738585072009e-308, math.SmallestNonzeroFloat64 * 3,
		math.NaN(), math.Inf(1), math.Inf(-1), -1, -0.5, 123456, 0.1,
	}
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 2000; i++ {
		costs = append(costs, float64(r.Intn(1_000_000)), r.Float64()*1e7, float64(r.Intn(3_000_000))/4)
	}
	for _, c := range costs {
		if got, want := string(appendCost([]byte("u:c1:"), c)), string(strconv.AppendFloat([]byte("u:c1:"), c, 'g', -1, 64)); got != want {
			t.Fatalf("cost %v (bits %x): %q, AppendFloat %q", c, math.Float64bits(c), got, want)
		}
	}
}

// TestCanonicalKeepsCanonicalExecution pins canonical's slim: an
// execution whose conditions are distinct comes back as itself, one
// with a repeated condition as a fresh slice without the repeat, and
// an empty one as an empty, non-nil execution.
func TestCanonicalKeepsCanonicalExecution(t *testing.T) {
	ex := Execution{User("c1", 1), Cond("d1", "d2", true), User("c1", 1), Cond("d2", "d1", false)}
	if slim, _ := ex.canonical(); &slim[0] != &ex[0] || len(slim) != len(ex) {
		t.Fatalf("canonical execution copied: %v", slim)
	}
	rep := Execution{User("c1", 1), Cond("d1", "d2", true), Cond("d2", "d1", true), User("c2", 2)}
	slim, _ := rep.canonical()
	if &slim[0] == &rep[0] || slim.String() != (Execution{User("c1", 1), Cond("d1", "d2", true), User("c2", 2)}).String() {
		t.Fatalf("repeated condition: slim %v", slim)
	}
	if slim, key := Execution(nil).canonical(); slim == nil || len(slim) != 0 || key != "" {
		t.Fatalf("empty execution: slim %#v key %q", slim, key)
	}
}

// randomExpr builds a random simplified DDP expression with non-dyadic
// costs (0.1 steps), repeated user terms and conditions over a small
// variable pool, so merges both collapse executions and create duplicate
// conditions. The pool's colon names make distinct conditions render
// the same key ("d1:d2" with "d3", "d1" with "d2:d3").
func randomExpr(r *rand.Rand) *Expr {
	costVars := []provenance.Annotation{"c1", "c2", "c3", "c4"}
	dbVars := []provenance.Annotation{"d1", "d2", "d3", "rel:R1", "d1:d2", "d2:d3"}
	execs := make([]Execution, 2+r.Intn(7))
	for i := range execs {
		if i > 0 && r.Intn(3) == 0 {
			// A sibling of an earlier execution: one variable swapped,
			// so merging the pair collapses the two.
			src := execs[r.Intn(i)]
			ex := append(Execution(nil), src...)
			k := r.Intn(len(ex))
			if ex[k].IsUser() {
				ex[k].CostVar = costVars[r.Intn(len(costVars))]
			} else {
				ex[k].D1 = dbVars[r.Intn(len(dbVars))]
			}
			if r.Intn(2) == 0 {
				r.Shuffle(len(ex), func(a, b int) { ex[a], ex[b] = ex[b], ex[a] })
			}
			execs[i] = ex
			continue
		}
		ex := make(Execution, 1+r.Intn(5))
		for k := range ex {
			if r.Intn(2) == 0 {
				ex[k] = User(costVars[r.Intn(len(costVars))], float64(1+r.Intn(30))*0.1)
			} else {
				ex[k] = Cond(dbVars[r.Intn(len(dbVars))], dbVars[r.Intn(len(dbVars))], r.Intn(3) != 0)
			}
		}
		execs[i] = ex
	}
	return NewExpr(execs...)
}

// laneValuation is lane j of a truth block as a valuation over names,
// with newAnn (when set) taking the merged word's truth.
func laneValuation(names []provenance.Annotation, words []uint64, newAnn provenance.Annotation, merged uint64, j int) provenance.Valuation {
	v := provenance.MapValuation{Assign: make(map[provenance.Annotation]bool), Label: fmt.Sprint("lane", j)}
	for id, a := range names {
		v.Assign[a] = words[id]>>uint(j)&1 == 1
	}
	if newAnn != "" {
		v.Assign[newAnn] = merged>>uint(j)&1 == 1
	}
	return v
}

// TestPlanProbeMatchesApply is the plan-level differential oracle:
// EvalBlock equals Eval lane by lane, and for random merges the probe's
// size equals Apply's and CandEvalBlock equals Eval of the materialized
// candidate — bit for bit, on every lane, including merges that collapse
// executions. Where no member's truth changes and the probe does not
// reshape, the candidate value must equal the base value (the sweep's
// skip contract).
func TestPlanProbeMatchesApply(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	collapsed := 0
	for iter := 0; iter < 400; iter++ {
		e := randomExpr(r)
		bp, err := e.BlockPlan()
		if err != nil {
			t.Fatalf("expression not planned: %v\n%s", err, e)
		}
		p := bp.(*Plan)
		names := p.Annotations()
		lanes := 1 + r.Intn(64)
		tb := provenance.NewTruthBlock()
		tb.Reset(len(names), lanes)
		words := make([]uint64, len(names))
		for id := range names {
			words[id] = r.Uint64() & tb.Mask()
			tb.SetWord(int32(id), words[id])
		}
		ev := p.NewEvaluator()
		base := make([]provenance.Result, lanes)
		ev.EvalBlock(tb, base)
		for j := 0; j < lanes; j++ {
			if want := e.Eval(laneValuation(names, words, "", 0, j)); base[j] != want {
				t.Fatalf("lane %d: EvalBlock %v, Eval %v\n%s", j, base[j], want, e)
			}
		}

		anns := e.Annotations()
		for c := 0; c < 6; c++ {
			members := []provenance.Annotation{anns[r.Intn(len(anns))], anns[r.Intn(len(anns))]}
			if r.Intn(4) == 0 {
				members = append(members, anns[r.Intn(len(anns))])
			}
			cand := e.Apply(provenance.MergeMapping("Z", members...)).(*Expr)
			pr := p.Probe(members, "Z")
			if pr == nil {
				t.Fatalf("probe %v refused", members)
			}
			if pr.Size() != cand.Size() {
				t.Fatalf("probe %v size %d, Apply size %d\n%s", members, pr.Size(), cand.Size(), e)
			}
			if len(cand.Execs) < len(e.Execs) {
				collapsed++
			}
			merged := r.Uint64() & tb.Mask()
			out := make([]provenance.Result, lanes)
			ev.CandEvalBlock(pr, merged, tb.Mask(), out)
			for j := 0; j < lanes; j++ {
				want := cand.Eval(laneValuation(names, words, "Z", merged, j))
				if out[j] != want {
					t.Fatalf("probe %v lane %d: CandEvalBlock %v, Apply+Eval %v\n%s\n→ %s", members, j, out[j], want, e, cand)
				}
			}
			// Skip contract: merged truth equal to every member's truth.
			id, _ := p.AnnID(members[0])
			stable := words[id]
			ev.CandEvalBlock(pr, stable, tb.Mask(), out)
			for j := 0; j < lanes; j++ {
				same := true
				for _, m := range members {
					mid, _ := p.AnnID(m)
					same = same && (words[mid]^stable)>>uint(j)&1 == 0
				}
				if same && !pr.Reshapes() && out[j] != base[j] {
					t.Fatalf("probe %v lane %d: unchanged truths gave %v, base %v", members, j, out[j], base[j])
				}
			}
		}
	}
	if collapsed == 0 {
		t.Fatal("no probed merge collapsed executions; the generator lost its siblings")
	}
}

// TestBlockPlanRefuses pins the guards that keep the tropical min
// exact: the plan refuses reserved annotations, costs that are negative
// or not finite, and expressions outside Simplify's canonical form, and
// its probes refuse a summary annotation that is empty, reserved or
// already in the expression. Names holding key separators plan.
func TestBlockPlanRefuses(t *testing.T) {
	ok := NewExpr(Execution{User("c1", 1), Cond("d1", "d2", true)})
	for name, e := range map[string]*Expr{
		"reserved":      NewExpr(Execution{User(provenance.Zero, 1)}),
		"negative cost": NewExpr(Execution{User("c1", -1)}),
		"nan cost":      NewExpr(Execution{User("c1", math.NaN())}),
		"inf cost":      NewExpr(Execution{User("c1", math.Inf(1))}),
		"not simplified": {Execs: []Execution{
			{User("c1", 1)}, {User("c1", 1)},
		}},
		"duplicate condition": {Execs: []Execution{
			{Cond("d1", "d2", true), Cond("d2", "d1", true)},
		}},
	} {
		if bp, err := e.BlockPlan(); bp != nil || err == nil {
			t.Errorf("%s: planned %s", name, e)
		}
	}
	p, err := ok.BlockPlan()
	if err != nil {
		t.Fatalf("plain expression not planned: %v", err)
	}
	for name, c := range map[string]struct {
		members []provenance.Annotation
		newAnn  provenance.Annotation
	}{
		"newAnn occurs": {[]provenance.Annotation{"d1", "d2"}, "c1"},
		"empty newAnn":  {[]provenance.Annotation{"d1", "d2"}, ""},
		"reserved new":  {[]provenance.Annotation{"d1", "d2"}, provenance.Zero},
	} {
		if p.Probe(c.members, c.newAnn) != nil {
			t.Errorf("%s: probe compiled", name)
		}
	}
	for name, e := range map[string]*Expr{
		"star": NewExpr(Execution{User("c*1", 1)}),
		// "a:b" paired with "c" renders like "a" paired with "b:c".
		"ambiguous pairs": NewExpr(
			Execution{Cond("a:b", "c", true), User("c1", 1)},
			Execution{Cond("a", "b:c", true), User("c2", 1)},
		),
	} {
		if _, err := e.BlockPlan(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// A summary annotation that renders like a pair of the expression's
	// variables probes like any other.
	e := NewExpr(Execution{Cond("Z:d1", "d2", true)}, Execution{Cond("x", "d1", true)})
	q, err := e.BlockPlan()
	if err != nil {
		t.Fatal(err)
	}
	pr := q.Probe([]provenance.Annotation{"x", "d2"}, "Z")
	if pr == nil {
		t.Fatal("probe with a separator-like fresh name refused")
	}
	if want := e.Apply(provenance.MergeMapping("Z", "x", "d2")).Size(); pr.Size() != want {
		t.Fatalf("probe size %d, Apply size %d", pr.Size(), want)
	}
}
