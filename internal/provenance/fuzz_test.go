package provenance

import (
	"fmt"
	"slices"
	"testing"
)

// fuzzAnns is buildExpr's annotation pool: plain names, and names that
// hold every key separator or read like key fragments, which keys
// escape.
var fuzzAnns = []Annotation{"a", "b", "c", "d", "x (1)", "p*q", "r|s", "b+v:c", "{a+b}", "m⊗n"}

// buildExpr decodes a byte string into an expression, consuming bytes as
// structure decisions. It always terminates: depth is bounded and input
// exhaustion yields leaves.
func buildExpr(data []byte, pos *int, depth int) Expr {
	next := func() byte {
		if *pos >= len(data) {
			return 0
		}
		b := data[*pos]
		*pos++
		return b
	}
	anns := fuzzAnns
	if depth <= 0 {
		return Var{Ann: anns[int(next())%len(anns)]}
	}
	switch next() % 5 {
	case 0:
		return Var{Ann: anns[int(next())%len(anns)]}
	case 1:
		return Const{N: int(next()) % 3}
	case 2:
		n := int(next())%3 + 1
		ts := make([]Expr, n)
		for i := range ts {
			ts[i] = buildExpr(data, pos, depth-1)
		}
		return Sum{Terms: ts}
	case 3:
		n := int(next())%3 + 1
		fs := make([]Expr, n)
		for i := range fs {
			fs[i] = buildExpr(data, pos, depth-1)
		}
		return Prod{Factors: fs}
	default:
		return Cmp{
			Inner: buildExpr(data, pos, depth-1),
			Value: float64(next() % 10),
			Op:    CmpOp(next() % 6),
			Bound: float64(next() % 10),
		}
	}
}

// FuzzSimplifyExpr checks, for arbitrary expressions, that simplification
// (1) preserves evaluation under arbitrary truth assignments, (2) is
// idempotent, (3) never increases the annotation-occurrence size, and
// (4) builds the same trees and keys as the oracles of key_oracle_test.go.
func FuzzSimplifyExpr(f *testing.F) {
	f.Add([]byte{2, 1, 0, 3, 2, 4}, uint8(5))
	f.Add([]byte{4, 3, 2, 1, 0, 0, 1, 2, 3, 4}, uint8(0))
	f.Add([]byte{}, uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, mask uint8) {
		pos := 0
		e := buildExpr(data, &pos, 4)
		s := SimplifyExpr(e)

		assign := func(a Annotation) int {
			idx := slices.Index(fuzzAnns, a) % 8
			if mask&(1<<idx) != 0 {
				return 1
			}
			return 0
		}
		if e.EvalNat(assign) != s.EvalNat(assign) {
			t.Fatalf("simplification changed evaluation: %s vs %s", e, s)
		}
		if s2 := SimplifyExpr(s); s2.Key() != s.Key() {
			t.Fatalf("simplification not idempotent: %s vs %s", s, s2)
		}
		if s.Size() > e.Size() {
			t.Fatalf("simplification grew size: %d > %d", s.Size(), e.Size())
		}
		if got, want := fmt.Sprintf("%#v", s), fmt.Sprintf("%#v", oracleSimplify(e)); got != want {
			t.Fatalf("SimplifyExpr(%s) = %s, oracle %s", e, got, want)
		}
		if got, want := e.Key(), oracleKey(e); got != want {
			t.Fatalf("Key(%s) = %q, oracle %q", e, got, want)
		}
	})
}

// FuzzArenaEval checks the compiled arena's blocked evaluator against
// the reference tree evaluator on arbitrary aggregated expressions: every
// tensor polynomial is decoded from the fuzz input, groups are drawn
// from the annotation pool (including the scalar "" coordinate), and
// the resulting vectors must match coordinate-for-coordinate under
// every decoded truth assignment.
func FuzzArenaEval(f *testing.F) {
	f.Add([]byte{2, 1, 0, 3, 2, 4, 9, 8, 7}, uint8(5), uint8(1))
	f.Add([]byte{4, 3, 2, 1, 0, 0, 1, 2, 3, 4}, uint8(0), uint8(2))
	f.Add([]byte{}, uint8(255), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, mask uint8, kindByte uint8) {
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		groups := []Annotation{"", "g1", "g2", "a"}
		nt := int(next())%4 + 1
		tensors := make([]Tensor, nt)
		for i := range tensors {
			tensors[i] = Tensor{
				Prov:  buildExpr(data, &pos, 3),
				Value: float64(next() % 10),
				Count: int(next())%3 + 1,
				Group: groups[int(next())%len(groups)],
			}
		}
		kind := AggKind(int(kindByte) % 4)
		g := NewAgg(kind, tensors...)
		ar := CompileArena(g)
		if ar == nil {
			t.Fatalf("CompileArena returned nil for a pure-Expr aggregation: %s", g)
		}

		assign := map[Annotation]bool{}
		for i, a := range []Annotation{"a", "b", "c", "d", "g1", "g2"} {
			assign[a] = mask&(1<<uint(i)) != 0
		}
		v := MapValuation{Assign: assign, Label: "fuzz"}
		want, ok := g.Eval(v).(Vector)
		if !ok {
			t.Fatalf("Agg.Eval did not return a Vector for %s", g)
		}
		got := evalVecs(ar, []Valuation{v})[0]
		if !vecEqual(got, want) {
			t.Fatalf("arena diverged from tree evaluator on %s under mask %08b: %v != %v",
				g, mask, got, want)
		}
	})
}

// FuzzEvalBlock is the differential fuzzer of the valuation-blocked
// kernel: on arbitrary aggregated expressions and arbitrary valuation
// blocks (including lane counts that are not multiples of 64), every
// lane of EvalBlock, and every dense row of EvalRows read back through
// the arena's slots, must match the reference tree evaluator bit for
// bit. Values include 0.1, 0.7 and 1e16, whose sums depend on their
// order, and lane 0 falsifies every annotation, so groups whose tensors
// all vanish read the identity. Three expressions are checked: the
// decoded one (with the scalar "" coordinate in its group pool), its
// image under a mapping that sends group "a" to Zero (the coordinate
// and every polynomial over a drop), and, through Plan.ApplyAppend, the
// decoded one grown by a tensor in group "g15", which sorts between its
// existing groups g1 and g2.
func FuzzEvalBlock(f *testing.F) {
	f.Add([]byte{2, 1, 0, 3, 2, 4, 9, 8, 7}, uint64(5), uint8(1), uint8(7))
	f.Add([]byte{4, 3, 2, 1, 0, 0, 1, 2, 3, 4}, uint64(0), uint8(2), uint8(64))
	f.Add([]byte{}, uint64(1<<63|255), uint8(3), uint8(63))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, kindByte uint8, laneByte uint8) {
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		groups := []Annotation{"", "g1", "g2", "a"}
		values := []float64{0, 1, 2, 3, 5, 9, 0.1, 0.7, 1e16}
		nt := int(next())%4 + 1
		tensors := make([]Tensor, nt)
		for i := range tensors {
			tensors[i] = Tensor{
				Prov:  buildExpr(data, &pos, 3),
				Value: values[int(next())%len(values)],
				Count: int(next())%3 + 1,
				Group: groups[int(next())%len(groups)],
			}
		}
		kind := AggKind(int(kindByte) % 4)
		g := NewAgg(kind, tensors...)
		lanes := int(laneByte)%64 + 1

		check := func(label string, want *Agg, ar *Arena) {
			t.Helper()
			if ar == nil {
				t.Fatalf("%s: no arena for a pure-Expr aggregation: %s", label, want)
			}
			if !ar.Blockable() {
				t.Fatalf("%s: buildExpr produced a non-blockable arena: %s", label, want)
			}
			// Lane j's truth for annotation id i is a seed-derived hash so
			// the block mixes unrelated valuations; lane 0 is all false.
			truth := func(id, lane int) bool {
				x := seed ^ uint64(id)*0x9e3779b97f4a7c15 ^ uint64(lane)*0xbf58476d1ce4e5b9
				x ^= x >> 33
				return lane > 0 && x&1 != 0
			}
			tb := NewTruthBlock()
			tb.Reset(ar.NumAnns(), lanes)
			for id := 0; id < ar.NumAnns(); id++ {
				var w uint64
				for j := 0; j < lanes; j++ {
					if truth(id, j) {
						w |= 1 << uint(j)
					}
				}
				tb.SetWord(int32(id), w)
			}
			bs := ar.GetBlockScratch()
			defer ar.PutBlockScratch(bs)
			out := make([]Vector, lanes)
			ar.EvalBlock(tb, bs, out)
			rows := make([][]float64, lanes)
			ar.EvalRows(tb, bs, rows)
			for j := 0; j < lanes; j++ {
				assign := make(map[Annotation]bool, ar.NumAnns())
				for id, ann := range ar.Annotations() {
					assign[ann] = truth(id, j)
				}
				tree, ok := want.Eval(MapValuation{Assign: assign, Label: "fuzz-lane"}).(Vector)
				if !ok {
					t.Fatalf("%s: Agg.Eval did not return a Vector for %s", label, want)
				}
				if !vecEqual(out[j], tree) {
					t.Fatalf("%s lane %d/%d: EvalBlock diverged from tree evaluator on %s: %v != %v",
						label, j, lanes, want, out[j], tree)
				}
				if got := rowVec(ar.Slots(), rows[j]); len(rows[j]) != len(ar.Slots()) || !vecEqual(got, tree) {
					t.Fatalf("%s lane %d/%d: EvalRows row %v over slots %v diverged from tree evaluator on %s: %v",
						label, j, lanes, rows[j], ar.Slots(), want, tree)
				}
			}
		}

		check("decoded", g, CompileArena(g))
		dropped := g.Apply(MappingOf(map[Annotation]Annotation{"a": Zero})).(*Agg)
		check("a→Zero", dropped, CompileArena(dropped))
		plan := NewPlan(g)
		added := []Tensor{{Prov: P("b", "c"), Value: 0.7, Count: 1, Group: "g15"}}
		grown := NewAgg(kind, append(append([]Tensor{}, g.Tensors...), added...)...)
		if !plan.ApplyAppend(grown, added) {
			t.Fatalf("ApplyAppend refused a plain append onto %s", g)
		}
		check("appended", grown, plan.Arena())
	})
}

// FuzzMappingHomomorphism checks that applying a mapping commutes with
// simplification at the level of evaluation: eval(h(e)) under v equals
// eval(e) under v∘h for mappings into fresh annotations.
func FuzzMappingHomomorphism(f *testing.F) {
	f.Add([]byte{3, 2, 1, 0}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, mask uint8) {
		pos := 0
		e := buildExpr(data, &pos, 3)
		h := MergeMapping("Z", "a", "b")
		mapped := SimplifyExpr(e.MapAnn(h.Rename))

		truth := func(a Annotation) bool {
			switch a {
			case "Z":
				// φ=OR over {a,b}
				return mask&1 != 0 || mask&2 != 0
			case "a":
				return mask&1 != 0
			case "b":
				return mask&2 != 0
			case "c":
				return mask&4 != 0
			default:
				return mask&8 != 0
			}
		}
		boolAssign := func(a Annotation) int {
			if truth(a) {
				return 1
			}
			return 0
		}
		// In the boolean semiring view (presence/absence), mapping two
		// annotations with equal truth values to Z preserves evaluation.
		if truth("a") == truth("b") {
			before := e.EvalNat(boolAssign) > 0
			after := mapped.EvalNat(boolAssign) > 0
			if before != after {
				t.Fatalf("mapping changed boolean evaluation: %s -> %s", e, mapped)
			}
		}
	})
}
