package provenance

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// This file keeps the fmt/strings.Join implementations of Key and the
// SimplifyExpr that sorted by calling Key in every comparison, as
// oracles for the append-built keys and the precomputed-key sort.

// oracleKey is Key as it was built with fmt.Sprintf and strings.Join.
func oracleKey(e Expr) string {
	switch n := e.(type) {
	case Var:
		return "v:" + string(n.Ann)
	case Const:
		return fmt.Sprintf("c:%d", n.N)
	case Sum:
		keys := make([]string, len(n.Terms))
		for i, t := range n.Terms {
			keys[i] = oracleKey(t)
		}
		sort.Strings(keys)
		return "s(" + strings.Join(keys, "+") + ")"
	case Prod:
		keys := make([]string, len(n.Factors))
		for i, f := range n.Factors {
			keys[i] = oracleKey(f)
		}
		sort.Strings(keys)
		return "p(" + strings.Join(keys, "*") + ")"
	case Cmp:
		return fmt.Sprintf("q(%s⊗%g%s%g)", oracleKey(n.Inner), n.Value, n.Op, n.Bound)
	}
	return e.Key()
}

// oracleSimplify is SimplifyExpr with its sorts comparing oracle keys
// computed afresh in every comparison.
func oracleSimplify(e Expr) Expr {
	switch n := e.(type) {
	case Var, Const:
		return e
	case Cmp:
		inner := oracleSimplify(n.Inner)
		if c, ok := inner.(Const); ok {
			lhs := 0.0
			if c.N != 0 {
				lhs = n.Value
			}
			if n.Op.holds(lhs, n.Bound) {
				return Const{1}
			}
			return Const{0}
		}
		return Cmp{Inner: inner, Value: n.Value, Op: n.Op, Bound: n.Bound}
	case Prod:
		factors := make([]Expr, 0, len(n.Factors))
		coeff := 1
		var walk func(Expr)
		walk = func(f Expr) {
			switch ff := f.(type) {
			case Const:
				coeff *= ff.N
			case Prod:
				for _, g := range ff.Factors {
					walk(g)
				}
			default:
				factors = append(factors, f)
			}
		}
		for _, f := range n.Factors {
			walk(oracleSimplify(f))
			if coeff == 0 {
				return Const{0}
			}
		}
		if len(factors) == 0 {
			return Const{coeff}
		}
		if coeff != 1 {
			factors = append(factors, Const{coeff})
		}
		if len(factors) == 1 {
			return factors[0]
		}
		sort.Slice(factors, func(i, j int) bool { return oracleKey(factors[i]) < oracleKey(factors[j]) })
		return Prod{Factors: factors}
	case Sum:
		terms := make([]Expr, 0, len(n.Terms))
		coeff := 0
		var walk func(Expr)
		walk = func(t Expr) {
			switch tt := t.(type) {
			case Const:
				coeff += tt.N
			case Sum:
				for _, g := range tt.Terms {
					walk(g)
				}
			default:
				terms = append(terms, t)
			}
		}
		for _, t := range n.Terms {
			walk(oracleSimplify(t))
		}
		if len(terms) == 0 {
			return Const{coeff}
		}
		if coeff != 0 {
			terms = append(terms, Const{coeff})
		}
		if len(terms) == 1 {
			return terms[0]
		}
		sort.Slice(terms, func(i, j int) bool { return oracleKey(terms[i]) < oracleKey(terms[j]) })
		return Sum{Terms: terms}
	}
	return e
}

// keyNames mixes prefixes of each other, bytes that sort below the key
// separators, multibyte text, and names holding the separators
// themselves.
var keyNames = []Annotation{"a", "ab", "b", " ", "!x", "#", "é", "日本", "a+b", "{a+b}", "x*y", "(p)", "v:a", ""}

// keyFloats covers the %g corner cases: signed zeros, infinities, NaN,
// exponent forms, and values needing all 17 digits.
var keyFloats = []float64{0, math.Copysign(0, -1), 1, -2.5, 0.1, 1e21, 1e-7, 123456789.125, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64}

// randKeyExpr draws an expression over keyNames and keyFloats, with
// repeated children and every operator, unknown ones included.
func randKeyExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 || r.Intn(4) == 0 {
		if r.Intn(4) == 0 {
			return Const{N: r.Intn(7) - 3}
		}
		return Var{Ann: keyNames[r.Intn(len(keyNames))]}
	}
	kids := func() []Expr {
		es := make([]Expr, 1+r.Intn(4))
		for i := range es {
			if i > 0 && r.Intn(4) == 0 {
				es[i] = es[i-1]
			} else {
				es[i] = randKeyExpr(r, depth-1)
			}
		}
		return es
	}
	switch r.Intn(3) {
	case 0:
		return Sum{Terms: kids()}
	case 1:
		return Prod{Factors: kids()}
	}
	return Cmp{
		Inner: randKeyExpr(r, depth-1),
		Value: keyFloats[r.Intn(len(keyFloats))],
		Op:    CmpOp(r.Intn(8) - 1),
		Bound: keyFloats[r.Intn(len(keyFloats))],
	}
}

// TestKeyMatchesOracle pins Key byte for byte to the fmt/strings.Join
// implementation and SimplifyExpr's output trees (child order
// included) to the sort that recomputed keys per comparison.
func TestKeyMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		e := randKeyExpr(r, 4)
		if got, want := e.Key(), oracleKey(e); got != want {
			t.Fatalf("Key(%s):\n got %q\nwant %q", e, got, want)
		}
		s, o := SimplifyExpr(e), oracleSimplify(e)
		if got, want := fmt.Sprintf("%#v", s), fmt.Sprintf("%#v", o); got != want {
			t.Fatalf("SimplifyExpr(%s):\n got %s\nwant %s", e, got, want)
		}
		if got, want := s.Key(), oracleKey(o); got != want {
			t.Fatalf("simplified Key(%s):\n got %q\nwant %q", e, got, want)
		}
	}
}

// TestKeyAllocations pins the append-built keys to their buffer and
// the one string they return.
func TestKeyAllocations(t *testing.T) {
	e := Sum{Terms: []Expr{P("UID001", "Movie01", "Y1995"), Cmp{Inner: V("a"), Value: 4, Op: OpGE, Bound: 3}, Const{2}}}
	if n := testing.AllocsPerRun(100, func() { _ = e.Key() }); n > 2 {
		t.Fatalf("Sum.Key allocates %v times, want at most 2", n)
	}
}
