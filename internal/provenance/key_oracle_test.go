package provenance

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// This file keeps the fmt/strings.Join implementations of Key and the
// SimplifyExpr that sorted by calling Key in every comparison, as
// oracles for the append-built keys and the precomputed-key sort.

// oracleKey is Key as it was built with fmt.Sprintf and strings.Join,
// with names written by oracleName.
func oracleKey(e Expr) string {
	switch n := e.(type) {
	case Var:
		return "v:" + oracleName(n.Ann)
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

// oracleName is appendName read off its definition: a name holding a
// key separator, or a "+" that starts another term, is written "|",
// byte length, ":", bytes; any other as it is.
func oracleName(a Annotation) string {
	s := string(a)
	if strings.ContainsAny(s, "()*|") || strings.Contains(s, "⊗") || strings.Contains(s, "+v:") || strings.Contains(s, "+c:") {
		return fmt.Sprintf("|%d:%s", len(s), s)
	}
	return s
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
// separators, multibyte text, names holding the separators themselves,
// and names that read like escaped ones or like key fragments.
var keyNames = []Annotation{"a", "ab", "b", " ", "!x", "#", "é", "日本", "a+b", "{a+b}", "x*y", "(p)", "v:a", "",
	"b+v:c", "a+v:b", "c+c:1", "r|s", "x (1)", "⊗", "p⊗q", "|1:a", "1:a", "s(", ")"}

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
// implementation — unchanged for names without separators, whose keys
// the pinned hashes and tensor orders rest on — and SimplifyExpr's
// output trees (child order included) to the sort that recomputed keys
// per comparison.
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

// keyReader reads a key back into an expression. A tensor key decodes
// to one polynomial and one group, so decoding every drawn key back to
// what it was built from shows Key and tensorKey injective.
type keyReader struct {
	s string
	i int
}

func (k *keyReader) eat(tok string) bool {
	if strings.HasPrefix(k.s[k.i:], tok) {
		k.i += len(tok)
		return true
	}
	return false
}

// name reads a Var name or a group: the escaped form where one ends
// there, else a plain name up to the first byte that ends one. Only the
// empty plain name can precede a "|" that does not start an escaped
// form (the group separator), so trying the escaped form first and
// falling back reads every key back.
func (k *keyReader) name() Annotation {
	if rest := k.s[k.i:]; strings.HasPrefix(rest, "|") {
		if colon := strings.IndexByte(rest, ':'); colon > 1 {
			n, err := strconv.Atoi(rest[1:colon])
			if end := colon + 1 + n; err == nil && n >= 0 && end <= len(rest) && nameEnds(rest[end:]) {
				if name := Annotation(rest[colon+1 : end]); oracleName(name) != string(name) {
					k.i += end
					return name
				}
			}
		}
	}
	lo := k.i
	for k.i < len(k.s) && !nameEnds(k.s[k.i:]) {
		k.i++
	}
	return Annotation(k.s[lo:k.i])
}

// nameEnds reports whether a name can end where rest begins: at the
// key's end or before a separator.
func nameEnds(rest string) bool {
	if rest == "" || strings.IndexByte(")*|", rest[0]) >= 0 || strings.HasPrefix(rest, "⊗") {
		return true
	}
	if rest[0] == '+' {
		for _, open := range []string{"v:", "c:", "s(", "p(", "q("} {
			if strings.HasPrefix(rest[1:], open) {
				return true
			}
		}
	}
	return false
}

func (k *keyReader) float() float64 {
	lo := k.i
	for k.i < len(k.s) && strings.IndexByte("0123456789.+-eEInfNa", k.s[k.i]) >= 0 {
		k.i++
	}
	f, err := strconv.ParseFloat(k.s[lo:k.i], 64)
	if err != nil {
		panic(err)
	}
	return f
}

func (k *keyReader) expr() Expr {
	switch {
	case k.eat("v:"):
		return Var{Ann: k.name()}
	case k.eat("c:"):
		lo := k.i
		for k.i < len(k.s) && strings.IndexByte("-0123456789", k.s[k.i]) >= 0 {
			k.i++
		}
		n, err := strconv.Atoi(k.s[lo:k.i])
		if err != nil {
			panic(err)
		}
		return Const{N: n}
	case k.eat("s("):
		return Sum{Terms: k.kids("+")}
	case k.eat("p("):
		return Prod{Factors: k.kids("*")}
	case k.eat("q("):
		c := Cmp{Inner: k.expr()}
		if !k.eat("⊗") {
			panic("guard without ⊗ at " + k.s[k.i:])
		}
		c.Value, c.Op = k.float(), CmpOp(-1)
		for _, op := range []CmpOp{OpGE, OpLE, OpNE, OpGT, OpLT, OpEQ} {
			if k.eat(op.String()) {
				c.Op = op
				break
			}
		}
		if c.Op < 0 && !k.eat("?") {
			panic("unknown operator at " + k.s[k.i:])
		}
		c.Bound = k.float()
		k.eat(")")
		return c
	}
	panic("no node at " + k.s[k.i:])
}

func (k *keyReader) kids(sep string) []Expr {
	es := []Expr{k.expr()}
	for k.eat(sep) {
		es = append(es, k.expr())
	}
	if !k.eat(")") {
		panic("unclosed node at " + k.s[k.i:])
	}
	return es
}

// shape renders e up to child order, independently of Key: children
// sort by their own shapes, and every operator Key prints as "?" reads
// the same.
func shape(e Expr) string {
	kids := func(es []Expr) string {
		ss := make([]string, len(es))
		for i, c := range es {
			ss[i] = shape(c)
		}
		sort.Strings(ss)
		return strings.Join(ss, ",")
	}
	switch n := e.(type) {
	case Sum:
		return "S[" + kids(n.Terms) + "]"
	case Prod:
		return "P[" + kids(n.Factors) + "]"
	case Cmp:
		return fmt.Sprintf("Q[%s;%v;%s;%v]", shape(n.Inner), n.Value, n.Op, n.Bound)
	}
	return fmt.Sprintf("%#v", e)
}

// TestKeyInjective reads every drawn tensor key back: it must decode to
// the polynomial (up to child order) and the group it was built from,
// whatever separators, escape look-alikes or key fragments the names
// hold.
func TestKeyInjective(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		e := randKeyExpr(r, 4)
		group := keyNames[r.Intn(len(keyNames))]
		key := tensorKey(e, group)
		k := &keyReader{s: key}
		got := k.expr()
		if !k.eat("|") {
			t.Fatalf("tensor key %q: no group separator after the polynomial", key)
		}
		if g := k.name(); g != group || k.i != len(key) {
			t.Fatalf("tensor key %q: group %q, want %q", key, g, group)
		}
		if shape(got) != shape(e) {
			t.Fatalf("key %q decodes to %s, want %s", key, shape(got), shape(e))
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
