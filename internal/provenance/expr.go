package provenance

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Expr is a node of a provenance polynomial in N[Ann]: a polynomial with
// natural coefficients whose indeterminates are annotations, extended
// with comparison guards ("equation elements") of the form
// [poly ⊗ m OP c]. Expressions are immutable; every transformation
// returns a new expression.
type Expr interface {
	// EvalNat evaluates the polynomial in the naturals under the given
	// assignment of naturals to annotations. Truth valuations assign 1 to
	// true annotations and 0 to false ones; the semiring axioms then
	// collapse the polynomial to a natural number.
	EvalNat(assign func(Annotation) int) int

	// MapAnn applies an annotation renaming and returns the rewritten
	// (unsimplified) expression. The renaming may return the reserved
	// Zero/One annotations to substitute semiring constants.
	MapAnn(rename func(Annotation) Annotation) Expr

	// CollectAnns adds every annotation occurring in the expression to set.
	CollectAnns(set map[Annotation]struct{})

	// Size is the number of annotation occurrences (with repetitions),
	// the paper's provenance size measure restricted to this node.
	Size() int

	// Key is a canonical string: two expressions are semiring-syntactically
	// equal (up to commutativity) iff their keys are equal. Simplify before
	// comparing keys for meaningful results.
	Key() string

	// String renders the expression in the paper's notation.
	String() string
}

// CmpOp is a comparison operator inside a guard element.
type CmpOp int

// Comparison operators.
const (
	OpGT CmpOp = iota // >
	OpGE              // >=
	OpLT              // <
	OpLE              // <=
	OpEQ              // =
	OpNE              // ≠
)

func (o CmpOp) String() string {
	switch o {
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpEQ:
		return "="
	case OpNE:
		return "≠"
	}
	return "?"
}

// holds reports whether "lhs o rhs" is true.
func (o CmpOp) holds(lhs, rhs float64) bool {
	switch o {
	case OpGT:
		return lhs > rhs
	case OpGE:
		return lhs >= rhs
	case OpLT:
		return lhs < rhs
	case OpLE:
		return lhs <= rhs
	case OpEQ:
		return lhs == rhs
	case OpNE:
		return lhs != rhs
	}
	return false
}

// Var is a single annotation used as a polynomial indeterminate.
type Var struct{ Ann Annotation }

// Const is a natural-number constant; Const{0} and Const{1} are the
// semiring's neutral elements.
type Const struct{ N int }

// Sum is an n-ary semiring addition (alternative use of data).
type Sum struct{ Terms []Expr }

// Prod is an n-ary semiring multiplication (joint use of data).
type Prod struct{ Factors []Expr }

// Cmp is a comparison guard [Inner ⊗ Value Op Bound]: an abstract
// equation element kept as a token inside the polynomial. Under a
// valuation it is interpreted as 1 when the comparison holds and 0
// otherwise, where the left-hand side is Value if Inner evaluates to a
// nonzero natural and 0 otherwise (the congruences 0⊗m ≡ 0, 1⊗m ≡ m).
type Cmp struct {
	Inner Expr    // provenance polynomial guarding the value
	Value float64 // the tensor value paired with Inner
	Op    CmpOp
	Bound float64
}

// V is shorthand for Var{a}.
func V(a Annotation) Expr { return Var{Ann: a} }

// P is shorthand for the product of the given annotations.
func P(anns ...Annotation) Expr {
	fs := make([]Expr, len(anns))
	for i, a := range anns {
		fs[i] = Var{Ann: a}
	}
	return Prod{Factors: fs}
}

// --- Var ---

func (v Var) EvalNat(assign func(Annotation) int) int { return assign(v.Ann) }

func (v Var) MapAnn(rename func(Annotation) Annotation) Expr {
	switch r := rename(v.Ann); r {
	case Zero:
		return Const{0}
	case One:
		return Const{1}
	default:
		return Var{Ann: r}
	}
}

func (v Var) CollectAnns(set map[Annotation]struct{}) { set[v.Ann] = struct{}{} }
func (v Var) Size() int                               { return 1 }
func (v Var) String() string                          { return string(v.Ann) }

func (v Var) Key() string {
	var buf [64]byte
	return string(appendName(append(buf[:0], "v:"...), v.Ann))
}

// --- Const ---

func (c Const) EvalNat(func(Annotation) int) int        { return c.N }
func (c Const) MapAnn(func(Annotation) Annotation) Expr { return c }
func (c Const) CollectAnns(map[Annotation]struct{})     {}
func (c Const) Size() int                               { return 0 }
func (c Const) Key() string                             { return "c:" + strconv.Itoa(c.N) }
func (c Const) String() string                          { return strconv.Itoa(c.N) }

// --- Sum ---

func (s Sum) EvalNat(assign func(Annotation) int) int {
	total := 0
	for _, t := range s.Terms {
		total += t.EvalNat(assign)
	}
	return total
}

func (s Sum) MapAnn(rename func(Annotation) Annotation) Expr {
	ts := make([]Expr, len(s.Terms))
	for i, t := range s.Terms {
		ts[i] = t.MapAnn(rename)
	}
	return Sum{Terms: ts}
}

func (s Sum) CollectAnns(set map[Annotation]struct{}) {
	for _, t := range s.Terms {
		t.CollectAnns(set)
	}
}

func (s Sum) Size() int {
	n := 0
	for _, t := range s.Terms {
		n += t.Size()
	}
	return n
}

func (s Sum) Key() string {
	return string(appendNaryKey(make([]byte, 0, 128), "s(", '+', s.Terms))
}

func (s Sum) String() string {
	parts := make([]string, len(s.Terms))
	for i, t := range s.Terms {
		parts[i] = t.String()
	}
	return "(" + strings.Join(parts, " + ") + ")"
}

// --- Prod ---

func (p Prod) EvalNat(assign func(Annotation) int) int {
	total := 1
	for _, f := range p.Factors {
		total *= f.EvalNat(assign)
		if total == 0 {
			return 0
		}
	}
	return total
}

func (p Prod) MapAnn(rename func(Annotation) Annotation) Expr {
	fs := make([]Expr, len(p.Factors))
	for i, f := range p.Factors {
		fs[i] = f.MapAnn(rename)
	}
	return Prod{Factors: fs}
}

func (p Prod) CollectAnns(set map[Annotation]struct{}) {
	for _, f := range p.Factors {
		f.CollectAnns(set)
	}
}

func (p Prod) Size() int {
	n := 0
	for _, f := range p.Factors {
		n += f.Size()
	}
	return n
}

func (p Prod) Key() string {
	return string(appendNaryKey(make([]byte, 0, 128), "p(", '*', p.Factors))
}

func (p Prod) String() string {
	parts := make([]string, len(p.Factors))
	for i, f := range p.Factors {
		parts[i] = f.String()
	}
	return strings.Join(parts, "·")
}

// --- Cmp ---

func (c Cmp) EvalNat(assign func(Annotation) int) int {
	lhs := 0.0
	if c.Inner.EvalNat(assign) != 0 {
		lhs = c.Value
	}
	if c.Op.holds(lhs, c.Bound) {
		return 1
	}
	return 0
}

func (c Cmp) MapAnn(rename func(Annotation) Annotation) Expr {
	return Cmp{Inner: c.Inner.MapAnn(rename), Value: c.Value, Op: c.Op, Bound: c.Bound}
}

func (c Cmp) CollectAnns(set map[Annotation]struct{}) { c.Inner.CollectAnns(set) }
func (c Cmp) Size() int                               { return c.Inner.Size() }

func (c Cmp) Key() string {
	return string(appendCmpKey(appendKey(append(make([]byte, 0, 128), "q("...), c.Inner), c.Value, c.Op, c.Bound))
}

func (c Cmp) String() string {
	return fmt.Sprintf("[%s ⊗ %g %s %g]", c.Inner, c.Value, c.Op, c.Bound)
}

// appendKey appends e.Key() to dst. The node kinds build their keys
// with append into one buffer, child keys included, so no per-child
// string is allocated; other Expr implementations append their own Key.
func appendKey(dst []byte, e Expr) []byte {
	switch n := e.(type) {
	case Var:
		return appendName(append(dst, "v:"...), n.Ann)
	case Const:
		return strconv.AppendInt(append(dst, "c:"...), int64(n.N), 10)
	case Sum:
		return appendNaryKey(dst, "s(", '+', n.Terms)
	case Prod:
		return appendNaryKey(dst, "p(", '*', n.Factors)
	case Cmp:
		return appendCmpKey(appendKey(append(dst, "q("...), n.Inner), n.Value, n.Op, n.Bound)
	}
	return append(dst, e.Key()...)
}

// tensorKey is Simplify's merge key of a tensor: its polynomial's key,
// "|", and its group's name.
func tensorKey(prov Expr, group Annotation) string {
	return string(appendName(append(appendKey(make([]byte, 0, 128), prov), '|'), group))
}

// appendName appends an annotation name as keys write it. Key joins
// names with the separators "+", "*", ")", "⊗" and "|", so a name that
// holds none of them, nor a "+" that starts another term ("+v:",
// "+c:"), is written as it is; any other is written as "|", its byte
// length, ":" and its bytes. That form delimits itself and starts with
// a byte a plain name never holds, so Key is injective over every name.
func appendName(dst []byte, name Annotation) []byte {
	s := string(name)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', ')', '*', '|':
		case '+':
			if !strings.HasPrefix(s[i+1:], "v:") && !strings.HasPrefix(s[i+1:], "c:") {
				continue
			}
		case "⊗"[0]:
			if !strings.HasPrefix(s[i:], "⊗") {
				continue
			}
		default:
			continue
		}
		dst = strconv.AppendInt(append(dst, '|'), int64(len(s)), 10)
		return append(append(dst, ':'), s...)
	}
	return append(dst, s...)
}

// appendNaryKey appends the key of a Sum (open "s(", sep '+') or Prod
// (open "p(", sep '*') over kids.
func appendNaryKey(dst []byte, open string, sep byte, kids []Expr) []byte {
	start := len(dst)
	var stack [8][2]int
	spans := stack[:0]
	for _, k := range kids {
		lo := len(dst)
		dst = appendKey(dst, k)
		spans = append(spans, [2]int{lo, len(dst)})
	}
	return joinSortedKeys(dst, start, open, sep, spans)
}

// joinSortedKeys rewrites dst[start:], which holds child keys at the
// given spans, into open, the keys in ascending byte order joined by
// sep, and ")": the Sum/Prod key layout. Building the child keys in
// place and moving them allocates no per-child string.
func joinSortedKeys(dst []byte, start int, open string, sep byte, spans [][2]int) []byte {
	keys := dst
	slices.SortFunc(spans, func(a, b [2]int) int {
		return bytes.Compare(keys[a[0]:a[1]], keys[b[0]:b[1]])
	})
	mid := len(dst)
	dst = append(dst, open...)
	for i, sp := range spans {
		if i > 0 {
			dst = append(dst, sep)
		}
		dst = append(dst, dst[sp[0]:sp[1]]...)
	}
	dst = append(dst, ')')
	return dst[:start+copy(dst[start:], dst[mid:])]
}

// appendCmpKey appends the tail of a guard key after its inner key:
// "⊗" value op bound ")". strconv's shortest 'g' form is exactly what
// fmt's %g prints for a float64.
func appendCmpKey(dst []byte, value float64, op CmpOp, bound float64) []byte {
	dst = append(dst, "⊗"...)
	dst = strconv.AppendFloat(dst, value, 'g', -1, 64)
	dst = append(dst, op.String()...)
	dst = strconv.AppendFloat(dst, bound, 'g', -1, 64)
	return append(dst, ')')
}

// Anns returns the sorted set of annotations occurring in e.
func Anns(e Expr) []Annotation {
	set := make(map[Annotation]struct{})
	e.CollectAnns(set)
	out := make([]Annotation, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
