package provenance

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// AggKind selects the aggregation monoid used to combine tensor values.
type AggKind int

// Supported aggregation monoids. The paper's MovieLens provenance uses
// MAX and SUM; Wikipedia uses SUM; COUNT is derivable but provided for
// convenience.
const (
	AggSum AggKind = iota
	AggMax
	AggMin
	AggCount
)

func (k AggKind) String() string {
	switch k {
	case AggSum:
		return "SUM"
	case AggMax:
		return "MAX"
	case AggMin:
		return "MIN"
	case AggCount:
		return "COUNT"
	}
	return "?"
}

// ParseAggKind parses "SUM"/"MAX"/"MIN"/"COUNT" (case-insensitive).
func ParseAggKind(s string) (AggKind, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "SUM":
		return AggSum, nil
	case "MAX":
		return AggMax, nil
	case "MIN":
		return AggMin, nil
	case "COUNT":
		return AggCount, nil
	}
	return 0, fmt.Errorf("provenance: unknown aggregation %q", s)
}

// Aggregator is a commutative aggregation monoid over float64 values
// paired with contributor counts — the monoid M of the K⊗M semimodule
// construction. Combining two tensors (v1,c1) and (v2,c2) yields
// (Combine(v1,v2), c1+c2); the count records how many basic contributions
// the aggregated value stands for (the "(5, 2)" in the paper's examples).
type Aggregator struct{ Kind AggKind }

// Combine folds two aggregated values.
func (a Aggregator) Combine(x, y float64) float64 {
	switch a.Kind {
	case AggSum, AggCount:
		return x + y
	case AggMax:
		return math.Max(x, y)
	case AggMin:
		return math.Min(x, y)
	}
	return x + y
}

// Identity is the neutral aggregated value: the value of an empty
// aggregation. Following the congruence 0 ⊗ m ≡ 0, an aggregation all of
// whose contributions are cancelled evaluates to 0 for every monoid (this
// matches the PROX UI, which reports rating 0 for a movie whose reviews
// were all cancelled).
func (a Aggregator) Identity() float64 { return 0 }

// Scale folds n copies of v: for SUM/COUNT n·v, for MAX/MIN v (idempotent
// monoids). It interprets a natural coefficient n ≥ 1 in front of a
// tensor.
func (a Aggregator) Scale(v float64, n int) float64 {
	switch a.Kind {
	case AggSum, AggCount:
		return v * float64(n)
	default:
		return v
	}
}

// Tensor pairs a provenance polynomial with an aggregated value: the
// element "Prov ⊗ (Value, Count)" of the paper's formal sums. Group names
// the object the value contributes to (a movie, a Wikipedia page): the
// evaluation of an aggregated expression is a vector indexed by group.
type Tensor struct {
	Prov  Expr
	Value float64
	Count int
	// Group is the annotation of the object this tensor's value belongs
	// to. Summarization may merge group annotations, merging the
	// corresponding vector coordinates. A zero Group ("") denotes a scalar
	// (single-object) aggregation.
	Group Annotation
}

func (t Tensor) String() string {
	if t.Group == "" {
		return fmt.Sprintf("%s ⊗ (%g,%d)", t.Prov, t.Value, t.Count)
	}
	return fmt.Sprintf("%s ⊗ (%g,%d)@%s", t.Prov, t.Value, t.Count, t.Group)
}

// Agg is an aggregated provenance value: a formal sum (⊕) of tensors
// combined with a fixed aggregation monoid. It is the main expression
// type PROX summarizes for the MovieLens and Wikipedia datasets, and it
// implements the Expression interface consumed by the summarization
// algorithm, which plans only an Agg in Simplify normal form (every
// Sum and Prod listing its children in key order included): NewAgg
// builds one, and Simplify normalizes one built by hand.
type Agg struct {
	Tensors []Tensor
	Agg     Aggregator
}

// NewAgg builds an aggregated expression and simplifies it.
func NewAgg(kind AggKind, tensors ...Tensor) *Agg {
	a := &Agg{Tensors: tensors, Agg: Aggregator{Kind: kind}}
	return a.Simplify()
}

// Simplify applies the tensor congruences: each tensor's polynomial is
// simplified; tensors whose polynomial is 0 are dropped; tensors with a
// syntactically equal polynomial and the same group are merged into a
// single tensor, combining values with the aggregation monoid and adding
// counts (the rewrite Female⊗(3,1) ⊕ Female⊗(5,1) ≡ Female⊗(5,2) for
// MAX). A tensor with a constant polynomial n ≥ 1 keeps Const{n} as its
// polynomial. The receiver is not modified.
func (g *Agg) Simplify() *Agg {
	type slot struct {
		t     Tensor
		coeff int
	}
	merged := make(map[string]*slot)
	order := make([]string, 0, len(g.Tensors))
	for _, t := range g.Tensors {
		prov := SimplifyExpr(t.Prov)
		if c, ok := prov.(Const); ok && c.N == 0 {
			continue
		}
		k := tensorKey(prov, t.Group)
		if s, ok := merged[k]; ok {
			s.t.Value = g.Agg.Combine(s.t.Value, t.Value)
			s.t.Count += t.Count
		} else {
			merged[k] = &slot{t: Tensor{Prov: prov, Value: t.Value, Count: t.Count, Group: t.Group}}
			order = append(order, k)
		}
	}
	sort.Strings(order)
	out := &Agg{Agg: g.Agg, Tensors: make([]Tensor, 0, len(order))}
	for _, k := range order {
		out.Tensors = append(out.Tensors, merged[k].t)
	}
	return out
}

// Size is the paper's provenance size measure: the total number of
// annotation occurrences (with repetitions) across all tensors, including
// group annotations and guard polynomials.
func (g *Agg) Size() int {
	n := 0
	for _, t := range g.Tensors {
		n += t.Prov.Size()
	}
	return n
}

// Annotations returns the sorted set of annotations occurring in the
// expression (polynomials, guards, and group keys).
func (g *Agg) Annotations() []Annotation {
	set := make(map[Annotation]struct{})
	for _, t := range g.Tensors {
		t.Prov.CollectAnns(set)
		if t.Group != "" {
			set[t.Group] = struct{}{}
		}
	}
	out := make([]Annotation, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Groups returns the sorted set of group annotations of the expression.
func (g *Agg) Groups() []Annotation {
	set := make(map[Annotation]struct{})
	for _, t := range g.Tensors {
		if t.Group != "" {
			set[t.Group] = struct{}{}
		}
	}
	out := make([]Annotation, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Apply rewrites every annotation occurrence (including group keys)
// through the mapping and simplifies the result. It implements the
// homomorphic extension of h from annotations to N[Ann]⊗M expressions.
func (g *Agg) Apply(m Mapping) Expression {
	out := &Agg{Agg: g.Agg, Tensors: make([]Tensor, 0, len(g.Tensors))}
	for _, t := range g.Tensors {
		group, kept := AlignedKey(t.Group, m)
		if !kept {
			continue // the whole coordinate is discarded
		}
		out.Tensors = append(out.Tensors, Tensor{
			Prov:  t.Prov.MapAnn(m.Rename),
			Value: t.Value,
			Count: t.Count,
			Group: group,
		})
	}
	return out.Simplify()
}

// Eval evaluates the expression under a truth valuation, returning the
// vector of aggregated values keyed by group annotation. Tensors whose
// polynomial evaluates to 0 contribute nothing; a group with no surviving
// contribution is reported with the aggregation identity (0), so vectors
// of the same expression always have the same coordinates.
func (g *Agg) Eval(v Valuation) Result {
	assign := func(a Annotation) int {
		if v.Truth(a) {
			return 1
		}
		return 0
	}
	vec := make(Vector)
	contributed := make(map[Annotation]bool)
	for _, t := range g.Tensors {
		if _, ok := vec[t.Group]; !ok {
			vec[t.Group] = g.Agg.Identity()
		}
		n := t.Prov.EvalNat(assign)
		if n == 0 {
			continue
		}
		contrib := g.Agg.Scale(t.Value, n)
		if contributed[t.Group] {
			vec[t.Group] = g.Agg.Combine(vec[t.Group], contrib)
		} else {
			// The first real contribution replaces the identity placeholder
			// so that MIN/MAX aggregations are not polluted by it.
			vec[t.Group] = contrib
			contributed[t.Group] = true
		}
	}
	return vec
}

// AlignResult re-keys an evaluation vector of the pre-summarization
// expression into this (summarized) expression's group space: original
// coordinates whose group annotations were merged are combined with the
// aggregation monoid. This is the vector transformation of Example 5.2.1,
// needed before the Euclidean VAL-FUNC can compare vectors of different
// dimensions. Coordinates combine in sorted key order, so the result
// does not depend on map iteration order.
func (g *Agg) AlignResult(orig Result, m Mapping) Result {
	vec, ok := orig.(Vector)
	if !ok {
		return orig
	}
	keys := make([]Annotation, 0, len(vec))
	for k := range vec {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make(Vector)
	contributed := make(map[Annotation]bool)
	for _, k := range keys {
		val := vec[k]
		nk, kept := AlignedKey(k, m)
		if !kept {
			continue
		}
		if contributed[nk] {
			out[nk] = g.Agg.Combine(out[nk], val)
		} else {
			out[nk] = val
			contributed[nk] = true
		}
	}
	return out
}

// AlignedKey is how Apply and AlignResult re-key a coordinate k through
// m: the scalar coordinate "" stays, a coordinate m sends to One keeps
// its key, and kept is false for one m sends to Zero, which drops.
func AlignedKey(k Annotation, m Mapping) (nk Annotation, kept bool) {
	return AlignRenamed(k, m.Rename(k))
}

// AlignRenamed is AlignedKey of k through a mapping that sends k to
// image.
func AlignRenamed(k, image Annotation) (nk Annotation, kept bool) {
	if k == "" {
		return k, true
	}
	switch image {
	case Zero:
		return "", false
	case One:
		return k, true
	default:
		return image, true
	}
}

// String renders the expression in the paper's ⊕-of-tensors notation.
func (g *Agg) String() string {
	if len(g.Tensors) == 0 {
		return "0"
	}
	parts := make([]string, len(g.Tensors))
	for i, t := range g.Tensors {
		parts[i] = t.String()
	}
	return strings.Join(parts, " ⊕ ")
}
