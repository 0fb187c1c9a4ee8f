package provenance

import "sort"

// SimplifyExpr rewrites e into a normal form using the semiring axioms
// and the guard congruences:
//
//   - nested sums and products are flattened,
//   - constants are folded (0 absorbs products, 1 is dropped from
//     products, 0 is dropped from sums),
//   - guards whose inner polynomial is a constant are resolved to 0 or 1,
//   - terms and factors are put in canonical (sorted) order so that Key
//     comparisons detect equality up to commutativity.
//
// Natural coefficients are preserved: a sum of n syntactically equal
// terms is represented as n copies (the semiring is N[Ann], not B[Ann]).
func SimplifyExpr(e Expr) Expr {
	switch n := e.(type) {
	case Var, Const:
		return e

	case Cmp:
		inner := SimplifyExpr(n.Inner)
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
		// flatten recursively, folding constants found at any nesting level
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
			walk(SimplifyExpr(f))
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
		sortByKey(factors)
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
			walk(SimplifyExpr(t))
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
		sortByKey(terms)
		return Sum{Terms: terms}
	}
	return e
}

// sortByKey sorts es by Key, computing each key once. sort.Slice sees
// the same comparisons as it would comparing Key() calls directly, so
// the resulting permutation is the same too.
func sortByKey(es []Expr) {
	type keyed struct {
		key string
		e   Expr
	}
	ks := make([]keyed, len(es))
	for i, e := range es {
		ks[i] = keyed{key: e.Key(), e: e}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	for i := range ks {
		es[i] = ks[i].e
	}
}
