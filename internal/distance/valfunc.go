// Package distance implements the summary-quality distance of Sec. 3.2:
// the average, over a class of truth valuations, of a VAL-FUNC measuring
// how differently the original and summarized provenance behave under
// corresponding valuations. Computing the distance exactly over all
// valuations is #P-hard (Prop. 4.1.1); the package provides both exact
// enumeration for explicit classes and the Monte-Carlo sampling estimator
// of Prop. 4.1.2 with a Chebyshev sample-size bound.
package distance

import (
	"math"

	"repro/internal/provenance"
)

// ValFunc measures a property of the effect of a valuation on the
// original expression (result orig, already aligned into the summary's
// result space) and the summary expression (result summ, evaluated under
// the extended valuation v^{h,φ}). The valuation is provided so that
// weighted VAL-FUNCs can apply a weighting w(v).
//
// Dense, when set, is F on two vector results laid out as dense rows
// over one sorted coordinate space, a coordinate missing from a vector
// reading 0 in its row: Dense(v, o, s) must equal F(v, O, S) bit for bit
// whenever O and S are the vectors the rows stand for. The delta sweep
// scores aggregations through it; a VAL-FUNC without it is handed the
// vectors rebuilt from the rows.
type ValFunc struct {
	Name  string
	F     func(v provenance.Valuation, orig, summ provenance.Result) float64
	Dense func(v provenance.Valuation, orig, summ []float64) float64
}

// Weight assigns a weight to a valuation, e.g. the joint probability of
// the truth values it defines. The default weighting is uniform 1.
type Weight func(v provenance.Valuation) float64

func uniform(provenance.Valuation) float64 { return 1 }

// TrustWeight is the joint-probability weighting of Definition 3.2.2:
// given per-annotation trust probabilities (the chance the annotation is
// kept), w(v) = Π_{v(a)} p(a) · Π_{¬v(a)} (1 − p(a)) over the given
// annotations. Annotations without an entry default to probability p0.
// Use it to bias the distance towards the hypothetical scenarios that
// are actually likely ("provisioning in the presence of spammers" with
// per-user spam probabilities).
func TrustWeight(trust map[provenance.Annotation]float64, p0 float64, anns []provenance.Annotation) Weight {
	return func(v provenance.Valuation) float64 {
		w := 1.0
		for _, a := range anns {
			p, ok := trust[a]
			if !ok {
				p = p0
			}
			if v.Truth(a) {
				w *= p
			} else {
				w *= 1 - p
			}
		}
		return w
	}
}

// AbsDiff is the "expected error" VAL-FUNC: w(v)·|v(p) − v'(p')| for
// scalar results; for vectors it sums coordinate-wise absolute error in
// sorted key order.
func AbsDiff(w Weight) ValFunc {
	if w == nil {
		w = uniform
	}
	return ValFunc{
		Name: "Absolute Difference",
		F: func(v provenance.Valuation, orig, summ provenance.Result) float64 {
			return w(v) * absDiff(orig, summ)
		},
		Dense: func(v provenance.Valuation, orig, summ []float64) float64 {
			total := 0.0
			for i, o := range orig {
				total += math.Abs(o - summ[i])
			}
			return w(v) * total
		},
	}
}

// Disagree is the "weighted fraction of disagreeing valuations"
// VAL-FUNC: 0 when the two results agree exactly and w(v) otherwise.
func Disagree(w Weight) ValFunc {
	if w == nil {
		w = uniform
	}
	return ValFunc{
		Name: "Disagreeing Valuations",
		F: func(v provenance.Valuation, orig, summ provenance.Result) float64 {
			if ResultsEqual(orig, summ) {
				return 0
			}
			return w(v)
		},
		Dense: func(v provenance.Valuation, orig, summ []float64) float64 {
			for i, o := range orig {
				if o != summ[i] {
					return w(v)
				}
			}
			return 0
		},
	}
}

// Euclidean is the Euclidean-distance VAL-FUNC over aggregation vectors
// (the VAL-FUNC of the MovieLens and Wikipedia experiments). Scalar
// results degrade to |a−b|.
func Euclidean() ValFunc {
	return ValFunc{
		Name: "Euclidean Distance",
		F: func(_ provenance.Valuation, orig, summ provenance.Result) float64 {
			ov, ook := orig.(provenance.Vector)
			sv, sok := summ.(provenance.Vector)
			if ook && sok {
				return provenance.Euclid(ov, sv)
			}
			return absDiff(orig, summ)
		},
		Dense: func(_ provenance.Valuation, orig, summ []float64) float64 {
			sum := 0.0
			for i, o := range orig {
				d := o - summ[i]
				sum += d * d
			}
			return math.Sqrt(sum)
		},
	}
}

func absDiff(a, b provenance.Result) float64 {
	switch x := a.(type) {
	case provenance.Scalar:
		if y, ok := b.(provenance.Scalar); ok {
			return math.Abs(float64(x) - float64(y))
		}
	case provenance.Vector:
		if y, ok := b.(provenance.Vector); ok {
			total := 0.0
			for _, k := range provenance.UnionKeys(x, y) {
				total += math.Abs(x[k] - y[k])
			}
			return total
		}
	}
	if ResultsEqual(a, b) {
		return 0
	}
	return 1
}

// ResultsEqual compares two results for exact agreement.
func ResultsEqual(a, b provenance.Result) bool {
	switch x := a.(type) {
	case provenance.Scalar:
		y, ok := b.(provenance.Scalar)
		return ok && x == y
	case provenance.Vector:
		y, ok := b.(provenance.Vector)
		if !ok {
			return false
		}
		for k, xv := range x {
			if xv != y[k] {
				return false
			}
		}
		for k, yv := range y {
			if _, ok := x[k]; !ok && yv != 0 {
				return false
			}
		}
		return true
	default:
		return a == b
	}
}
