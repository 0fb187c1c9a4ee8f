package distance

import (
	"math/rand"

	"repro/internal/provenance"
	"repro/internal/valuation"
)

// refDistance is the test-only oracle every scorer of the package is
// pinned to: Definition 3.2.2 read straight off the semantics. Under
// each valuation v of vals, in order, the original is evaluated by its
// own Eval (the tree walk: no arena, no original-result cache), aligned
// into the candidate's result space through cum, and compared by the
// VAL-FUNC against the candidate evaluated under the extended valuation
// v^{h,φ} (provenance.ExtendValuation: no φ memo); the summands are
// averaged and normalized by e.MaxError like Estimator does. Only e's
// Phi, VF and MaxError are read.
func refDistance(e *Estimator, vals []provenance.Valuation, p0, pc provenance.Expression, cum provenance.Mapping, groups provenance.Groups) float64 {
	if len(vals) == 0 {
		return 0
	}
	var total float64
	for _, v := range vals {
		orig := pc.AlignResult(p0.Eval(v), cum)
		total += e.VF.F(v, orig, pc.Eval(provenance.ExtendValuation(v, groups, e.Phi)))
	}
	d := total / float64(len(vals))
	if e.MaxError > 0 {
		d /= e.MaxError
		if d > 1 {
			d = 1
		}
	}
	return d
}

// refCandidate is one materialized candidate summary of a shared
// original p0, as refDistance scores it: the candidate expression, the
// cumulative mapping with Expr = Cumulative(p0), and its inverse view.
type refCandidate struct {
	Expr       provenance.Expression
	Cumulative provenance.Mapping
	Groups     provenance.Groups
}

// refDistances scores every candidate by refDistance under vals.
func refDistances(e *Estimator, vals []provenance.Valuation, p0 provenance.Expression, cands []refCandidate) []float64 {
	out := make([]float64, len(cands))
	for i, c := range cands {
		out[i] = refDistance(e, vals, p0, c.Expr, c.Cumulative, c.Groups)
	}
	return out
}

// refVals is the valuation list the first sweep of an estimator over
// class scores: the enumerated class when samples is 0, else samples
// draws from a Rand seeded with seed.
func refVals(class valuation.Class, samples int, seed int64) []provenance.Valuation {
	if samples <= 0 {
		return class.Valuations()
	}
	r := rand.New(rand.NewSource(seed))
	vals := make([]provenance.Valuation, samples)
	for i := range vals {
		vals[i] = class.Sample(r)
	}
	return vals
}

// RefDistance, RefDistances, RefVals and RefCandidate export the
// oracle to the external test package (the DDP scenarios, which cannot
// be built from package distance).
var (
	RefDistance  = refDistance
	RefDistances = refDistances
	RefVals      = refVals
)

type RefCandidate = refCandidate

// refineClasses is the test-only oracle of EquivalenceClasses: the
// partition refinement of Prop. 4.2.1, which splits every class into
// its annotations true and false under each valuation of vals in turn,
// trues first. A class that would be empty is dropped, so no
// annotations give no classes.
func refineClasses(anns []provenance.Annotation, vals []provenance.Valuation) [][]provenance.Annotation {
	if len(anns) == 0 {
		return nil
	}
	classes := [][]provenance.Annotation{append([]provenance.Annotation(nil), anns...)}
	for _, v := range vals {
		next := make([][]provenance.Annotation, 0, len(classes))
		for _, c := range classes {
			var trues, falses []provenance.Annotation
			for _, a := range c {
				if v.Truth(a) {
					trues = append(trues, a)
				} else {
					falses = append(falses, a)
				}
			}
			if len(trues) > 0 {
				next = append(next, trues)
			}
			if len(falses) > 0 {
				next = append(next, falses)
			}
		}
		classes = next
	}
	return classes
}

// OriginalResults checks that r plans its BlockPlanner original, which
// compiles the original's block plan and keeps it, and returns the
// valuations of a sweep (batchValuations: the class, or fresh draws in
// sampling mode) with the original's results under them
// (originalResults). External tests hold the results to Eval.
func OriginalResults(r *Run) ([]provenance.Valuation, []provenance.Result, error) {
	if err := r.CheckPlan(r.p0, ""); err != nil {
		return nil, nil, err
	}
	vals := r.batchValuations()
	return vals, r.originalResults(vals), nil
}
