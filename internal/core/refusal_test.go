package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/constraints"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/ddp"
	"repro/internal/distance"
	"repro/internal/provenance"
	"repro/internal/valuation"
)

// negConstFixture is an aggregation with a negative constant in one
// tensor's polynomial: the blocked kernel refuses its arena
// (provenance.Arena.Blockable), so the estimator cannot plan it.
func negConstFixture() (provenance.Expression, *constraints.Policy, *distance.Estimator) {
	u := provenance.NewUniverse()
	users := make([]provenance.Annotation, 6)
	var tensors []provenance.Tensor
	for i := range users {
		users[i] = provenance.Annotation(fmt.Sprintf("u%d", i+1))
		gender := "F"
		if i%2 == 0 {
			gender = "M"
		}
		u.Add(users[i], "users", provenance.Attrs{"gender": gender})
		tensors = append(tensors, provenance.Tensor{Prov: provenance.V(users[i]), Value: float64(i%4 + 1), Count: 1, Group: "G"})
	}
	u.Add("G", "movies", nil)
	tensors = append(tensors, provenance.Tensor{
		Prov:  provenance.Sum{Terms: []provenance.Expr{provenance.V("u1"), provenance.V("u3"), provenance.Const{N: -1}}},
		Value: 2, Count: 1, Group: "G",
	})
	pol := constraints.NewPolicy(u, constraints.SameTable(), constraints.SharedAttr("gender"))
	est := &distance.Estimator{Class: valuation.NewCancelSingleAnnotation(users), Phi: provenance.CombineOr, VF: distance.Euclidean()}
	return provenance.NewAgg(provenance.AggSum, tensors...), pol, est
}

// opaqueExpr is an Expression type the estimator has no plan for: an
// aggregation behind a type of its own.
type opaqueExpr struct{ g *provenance.Agg }

func (o opaqueExpr) Size() int                            { return o.g.Size() }
func (o opaqueExpr) Annotations() []provenance.Annotation { return o.g.Annotations() }
func (o opaqueExpr) Apply(m provenance.Mapping) provenance.Expression {
	return opaqueExpr{o.g.Apply(m).(*provenance.Agg)}
}
func (o opaqueExpr) Eval(v provenance.Valuation) provenance.Result { return o.g.Eval(v) }
func (o opaqueExpr) AlignResult(r provenance.Result, m provenance.Mapping) provenance.Result {
	return o.g.AlignResult(r, m)
}
func (o opaqueExpr) String() string { return o.g.String() }

// refusingDDP is a DDP expression whose block plan refuses every probe,
// so its run passes the up-front plan check and is refused by its first
// cohort, which no input the program reads can cause.
type refusingDDP struct{ *ddp.Expr }

func (r refusingDDP) Apply(m provenance.Mapping) provenance.Expression {
	return refusingDDP{r.Expr.Apply(m).(*ddp.Expr)}
}

func (r refusingDDP) BlockPlan() (distance.BlockPlan, error) {
	bp, err := r.Expr.BlockPlan()
	return refusingPlan{bp}, err
}

type refusingPlan struct{ distance.BlockPlan }

func (refusingPlan) Probe([]provenance.Annotation, provenance.Annotation) distance.BlockProbe {
	return nil
}

// TestInputPlansOrIsRefused pins the one scoring path: a MovieLens
// expression whose titles carry key separators ("Movie01 (1995)")
// plans like any other, so every cohort is delta-scored, and at
// Parallelism 1 and 4, in enumeration and in sampling mode, the runs
// agree byte for byte and match candidate-major reference scoring at
// every step. Inputs the estimator cannot plan — negative constants and
// an Expression type without a plan — are refused by Summarize with a
// *distance.PlanError before any scoring, and a cohort refused mid-run
// fails the run with the step named and nothing journaled after it.
func TestInputPlansOrIsRefused(t *testing.T) {
	for _, samples := range []int{0, 8} {
		var want string
		for _, workers := range []int{1, 4} {
			w := titledMovieLens(t)
			est := w.Estimator(datasets.CancelSingleAnnotation)
			est.Parallelism = workers
			if samples > 0 {
				est.Samples = samples
				est.Rand = rand.New(rand.NewSource(17))
			}
			cfg := core.Config{Policy: w.Policy, Estimator: est, WDist: 0.7, WSize: 0.3, MaxSteps: 4}
			s, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sum, err := s.Summarize(w.Prov)
			if err != nil {
				t.Fatal(err)
			}
			row := fmt.Sprintf("titled samples=%d workers=%d", samples, workers)
			if st := est.Stats(); st.DeltaCalls == 0 {
				t.Fatalf("%s: DeltaCalls = 0, want delta scoring", row)
			}
			key := mlSummaryKey(t, sum)
			if workers > 1 {
				if key != want {
					t.Fatalf("%s diverged from workers=1:\n%s\n--- want ---\n%s", row, key, want)
				}
				continue
			}
			want = key
			nextVals := est.Class.Valuations
			if samples > 0 {
				r := rand.New(rand.NewSource(17))
				nextVals = func() []provenance.Valuation {
					vals := make([]provenance.Valuation, samples)
					for i := range vals {
						vals[i] = est.Class.Sample(r)
					}
					return vals
				}
			}
			core.CheckStepsByRef(t, cfg, w.Prov, sum, nextVals)
		}
	}

	neg := negMovieLens(t)
	for name, fx := range map[string]func() (provenance.Expression, *constraints.Policy, *distance.Estimator){
		"negative-constant": negConstFixture,
		"negative-movielens": func() (provenance.Expression, *constraints.Policy, *distance.Estimator) {
			return neg.Prov, neg.Policy, neg.Estimator(datasets.CancelSingleAnnotation)
		},
		"custom-type": func() (provenance.Expression, *constraints.Policy, *distance.Estimator) {
			w := titledMovieLens(t)
			return opaqueExpr{w.Prov.(*provenance.Agg)}, w.Policy, w.Estimator(datasets.CancelSingleAnnotation)
		},
	} {
		p0, pol, est := fx()
		s, err := core.New(core.Config{Policy: pol, Estimator: est, WDist: 0.7, WSize: 0.3, MaxSteps: 4})
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Summarize(p0)
		var pe *distance.PlanError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: Summarize err = %v, want a *distance.PlanError", name, err)
		}
		if st := est.Stats(); st.DistanceCalls != 0 || st.DeltaCalls != 0 || st.Evaluations != 0 {
			t.Fatalf("%s: a refused input was scored: %+v", name, st)
		}
	}

	dw := ddpWorkload(t)
	var journaled []int
	s, err := core.New(core.Config{
		Policy: dw.Policy, Estimator: dw.Estimator(datasets.CancelSingleAttribute), WDist: 0.5, WSize: 0.5, MaxSteps: 4,
		CheckpointSink: func(cp core.Checkpoint) error {
			journaled = append(journaled, cp.Step)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Summarize(refusingDDP{dw.Prov.(*ddp.Expr)})
	var pe *distance.PlanError
	if sum != nil || !errors.As(err, &pe) || !strings.Contains(err.Error(), "step 1") {
		t.Fatalf("mid-run refusal: summary %v, err = %v; want no summary and a *distance.PlanError naming step 1", sum, err)
	}
	if len(journaled) != 1 || journaled[0] != 0 {
		t.Fatalf("checkpoints journaled at steps %v, want only the pre-search one (step 0)", journaled)
	}
}

// TestUnblockableOriginalIsRefused pins the estimator's check of the
// original: an aggregated original whose arena the blocked kernel
// cannot evaluate (a negative constant) is refused with a
// *distance.PlanError even when the expression scored against it
// plans, by CheckPlan and by DistanceDelta alike, before anything is
// scored. The original's rows come only from that kernel, so there is
// no tree-walk fallback to take instead.
func TestUnblockableOriginalIsRefused(t *testing.T) {
	p0, _, est := negConstFixture()
	g := p0.(*provenance.Agg)
	var plain []provenance.Tensor
	for _, tn := range g.Tensors {
		if _, ok := tn.Prov.(provenance.Var); ok {
			plain = append(plain, tn)
		}
	}
	cur := provenance.NewAgg(g.Agg.Kind, plain...)
	var pe *distance.PlanError
	if err := est.Begin(cur).CheckPlan(cur, ""); err != nil {
		t.Fatalf("CheckPlan refused a plannable original: %v", err)
	}
	if err := est.Begin(p0).CheckPlan(cur, ""); !errors.As(err, &pe) || !strings.Contains(err.Error(), "original") {
		t.Fatalf("CheckPlan err = %v, want a *distance.PlanError naming the original", err)
	}
	id := provenance.NewMapping()
	base := provenance.GroupsOf(p0.Annotations(), id)
	if _, _, err := est.Begin(p0).DistanceDelta(cur, id, base, [][]provenance.Annotation{{"u1", "u3"}}, "Z"); !errors.As(err, &pe) {
		t.Fatalf("DistanceDelta err = %v, want a *distance.PlanError", err)
	}
	if st := est.Stats(); st.DeltaCalls != 0 || st.Evaluations != 0 || st.CacheMisses != 0 {
		t.Fatalf("a refused original was evaluated: %+v", st)
	}
}
