package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/constraints"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/distance"
	"repro/internal/provenance"
	"repro/internal/valuation"
)

// negConstFixture is an aggregation with a negative constant in one
// tensor's polynomial: the blocked kernel refuses its arena
// (provenance.Arena.Blockable), so the delta engine cannot plan it.
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

// TestFallbackRoutedByInput pins the scorer choice to the input: a
// MovieLens expression whose titles carry key separators ("Movie01
// (1995)") plans like any other, so every cohort goes through the delta
// engine, while an expression with a negative constant cannot, so every
// cohort is scored by the DistanceBatch fallback — no option selects
// either. At Parallelism 1 and 4, in enumeration and in sampling mode,
// the runs must agree byte for byte, and every step must match
// candidate-major reference scoring.
func TestFallbackRoutedByInput(t *testing.T) {
	titled := func() (provenance.Expression, *constraints.Policy, *distance.Estimator) {
		w := titledMovieLens(t)
		return w.Prov, w.Policy, w.Estimator(datasets.CancelSingleAnnotation)
	}
	for _, fx := range []struct {
		name  string
		build func() (provenance.Expression, *constraints.Policy, *distance.Estimator)
		delta bool
	}{{"titled-movielens", titled, true}, {"negative-constant", negConstFixture, false}} {
		for _, samples := range []int{0, 8} {
			var want string
			for _, workers := range []int{1, 4} {
				p0, pol, est := fx.build()
				if samples > 0 {
					est.Samples = samples
					est.Rand = rand.New(rand.NewSource(17))
				}
				cfg := core.Config{Policy: pol, Estimator: est, WDist: 0.7, WSize: 0.3, MaxSteps: 4, Parallelism: workers}
				s, err := core.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sum, err := s.Summarize(p0)
				if err != nil {
					t.Fatal(err)
				}
				row := fmt.Sprintf("%s samples=%d workers=%d", fx.name, samples, workers)
				st := est.Stats()
				if fx.delta && (st.DeltaCalls == 0 || st.BatchCalls != 0) {
					t.Fatalf("%s: BatchCalls=%d DeltaCalls=%d, want delta only", row, st.BatchCalls, st.DeltaCalls)
				}
				if !fx.delta && (st.BatchCalls == 0 || st.DeltaCalls != 0) {
					t.Fatalf("%s: BatchCalls=%d DeltaCalls=%d, want fallback only", row, st.BatchCalls, st.DeltaCalls)
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
				core.CheckStepsByRef(t, cfg, p0, sum, nextVals)
			}
		}
	}
}
