package prox_test

// Runnable GoDoc examples for the public API. Each compiles into the
// package documentation and is verified by `go test`.

import (
	"fmt"
	"log"

	"repro"
)

// ExampleSummarize runs Algorithm 1 on the thesis's running example: the
// distance-weighted search picks the Audience merge, which is exact
// under every single-cancellation scenario.
func ExampleSummarize() {
	p := prox.NewAgg(prox.AggMax,
		prox.Tensor{Prov: prox.V("U1"), Value: 3, Count: 1, Group: "MatchPoint"},
		prox.Tensor{Prov: prox.V("U2"), Value: 5, Count: 1, Group: "MatchPoint"},
		prox.Tensor{Prov: prox.V("U3"), Value: 3, Count: 1, Group: "MatchPoint"},
	)
	u := prox.NewUniverse()
	u.Add("U1", "users", prox.Attrs{"gender": "F", "role": "audience"})
	u.Add("U2", "users", prox.Attrs{"gender": "F", "role": "critic"})
	u.Add("U3", "users", prox.Attrs{"gender": "M", "role": "audience"})
	u.Add("MatchPoint", "movies", nil)

	sum, err := prox.Summarize(p, prox.Options{
		Universe: u,
		Rules: []prox.Rule{
			prox.SameTable(),
			prox.TableScoped("users", prox.SharedAttr("gender", "role")),
			prox.TableScoped("movies", prox.NeverRule()),
		},
		Class:    prox.NewCancelSingleAnnotation([]prox.Annotation{"U1", "U2", "U3"}),
		WDist:    1,
		MaxSteps: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sum.Expr)
	fmt.Println("distance:", sum.Dist)
	// Output:
	// U2 ⊗ (5,1)@MatchPoint ⊕ role:audience ⊗ (3,2)@MatchPoint
	// distance: 0
}

// ExampleParseAgg reads the paper's notation, including activity guards.
func ExampleParseAgg() {
	p, err := prox.ParseAgg(prox.AggMax,
		"U1·[S1·U1 ⊗ 5 > 2] ⊗ (3,1)@MatchPoint ⊕ U2 ⊗ (5,1)@MatchPoint")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("size:", p.Size())
	fmt.Println(p.Eval(prox.CancelAnnotation("U2")).ResultString())
	// Output:
	// size: 4
	// (MatchPoint:3)
}

// ExampleExtendValuation provisions a hypothetical scenario on a summary:
// with φ = OR, a summary annotation survives while any member survives.
func ExampleExtendValuation() {
	p := prox.NewAgg(prox.AggMax,
		prox.Tensor{Prov: prox.V("U1"), Value: 3, Count: 1, Group: "M"},
		prox.Tensor{Prov: prox.V("U2"), Value: 5, Count: 1, Group: "M"},
	)
	h := prox.MergeMapping("Female", "U1", "U2")
	summary := p.Apply(h)
	groups := prox.GroupsOf(p.Annotations(), h)

	v := prox.CancelAnnotation("U2") // "U2 is a spammer"
	ext := prox.ExtendValuation(v, groups, prox.CombineOr)
	fmt.Println("original:", p.Eval(v).ResultString())
	fmt.Println("summary :", summary.Eval(ext).ResultString())
	// Output:
	// original: (M:3)
	// summary : (M:5)
}

// ExampleNewDDPExpr evaluates data-dependent-process provenance over the
// tropical semiring: the cheapest satisfiable execution wins.
func ExampleNewDDPExpr() {
	e := prox.NewDDPExpr(
		prox.DDPExecution{prox.DDPUser("c1", 7), prox.DDPCond("d1", "d2", true)},
		prox.DDPExecution{prox.DDPUser("c2", 3), prox.DDPCond("d2", "d3", true)},
	)
	fmt.Println(e.Eval(prox.AllTrue).ResultString())
	fmt.Println(e.Eval(prox.CancelAnnotation("d3")).ResultString())
	// Output:
	// ⟨3,true⟩
	// ⟨7,true⟩
}

// ExampleEstimator computes the Definition 3.2.2 distance between an
// expression and a candidate summary over a valuation class.
func ExampleEstimator() {
	p := prox.NewAgg(prox.AggMax,
		prox.Tensor{Prov: prox.V("U1"), Value: 3, Count: 1, Group: "M"},
		prox.Tensor{Prov: prox.V("U2"), Value: 5, Count: 1, Group: "M"},
		prox.Tensor{Prov: prox.V("U3"), Value: 3, Count: 1, Group: "M"},
	)
	users := []prox.Annotation{"U1", "U2", "U3"}
	est := &prox.Estimator{
		Class: prox.NewCancelSingleAnnotation(users),
		Phi:   prox.CombineOr,
		VF:    prox.AbsDiff(),
	}
	audience := prox.MergeMapping("Audience", "U1", "U3")
	female := prox.MergeMapping("Female", "U1", "U2")
	fmt.Println(est.Distance(p, p.Apply(audience), audience, prox.GroupsOf(users, audience)))
	fmt.Printf("%.4f\n", est.Distance(p, p.Apply(female), female, prox.GroupsOf(users, female)))
	// Output:
	// 0
	// 0.6667
}

// ExampleHAC clusters three points with the clustering competitor's
// machinery.
func ExampleHAC() {
	pts := []float64{0, 1, 10}
	d, err := prox.HAC(3, func(i, j int) float64 {
		v := pts[i] - pts[j]
		if v < 0 {
			v = -v
		}
		return v
	}, prox.SingleLinkage, nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range d.Merges {
		fmt.Printf("merge %v + %v at %g\n", m.MembersA, m.MembersB, m.Dissimilarity)
	}
	// Output:
	// merge [0] + [1] at 1
	// merge [2] + [0 1] at 9
}
