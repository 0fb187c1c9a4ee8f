// MovieLens scenario: generate the synthetic MovieLens workload (Ch. 5),
// summarize it with Algorithm 1 under the two valuation classes, compare
// against the Clustering and Random competitors (Ch. 6), and use the
// summary for provisioning.
//
// Run with: go run ./examples/movielens
package main

import (
	"fmt"
	"log"
	"math/rand"
	"slices"

	"repro"
)

func main() {
	w := prox.NewMovieLensWorkload(prox.DefaultMovieLensConfig(), rand.New(rand.NewSource(42)))
	fmt.Printf("MovieLens workload: %d annotation occurrences, %d annotations\n",
		w.Prov.Size(), len(w.Prov.Annotations()))

	// --- Prov-Approx under both valuation classes ---
	for _, kind := range []prox.ClassKind{
		prox.ClassCancelSingleAnnotation,
		prox.ClassCancelSingleAttribute,
	} {
		s, err := prox.NewSummarizer(prox.SummarizerConfig{
			Policy:    w.Policy,
			Estimator: w.Estimator(kind),
			WDist:     0.7, WSize: 0.3,
			MaxSteps: 10,
		})
		if err != nil {
			log.Fatal(err)
		}
		sum, err := s.Summarize(w.Prov)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n[%s] %d steps: size %d -> %d, distance %.4f\n",
			kind, len(sum.Steps), w.Prov.Size(), sum.Expr.Size(), sum.Dist)
		shown := 0
		names := make([]prox.Annotation, 0, len(sum.Groups))
		for name := range sum.Groups {
			names = append(names, name)
		}
		slices.Sort(names) // map order differs from run to run
		for _, name := range names {
			if members := sum.Groups[name]; len(members) >= 2 && shown < 4 {
				fmt.Printf("  group %-14s = %v\n", name, members)
				shown++
			}
		}
	}

	// --- compare against the Ch. 6 competitors ---
	kind := prox.ClassCancelSingleAttribute
	params := prox.BaselineConfig{
		Policy:    w.Policy,
		Estimator: w.Estimator(kind),
		MaxSteps:  10,
	}
	cl, err := prox.NewClusteringBaseline(params)
	if err != nil {
		log.Fatal(err)
	}
	clSum, err := cl.Summarize(w.Prov, w.ClusterSteps)
	if err != nil {
		log.Fatal(err)
	}
	rd, err := prox.NewRandomBaseline(params, rand.New(rand.NewSource(7)))
	if err != nil {
		log.Fatal(err)
	}
	rdSum, err := rd.Summarize(w.Prov)
	if err != nil {
		log.Fatal(err)
	}
	px, err := prox.NewSummarizer(prox.SummarizerConfig{
		Policy:    w.Policy,
		Estimator: w.Estimator(kind),
		WDist:     1,
		MaxSteps:  10,
	})
	if err != nil {
		log.Fatal(err)
	}
	pxSum, err := px.Summarize(w.Prov)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncompetitor comparison (10 steps, wDist=1):")
	fmt.Printf("  %-12s dist %.4f  size %d\n", "Prov-Approx", pxSum.Dist, pxSum.Expr.Size())
	fmt.Printf("  %-12s dist %.4f  size %d\n", "Clustering", clSum.Dist, clSum.Expr.Size())
	fmt.Printf("  %-12s dist %.4f  size %d\n", "Random", rdSum.Dist, rdSum.Expr.Size())

	// --- provisioning on the summary ---
	males := w.Universe.InTable("users")
	var cancelled []prox.Annotation
	for _, a := range males {
		if w.Universe.Attr(a, "gender") == "M" {
			cancelled = append(cancelled, a)
		}
	}
	v := prox.CancelSet("cancel all male users", cancelled...)
	orig := w.Prov.Eval(v)
	ext := prox.ExtendValuation(v, pxSum.Groups, prox.CombineOr)
	approx := pxSum.Expr.Eval(ext)
	fmt.Println("\nprovisioning 'ignore all male users':")
	fmt.Println("  original:", orig.ResultString())
	fmt.Println("  summary :", approx.ResultString())
}
