// Wikipedia scenario (Example 5.2.1): summarize user edits of pages that
// hang under a WordNet-style taxonomy. Page merges require a common
// non-root ancestor and are named after their LCA concept; valuations are
// restricted to taxonomy-consistent ones.
//
// Run with: go run ./examples/wikipedia
package main

import (
	"fmt"
	"log"
	"math/rand"
	"slices"

	"repro"
)

func main() {
	w := prox.NewWikipediaWorkload(prox.DefaultWikipediaConfig(), rand.New(rand.NewSource(9)))
	fmt.Printf("Wikipedia workload: %d annotation occurrences, %d annotations, taxonomy of %d concepts\n",
		w.Prov.Size(), len(w.Prov.Annotations()), len(w.Tax.Concepts()))

	s, err := prox.NewSummarizer(prox.SummarizerConfig{
		Policy:    w.Policy,
		Estimator: w.Estimator(prox.ClassCancelSingleAnnotation),
		WDist:     0.5, WSize: 0.5,
		MaxSteps: 12,
	})
	if err != nil {
		log.Fatal(err)
	}
	sum, err := s.Summarize(w.Prov)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nsummary: size %d -> %d, distance %.4f, stop: %s\n",
		w.Prov.Size(), sum.Expr.Size(), sum.Dist, sum.StopReason)

	fmt.Println("\nmerge trace:")
	for i, st := range sum.Steps {
		fmt.Printf("%3d. %s + %s -> %s\n", i+1, st.A, st.B, st.New)
	}

	names := make([]prox.Annotation, 0, len(sum.Groups))
	for name := range sum.Groups {
		names = append(names, name)
	}
	slices.Sort(names) // map order differs from run to run

	// Page groups are named by taxonomy concepts: inspect them.
	fmt.Println("\npage groups (named by LCA concept):")
	for _, name := range names {
		if members := sum.Groups[name]; len(members) >= 2 && w.Universe.Table(name) == "wikipages" {
			fmt.Printf("  <%s> = %v (depth %d)\n", name, members, w.Tax.Depth(name))
		}
	}
	fmt.Println("\nuser groups (named by shared attribute):")
	for _, name := range names {
		if members := sum.Groups[name]; len(members) >= 2 && w.Universe.Table(name) == "wikiusers" {
			fmt.Printf("  %s = %v\n", name, members)
		}
	}

	// Taxonomy-consistent provisioning: cancelling a concept cancels its
	// whole subtree of pages (the consistency repair of Example 5.2.1).
	concepts := w.Tax.Children(w.Tax.Root())
	if len(concepts) > 0 {
		raw := prox.CancelAnnotation(concepts[0])
		consistent := prox.TaxonomyConsistent(
			prox.NewExplicitClass("drop concept", raw), w.Tax,
		).Valuations()[0]
		ext := prox.ExtendValuation(consistent, sum.Groups, prox.CombineOr)
		fmt.Printf("\nprovisioning 'drop concept %s and its subtree': %s\n",
			concepts[0], sum.Expr.Eval(ext).ResultString())
	}
}
