// Workflow scenario (Fig. 2.1 / Example 2.2.1): run the movie-rating
// workflow — reviewing modules crawling per-platform feeds, updating
// statistics, sanitizing reviews behind activity guards, and an
// aggregator — over the K-relation engine, capture the provenance of the
// aggregated ratings, provision it, and summarize it.
//
// Run with: go run ./examples/workflow
package main

import (
	"fmt"
	"log"
	"slices"

	"repro"
	"repro/internal/workflow"
)

func main() {
	// Global persistent state: users, and two review platforms.
	db := prox.NewWorkflowDB()

	users := prox.NewRelation(workflow.RelUsers, "user", "gender", "role")
	users.MustInsert("U_ana", "ana", "F", "audience")
	users.MustInsert("U_bob", "bob", "M", "audience")
	users.MustInsert("U_eve", "eve", "F", "critic")
	users.MustInsert("U_joe", "joe", "M", "critic")
	db.Put(users)

	imdb := prox.NewRelation(workflow.ReviewsRel("imdb"), "user", "movie", "rating")
	imdb.MustInsert("R1", "ana", "MatchPoint", "3")
	imdb.MustInsert("R2", "ana", "BlueJasmine", "4")
	imdb.MustInsert("R3", "ana", "Manhattan", "5")
	imdb.MustInsert("R4", "bob", "MatchPoint", "2") // bob has only 1 review: inactive
	db.Put(imdb)

	press := prox.NewRelation(workflow.ReviewsRel("press"), "user", "movie", "rating")
	press.MustInsert("R5", "eve", "MatchPoint", "5")
	press.MustInsert("R6", "eve", "BlueJasmine", "2")
	press.MustInsert("R7", "eve", "Manhattan", "4")
	press.MustInsert("R8", "joe", "MatchPoint", "4")
	press.MustInsert("R9", "joe", "Manhattan", "4")
	press.MustInsert("R10", "joe", "BlueJasmine", "3")
	db.Put(press)

	// The Fig. 2.1 specification: audience reviews come from IMDb,
	// critic reviews from the press, both feeding the aggregator.
	spec, err := prox.NewMovieWorkflow(prox.AggMax, map[string]string{
		"imdb":  "audience",
		"press": "critic",
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := spec.Run(db); err != nil {
		log.Fatal(err)
	}

	fmt.Println("aggregated provenance (Example 2.2.1 shape, with activity guards):")
	fmt.Println(db.Output)
	fmt.Println("\nratings:", db.Output.Eval(prox.AllTrue).ResultString())

	// Provisioning without re-running the workflow.
	fmt.Println("\nprovisioning:")
	fmt.Println("  eve is a spammer    :",
		db.Output.Eval(prox.CancelAnnotation("U_eve")).ResultString())
	fmt.Println("  drop ana's stats    :",
		db.Output.Eval(prox.CancelAnnotation(workflow.StatsAnn("ana"))).ResultString())

	// Summarize the captured provenance.
	u := prox.NewUniverse()
	for _, row := range []struct {
		ann    prox.Annotation
		gender string
		role   string
	}{
		{"U_ana", "F", "audience"},
		{"U_bob", "M", "audience"},
		{"U_eve", "F", "critic"},
		{"U_joe", "M", "critic"},
	} {
		u.Add(row.ann, "users", prox.Attrs{"gender": row.gender, "role": row.role})
	}
	for _, s := range []string{"ana", "bob", "eve", "joe"} {
		u.Add(workflow.StatsAnn(s), "stats", prox.Attrs{"user": s})
	}
	for _, m := range []prox.Annotation{"MatchPoint", "BlueJasmine", "Manhattan"} {
		u.Add(m, "movies", prox.Attrs{"director": "Allen"})
	}

	userAnns := u.InTable("users")
	sum, err := prox.Summarize(db.Output, prox.Options{
		Universe: u,
		Rules: []prox.Rule{
			prox.SameTable(),
			prox.TableScoped("users", prox.SharedAttr("gender", "role")),
			prox.TableScoped("stats", prox.NeverRule()),
			prox.TableScoped("movies", prox.NeverRule()),
		},
		Class:    prox.NewCancelSingleAnnotation(userAnns),
		WDist:    1,
		MaxSteps: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsummary: size %d -> %d, distance %.4f\n",
		db.Output.Size(), sum.Expr.Size(), sum.Dist)
	names := make([]prox.Annotation, 0, len(sum.Groups))
	for name := range sum.Groups {
		names = append(names, name)
	}
	slices.Sort(names) // map order differs from run to run
	for _, name := range names {
		if members := sum.Groups[name]; len(members) >= 2 {
			fmt.Printf("  group %s = %v\n", name, members)
		}
	}
	fmt.Println(sum.Expr)
}
