package provenance

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// movieLensPlanFixture builds a MovieLens-shaped aggregation at the
// paper's scale — 24 users rating up to 6 of 8 movies, each rating the
// product user·title·year in its title's coordinate, MAX-aggregated —
// and plans it mid-run: two user pairs and one movie pair are already
// merged, the way Algorithm 1 leaves the plan after a few steps
// (ApplyMerge patches included).
func movieLensPlanFixture() (*Plan, *Agg) {
	r := rand.New(rand.NewSource(42))
	var tensors []Tensor
	for u := 1; u <= 24; u++ {
		user := Annotation(fmt.Sprintf("UID%03d", u))
		seen := map[int]bool{}
		for k := 0; k < 1+r.Intn(6); k++ {
			m := r.Intn(8) + 1
			if seen[m] {
				continue
			}
			seen[m] = true
			title := Annotation(fmt.Sprintf("Movie%02d", m))
			year := Annotation(fmt.Sprintf("Y%d", 1990+m%3))
			tensors = append(tensors, Tensor{Prov: P(user, title, year), Value: float64(1 + r.Intn(5)), Count: 1, Group: title})
		}
	}
	cur := NewAgg(AggMax, tensors...)
	plan := NewPlan(cur)
	for _, step := range []struct {
		members []Annotation
		newAnn  Annotation
	}{
		{[]Annotation{"UID001", "UID002"}, "gender:F"},
		{[]Annotation{"Movie03", "Movie04"}, "genre:Comedy"},
		{[]Annotation{"UID005", "UID006"}, "age:25-34"},
	} {
		next, patch := plan.ApplyMerge(step.members, step.newAnn)
		if next == nil {
			next = cur.Apply(MergeMapping(step.newAnn, step.members...)).(*Agg)
		}
		if patch == nil {
			plan = NewPlan(next)
		}
		cur = next
	}
	return plan, cur
}

// fixtureCohort lists the pair merges of two current annotations of the
// same kind (users with users, movies with movies, years with years) of
// the MovieLens plan fixture: one Algorithm 1 step's cohort.
func fixtureCohort(cur *Agg) [][]Annotation {
	kind := func(a Annotation) string {
		s := string(a)
		switch {
		case strings.HasPrefix(s, "UID"), strings.HasPrefix(s, "gender:"), strings.HasPrefix(s, "age:"):
			return "user"
		case strings.HasPrefix(s, "Movie"), strings.HasPrefix(s, "genre:"):
			return "movie"
		}
		return "year"
	}
	anns := cur.Annotations()
	var cohort [][]Annotation
	for i := range anns {
		for j := i + 1; j < len(anns); j++ {
			if kind(anns[i]) == kind(anns[j]) {
				cohort = append(cohort, []Annotation{anns[i], anns[j]})
			}
		}
	}
	return cohort
}

// BenchmarkPlanProbe times the candidate work of one Algorithm 1 step
// on the mid-run MovieLens plan: Probe plus compileEval for every
// pair merge of two current annotations of the same kind, with
// -benchmem's allocs/op counting the whole cohort.
func BenchmarkPlanProbe(b *testing.B) {
	plan, cur := movieLensPlanFixture()
	cohort := fixtureCohort(cur)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ms := range cohort {
			pr := plan.Probe(ms, "S")
			if pr == nil {
				b.Fatalf("Probe(%v) refused", ms)
			}
			pr.compileEval()
		}
	}
}

// BenchmarkPlanProbeCarried times the same step's candidate work one
// merge later, the way a run does it: the fixture's cohort is probed
// and compiled, a user merge is committed through ApplyMerge (untimed),
// and the next step's cohort is probed by carrying every probe the
// merge left valid (MergePatch.Carry) and building only the others,
// each then compiled. Compare with BenchmarkPlanProbe, which builds the
// whole cohort.
func BenchmarkPlanProbeCarried(b *testing.B) {
	members, newAnn := []Annotation{"UID007", "UID008"}, Annotation("age:35-44")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		plan, cur := movieLensPlanFixture()
		carried := make(map[[2]Annotation]*Probe)
		for _, ms := range fixtureCohort(cur) {
			pr := plan.Probe(ms, "S")
			pr.compileEval()
			carried[[2]Annotation{ms[0], ms[1]}] = pr
		}
		next, patch := plan.ApplyMerge(members, newAnn)
		if patch == nil {
			b.Fatal("ApplyMerge refused the fixture's user merge")
		}
		cohort := fixtureCohort(next)
		b.StartTimer()
		for _, ms := range cohort {
			pr := carried[[2]Annotation{ms[0], ms[1]}]
			if pr == nil || !patch.Carry(pr) {
				if pr = plan.Probe(ms, "S"); pr == nil {
					b.Fatalf("Probe(%v) refused", ms)
				}
			}
			pr.compileEval()
		}
	}
}
