package distance

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/provenance"
	"repro/internal/valuation"
)

// pairFixture builds a SUM aggregation over n users in two groups and
// one materialized reference candidate per user pair, the way one
// summarization step scores its cohort.
func pairFixture(n int) (*provenance.Agg, []provenance.Annotation, []refCandidate) {
	anns := make([]provenance.Annotation, n)
	tensors := make([]provenance.Tensor, n)
	for i := range anns {
		anns[i] = provenance.Annotation('A'+rune(i%26)) + provenance.Annotation('0'+rune(i/26))
		group := provenance.Annotation("G1")
		if i%2 == 1 {
			group = "G2"
		}
		tensors[i] = provenance.Tensor{
			Prov: provenance.V(anns[i]), Value: float64(i%7 + 1), Count: 1, Group: group,
		}
	}
	p0 := provenance.NewAgg(provenance.AggSum, tensors...)
	base := provenance.GroupsOf(anns, provenance.NewMapping())
	var cands []refCandidate
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			h := provenance.MergeMapping("Z", anns[i], anns[j])
			g := make(provenance.Groups, len(base))
			for name, ms := range base {
				g[name] = ms
			}
			delete(g, anns[i])
			delete(g, anns[j])
			g["Z"] = []provenance.Annotation{anns[i], anns[j]}
			cands = append(cands, refCandidate{Expr: p0.Apply(h), Cumulative: h, Groups: g})
		}
	}
	return p0, anns, cands
}

// TestValidate covers the Samples>0/Rand==nil misconfiguration that used
// to nil-pointer-panic inside Class.Sample on the first Distance call.
func TestValidate(t *testing.T) {
	anns := []provenance.Annotation{"U1", "U2"}
	ok := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid estimator rejected: %v", err)
	}
	ok.Samples = 3
	ok.Rand = rand.New(rand.NewSource(1))
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid sampling estimator rejected: %v", err)
	}

	bad := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
	bad.Samples = 3
	err := bad.Validate()
	if err == nil {
		t.Fatal("Samples > 0 without Rand must fail validation")
	}
	if !strings.Contains(err.Error(), "Rand") {
		t.Fatalf("error %q does not name the missing field", err)
	}
	if err := (&Estimator{VF: Euclidean()}).Validate(); err == nil {
		t.Fatal("missing Class must fail validation")
	}
	if err := (&Estimator{Class: valuation.NewCancelSingleAnnotation(anns)}).Validate(); err == nil {
		t.Fatal("missing VF must fail validation")
	}
}

// The step-scoring benchmarks: one enumeration-mode step with >= 20
// candidates, scored candidate-major (one Distance call each on the
// materialized candidate) and through DistanceDelta. The step is a
// mid-run one — 24 original users already summarized into 8 groups of
// 3, with the 28 group pairs as candidates — because that is where
// candidate-major scoring repeats the most work: every probe
// re-combines every shared group's φ truth per valuation, which the
// sweep computes once per valuation for the whole cohort. Run with
// `go test -bench=SummarizeStepScoring ./internal/distance`.

// stepScenario is the shared mid-run step the scoring benchmarks
// compare on: the original, the current summary, the step's cumulative
// mapping and inverse view, and the candidate cohort both as member sets
// (delta scoring) and as materialized reference candidates.
type stepScenario struct {
	p0    *provenance.Agg
	anns  []provenance.Annotation
	cur   *provenance.Agg
	cum   provenance.Mapping
	base  provenance.Groups
	sets  [][]provenance.Annotation
	cands []refCandidate
}

func benchStep(tb testing.TB) stepScenario {
	tb.Helper()
	const users, groupSize = 24, 3
	anns := make([]provenance.Annotation, users)
	tensors := make([]provenance.Tensor, users)
	table := make(map[provenance.Annotation]provenance.Annotation, users)
	for i := range anns {
		anns[i] = provenance.Annotation(rune('a'+i%26)) + provenance.Annotation(rune('0'+i/26))
		group := provenance.Annotation("G1")
		if i%2 == 1 {
			group = "G2"
		}
		tensors[i] = provenance.Tensor{
			Prov: provenance.V(anns[i]), Value: float64(i%7 + 1), Count: 1, Group: group,
		}
		table[anns[i]] = provenance.Annotation("S") + provenance.Annotation(rune('0'+i/groupSize))
	}
	cum := provenance.MappingOf(table)
	p0 := provenance.NewAgg(provenance.AggSum, tensors...)
	cur := p0.Apply(cum).(*provenance.Agg)
	base := provenance.GroupsOf(anns, cum)
	summaries := cur.Annotations()
	var sets [][]provenance.Annotation
	var cands []refCandidate
	for i := 0; i < len(summaries); i++ {
		for j := i + 1; j < len(summaries); j++ {
			if summaries[i] == "G1" || summaries[i] == "G2" || summaries[j] == "G1" || summaries[j] == "G2" {
				continue
			}
			step := provenance.MergeMapping("Z", summaries[i], summaries[j])
			g := make(provenance.Groups, len(base))
			for name, ms := range base {
				g[name] = ms
			}
			merged := append(append([]provenance.Annotation(nil), base.Members(summaries[i])...), base.Members(summaries[j])...)
			delete(g, summaries[i])
			delete(g, summaries[j])
			g["Z"] = merged
			sets = append(sets, []provenance.Annotation{summaries[i], summaries[j]})
			cands = append(cands, refCandidate{Expr: cur.Apply(step), Cumulative: cum.Compose(step), Groups: g})
		}
	}
	if len(cands) < 20 {
		tb.Fatalf("only %d candidates, want >= 20", len(cands))
	}
	return stepScenario{p0: p0, anns: anns, cur: cur, cum: cum, base: base, sets: sets, cands: cands}
}

func BenchmarkSummarizeStepScoringPerCandidate(b *testing.B) {
	sc := benchStep(b)
	e := estimator(valuation.NewCancelSingleAnnotation(sc.anns), Euclidean())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sc.cands {
			e.Distance(sc.p0, c.Expr, c.Cumulative, c.Groups)
		}
	}
}
