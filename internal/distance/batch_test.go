package distance

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/provenance"
	"repro/internal/valuation"
)

// batchFixture builds a SUM aggregation over n users in two groups and
// one BatchCandidate per mergeable user pair, the way one summarization
// step scores its cohort: every candidate's Groups are patched from the
// same base inverse view, so unchanged groups share member-slice
// identity.
func batchFixture(n int) (*provenance.Agg, []provenance.Annotation, []BatchCandidate) {
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
	var cands []BatchCandidate
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
			cands = append(cands, BatchCandidate{Expr: p0.Apply(h), Cumulative: h, Groups: g})
		}
	}
	return p0, anns, cands
}

// TestDistanceBatchMatchesDistance pins the fallback's contract: in
// enumeration mode the valuation-major sweep and a per-candidate
// Distance call are both bit-identical to refDistance (same summands,
// same addition order).
func TestDistanceBatchMatchesDistance(t *testing.T) {
	p0, anns, cands := batchFixture(8)
	for _, maxErr := range []float64{0, 25} {
		e := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
		e.MaxError = maxErr
		got := e.DistanceBatch(p0, cands)
		one := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
		one.MaxError = maxErr
		vals := e.Class.Valuations()
		for i, c := range cands {
			want := refDistance(e, vals, p0, c.Expr, c.Cumulative, c.Groups)
			if got[i] != want {
				t.Fatalf("maxErr=%g candidate %d: batch %v != reference %v", maxErr, i, got[i], want)
			}
			if d := one.Distance(p0, c.Expr, c.Cumulative, c.Groups); d != want {
				t.Fatalf("maxErr=%g candidate %d: distance %v != reference %v", maxErr, i, d, want)
			}
		}
	}
}

// TestDistanceBatchParallelBitIdentical: per-candidate sums accumulate in
// valuation order regardless of the worker partition, so any Parallelism
// returns byte-identical distances.
func TestDistanceBatchParallelBitIdentical(t *testing.T) {
	p0, anns, cands := batchFixture(8)
	seq := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
	want := seq.DistanceBatch(p0, cands)
	for _, workers := range []int{2, 4, 16} {
		par := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
		par.Parallelism = workers
		got := par.DistanceBatch(p0, cands)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parallelism %d candidate %d: %v != %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestDistanceBatchSharedSamples pins the common-random-numbers
// semantics of sampling mode: one sample set per call, shared by every
// candidate — so identical candidates score identically within a call,
// and the same seed reproduces the same distances at any Parallelism.
func TestDistanceBatchSharedSamples(t *testing.T) {
	p0, anns, cands := batchFixture(8)
	// Duplicate one candidate: under shared samples its two copies must
	// score identically (per-candidate fresh draws would almost surely
	// differ).
	cands = append(cands, cands[0])
	run := func(workers int) []float64 {
		e := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
		e.Samples = 5
		e.Rand = rand.New(rand.NewSource(7))
		e.Parallelism = workers
		return e.DistanceBatch(p0, cands)
	}
	d1 := run(1)
	if d1[0] != d1[len(d1)-1] {
		t.Fatalf("duplicated candidate scored %v vs %v under shared samples", d1[0], d1[len(d1)-1])
	}
	for _, workers := range []int{1, 4} {
		d2 := run(workers)
		for i := range d1 {
			if d1[i] != d2[i] {
				t.Fatalf("workers=%d candidate %d: %v != %v with same seed", workers, i, d1[i], d2[i])
			}
		}
	}
}

func TestDistanceBatchStats(t *testing.T) {
	p0, anns, cands := batchFixture(6)
	e := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
	if out := e.DistanceBatch(p0, nil); len(out) != 0 {
		t.Fatalf("empty batch returned %v", out)
	}
	e.DistanceBatch(p0, cands)
	st := e.Stats()
	if st.BatchCalls != 2 {
		t.Fatalf("BatchCalls = %d, want 2", st.BatchCalls)
	}
	if st.BatchCandidates != uint64(len(cands)) {
		t.Fatalf("BatchCandidates = %d, want %d", st.BatchCandidates, len(cands))
	}
	if want := uint64(len(cands) * len(anns)); st.Evaluations != want {
		t.Fatalf("Evaluations = %d, want %d", st.Evaluations, want)
	}
	if st.DistanceCalls != 0 {
		t.Fatalf("DistanceCalls = %d, want 0 (batch only)", st.DistanceCalls)
	}
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
// candidates, scored candidate-major (one Distance call each), through
// the valuation-major DistanceBatch sweep, and through DistanceDelta.
// The step is a mid-run one — 24 original users already summarized into
// 8 groups of 3, with the 28 group pairs as candidates — because that
// is where candidate-major scoring repeats the most work: every probe
// re-combines every shared group's φ truth per valuation, which the
// sweep computes once per valuation for the whole cohort. Run with
// `go test -bench=SummarizeStepScoring ./internal/distance`.

// stepScenario is the shared mid-run step the scoring benchmarks
// compare on: the original, the current summary, the step's cumulative
// mapping and inverse view, and the candidate cohort both as member sets
// (delta scoring) and as materialized BatchCandidates.
type stepScenario struct {
	p0    *provenance.Agg
	anns  []provenance.Annotation
	cur   *provenance.Agg
	cum   provenance.Mapping
	base  provenance.Groups
	sets  [][]provenance.Annotation
	cands []BatchCandidate
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
	var cands []BatchCandidate
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
			cands = append(cands, BatchCandidate{Expr: cur.Apply(step), Cumulative: cum.Compose(step), Groups: g})
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

func BenchmarkSummarizeStepScoringBatch(b *testing.B) {
	sc := benchStep(b)
	e := estimator(valuation.NewCancelSingleAnnotation(sc.anns), Euclidean())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.DistanceBatch(sc.p0, sc.cands)
	}
}
