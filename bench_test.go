package prox_test

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation chapter (Ch. 6). Each benchmark regenerates the figure's
// series on a reduced grid (the full grids run via cmd/prox-experiments)
// and reports the headline measurement as a custom metric, so
// `go test -bench=. -benchmem` both times the pipeline and reproduces the
// qualitative results. Micro-benchmarks for the core operations
// (evaluation, distance estimation, candidate step, HAC, equivalence
// classes) follow.

import (
	"context"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/experiments"
	"repro/internal/provenance"
)

func benchOpts(dataset string, class datasets.ClassKind) experiments.Options {
	return experiments.Options{
		Dataset: dataset,
		Class:   class,
		Runs:    1,
		Seed:    1,
		Scale:   0.5,
	}
}

var benchWGrid = []float64{0, 0.5, 1}

// --- Figures 6.1a / 6.2a: MovieLens wDist sweep (distance and size) ---

func BenchmarkFig61aWDistDistanceMovieLens(b *testing.B) {
	o := benchOpts("movielens", datasets.CancelSingleAttribute)
	for i := 0; i < b.N; i++ {
		res, err := experiments.WDist(o, 10, benchWGrid)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Distance.Rows[len(benchWGrid)-1].Values[0], "dist@wDist=1")
	}
}

func BenchmarkFig62aWDistSizeMovieLens(b *testing.B) {
	o := benchOpts("movielens", datasets.CancelSingleAttribute)
	for i := 0; i < b.N; i++ {
		res, err := experiments.WDist(o, 10, benchWGrid)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Size.Rows[0].Values[0], "size@wDist=0")
	}
}

// --- Figure 6.1b: MovieLens TARGET-SIZE sweep ---

func BenchmarkFig61bTargetSizeMovieLens(b *testing.B) {
	o := benchOpts("movielens", datasets.CancelSingleAttribute)
	w, err := o.Workload(0)
	if err != nil {
		b.Fatal(err)
	}
	targets := []int{w.Prov.Size() / 2, w.Prov.Size() * 3 / 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := experiments.TargetSize(o, targets)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Rows[0].Values[0], "dist@half-size")
	}
}

// --- Figure 6.2b: MovieLens TARGET-DIST sweep ---

func BenchmarkFig62bTargetDistMovieLens(b *testing.B) {
	o := benchOpts("movielens", datasets.CancelSingleAttribute)
	for i := 0; i < b.N; i++ {
		t, err := experiments.TargetDist(o, []float64{0.05, 0.2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Rows[1].Values[0], "size@dist=0.2")
	}
}

// --- Figures 6.3a/6.3b: varying number of algorithm steps ---

func BenchmarkFig63VaryingStepsMovieLens(b *testing.B) {
	o := benchOpts("movielens", datasets.CancelSingleAttribute)
	for i := 0; i < b.N; i++ {
		res, err := experiments.VaryingSteps(o, []int{5, 10}, benchWGrid)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Size.Rows[0].Values[1], "size@10steps")
	}
}

// --- Figures 6.4a/6.4b: usage time ratio ---

func BenchmarkFig64UsageTimeMovieLens(b *testing.B) {
	o := benchOpts("movielens", datasets.CancelSingleAttribute)
	for i := 0; i < b.N; i++ {
		t, err := experiments.UsageTime(o, 10, 5, benchWGrid)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Rows[0].Values[0], "ratio@wDist=0")
	}
}

// --- Figures 6.5a/6.5b: candidate computation and summarization time ---

func BenchmarkFig65TimingMovieLens(b *testing.B) {
	o := benchOpts("movielens", datasets.CancelSingleAttribute)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Timing(o, []float64{0.4, 0.8}, 10)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CandidateTime.Rows[1].Values[0], "µs/candidate")
	}
}

// --- Figures 6.6a/6.7a: Wikipedia wDist sweep ---

func BenchmarkFig66aWDistDistanceWikipedia(b *testing.B) {
	o := benchOpts("wikipedia", datasets.CancelSingleAnnotation)
	for i := 0; i < b.N; i++ {
		res, err := experiments.WDist(o, 10, benchWGrid)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Distance.Rows[len(benchWGrid)-1].Values[0], "dist@wDist=1")
	}
}

func BenchmarkFig67aWDistSizeWikipedia(b *testing.B) {
	o := benchOpts("wikipedia", datasets.CancelSingleAnnotation)
	for i := 0; i < b.N; i++ {
		res, err := experiments.WDist(o, 10, benchWGrid)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Size.Rows[0].Values[0], "size@wDist=0")
	}
}

// --- Figures 6.6b/6.7b: Wikipedia bound sweeps ---

func BenchmarkFig66bTargetSizeWikipedia(b *testing.B) {
	o := benchOpts("wikipedia", datasets.CancelSingleAnnotation)
	w, err := o.Workload(0)
	if err != nil {
		b.Fatal(err)
	}
	targets := []int{w.Prov.Size() / 2, w.Prov.Size() * 3 / 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TargetSize(o, targets); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig67bTargetDistWikipedia(b *testing.B) {
	o := benchOpts("wikipedia", datasets.CancelSingleAnnotation)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TargetDist(o, []float64{0.05, 0.2}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 6.8a/6.9a: DDP wDist sweep (10-step budget per paper) ---

func BenchmarkFig68aWDistDistanceDDP(b *testing.B) {
	o := benchOpts("ddp", datasets.CancelSingleAttribute)
	for i := 0; i < b.N; i++ {
		res, err := experiments.WDist(o, 10, benchWGrid)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Distance.Rows[len(benchWGrid)-1].Values[0], "dist@wDist=1")
	}
}

func BenchmarkFig69aWDistSizeDDP(b *testing.B) {
	o := benchOpts("ddp", datasets.CancelSingleAttribute)
	for i := 0; i < b.N; i++ {
		res, err := experiments.WDist(o, 10, benchWGrid)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Size.Rows[0].Values[0], "size@wDist=0")
	}
}

// --- Figures 6.8b/6.9b: DDP bound sweeps ---

func BenchmarkFig68bTargetSizeDDP(b *testing.B) {
	o := benchOpts("ddp", datasets.CancelSingleAttribute)
	w, err := o.Workload(0)
	if err != nil {
		b.Fatal(err)
	}
	targets := []int{w.Prov.Size() / 2, w.Prov.Size() * 3 / 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TargetSize(o, targets); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig69bTargetDistDDP(b *testing.B) {
	o := benchOpts("ddp", datasets.CancelSingleAttribute)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TargetDist(o, []float64{0.05, 0.2}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benchmarks (design-choice studies beyond the paper) ---

// BenchmarkAblationMergeArity compares pairwise merging with the Ch. 9
// k-ary generalization at the same TARGET-SIZE.
func BenchmarkAblationMergeArity(b *testing.B) {
	o := benchOpts("movielens", datasets.CancelSingleAttribute)
	for i := 0; i < b.N; i++ {
		res, err := experiments.MergeArity(o, []int{2, 4}, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Steps.Rows[1].Values[0], "steps@arity=4")
	}
}

// BenchmarkAblationSampling measures the Prop. 4.1.2 sampling estimator's
// error at a 200-sample budget.
func BenchmarkAblationSampling(b *testing.B) {
	o := benchOpts("movielens", datasets.CancelSingleAnnotation)
	o.Runs = 1
	for i := 0; i < b.N; i++ {
		res, err := experiments.SamplingAccuracy(o, []int{200})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Error.Rows[0].Values[0], "abs-error@200")
	}
}

// BenchmarkAblationParallelism measures parallel candidate evaluation.
func BenchmarkAblationParallelism(b *testing.B) {
	o := benchOpts("movielens", datasets.CancelSingleAnnotation)
	o.Runs = 1
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.ParallelSpeedup(o, []int{1, 4}, 5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tbl.Rows[0].Values[0]/tbl.Rows[1].Values[0], "speedup@4")
	}
}

// --- micro-benchmarks for the core operations ---

func benchWorkload(b *testing.B) *datasets.Workload {
	b.Helper()
	return datasets.MovieLens(datasets.DefaultMovieLensConfig(), rand.New(rand.NewSource(1)))
}

// BenchmarkEvalOriginal measures evaluating the full MovieLens provenance
// under one cancellation valuation.
func BenchmarkEvalOriginal(b *testing.B) {
	w := benchWorkload(b)
	v := provenance.CancelAnnotation(w.Prov.Annotations()[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Prov.Eval(v)
	}
}

// BenchmarkDistanceEstimation measures one candidate distance computation
// (the inner loop of Algorithm 1).
func BenchmarkDistanceEstimation(b *testing.B) {
	w := benchWorkload(b)
	est := w.Estimator(datasets.CancelSingleAnnotation)
	anns := w.Prov.Annotations()
	h := provenance.MergeMapping("Z", anns[0], anns[1])
	pc := w.Prov.Apply(h)
	groups := provenance.GroupsOf(anns, h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.Distance(w.Prov, pc, h, groups)
	}
}

// BenchmarkSummarizeStep measures one full greedy step (all candidate
// evaluations) on the MovieLens workload.
func BenchmarkSummarizeStep(b *testing.B) {
	w := benchWorkload(b)
	for i := 0; i < b.N; i++ {
		s, err := core.New(core.Config{
			Policy:    w.Policy,
			Estimator: w.Estimator(datasets.CancelSingleAnnotation),
			WDist:     1,
			MaxSteps:  1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Summarize(w.Prov); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSummarizeScoringDelta is a multi-step MovieLens run on the
// default scoring path: every cohort probed by the incremental
// Estimator.DistanceDelta engine on the shared arena, committed merges
// patched into the cached plan.
func BenchmarkSummarizeScoringDelta(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := core.New(core.Config{
			Policy:    w.Policy,
			Estimator: w.Estimator(datasets.CancelSingleAnnotation),
			WDist:     1,
			MaxSteps:  3,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Summarize(w.Prov); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyMapping measures homomorphism application + simplify.
func BenchmarkApplyMapping(b *testing.B) {
	w := benchWorkload(b)
	anns := w.Prov.Annotations()
	h := provenance.MergeMapping("Z", anns[0], anns[1])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Prov.Apply(h)
	}
}

// BenchmarkHAC measures constraint-free single-linkage clustering of 64
// items.
func BenchmarkHAC(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	pts := make([]float64, 64)
	for i := range pts {
		pts[i] = r.Float64() * 100
	}
	d := func(i, j int) float64 {
		v := pts[i] - pts[j]
		if v < 0 {
			v = -v
		}
		return v
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prox.HAC(len(pts), d, prox.SingleLinkage, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEquivalenceClasses measures the Prop. 4.2.1 pre-step's
// classes: one hash pass over the annotations' truth columns.
func BenchmarkEquivalenceClasses(b *testing.B) {
	w := benchWorkload(b)
	anns := w.Prov.Annotations()
	class := w.Class(datasets.CancelSingleAttribute)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.EquivalenceClasses(anns, class)
	}
}

// --- Streaming warm-start: Extend vs from-scratch re-summarize ---
// The streaming scenario behind core.Summarizer.Extend: a summarized
// MovieLens workload grows by ~7% (3 of 42 tensors arrive after the
// first summary) and needs re-summarizing to the same TARGET-SIZE.
// Cold rebuilds the whole merge chain from singletons; Warm seeds the
// greedy search with the base summary's partition and only searches
// for the merges the appended tensors still need.

// extendWorkload splits the MovieLens workload into a base expression
// (all but the last 1/12 of its tensors) and the full one.
func extendWorkload(tb testing.TB) (*datasets.Workload, *provenance.Agg, *provenance.Agg) {
	tb.Helper()
	w := datasets.MovieLens(datasets.DefaultMovieLensConfig(), rand.New(rand.NewSource(1)))
	full := w.Prov.(*provenance.Agg)
	held := len(full.Tensors) / 12
	if held < 1 {
		held = 1
	}
	base := provenance.NewAgg(full.Agg.Kind, full.Tensors[:len(full.Tensors)-held]...)
	return w, base, full
}

// extendConfig stops on TARGET-SIZE = half the full expression, so the
// step count measures how much merge work each path actually does.
func extendConfig(w *datasets.Workload, full *provenance.Agg) core.Config {
	return core.Config{
		Policy:     w.Policy,
		Estimator:  w.Estimator(datasets.CancelSingleAnnotation),
		WDist:      1,
		TargetSize: full.Size() / 2,
	}
}

func BenchmarkSummarizeExtendCold(b *testing.B) {
	w, _, full := extendWorkload(b)
	steps := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := core.New(extendConfig(w, full))
		if err != nil {
			b.Fatal(err)
		}
		sum, err := s.Summarize(full)
		if err != nil {
			b.Fatal(err)
		}
		steps = len(sum.Steps)
	}
	b.ReportMetric(float64(steps), "merge-steps")
}

func BenchmarkSummarizeExtendWarm(b *testing.B) {
	w, base, full := extendWorkload(b)
	s0, err := core.New(extendConfig(w, full))
	if err != nil {
		b.Fatal(err)
	}
	prior, err := s0.Summarize(base)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	steps := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := core.New(extendConfig(w, full))
		if err != nil {
			b.Fatal(err)
		}
		sum, err := s.Extend(ctx, full, prior.Groups)
		if err != nil {
			b.Fatal(err)
		}
		steps = len(sum.Steps) - sum.ExtendedFrom
	}
	b.ReportMetric(float64(steps), "merge-steps")
}

// TestSummarizeExtendWarmStart pins the streaming acceptance bound the
// benchmark pair measures: on the ~7%-extended workload, warm-starting
// from the base partition must need at most half the merge steps of the
// from-scratch run, and both must reach the TARGET-SIZE bound.
func TestSummarizeExtendWarmStart(t *testing.T) {
	w, base, full := extendWorkload(t)
	s0, err := core.New(extendConfig(w, full))
	if err != nil {
		t.Fatal(err)
	}
	prior, err := s0.Summarize(base)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := core.New(extendConfig(w, full))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := s1.Summarize(full)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := core.New(extendConfig(w, full))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s2.Extend(context.Background(), full, prior.Groups)
	if err != nil {
		t.Fatal(err)
	}
	own := len(warm.Steps) - warm.ExtendedFrom
	if own <= 0 || warm.ExtendedFrom <= 0 {
		t.Fatalf("warm run did no seeded work: %d steps, %d seeded", len(warm.Steps), warm.ExtendedFrom)
	}
	if 2*own > len(cold.Steps) {
		t.Fatalf("warm start took %d own steps vs %d cold steps, want at least 2x fewer", own, len(cold.Steps))
	}
	target := full.Size() / 2
	if cold.Expr.Size() > target || warm.Expr.Size() > target {
		t.Fatalf("summaries missed TARGET-SIZE %d: cold %d, warm %d", target, cold.Expr.Size(), warm.Expr.Size())
	}
}

// BenchmarkDDPEval measures DDP expression evaluation.
func BenchmarkDDPEval(b *testing.B) {
	w := datasets.DDP(datasets.DefaultDDPConfig(), rand.New(rand.NewSource(3)))
	v := provenance.CancelAnnotation(w.Prov.Annotations()[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Prov.Eval(v)
	}
}
