package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/provenance"
)

// Ablation experiments for the design choices DESIGN.md calls out. These
// go beyond the paper's figures: MergeArity probes the thesis's Ch. 9
// future-work generalization, SamplingAccuracy quantifies the
// Prop. 4.1.2 estimator against exact enumeration, and ParallelSpeedup
// measures the (deterministic-result) parallel candidate evaluation.

// MergeArityResult holds the arity ablation's tables.
type MergeArityResult struct {
	Distance Table // avg distance per arity
	Size     Table // avg size per arity
	Steps    Table // avg steps executed per arity
}

// MergeArity sweeps the k-ary merge generalization: for each arity k, run
// the summarizer to a fixed TARGET-SIZE and record the distance achieved,
// the size reached and the number of steps used. The thesis's Ch. 9
// hypothesis is that larger k needs fewer steps for the same size at some
// cost in distance.
func MergeArity(o Options, arities []int, targetSizeFrac float64) (*MergeArityResult, error) {
	o = o.normalized()
	res := &MergeArityResult{
		Distance: Table{Title: fmt.Sprintf("Ablation: Distance per Merge Arity (%s)", o.Dataset), XLabel: "arity", Series: []string{"distance"}},
		Size:     Table{Title: fmt.Sprintf("Ablation: Size per Merge Arity (%s)", o.Dataset), XLabel: "arity", Series: []string{"size"}},
		Steps:    Table{Title: fmt.Sprintf("Ablation: Steps per Merge Arity (%s)", o.Dataset), XLabel: "arity", Series: []string{"steps"}},
	}
	for _, k := range arities {
		var dists, sizes, steps []float64
		for run := 0; run < o.Runs; run++ {
			w, err := o.Workload(run)
			if err != nil {
				return nil, err
			}
			target := int(float64(w.Prov.Size()) * targetSizeFrac)
			if target < 1 {
				target = 1
			}
			s, err := core.New(core.Config{
				Policy:     w.Policy,
				Estimator:  w.Estimator(o.Class),
				WDist:      0.5,
				WSize:      0.5,
				TargetSize: target,
				MergeArity: k,
			})
			if err != nil {
				return nil, err
			}
			sum, err := s.Summarize(w.Prov)
			if err != nil {
				return nil, err
			}
			dists = append(dists, sum.Dist)
			sizes = append(sizes, float64(sum.Expr.Size()))
			steps = append(steps, float64(len(sum.Steps)))
		}
		res.Distance.AddRow(float64(k), mean(dists))
		res.Size.AddRow(float64(k), mean(sizes))
		res.Steps.AddRow(float64(k), mean(steps))
	}
	return res, nil
}

// SamplingResult holds the estimator-mode ablation's tables.
type SamplingResult struct {
	Error Table // |sampled − exact| distance per sample budget
	Time  Table // µs per distance computation per sample budget
}

// SamplingAccuracy compares the Monte-Carlo distance estimator of
// Prop. 4.1.2 against exact enumeration on real candidate merges: for
// each sample budget, it measures the absolute estimation error and the
// per-distance computation time. Budget 0 denotes exact enumeration.
func SamplingAccuracy(o Options, budgets []int) (*SamplingResult, error) {
	o = o.normalized()
	res := &SamplingResult{
		Error: Table{Title: fmt.Sprintf("Ablation: Sampling Estimator Error (%s)", o.Dataset), XLabel: "samples", Series: []string{"|sampled-exact|"}},
		Time:  Table{Title: fmt.Sprintf("Ablation: Distance Computation Time (%s)", o.Dataset), XLabel: "samples", Series: []string{"µs"}},
	}
	for _, budget := range budgets {
		var errs, times []float64
		for run := 0; run < o.Runs; run++ {
			w, err := o.Workload(run)
			if err != nil {
				return nil, err
			}
			anns := w.Prov.Annotations()
			// probe a handful of real candidate merges
			pairs := 0
			for i := 0; i < len(anns) && pairs < 5; i++ {
				for j := i + 1; j < len(anns) && pairs < 5; j++ {
					if !w.Policy.CanMerge(anns[i], anns[j]) {
						continue
					}
					pairs++
					h := provenance.MergeMapping("\x00probe", anns[i], anns[j])
					pc := w.Prov.Apply(h)
					groups := provenance.GroupsOf(anns, h)

					exactEst := w.Estimator(o.Class)
					exact := exactEst.Distance(w.Prov, pc, h, groups)

					est := w.Estimator(o.Class)
					est.Samples = budget
					est.Rand = rand.New(rand.NewSource(o.Seed + int64(run*100+pairs)))
					t0 := time.Now()
					d := est.Distance(w.Prov, pc, h, groups)
					times = append(times, float64(time.Since(t0).Microseconds()))
					if budget == 0 {
						d = exact
					}
					diff := d - exact
					if diff < 0 {
						diff = -diff
					}
					errs = append(errs, diff)
				}
			}
		}
		res.Error.AddRow(float64(budget), mean(errs))
		res.Time.AddRow(float64(budget), mean(times))
	}
	return res, nil
}

// ParallelSpeedup measures summarization wall time per worker count; the
// merge traces are identical across worker counts by construction.
func ParallelSpeedup(o Options, workers []int, maxSteps int) (*Table, error) {
	o = o.normalized()
	t := &Table{
		Title:  fmt.Sprintf("Ablation: Summarization Time per Worker Count (%s)", o.Dataset),
		XLabel: "workers", Series: []string{"ms"},
	}
	for _, wk := range workers {
		var times []float64
		for run := 0; run < o.Runs; run++ {
			w, err := o.Workload(run)
			if err != nil {
				return nil, err
			}
			est := w.Estimator(o.Class)
			est.Parallelism = wk
			s, err := core.New(core.Config{
				Policy:    w.Policy,
				Estimator: est,
				WDist:     1,
				MaxSteps:  maxSteps,
			})
			if err != nil {
				return nil, err
			}
			sum, err := s.Summarize(w.Prov)
			if err != nil {
				return nil, err
			}
			times = append(times, float64(sum.Elapsed.Microseconds())/1000)
		}
		t.AddRow(float64(wk), mean(times))
	}
	return t, nil
}
