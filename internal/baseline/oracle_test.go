// External test package: the oracle cases run seeded workloads from
// internal/datasets, which imports this package.
package baseline_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/provenance"
)

// applyRun is the baselines' merge loop with every merge committed by a
// whole-expression Apply, which the next CheckPlan compiles afresh: the
// oracle that committing on the run's plan (distance.Run.CommitMerge)
// is held to.
func applyRun(cfg baseline.Config, p0 provenance.Expression, next baseline.PairSource) (*core.Summary, error) {
	if cfg.TargetSize <= 0 {
		cfg.TargetSize = 1
	}
	if cfg.TargetDist <= 0 {
		cfg.TargetDist = 1
	}
	r := cfg.Estimator.Begin(p0)
	res := &core.Summary{Original: p0}
	cur := p0
	cum := provenance.NewMapping()
	origAnns := p0.Annotations()
	origSize := p0.Size()
	distOf := func(e provenance.Expression, m provenance.Mapping) (float64, error) {
		if err := r.CheckPlan(e, ""); err != nil {
			return 0, err
		}
		return r.Distance(e, m, provenance.GroupsOf(origAnns, m)), nil
	}
	curDist := 0.0
	if origSize > 0 {
		var err error
		if curDist, err = distOf(cur, cum); err != nil {
			return nil, err
		}
	}
	prev, prevCum, prevDist := cur, cum, curDist
	steps := 0
	res.StopReason = "no-candidates"
	for origSize > 0 {
		if cur.Size() <= cfg.TargetSize {
			res.StopReason = "target-size"
			break
		}
		if cfg.TargetDist < 1 && curDist >= cfg.TargetDist {
			res.StopReason = "target-dist"
			break
		}
		if cfg.MaxSteps > 0 && steps >= cfg.MaxSteps {
			res.StopReason = "max-steps"
			break
		}
		a, b, ok := next(cur, cum)
		if !ok {
			res.StopReason = "no-candidates"
			break
		}
		newAnn := cfg.Policy.MergeName([]provenance.Annotation{a, b})
		step := provenance.MergeMapping(newAnn, a, b)
		prev, prevCum, prevDist = cur, cum, curDist
		cum = cum.Compose(step)
		cur = cur.Apply(step)
		var err error
		if curDist, err = distOf(cur, cum); err != nil {
			return nil, err
		}
		res.Steps = append(res.Steps, core.Step{A: a, B: b, New: newAnn, Dist: curDist, Size: cur.Size()})
		steps++
	}
	if cfg.TargetDist < 1 && curDist >= cfg.TargetDist && len(res.Steps) > 0 {
		cur, cum, curDist = prev, prevCum, prevDist
		res.Steps = res.Steps[:len(res.Steps)-1]
	}
	res.Expr = cur
	res.Mapping = cum
	res.Groups = provenance.GroupsOf(origAnns, cum)
	res.Dist = curDist
	return res, nil
}

// baselineDiff describes the first way got differs from want, or
// returns "" when they agree.
func baselineDiff(got, want *core.Summary) string {
	switch {
	case fmt.Sprintf("%#v", got.Steps) != fmt.Sprintf("%#v", want.Steps):
		return fmt.Sprintf("steps %#v, want %#v", got.Steps, want.Steps)
	case got.Expr.String() != want.Expr.String() || got.Expr.Size() != want.Expr.Size():
		return fmt.Sprintf("expression %s, want %s", got.Expr, want.Expr)
	case !reflect.DeepEqual(got.Mapping, want.Mapping):
		return fmt.Sprintf("mapping %v, want %v", got.Mapping, want.Mapping)
	case !reflect.DeepEqual(got.Groups, want.Groups):
		return fmt.Sprintf("groups %v, want %v", got.Groups, want.Groups)
	case math.Float64bits(got.Dist) != math.Float64bits(want.Dist):
		return fmt.Sprintf("dist %b, want %b", got.Dist, want.Dist)
	case got.StopReason != want.StopReason:
		return fmt.Sprintf("stop %s, want %s", got.StopReason, want.StopReason)
	}
	return ""
}

// TestBaselinesMatchApplyLoop holds the Random and Clustering baselines,
// which commit every merge on the run's plan, to the Apply loop, on
// MovieLens and DDP, under a step budget, a size bound and a distance
// bound whose TARGET-DIST rollback retracts the last merge. Each run
// gets a fresh workload, since merge naming depends on the universe's
// registrations. DDP has no dendrogram, so its Clustering case replays
// every mergeable pair of its annotations in order.
func TestBaselinesMatchApplyLoop(t *testing.T) {
	workloads := map[string]func() *datasets.Workload{
		"movielens": func() *datasets.Workload {
			cfg := datasets.DefaultMovieLensConfig()
			cfg.Users, cfg.Movies = 14, 6
			return datasets.MovieLens(cfg, rand.New(rand.NewSource(9)))
		},
		"ddp": func() *datasets.Workload {
			return datasets.DDP(datasets.DefaultDDPConfig(), rand.New(rand.NewSource(13)))
		},
	}
	bounds := map[string]func(cfg *baseline.Config, size int){
		"max-steps":   func(cfg *baseline.Config, _ int) { cfg.MaxSteps = 8 },
		"target-size": func(cfg *baseline.Config, size int) { cfg.TargetSize = size / 2 },
		"target-dist": func(cfg *baseline.Config, _ int) { cfg.TargetDist = 0.05 },
	}
	for wname, workload := range workloads {
		rolledBack := false
		for bname, bound := range bounds {
			for _, alg := range []string{"random", "clustering"} {
				config := func() (*datasets.Workload, baseline.Config) {
					w := workload()
					cfg := baseline.Config{Policy: w.Policy, Estimator: w.Estimator(datasets.CancelSingleAnnotation)}
					bound(&cfg, w.Prov.Size())
					return w, cfg
				}
				summarize := func(apply bool) *core.Summary {
					w, cfg := config()
					var sum *core.Summary
					var err error
					switch {
					case alg == "random":
						var r *baseline.Random
						if r, err = baseline.NewRandom(cfg, rand.New(rand.NewSource(17))); err != nil {
							t.Fatal(err)
						}
						if apply {
							sum, err = applyRun(cfg, w.Prov, baseline.RandomPairs(r))
						} else {
							sum, err = r.Summarize(w.Prov)
						}
					default:
						steps := w.ClusterSteps
						if steps == nil {
							anns := w.Prov.Annotations()
							for i, a := range anns {
								for _, b := range anns[i+1:] {
									if w.Policy.CanMerge(a, b) {
										steps = append(steps, baseline.MergeStep{A: []provenance.Annotation{a}, B: []provenance.Annotation{b}})
									}
								}
							}
						}
						var c *baseline.Clustering
						if c, err = baseline.NewClustering(cfg); err != nil {
							t.Fatal(err)
						}
						if apply {
							sum, err = applyRun(cfg, w.Prov, baseline.ClusteringPairs(steps))
						} else {
							sum, err = c.Summarize(w.Prov, steps)
						}
					}
					if err != nil {
						t.Fatalf("%s %s %s: %v", wname, bname, alg, err)
					}
					return sum
				}
				got, want := summarize(false), summarize(true)
				if len(want.Steps) == 0 {
					t.Fatalf("%s %s %s: no merges; the case tests nothing", wname, bname, alg)
				}
				if d := baselineDiff(got, want); d != "" {
					t.Fatalf("%s %s %s: %s", wname, bname, alg, d)
				}
				rolledBack = rolledBack || want.StopReason == "target-dist"
			}
		}
		if !rolledBack {
			t.Fatalf("%s: no case stopped at TARGET-DIST, so no rollback was tested", wname)
		}
	}
}
