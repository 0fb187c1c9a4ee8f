package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/distance"
)

// Options selects the dataset, valuation class and averaging for an
// experiment run.
type Options struct {
	// Dataset is "movielens", "wikipedia" or "ddp".
	Dataset string
	// Class picks the valuation class (Table 5.1).
	Class datasets.ClassKind
	// Runs is the number of generated provenance expressions to average
	// over ("for each dataset, we generated multiple input provenance
	// expressions, executed the experiments and averaged the results").
	Runs int
	// Seed drives all generation and baseline randomness.
	Seed int64
	// Scale multiplies the default dataset sizes (1 = paper-like scale;
	// tests use smaller scales).
	Scale float64
	// CandidateCap bounds per-step candidate evaluation in Prov-Approx
	// (0 = evaluate all pairs).
	CandidateCap int
}

// DefaultOptions returns paper-like settings for a dataset.
func DefaultOptions(dataset string) Options {
	return Options{
		Dataset: dataset,
		Class:   datasets.CancelSingleAttribute,
		Runs:    3,
		Seed:    1,
		Scale:   1,
	}
}

func (o Options) normalized() Options {
	if o.Runs <= 0 {
		o.Runs = 1
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	return o
}

func scaleInt(base int, scale float64) int {
	v := int(float64(base) * scale)
	if v < 2 {
		v = 2
	}
	return v
}

// Workload generates the run-th provenance expression for the options.
func (o Options) Workload(run int) (*datasets.Workload, error) {
	r := rand.New(rand.NewSource(o.Seed + int64(run)*7919))
	switch o.Dataset {
	case "movielens":
		cfg := datasets.DefaultMovieLensConfig()
		cfg.Users = scaleInt(cfg.Users, o.Scale)
		cfg.Movies = scaleInt(cfg.Movies, o.Scale)
		return datasets.MovieLens(cfg, r), nil
	case "wikipedia":
		cfg := datasets.DefaultWikipediaConfig()
		cfg.Users = scaleInt(cfg.Users, o.Scale)
		cfg.Pages = scaleInt(cfg.Pages, o.Scale)
		return datasets.Wikipedia(cfg, r), nil
	case "ddp":
		cfg := datasets.DefaultDDPConfig()
		cfg.Executions = scaleInt(cfg.Executions, o.Scale)
		return datasets.DDP(cfg, r), nil
	default:
		return nil, fmt.Errorf("experiments: unknown dataset %q", o.Dataset)
	}
}

// algo identifies one of the compared algorithms.
type algo int

const (
	algoProx algo = iota
	algoClustering
	algoRandom
)

func (a algo) String() string {
	switch a {
	case algoProx:
		return "Prov-Approx"
	case algoClustering:
		return "Clustering"
	case algoRandom:
		return "Random"
	}
	return "?"
}

// runParams carries the per-run stop/weight settings.
type runParams struct {
	wDist, wSize float64
	targetSize   int
	targetDist   float64
	maxSteps     int
}

// runProx executes Algorithm 1 on the workload.
func (o Options) runProx(w *datasets.Workload, p runParams, run int) (*core.Summary, error) {
	sum, _, err := o.runProxInstrumented(w, p, run)
	return sum, err
}

// runProxInstrumented executes Algorithm 1 and also returns the run's
// estimator, whose Stats() carry the instrumented per-Distance cost
// (each run builds a fresh estimator, so the stats are whole-run deltas).
func (o Options) runProxInstrumented(w *datasets.Workload, p runParams, run int) (*core.Summary, *distance.Estimator, error) {
	est := w.Estimator(o.Class)
	cfg := core.Config{
		Policy:     w.Policy,
		Estimator:  est,
		WDist:      p.wDist,
		WSize:      p.wSize,
		TargetSize: p.targetSize,
		TargetDist: p.targetDist,
		MaxSteps:   p.maxSteps,
	}
	if o.CandidateCap > 0 {
		cfg.CandidateCap = o.CandidateCap
		cfg.Rand = rand.New(rand.NewSource(o.Seed + int64(run)*13))
	}
	s, err := core.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	sum, err := s.Summarize(w.Prov)
	if err != nil {
		return nil, nil, err
	}
	return sum, est, nil
}

// runRandom executes the Random baseline on the workload.
func (o Options) runRandom(w *datasets.Workload, p runParams, run int) (*core.Summary, error) {
	r, err := baseline.NewRandom(baseline.Config{
		Policy:     w.Policy,
		Estimator:  w.Estimator(o.Class),
		TargetSize: p.targetSize,
		TargetDist: p.targetDist,
		MaxSteps:   p.maxSteps,
	}, rand.New(rand.NewSource(o.Seed+int64(run)*101)))
	if err != nil {
		return nil, err
	}
	return r.Summarize(w.Prov)
}

// runClustering replays the workload's HAC merges; it returns nil when
// the dataset has no clustering competitor (DDP).
func (o Options) runClustering(w *datasets.Workload, p runParams) (*core.Summary, error) {
	if w.ClusterSteps == nil {
		return nil, nil
	}
	c, err := baseline.NewClustering(baseline.Config{
		Policy:     w.Policy,
		Estimator:  w.Estimator(o.Class),
		TargetSize: p.targetSize,
		TargetDist: p.targetDist,
		MaxSteps:   p.maxSteps,
	})
	if err != nil {
		return nil, err
	}
	return c.Summarize(w.Prov, w.ClusterSteps)
}

// summaryStats extracts the figures' two measurements.
func summaryStats(s *core.Summary) (dist, size float64) {
	return s.Dist, float64(s.Expr.Size())
}

// mean averages a slice, 0 for empty input.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}
