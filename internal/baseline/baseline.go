// Package baseline implements the two competitors PROX is evaluated
// against in Ch. 6: Random, which merges uniformly random
// constraint-satisfying annotation pairs, and a Clustering adapter that
// replays a hierarchical-agglomerative-clustering dendrogram as a
// summarization mapping. Both honor the same TARGET-SIZE / TARGET-DIST /
// max-steps stop conditions as the main algorithm ("all three algorithms
// take into account the user-specified size and distance bounds and stop
// if and when they reach these bounds").
package baseline

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/constraints"
	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/provenance"
)

// Config carries the pieces shared by both baselines.
type Config struct {
	// Policy decides mergeability and names summary annotations.
	Policy *constraints.Policy
	// Estimator measures candidate distance (used for TARGET-DIST stops
	// and for the reported final distance).
	Estimator *distance.Estimator

	TargetSize int
	TargetDist float64
	MaxSteps   int
}

func (c *Config) normalize() error {
	if c.Policy == nil {
		return errors.New("baseline: Config.Policy is required")
	}
	if c.Estimator == nil {
		return errors.New("baseline: Config.Estimator is required")
	}
	if err := c.Estimator.Validate(); err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	if c.TargetSize <= 0 {
		c.TargetSize = 1
	}
	if c.TargetDist <= 0 {
		c.TargetDist = 1
	}
	return nil
}

// pairSource yields the next pair of current annotations to merge, or
// ok=false when the strategy is exhausted.
type pairSource func(cur provenance.Expression, cum provenance.Mapping) (a, b provenance.Annotation, ok bool)

// run drives the shared merge loop with the PROX stop conditions on one
// distance.Run, whose plan every merge patches (Run.CommitMerge).
func run(cfg Config, p0 provenance.Expression, next pairSource) (*core.Summary, error) {
	start := time.Now()
	r := cfg.Estimator.Begin(p0)
	res := &core.Summary{Original: p0}
	cur := p0
	cum := provenance.NewMapping()
	origAnns := p0.Annotations()
	origSize := p0.Size()

	// Distance scores only expressions the estimator plans; CheckPlan
	// refuses the others with the reason (its plan is the one Distance
	// then sweeps).
	distOf := func(e provenance.Expression, m provenance.Mapping) (float64, error) {
		if err := r.CheckPlan(e, ""); err != nil {
			return 0, fmt.Errorf("baseline: %w", err)
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
		members := []provenance.Annotation{a, b}
		newAnn := cfg.Policy.MergeName(members)
		prev, prevCum, prevDist = cur, cum, curDist
		cum = cum.Compose(provenance.MergeMapping(newAnn, a, b))
		cur = r.CommitMerge(cur, members, newAnn)
		var err error
		if curDist, err = distOf(cur, cum); err != nil {
			return nil, err
		}
		res.Steps = append(res.Steps, core.Step{
			A: a, B: b, New: newAnn, Dist: curDist, Size: cur.Size(),
		})
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
	res.Elapsed = time.Since(start)
	return res, nil
}

// Random is the Sec. 6.1 Random competitor: "every pair of annotations
// was chosen randomly from the list of pairs that satisfy the mapping
// constraints".
type Random struct {
	cfg Config
	rnd *rand.Rand
}

// NewRandom builds the Random baseline.
func NewRandom(cfg Config, rnd *rand.Rand) (*Random, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if rnd == nil {
		return nil, errors.New("baseline: NewRandom requires a rand source")
	}
	return &Random{cfg: cfg, rnd: rnd}, nil
}

// Summarize runs the random-merge loop on p0.
func (r *Random) Summarize(p0 provenance.Expression) (*core.Summary, error) {
	return run(r.cfg, p0, r.next)
}

// next draws a uniformly random constraint-satisfying pair of cur's
// annotations.
func (r *Random) next(cur provenance.Expression, _ provenance.Mapping) (provenance.Annotation, provenance.Annotation, bool) {
	anns := cur.Annotations()
	var pairs [][2]provenance.Annotation
	for i := 0; i < len(anns); i++ {
		for j := i + 1; j < len(anns); j++ {
			if r.cfg.Policy.CanMerge(anns[i], anns[j]) {
				pairs = append(pairs, [2]provenance.Annotation{anns[i], anns[j]})
			}
		}
	}
	if len(pairs) == 0 {
		return "", "", false
	}
	p := pairs[r.rnd.Intn(len(pairs))]
	return p[0], p[1], true
}

// MergeStep is one dendrogram agglomeration translated to annotations:
// the original annotations contained in each side of the merge.
type MergeStep struct {
	A, B []provenance.Annotation
}

// Clustering replays a precomputed sequence of cluster merges (from
// internal/cluster dendrograms, possibly the concatenation of separate
// user and page clusterings) as summarization steps, with the PROX stop
// conditions applied after every merge — the paper's modified-HAC
// competitor.
type Clustering struct {
	cfg Config
}

// NewClustering builds the clustering adapter.
func NewClustering(cfg Config) (*Clustering, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	return &Clustering{cfg: cfg}, nil
}

// Summarize applies the merge steps in order until a stop condition
// fires. Each step merges the current summary annotations standing for
// the two sides.
func (c *Clustering) Summarize(p0 provenance.Expression, steps []MergeStep) (*core.Summary, error) {
	return run(c.cfg, p0, dendrogram(steps))
}

// dendrogram yields the merges of steps in order, skipping those whose
// sides are already one summary annotation.
func dendrogram(steps []MergeStep) pairSource {
	i := 0
	return func(_ provenance.Expression, cum provenance.Mapping) (provenance.Annotation, provenance.Annotation, bool) {
		for i < len(steps) {
			s := steps[i]
			i++
			if len(s.A) == 0 || len(s.B) == 0 {
				continue
			}
			a := cum.Rename(s.A[0])
			b := cum.Rename(s.B[0])
			if a == b {
				continue // already merged (e.g. by an earlier step)
			}
			return a, b, true
		}
		return "", "", false
	}
}
