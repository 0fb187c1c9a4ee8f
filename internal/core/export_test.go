package core

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/distance"
	"repro/internal/provenance"
)

// CheckCarry makes s carry every committed merge into its step state
// right away and verify that the state equals a rebuild: the run's
// annotation set (read off the patched plan) must be the expression's,
// the carried pair list must be the one the merge predicted for exactly
// the next step's annotation set, and equal a fresh enumeration over
// it, the carried base groups must equal GroupsOf over the cumulative
// mapping, and every carried probe and the carried truth table must
// equal ones built afresh on the same plan state
// (distance.Run.CheckCarry). carried, when non-nil, receives the number
// of probes carried into each step.
func CheckCarry(s *Summarizer, carried func(probes int)) {
	s.checkCarry = func(cur provenance.Expression, cum provenance.Mapping, c *stepCarry, r *distance.Run) error {
		c.flush(s.cfg.Policy)
		if want := provenance.GroupsOf(c.origAnns, cum); !maps.EqualFunc(c.base, want, slices.Equal) {
			return fmt.Errorf("carried base groups %v, want %v", c.base, want)
		}
		anns := cur.Annotations()
		if live := r.Annotations(cur); !slices.Equal(live, anns) {
			return fmt.Errorf("the run's annotation set %v, want %v", live, anns)
		}
		pl := &c.pairs
		if !pl.ok {
			return fmt.Errorf("pair list not carried")
		}
		if !slices.Equal(pl.anns, anns) {
			return fmt.Errorf("carried annotation set %v, want %v", pl.anns, anns)
		}
		fresh := (&pairList{}).forAnns(s.cfg.Policy, anns)
		if !slices.Equal(pl.pairs, fresh) {
			return fmt.Errorf("carried pairs %v, want %v", pl.pairs, fresh)
		}
		n, err := r.CheckCarry(c.base)
		if carried != nil {
			carried(n)
		}
		return err
	}
}

// ReplayByApply makes s replay every restored merge — seed steps and
// resumed steps — with a whole-expression Apply instead of the run's
// plan (distance.Run.Replay): the oracle the plan replay is held to.
func ReplayByApply(s *Summarizer) {
	s.replay = func(cur provenance.Expression, members []provenance.Annotation, newAnn provenance.Annotation) provenance.Expression {
		return cur.Apply(provenance.MergeMapping(newAnn, members...))
	}
}

// ApplyEveryMerge makes s commit every winning merge and replay every
// restored or Prop. 4.2.1 merge with a whole-expression Apply instead
// of the run's plan (distance.Run.CommitMerge, distance.Run.Replay): the
// oracle a run that patches its plan at every merge is held to.
func ApplyEveryMerge(s *Summarizer) {
	ReplayByApply(s)
	s.applyCommits = true
}

// RebeginEveryStep makes s begin a new distance.Run after every
// committed step, so every step compiles its plan and evaluates the
// original afresh instead of patching the plan in place: the oracle the
// merge patch is held to.
func RebeginEveryStep(s *Summarizer) {
	s.rebegin = true
}

// EstimatorOf returns the estimator s scores with.
func EstimatorOf(s *Summarizer) *distance.Estimator { return s.cfg.Estimator }

// ObserveSteps makes s report every committed step to observe.
func ObserveSteps(s *Summarizer, observe StepObserver) { s.cfg.StepObserver = observe }
