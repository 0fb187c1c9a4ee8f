package distance

import (
	"fmt"

	"repro/internal/provenance"
)

// Carry is the scoring state one summarization run carries from one
// Algorithm 1 step to the next: the pair probes of the step being
// scored, which are rebased onto the plan CommitMerge patched
// (provenance.MergePatch.Carry) so that the next step's DistanceDelta
// rebuilds only the probes the committed merge invalidated. The rebase
// waits until the next step uses the carry, so a run's last merge
// rebases nothing. It belongs to one run and dies with it: the
// estimator and its plan keep no reference to it. The zero value is
// empty; a nil *Carry carries nothing. It is not safe for concurrent
// use.
type Carry struct {
	plan   *provenance.Plan
	newAnn provenance.Annotation
	// carried holds the probes carried into the current step, step the
	// probes the current step scored, by member pair.
	carried, step map[[2]provenance.Annotation]*provenance.Probe
	// pending is the patch of the committed merge whose rebase of step
	// has not run yet.
	pending *provenance.MergePatch
}

// reset empties the carry and ties it to plan and newAnn.
func (c *Carry) reset(plan *provenance.Plan, newAnn provenance.Annotation) {
	if c == nil {
		return
	}
	c.plan, c.newAnn, c.pending = plan, newAnn, nil
	clear(c.carried)
	clear(c.step)
}

// use ties the carry to the step's plan and summary annotation,
// emptying it when either changed: a recompiled plan shares no probe
// with the one it replaced. n, the cohort's size, sizes a new step map.
func (c *Carry) use(plan *provenance.Plan, newAnn provenance.Annotation, n int) {
	if c == nil {
		return
	}
	c.settle()
	if plan == nil || c.plan != plan || c.newAnn != newAnn {
		c.reset(plan, newAnn)
	}
	if c.step == nil {
		c.step = make(map[[2]provenance.Annotation]*provenance.Probe, n)
	}
}

// probe returns the probe carried for member set ms on plan's current
// state, recording it for the step, or nil when there is none.
func (c *Carry) probe(plan *provenance.Plan, ms []provenance.Annotation) *provenance.Probe {
	if c == nil || len(ms) != 2 {
		return nil
	}
	pr := c.carried[[2]provenance.Annotation{ms[0], ms[1]}]
	if pr == nil || !pr.On(plan) {
		return nil
	}
	c.record(ms, pr)
	return pr
}

// record notes that the current step scored pair ms with pr.
func (c *Carry) record(ms []provenance.Annotation, pr *provenance.Probe) {
	if c == nil || len(ms) != 2 {
		return
	}
	c.step[[2]provenance.Annotation{ms[0], ms[1]}] = pr
}

// winner returns the probe the current step scored for member pair ms,
// or nil.
func (c *Carry) winner(ms []provenance.Annotation) *provenance.Probe {
	if c == nil || len(ms) != 2 {
		return nil
	}
	return c.step[[2]provenance.Annotation{ms[0], ms[1]}]
}

// commit records the patch of the committed merge, whose rebase of the
// step's probes settle runs when the carry is next used; a nil patch
// (the plan was dropped for recompiling) empties the carry.
func (c *Carry) commit(m *provenance.MergePatch) {
	if c == nil {
		return
	}
	if m == nil {
		c.reset(nil, "")
		return
	}
	c.settle()
	c.pending = m
}

// settle carries the step's probes across the pending patch.
func (c *Carry) settle() {
	m := c.pending
	if m == nil {
		return
	}
	c.pending = nil
	for k, pr := range c.step {
		if !m.Carry(pr) {
			delete(c.step, k)
		}
	}
	clear(c.carried)
	c.carried, c.step = c.step, c.carried
}

// Check holds every probe carried into the current step to one built
// afresh on the same plan state (provenance.Probe.Diff) and returns how
// many it checked, or the first mismatch. Differential tests call it
// between steps.
func (c *Carry) Check() (int, error) {
	if c == nil {
		return 0, nil
	}
	c.settle()
	for k, pr := range c.carried {
		if !pr.On(c.plan) {
			return 0, fmt.Errorf("carried probe %v is not on the carry's plan", k)
		}
		fresh := c.plan.Probe(pr.Members, pr.NewAnn)
		if fresh == nil {
			return 0, fmt.Errorf("carried probe %v: the plan refuses it", k)
		}
		if d := pr.Diff(fresh); d != "" {
			return 0, fmt.Errorf("carried probe %v: %s", k, d)
		}
	}
	return len(c.carried), nil
}
