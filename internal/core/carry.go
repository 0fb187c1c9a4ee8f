package core

import (
	"slices"

	"repro/internal/constraints"
	"repro/internal/provenance"
)

// stepCarry is the pair list and base groups one run carries from one
// Algorithm 1 step to the next instead of rebuilding them (the run's
// distance.Run carries the surviving probes and the truth table), and
// the step's scratch. A committed merge {a,b}→c rewrites only what
// mentions a or b, so everything else carries. It is derived state,
// never checkpointed: a run's first step — fresh, resumed or extended —
// starts from the empty pair list and enumerates, which is the same code
// path with nothing carried. It lives in Summarizer.run and is released
// when the run returns.
//
// A committed merge is carried into the pair list and the base groups
// only when the next step begins (flush), as the distance.Run rebases
// its probes only at its next sweep: a run's last merge then costs no
// pair update or probe rebase.
type stepCarry struct {
	pairs pairList
	// base is the inverse view of the run's cumulative mapping over the
	// original's annotations origAnns, GroupsOf(origAnns, cum): a merge
	// changes it only at its members and summary annotation.
	origAnns []provenance.Annotation
	base     provenance.Groups
	pending  committedMerge

	// The step's scratch, refilled every step: the cohort's member sets
	// and their backing slab, the growth rounds' (grown, and the group
	// they grow, growing), the scored candidates, the score ties, and the
	// shuffled pairs of a candidate cap.
	cohort, grown  [][]provenance.Annotation
	slab, growSlab []provenance.Annotation
	growing        []provenance.Annotation
	cands, ties    []candidate
	shuffled       [][2]provenance.Annotation
}

// committedMerge is a merge committed but not yet carried into the pair
// list and the base groups: members were mapped to newAnn. members is
// nil when there is none.
type committedMerge struct {
	members []provenance.Annotation
	newAnn  provenance.Annotation
}

// flush carries the pending merge into the pair list and the base
// groups.
func (c *stepCarry) flush(pol *constraints.Policy) {
	m := c.pending
	if m.members == nil {
		return
	}
	c.pending = committedMerge{}
	c.pairs.commit(pol, m.members, m.newAnn)
	var group []provenance.Annotation
	for _, a := range m.members {
		group = append(group, c.base.Members(a)...)
		delete(c.base, a)
	}
	slices.Sort(group)
	c.base[m.newAnn] = group
}

// memberSets lays the pairs out as member sets over the carry's slab.
func (c *stepCarry) memberSets(pairs [][2]provenance.Annotation) [][]provenance.Annotation {
	c.slab = fitSlice(c.slab, 2*len(pairs))
	c.cohort = fitSlice(c.cohort, len(pairs))
	for i, pr := range pairs {
		c.slab[2*i], c.slab[2*i+1] = pr[0], pr[1]
		c.cohort[i] = c.slab[2*i : 2*i+2 : 2*i+2]
	}
	return c.cohort
}

// fitSlice re-slices a reused buffer to n entries, allocating only when
// it is too small.
func fitSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// pairList is the mergeable pair list of a sorted annotation set, in
// enumeration order: (anns[i], anns[j]) for i < j with CanMerge, which
// for sorted anns is lexicographic order.
type pairList struct {
	// anns is the annotation set the pairs are for; after a commit it is
	// the set the merge predicts for the next step.
	anns  []provenance.Annotation
	pairs [][2]provenance.Annotation
	ok    bool // anns and pairs are valid
	// spareAnns and sparePairs are the previous step's buffers, which
	// commit refills, and spareFresh the buffer of its summary
	// annotation's pairs.
	spareAnns  []provenance.Annotation
	sparePairs [][2]provenance.Annotation
	spareFresh [][2]provenance.Annotation
}

// forAnns returns the mergeable pairs of anns in enumeration order: the
// carried list when the committed merge predicted anns exactly, else a
// fresh enumeration. The list must not be modified.
func (pl *pairList) forAnns(pol *constraints.Policy, anns []provenance.Annotation) [][2]provenance.Annotation {
	if pl.ok && slices.Equal(pl.anns, anns) {
		return pl.pairs
	}
	var pairs [][2]provenance.Annotation
	for i := 0; i < len(anns); i++ {
		for j := i + 1; j < len(anns); j++ {
			if pol.CanMerge(anns[i], anns[j]) {
				pairs = append(pairs, [2]provenance.Annotation{anns[i], anns[j]})
			}
		}
	}
	// Carrying needs a strictly ascending set: the merge step inserts the
	// summary annotation's pairs by sorted position.
	pl.anns, pl.pairs, pl.ok = slices.Clone(anns), pairs, true
	for i := 1; i < len(anns) && pl.ok; i++ {
		pl.ok = anns[i-1] < anns[i]
	}
	return pairs
}

// commit derives the next step's pair list from the committed merge of
// members into newAnn: the set loses the members and gains newAnn, the
// pairs lose every pair containing a member or newAnn, and newAnn's
// pairs with the remaining annotations are checked afresh and merged in
// at their sorted positions. Pairs with newAnn are dropped even when
// newAnn was already present, because registering the merge may have
// changed its universe entry; no other annotation's entry changes.
func (pl *pairList) commit(pol *constraints.Policy, members []provenance.Annotation, newAnn provenance.Annotation) {
	if !pl.ok {
		return
	}
	gone := func(a provenance.Annotation) bool { return a == newAnn || slices.Contains(members, a) }
	anns := pl.spareAnns[:0]
	for _, a := range pl.anns {
		if !gone(a) {
			anns = append(anns, a)
		}
	}
	at, _ := slices.BinarySearch(anns, newAnn)
	anns = slices.Insert(anns, at, newAnn)

	// newAnn's pairs in enumeration order: (x, newAnn) for x < newAnn,
	// then (newAnn, x) for x > newAnn.
	fresh := pl.spareFresh[:0]
	for _, x := range anns {
		switch {
		case x < newAnn && pol.CanMerge(x, newAnn):
			fresh = append(fresh, [2]provenance.Annotation{x, newAnn})
		case x > newAnn && pol.CanMerge(newAnn, x):
			fresh = append(fresh, [2]provenance.Annotation{newAnn, x})
		}
	}
	pl.spareFresh = fresh
	pairs := pl.sparePairs[:0]
	for _, p := range pl.pairs {
		if gone(p[0]) || gone(p[1]) {
			continue
		}
		for len(fresh) > 0 && pairBefore(fresh[0], p) {
			pairs = append(pairs, fresh[0])
			fresh = fresh[1:]
		}
		pairs = append(pairs, p)
	}
	pl.spareAnns, pl.sparePairs = pl.anns, pl.pairs
	pl.anns, pl.pairs = anns, append(pairs, fresh...)
}

// pairBefore orders pairs lexicographically.
func pairBefore(x, y [2]provenance.Annotation) bool {
	if x[0] != y[0] {
		return x[0] < y[0]
	}
	return x[1] < y[1]
}
