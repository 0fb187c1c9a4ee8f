package core

import (
	"slices"

	"repro/internal/constraints"
	"repro/internal/provenance"
)

// stepCarry is the pair list one run carries from one Algorithm 1 step
// to the next instead of rebuilding it (the run's distance.Run carries
// the surviving probes). A committed merge {a,b}→c rewrites only what
// mentions a or b, so everything else carries. It is derived state,
// never checkpointed: a run's first step — fresh, resumed or extended —
// starts from the empty carry and enumerates, which is the same code
// path with nothing carried. It lives in Summarizer.run and is released
// when the run returns.
//
// A committed merge is carried into the pair list only when the next
// step begins (flush), as the distance.Run rebases its probes only at
// its next sweep: a run's last merge then costs no pair update or probe
// rebase.
type stepCarry struct {
	pairs   pairList
	pending *committedMerge
}

// committedMerge is a merge committed but not yet carried into the pair
// list: members were mapped to newAnn.
type committedMerge struct {
	members []provenance.Annotation
	newAnn  provenance.Annotation
}

// flush carries the pending merge into the pair list.
func (c *stepCarry) flush(pol *constraints.Policy) {
	if m := c.pending; m != nil {
		c.pending = nil
		c.pairs.commit(pol, m.members, m.newAnn)
	}
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
	// commit refills.
	spareAnns  []provenance.Annotation
	sparePairs [][2]provenance.Annotation
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
	var fresh [][2]provenance.Annotation
	for _, x := range anns {
		switch {
		case x < newAnn && pol.CanMerge(x, newAnn):
			fresh = append(fresh, [2]provenance.Annotation{x, newAnn})
		case x > newAnn && pol.CanMerge(newAnn, x):
			fresh = append(fresh, [2]provenance.Annotation{newAnn, x})
		}
	}
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
