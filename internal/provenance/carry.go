package provenance

import (
	"bytes"
	"fmt"
	"slices"
)

// This file carries probes across a committed merge. A merge {a,b}→c
// rewrites only the tensors that mention a or b or sit in their groups;
// under the tensor semantics every other tensor keeps its polynomial,
// value and group, and ApplyMerge keeps every node id. A probe whose
// members avoid {a,b,c} and whose affected tensors were all left alone
// therefore compiles, on the patched plan, to itself with its tensor ids
// renumbered, its size shifted by the plan's, and the fresh-group id
// moved to the new NumAnns. Carrying it keeps its eager rewrite, its
// dirty closure, its rewritten keys and the re-fold programs of the
// coordinates the merge left alone; only the programs of coordinates
// the merge touched, and slots the plan changed, rebuild.

// MergePatch records what one successful Plan.ApplyMerge changed: the
// merge, where each surviving tensor moved, and which coordinates'
// tensor lists it rewrote. It is the caller's for one step; the plan
// keeps no reference to it.
type MergePatch struct {
	plan    *Plan
	gen     uint64 // the plan generation the patch produced
	members []Annotation
	newAnn  Annotation
	// remap maps each pre-merge tensor id to its post-merge id, -1 for
	// the tensors the merge rewrote.
	remap []int32
	// touched lists the ascending group ids (-1 for the scalar
	// coordinate) of the rewritten tensors: their tensor lists changed.
	touched      []int32
	sizeDelta    int
	oldFresh     int32 // the plan's NumAnns before the merge
	newFresh     int32 // and after it
	slotsChanged bool
}

// Carry rebases pr, a probe of the plan at the generation the patch was
// applied to, onto the patched plan, and reports whether it survives:
// its members avoid the merge's members and summary annotation, and none
// of the tensors it rewrites was rewritten by the merge. A survivor
// equals Plan.Probe(pr.Members, pr.NewAnn) on the patched plan in every
// field; a probe that does not survive must be dropped (it is left
// untouched). Carry must not run while pr is being evaluated.
func (m *MergePatch) Carry(pr *Probe) bool {
	if pr.plan != m.plan || pr.gen+1 != m.gen || !m.plan.probeable {
		return false
	}
	for _, a := range pr.Members {
		if a == m.newAnn || slices.Contains(m.members, a) {
			return false
		}
	}
	for _, tid := range pr.affected {
		if m.remap[tid] < 0 {
			return false
		}
	}
	// Survivors keep their relative order, so affected stays ascending
	// and every rewritten class keeps its representative.
	for i, tid := range pr.affected {
		pr.affected[i] = m.remap[tid]
	}
	for i := range pr.rews {
		r := &pr.rews[i]
		r.tid = m.remap[r.tid]
		if r.gid == m.oldFresh {
			r.gid = m.newFresh
		}
	}
	pr.Size += m.sizeDelta
	pr.gen = m.gen
	refold := false
	for i := range pr.folds {
		f := &pr.folds[i]
		if f.gid == m.oldFresh {
			f.gid = m.newFresh
		} else if _, hit := slices.BinarySearch(m.touched, f.gid); hit {
			f.stale = true
			refold = true
		}
	}
	if refold || m.slotsChanged {
		pr.foldsOK = pr.foldsOK && !refold
		pr.slotsOK = false
		pr.compiled.Store(false)
	}
	return true
}

// On reports whether pr is a probe of p in its current state: built on
// p, or carried onto every patch since.
func (pr *Probe) On(p *Plan) bool { return pr.plan == p && pr.gen == p.gen }

// Diff compiles pr and q, two probes of one plan state, and describes
// the first compiled field in which they differ, or returns "" when they
// agree in all of them: members, summary annotation, size, group
// rename, tensor rewrite and its keys, slots, re-fold programs, reorder
// flag and dirty closure. Differential tests use it to hold carried
// probes to freshly built ones.
func (pr *Probe) Diff(q *Probe) string {
	if pr.plan != q.plan || pr.gen != q.gen {
		return "probes of different plan states"
	}
	pr.compileEval()
	q.compileEval()
	diff := func(field string, a, b any) string {
		return fmt.Sprintf("%s: %v != %v", field, a, b)
	}
	switch {
	case !slices.Equal(pr.Members, q.Members):
		return diff("Members", pr.Members, q.Members)
	case pr.NewAnn != q.NewAnn:
		return diff("NewAnn", pr.NewAnn, q.NewAnn)
	case pr.Size != q.Size:
		return diff("Size", pr.Size, q.Size)
	case pr.RenamesGroup != q.RenamesGroup:
		return diff("RenamesGroup", pr.RenamesGroup, q.RenamesGroup)
	case !slices.Equal(pr.memberIDs, q.memberIDs):
		return diff("memberIDs", pr.memberIDs, q.memberIDs)
	case !slices.Equal(pr.affected, q.affected):
		return diff("affected", pr.affected, q.affected)
	case !slices.Equal(pr.rews, q.rews):
		return diff("rewrittens", pr.rews, q.rews)
	case !bytes.Equal(pr.rewKeys, q.rewKeys):
		return diff("rewKeys", string(pr.rewKeys), string(q.rewKeys))
	case !slices.Equal(pr.removed, q.removed):
		return diff("removed", pr.removed, q.removed)
	case pr.reorders != q.reorders:
		return diff("reorders", pr.reorders, q.reorders)
	case !slices.Equal(pr.slots, q.slots):
		return diff("Slots", pr.slots, q.slots)
	case !slices.Equal(pr.baseSlot, q.baseSlot):
		return diff("baseSlot", pr.baseSlot, q.baseSlot)
	case !slices.Equal(pr.dirtyNodes, q.dirtyNodes):
		return diff("dirtyNodes", pr.dirtyNodes, q.dirtyNodes)
	case len(pr.folds) != len(q.folds):
		return diff("folds", pr.folds, q.folds)
	}
	for i := range pr.folds {
		f, g := &pr.folds[i], &q.folds[i]
		if f.group != g.group || f.gid != g.gid || f.slot != g.slot || f.affected != g.affected ||
			f.rews != g.rews || f.reorders != g.reorders || !slices.Equal(f.entries, g.entries) {
			return diff(fmt.Sprintf("folds[%d]", i), *f, *g)
		}
	}
	return ""
}
