package provenance

import (
	"slices"
	"strconv"
)

// This file implements the id-level merge rewrite shared by Plan.Probe
// and Plan.ApplyMerge. A plan tensor's polynomial is already in
// SimplifyExpr normal form, and a merge only renames its members to one
// fresh annotation. Renaming a variable creates no constant and no
// nesting, so Simplify(MapAnn(q)) keeps q's shape and size and only
// reorders children. The rewrite therefore never builds an Expr: it
// renders the Simplify key of a tensor's renamed polynomial straight
// from its arena span, and since Key is injective, that key is the
// rewritten tensor's whole identity — Probe dedupes by it and
// ApplyMerge and the re-folds order by it.

// appendRenamedKey appends the Simplify key of the subtree rooted at id
// with member variables renamed to newAnn: byte for byte
// SimplifyExpr(q.MapAnn(rename)).Key() for the normal-form polynomial q
// the subtree compiles, since the rename keeps q's shape and Key sorts
// children itself.
func (a *Arena) appendRenamedKey(dst []byte, id int32, members []int32, newAnn Annotation) []byte {
	switch a.kind[id] {
	case nodeVar:
		name := newAnn
		if ann := a.ann[id]; !slices.Contains(members, ann) {
			name = a.in.anns[ann]
		}
		return appendName(append(dst, "v:"...), name)
	case nodeConst:
		return strconv.AppendInt(append(dst, "c:"...), int64(a.constN[id]), 10)
	case nodeCmp:
		dst = a.appendRenamedKey(append(dst, "q("...), a.kids[a.kidOff[id]], members, newAnn)
		return appendCmpKey(dst, a.value[id], a.op[id], a.bound[id])
	}
	kids := a.kids[a.kidOff[id]:a.kidOff[id+1]]
	open, sep := "s(", byte('+')
	if a.kind[id] == nodeProd {
		open, sep = "p(", '*'
	}
	start := len(dst)
	var stack [8][2]int
	spans := stack[:0]
	for _, k := range kids {
		lo := len(dst)
		dst = a.appendRenamedKey(dst, k, members, newAnn)
		spans = append(spans, [2]int{lo, len(dst)})
	}
	return joinSortedKeys(dst, start, open, sep, spans)
}

// normalNode reports whether node id is a fixed point of SimplifyExpr
// up to child order and stays one under any variable renaming: a Sum
// or Prod has at least two children, none of its own kind, and at most
// one constant, which is not Sum's 0 or Prod's 0 or 1; a guard's inner
// polynomial is not a constant.
func (a *Arena) normalNode(id int32) bool {
	kind := a.kind[id]
	switch kind {
	case nodeCmp:
		return a.kind[a.kids[a.kidOff[id]]] != nodeConst
	case nodeSum, nodeProd:
		kids := a.kids[a.kidOff[id]:a.kidOff[id+1]]
		if len(kids) < 2 {
			return false
		}
		consts := 0
		for _, k := range kids {
			switch a.kind[k] {
			case kind:
				return false
			case nodeConst:
				consts++
				if c := a.constN[k]; c == 0 || (kind == nodeProd && c == 1) {
					return false
				}
			}
		}
		return consts <= 1
	}
	return true
}
