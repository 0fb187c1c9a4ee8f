package provenance

import (
	"math"
	"slices"
	"strconv"
)

// This file implements the id-level merge rewrite shared by Plan.Probe
// and Plan.ApplyMerge. A plan tensor's polynomial is already in
// SimplifyExpr normal form, and a merge only renames its members to one
// fresh annotation. Renaming a variable creates no constant and no
// nesting, so Simplify(MapAnn(q)) keeps q's shape and size and only
// reorders children. The rewrite therefore never builds an Expr: it
// reads a tensor's arena span with member ids mapped to one fresh id,
// compares tensors by a canonical token form of that span, and builds
// the Simplify key string straight from the span when a caller needs
// the candidate's tensor order.

// canonScratch holds the buffers of canonical-form encoding. Child
// spans are a stack shared by the recursion.
type canonScratch struct {
	enc   []uint64
	spans [][2]int32
}

// canonTok packs a node kind and a 32-bit payload into one token.
func canonTok(kind nodeKind, payload uint32) uint64 {
	return uint64(kind)<<32 | uint64(payload)
}

// canonFloat maps a guard float to bits that are equal exactly when the
// %g renderings in Key are: every NaN prints "NaN", and -0 prints "-0".
func canonFloat(f float64) uint64 {
	if f != f {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

// canonOp maps a guard operator to a value that is equal exactly when
// the operators' Key renderings are: every unknown operator prints "?".
func canonOp(op CmpOp) uint32 {
	if op < OpGT || op > OpNE {
		return uint32(OpNE) + 1
	}
	return uint32(op)
}

// renamed returns the annotation id a Var node reads after the merge:
// fresh for a member occurrence, its own id otherwise.
func renamed(ann int32, members []int32, fresh int32) int32 {
	if slices.Contains(members, ann) {
		return fresh
	}
	return ann
}

// appendCanon appends the canonical form of the subtree rooted at id,
// with member variables renamed to fresh, to cs.enc. The form is a
// prefix-free token sequence — Var(id), Const(n), Cmp(op, value, bound,
// inner), Sum/Prod(arity, children) — with each node's children sorted
// by their own canonical forms. Two normal-form subtrees get equal forms
// exactly when they are equal up to child order, which is exactly when
// their Simplify keys are equal.
func (a *Arena) appendCanon(cs *canonScratch, id int32, members []int32, fresh int32) {
	switch a.kind[id] {
	case nodeVar:
		cs.enc = append(cs.enc, canonTok(nodeVar, uint32(renamed(a.ann[id], members, fresh))))
		return
	case nodeConst:
		cs.enc = append(cs.enc, canonTok(nodeConst, uint32(a.constN[id])))
		return
	case nodeCmp:
		cs.enc = append(cs.enc, canonTok(nodeCmp, canonOp(a.op[id])), canonFloat(a.value[id]), canonFloat(a.bound[id]))
		a.appendCanon(cs, a.kids[a.kidOff[id]], members, fresh)
		return
	}
	kids := a.kids[a.kidOff[id]:a.kidOff[id+1]]
	cs.enc = append(cs.enc, canonTok(a.kind[id], uint32(len(kids))))
	start := len(cs.enc)
	leaves := true
	for _, k := range kids {
		if a.kind[k] != nodeVar && a.kind[k] != nodeConst {
			leaves = false
			break
		}
	}
	if leaves {
		// One token per child: sorting the tokens sorts the children.
		for _, k := range kids {
			a.appendCanon(cs, k, members, fresh)
		}
		slices.Sort(cs.enc[start:])
		return
	}
	base := len(cs.spans)
	for _, k := range kids {
		lo := int32(len(cs.enc))
		a.appendCanon(cs, k, members, fresh)
		cs.spans = append(cs.spans, [2]int32{lo, int32(len(cs.enc))})
	}
	enc, spans := cs.enc, cs.spans[base:]
	slices.SortFunc(spans, func(x, y [2]int32) int {
		return slices.Compare(enc[x[0]:x[1]], enc[y[0]:y[1]])
	})
	mid := len(cs.enc)
	for _, sp := range spans {
		cs.enc = append(cs.enc, cs.enc[sp[0]:sp[1]]...)
	}
	cs.enc = cs.enc[:start+copy(cs.enc[start:], cs.enc[mid:])]
	cs.spans = cs.spans[:base]
}

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
