package provenance

import (
	"slices"
	"sync"
)

// This file implements the flat evaluation arena: annotations are
// interned to dense integer ids, polynomial nodes live in
// structure-of-arrays slices compiled once per expression, truth
// valuations are bitsets over annotation ids, and evaluation is an
// iterative loop over node spans instead of recursive interface
// dispatch. Nodes are laid out in post-order (children strictly before
// parents), so one forward pass over the node arrays evaluates the
// whole expression with no recursion and no stamp bookkeeping.
//
// The Expr interface remains the construction/IO surface; CompileArena
// is the one-way bridge into the arena. The Plan/Probe layer (plan.go)
// and the scoring engines (internal/distance) run entirely on top of
// this representation.

type nodeKind uint8

const (
	nodeVar nodeKind = iota
	nodeConst
	nodeSum
	nodeProd
	nodeCmp
)

// Interner assigns dense int32 ids to annotations. Ids are allocated in
// first-intern order and never reused. The zero value is not usable;
// call NewInterner.
type Interner struct {
	ids  map[Annotation]int32
	anns []Annotation
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[Annotation]int32)}
}

// NewInternerSize returns an empty interner pre-sized for n annotations,
// avoiding incremental map growth when the caller knows the annotation
// count up front.
func NewInternerSize(n int) *Interner {
	if n < 0 {
		n = 0
	}
	return &Interner{
		ids:  make(map[Annotation]int32, n),
		anns: make([]Annotation, 0, n),
	}
}

// Intern returns a's id, allocating the next dense id on first sight.
func (in *Interner) Intern(a Annotation) int32 {
	if id, ok := in.ids[a]; ok {
		return id
	}
	id := int32(len(in.anns))
	in.ids[a] = id
	in.anns = append(in.anns, a)
	return id
}

// ID returns a's id and whether a has been interned.
func (in *Interner) ID(a Annotation) (int32, bool) {
	id, ok := in.ids[a]
	return id, ok
}

// Ann returns the annotation with the given id.
func (in *Interner) Ann(id int32) Annotation { return in.anns[id] }

// Len returns the number of interned annotations.
func (in *Interner) Len() int { return len(in.anns) }

// Annotations returns the interned annotations in id order. The slice
// is the interner's backing store; callers must not modify it.
func (in *Interner) Annotations() []Annotation { return in.anns }

// Bitset is a fixed-size bitset over dense ids (a probe's dirty nodes).
type Bitset []uint64

// NewBitset returns a bitset able to hold n bits.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Set sets bit i.
func (b Bitset) Set(i int32) { b[i>>6] |= 1 << uint(i&63) }

// Get reports bit i.
func (b Bitset) Get(i int32) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// arenaTensor is one tensor of the compiled expression: the root node of
// its polynomial (the last node of the tensor's contiguous span), the
// tensor value, and the dense slot of its group coordinate.
type arenaTensor struct {
	root  int32
	value float64
	slot  int32 // index into Arena.groupKeys
}

// Arena is the columnar compiled form of one aggregated expression.
// Node fields are parallel slices indexed by node id; kids are flat with
// per-node [kidOff[id], kidOff[id+1]) spans. Node ids are a global
// post-order: every child id is smaller than its parent's, so a single
// forward pass over the arrays evaluates every node bottom-up. The
// arena is read-only after CompileArena; all mutable evaluation state
// lives in BlockScratch.
type Arena struct {
	in *Interner

	kind   []nodeKind
	ann    []int32 // nodeVar: annotation id, else -1
	constN []int32 // nodeConst
	value  []float64
	bound  []float64
	op     []CmpOp
	kidOff []int32 // len(nodes)+1 offsets into kids
	kids   []int32
	parent []int32 // -1 for tensor roots

	tensors []arenaTensor
	// groupKeys are the distinct tensor groups in sorted order: the
	// coordinate slots of the dense rows EvalRows writes. It is
	// copy-on-write: a patch that adds or removes a group installs a
	// fresh slice, so a caller (a carried probe's slots, a merge patch
	// comparing old and new) may keep the one Slots returned across
	// patches.
	groupKeys []Annotation

	agg Aggregator
	bad bool

	// negConst records whether any compiled constant is negative. The
	// word-level nonzero propagation of EvalBlock assumes sums of
	// nonzero naturals stay nonzero, which negative constants break, so
	// such arenas report Blockable() == false and the scorer refuses
	// them.
	negConst bool

	// Numeric cone of EvalBlock's per-lane sweep: the Sum/Prod nodes
	// whose exact natural value (not just its zeroness) is consumed by a
	// tensor fold or by a cone parent. coneSlot maps a node id to its
	// dense row in the block scratch's numeric slab (-1 outside the
	// cone); coneNodes lists the cone ascending (children before
	// parents). extendCone extends it over appended spans; a merge keeps
	// the nodes of the spans it drops in the cone, as garbage.
	coneSlot  []int32
	coneNodes []int32

	// deadNodes counts nodes no longer reachable from any tensor after
	// in-place ApplyMerge patches; the spans stay allocated (and are
	// still swept by EvalBlock) until the garbage fraction makes
	// the caller recompile.
	deadNodes int

	blockPool sync.Pool // *BlockScratch
}

// CompileArena compiles g into an arena. It returns nil when g is nil or
// a polynomial contains an unknown node type or a constant outside
// int32; such an expression cannot be scored.
func CompileArena(g *Agg) *Arena {
	if g == nil {
		return nil
	}
	a := &Arena{
		in:      NewInternerSize(len(g.Tensors)),
		kidOff:  []int32{0},
		tensors: make([]arenaTensor, len(g.Tensors), len(g.Tensors)+len(g.Tensors)/4), // room for appends
		agg:     g.Agg,
	}
	groups := make([]Annotation, len(g.Tensors))
	for i := range g.Tensors {
		t := &g.Tensors[i]
		a.tensors[i] = arenaTensor{root: a.compile(t.Prov), value: t.Value}
		groups[i] = t.Group
		if t.Group != "" {
			a.in.Intern(t.Group)
		}
	}
	if a.bad {
		return nil
	}
	a.setSlots(groups)
	a.extendCone()
	return a
}

// setSlots sorts the distinct groups of the tensors (groups[i] is tensor
// i's) into a fresh groupKeys and points every tensor at its slot.
func (a *Arena) setSlots(groups []Annotation) {
	first := make(map[Annotation]int32, 8) // group → its first-appearance rank
	var keys []Annotation
	for i, g := range groups {
		r, ok := first[g]
		if !ok {
			r = int32(len(keys))
			first[g] = r
			keys = append(keys, g)
		}
		a.tensors[i].slot = r
	}
	slices.Sort(keys)
	rank := make([]int32, len(keys))
	for slot, g := range keys {
		rank[first[g]] = int32(slot)
	}
	for i := range a.tensors {
		a.tensors[i].slot = rank[a.tensors[i].slot]
	}
	a.groupKeys = keys
}

// moveSlots removes the groups gone from the slots and inserts the
// groups came, each by binary search, into a fresh groupKeys (the slots
// are copy-on-write), and returns where each old slot moved (-1 for a
// removed one), or nil when neither lists a group.
func (a *Arena) moveSlots(gone, came []Annotation) []int32 {
	if len(gone)+len(came) == 0 {
		return nil
	}
	old := a.groupKeys
	keys := make([]Annotation, 0, len(old)-len(gone)+len(came))
	for _, g := range old {
		if !slices.Contains(gone, g) {
			keys = append(keys, g)
		}
	}
	for _, g := range came {
		at, _ := slices.BinarySearch(keys, g)
		keys = slices.Insert(keys, at, g)
	}
	remap := make([]int32, len(old))
	for s, g := range old {
		remap[s] = -1
		if ns, ok := slices.BinarySearch(keys, g); ok {
			remap[s] = int32(ns)
		}
	}
	a.groupKeys = keys
	return remap
}

// Slots returns the arena's coordinate slots, the distinct tensor groups
// in sorted order: slot i of a dense row holds group Slots()[i]. The
// slice must not be modified.
func (a *Arena) Slots() []Annotation { return a.groupKeys }

// Blockable reports whether the arena is sound for the word-level
// valuation-blocked kernel (EvalBlock): every compiled constant is
// non-negative, so a Sum of nonzero naturals is itself nonzero and the
// per-word nonzero masks of the guard sweep are exact.
func (a *Arena) Blockable() bool { return !a.bad && !a.negConst }

// extendCone extends the numeric cone over the nodes compiled since it
// was last extended (all of them, for a fresh arena): the Sum/Prod nodes
// whose natural value feeds a tensor fold (SUM/COUNT scale by it) or a
// cone parent, so the blocked sweep must materialize their per-lane
// values. Everything else is fully determined by the word-level nonzero
// masks: Var/Cmp values are their 0/1 mask bit, Const values are
// compile-time constants, and a Sum/Prod outside the cone is only ever
// consumed in zero-testing contexts (a Cmp guard or a MAX/MIN fold).
// MAX/MIN aggregations scale idempotently, so their cone is empty. A
// span's nodes reach only its own, so the new nodes' cone is seeded by
// the new roots (the nodes without a parent) and leaves the older
// nodes' alone.
func (a *Arena) extendCone() {
	from, n := len(a.coneSlot), len(a.kind)
	if cap(a.coneSlot) < n {
		// Room for a quarter more nodes, as appends will compile.
		a.coneSlot = append(make([]int32, 0, n+n/4), a.coneSlot...)
	}
	for len(a.coneSlot) < n {
		a.coneSlot = append(a.coneSlot, -1)
	}
	if a.agg.Kind != AggSum && a.agg.Kind != AggCount {
		return
	}
	const marked = -2
	arith := func(id int32) bool { return a.kind[id] == nodeSum || a.kind[id] == nodeProd }
	for i := n - 1; i >= from; i-- {
		if a.coneSlot[i] != marked && (a.parent[i] != -1 || !arith(int32(i))) {
			continue
		}
		a.coneSlot[i] = marked
		for _, k := range a.kids[a.kidOff[i]:a.kidOff[i+1]] {
			if arith(k) {
				a.coneSlot[k] = marked
			}
		}
	}
	for i := from; i < n; i++ {
		if a.coneSlot[i] == marked {
			a.coneSlot[i] = int32(len(a.coneNodes))
			a.coneNodes = append(a.coneNodes, int32(i))
		}
	}
}

// compile appends e's nodes in post-order and returns the root id.
func (a *Arena) compile(e Expr) int32 {
	switch n := e.(type) {
	case Var:
		return a.push(nodeVar, a.in.Intern(n.Ann), 0, nil, 0, 0, 0)
	case Const:
		if int(int32(n.N)) != n.N {
			a.bad = true // the node table holds int32 constants
		}
		return a.push(nodeConst, -1, int32(n.N), nil, 0, 0, 0)
	case Sum:
		kids := make([]int32, len(n.Terms))
		for i, t := range n.Terms {
			kids[i] = a.compile(t)
		}
		return a.push(nodeSum, -1, 0, kids, 0, 0, 0)
	case Prod:
		kids := make([]int32, len(n.Factors))
		for i, f := range n.Factors {
			kids[i] = a.compile(f)
		}
		return a.push(nodeProd, -1, 0, kids, 0, 0, 0)
	case Cmp:
		kids := []int32{a.compile(n.Inner)}
		return a.push(nodeCmp, -1, 0, kids, n.Value, n.Bound, n.Op)
	default:
		a.bad = true
		return a.push(nodeConst, -1, 0, nil, 0, 0, 0)
	}
}

// push appends one node after its children, keeping the post-order
// invariant (kids already exist, so every kid id < the new id).
func (a *Arena) push(kind nodeKind, annID, constN int32, kids []int32, value, bound float64, op CmpOp) int32 {
	if kind == nodeConst && constN < 0 {
		a.negConst = true
	}
	id := int32(len(a.kind))
	a.kind = append(a.kind, kind)
	a.ann = append(a.ann, annID)
	a.constN = append(a.constN, constN)
	a.value = append(a.value, value)
	a.bound = append(a.bound, bound)
	a.op = append(a.op, op)
	a.kids = append(a.kids, kids...)
	a.kidOff = append(a.kidOff, int32(len(a.kids)))
	a.parent = append(a.parent, -1)
	for _, k := range kids {
		a.parent[k] = id
	}
	return id
}

// NumNodes returns the number of compiled nodes.
func (a *Arena) NumNodes() int { return len(a.kind) }

// NumAnns returns the number of interned annotations (polynomial
// variables plus non-empty group coordinates).
func (a *Arena) NumAnns() int { return a.in.Len() }

// Annotations returns the interned annotations in id order; the backing
// slice must not be modified.
func (a *Arena) Annotations() []Annotation { return a.in.Annotations() }

// AnnID returns the dense id of ann and whether it occurs in the
// expression (as a variable or group coordinate).
func (a *Arena) AnnID(ann Annotation) (int32, bool) { return a.in.ID(ann) }

// fit re-slices a reused buffer to exactly n entries, allocating only
// when it is too small.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Retarget patches a committed merge into the live arena in place
// instead of recompiling: the member Var occurrences varNodes lists for
// memberIDs (the plan's rows of live Var nodes) are retargeted to
// newAnn's dense id, interned here. Node ids stay stable, so
// node-indexed state — plan indexes, scratch tables, dirty spans —
// survives the step. Garbage spans keep their member ids: they are
// still swept by EvalBlock (reading well-defined truths) but never
// folded.
func (a *Arena) Retarget(memberIDs []int32, newAnn Annotation, varNodes [][]int32) {
	newID := a.in.Intern(newAnn)
	for _, m := range memberIDs {
		for _, id := range varNodes[m] {
			a.ann[id] = newID
		}
	}
}

// Appendable reports whether e consists solely of nodes the arena can
// compile (Var/Const/Sum/Prod/Cmp, constants within int32). AppendSpan
// callers must check it first: compile marks the whole arena bad on
// anything else, which would poison the live expression.
func (a *Arena) Appendable(e Expr) bool {
	switch n := e.(type) {
	case Var:
		return true
	case Const:
		return int(int32(n.N)) == n.N
	case Sum:
		for _, t := range n.Terms {
			if !a.Appendable(t) {
				return false
			}
		}
		return true
	case Prod:
		for _, f := range n.Factors {
			if !a.Appendable(f) {
				return false
			}
		}
		return true
	case Cmp:
		return a.Appendable(n.Inner)
	default:
		return false
	}
}

// AppendSpan compiles e onto the live arena as a new contiguous span
// [lo, root] after every existing node. Post-order is preserved (the new
// span's children all precede its root and no existing node gains a
// child or parent), existing node ids stay stable, and new annotations
// intern onto the append-only dense id space — but truth bitsets created
// before the append are too small for the new ids, so callers must
// rebuild cached truths (and re-fit pooled scratches, which
// GetBlockScratch does) after patching. The caller is responsible for
// installing the new tensor (Plan.ApplyAppend does); until then the
// span is unreferenced garbage, which a failed patch simply leaves
// behind for the next recompile to drop.
func (a *Arena) AppendSpan(e Expr) (lo, root int32) {
	lo = int32(len(a.kind))
	root = a.compile(e)
	return lo, root
}

// DeadNodes returns the number of garbage nodes accumulated by in-place
// ApplyMerge patches.
func (a *Arena) DeadNodes() int { return a.deadNodes }
