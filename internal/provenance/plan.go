package provenance

import (
	"bytes"
	"cmp"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// This file implements the incremental candidate-evaluation engine: a
// Plan compiles an aggregated expression once into the flat arena
// (arena.go) with annotation→node and annotation→tensor dependency
// indexes, one ascending row per annotation, which every committed
// merge or ingest batch then patches in place (ApplyMerge, ApplyAppend),
// and a Probe
// compiles the structural delta of one candidate merge (members ↦ fresh
// annotation) without materializing the candidate expression: the
// tensors the merge rewrites, each identified by its candidate Simplify
// key (rewrite.go).
//
// Soundness rests on the homomorphism identity Eval(h(p), v') =
// Eval(p, v'∘h): a candidate h renames only the probed members, so its
// evaluation equals the shared expression's evaluation with the
// members' truths substituted by the merged group's φ-truth.
// Arena.EvalBlock fills per-node tables for a block of valuations in
// one forward pass; a Probe precomputes the ascending list of nodes on a
// path to a member occurrence and re-evaluates only those, reading every
// clean sibling from the tables (Probe.CandEvalBlock).

// annIndex maps dense annotation ids to ascending int32 lists (node ids
// or tensor ids), one row per id. NewPlan builds the rows over one
// backing array, each capped at its own region, so a patch that grows
// a row past its region moves that row alone. Each region leaves room
// for the row to grow by a quarter, and the index for 8 more ids, since
// patches add entries and intern annotations.
type annIndex [][]int32

// span returns the ids indexed under annotation id.
func (ix annIndex) span(id int32) []int32 {
	if int(id) < len(ix) {
		return ix[id]
	}
	return nil
}

// buildIndex builds the index over n ids of the (id, v) entries each
// adds, which it must add in ascending v order per id. each runs twice:
// once to count the entries and once to place them.
func buildIndex(n int, each func(add func(id, v int32))) annIndex {
	off := make([]int32, n+1)
	each(func(id, _ int32) { off[id+1]++ })
	for i := 0; i < n; i++ {
		off[i+1] += off[i] + off[i+1]/4 + 1
	}
	flat := make([]int32, off[n])
	ix := make(annIndex, n, n+8)
	for id := range ix {
		ix[id] = flat[off[id]:off[id]:off[id+1]]
	}
	each(func(id, v int32) { ix[id] = append(ix[id], v) })
	return ix
}

// grow extends ix with empty rows up to n ids.
func (ix annIndex) grow(n int) annIndex {
	for len(ix) < n {
		ix = append(ix, nil)
	}
	return ix
}

// insertID inserts v into the ascending row. A full row moves to one
// with room for half its length more, and at least 4, so a row a patch
// fills one id at a time (a new annotation's) moves rarely.
func insertID(row []int32, v int32) []int32 {
	if len(row) == cap(row) {
		row = append(make([]int32, 0, len(row)+len(row)/2+4), row...)
	}
	i := len(row)
	if i > 0 && row[i-1] > v {
		i, _ = slices.BinarySearch(row, v)
	}
	row = row[:len(row)+1]
	copy(row[i+1:], row[i:])
	row[i] = v
	return row
}

// deleteIDs deletes the ids in [lo, hi] from the ascending row.
func deleteIDs(row []int32, lo, hi int32) []int32 {
	i, _ := slices.BinarySearch(row, lo)
	j := i
	for j < len(row) && row[j] <= hi {
		j++
	}
	return append(row[:i], row[j:]...)
}

// renumber maps every id of the ascending row from on through remap,
// in place; remap must be monotone over the row's ids.
func renumber(row []int32, remap []int32, from int32) {
	for i := len(row) - 1; i >= 0 && row[i] >= from; i-- {
		row[i] = remap[row[i]]
	}
}

// magnitude is what a SUM or COUNT plan's exact flag derives from: the
// exact sum of |v| over the tensor values that are integers below 2^53
// in magnitude, as a 128-bit integer (hi, lo), and the count of the
// other values (wide). Every fold is exact when no value is wide and
// the sum is below 2^53: integers below 2^53 then add exactly in any
// order. A patch adds and subtracts the values it changes.
type magnitude struct {
	hi, lo uint64
	wide   int
}

// add adds v to the sum (sign 1) or subtracts it (sign -1).
func (m *magnitude) add(v float64, sign int) {
	a := math.Abs(v)
	if v != math.Trunc(v) || a >= 1<<53 {
		m.wide += sign
		return
	}
	var c uint64
	if sign > 0 {
		m.lo, c = bits.Add64(m.lo, uint64(a), 0)
		m.hi += c
	} else {
		m.lo, c = bits.Sub64(m.lo, uint64(a), 0)
		m.hi -= c
	}
}

// exact reports whether the sum is below 2^53 with no wide value.
func (m *magnitude) exact() bool { return m.wide == 0 && m.hi == 0 && m.lo < 1<<53 }

// planTensor mirrors one tensor of the planned expression with its
// compiled polynomial root and the Simplify merge key. lo is the first
// node id of the tensor's contiguous arena span [lo, root]; a patch
// adds and drops the Var nodes of whole spans in the varNodes index.
type planTensor struct {
	root  int32
	lo    int32
	prov  Expr
	value float64
	count int
	group Annotation
	gid   int32  // group's dense id, -1 for the scalar ("") coordinate, gidUnknown until install or reindex resolves it
	slot  int32  // group's slot among the arena's (Arena.Slots), resolved with gid
	key   string // tensorKey(prov, group), Simplify's merge key
	size  int    // prov.Size()
	// anns are the ascending dense ids of the annotations prov mentions,
	// taken from the span when the tensor is compiled, rewritten or
	// appended.
	anns []int32
}

// gidUnknown is the gid of a tensor new to the plan, which install (or
// reindex) resolves once: dense ids never change, so a tensor keeps its
// gid.
const gidUnknown int32 = -2

// Plan is a compiled evaluation structure over one aggregated expression
// (*Agg), built once per summarization step and shared read-only by every
// candidate probe of the step's cohort. All mutable evaluation state
// lives in BlockScratch, so one Plan serves concurrent evaluators.
type Plan struct {
	agg     *Agg
	ar      *Arena
	tensors []planTensor

	// The dependency indexes, kept over the live spans and tensors only
	// (garbage spans left behind by ApplyMerge never enter a dirty set).
	// reindex builds them, and install patches the rows a patch touches.
	varNodes      annIndex // ann id → ascending live Var node ids
	annTensors    annIndex // ann id → ascending tensor ids whose polynomial mentions it
	groupTensors  annIndex // ann id → ascending tensor ids with that group
	scalarTensors []int32  // ascending tensor ids of the scalar ("") coordinate

	size int

	// exact reports that every fold of the plan is exact, whatever the
	// order or grouping of its contributions: MAX/MIN always are, and
	// SUM/COUNT are when every tensor value is an integer and their
	// magnitudes sum below 2^53 (a bound on the values, not on the
	// polynomial multiplicities that scale them). mag holds what it
	// derives from; reindex and install maintain both.
	exact bool
	mag   magnitude

	// probeable reports that the plan's tensors are exactly Simplify's:
	// every live span is in SimplifyExpr normal form (see normalNode)
	// with its Sum and Prod children in key order, and tensor keys
	// ascend strictly. Probe's id-level rewrite is exact for such a
	// plan, and the patches build the next expression from it. reindex
	// derives it; install checks what a patch adds. The child order is
	// checked once, by NewPlan, since a patch adds only SimplifyExpr
	// output, and normal form survives the renaming of a merge.
	probeable bool
	// ordered records that NewPlan found every Sum and Prod listing its
	// children in key order.
	ordered bool

	// gen counts the in-place patches (ApplyMerge, ApplyAppend): a probe
	// is valid for the generation it was built at or carried to.
	gen uint64
}

// probeScratch holds the buffers Probe and compileEval reuse across
// probes of every plan: the rewritten keys a probe renders before it
// keeps a copy, and the rewrittens of the group being re-folded.
type probeScratch struct {
	order []int32
	key   []byte
}

var probeScratchPool = sync.Pool{New: func() any { return &probeScratch{} }}

// NewPlan compiles e into a Plan. It returns nil when e cannot be planned
// — it is not an aggregated expression (*Agg), or a polynomial contains
// an unknown node type or a constant outside int32 (CompileArena).
func NewPlan(e Expression) *Plan {
	g, ok := e.(*Agg)
	if !ok || g == nil {
		return nil
	}
	ar := CompileArena(g)
	if ar == nil {
		return nil
	}
	p := &Plan{
		agg:     g,
		ar:      ar,
		tensors: make([]planTensor, len(g.Tensors)),
		ordered: true,
	}
	vars := 0
	for _, k := range ar.kind {
		if k == nodeVar {
			vars++
		}
	}
	anns := make([]int32, 0, vars)
	var key []byte
	for i, t := range g.Tensors {
		lo := int32(0)
		if i > 0 {
			lo = ar.tensors[i-1].root + 1
		}
		root := ar.tensors[i].root
		key = ar.appendRenamedKey(key[:0], root, nil, "", &p.ordered)
		key = appendName(append(key, '|'), t.Group)
		start := len(anns)
		anns = ar.appendSpanAnns(anns, lo, root)
		p.tensors[i] = planTensor{
			root: root, lo: lo, prov: t.Prov, value: t.Value, count: t.Count, group: t.Group,
			gid: gidUnknown, slot: ar.tensors[i].slot, key: string(key), size: t.Prov.Size(), anns: anns[start:len(anns):len(anns)],
		}
		p.size += p.tensors[i].size
	}
	p.reindex()
	return p
}

// appendSpanAnns appends the ascending dense ids of the annotations the
// Var nodes of span [lo, root] hold.
func (a *Arena) appendSpanAnns(dst []int32, lo, root int32) []int32 {
	start := len(dst)
	for id := lo; id <= root; id++ {
		if a.kind[id] == nodeVar {
			dst = append(dst, a.ann[id])
		}
	}
	slices.Sort(dst[start:])
	return dst[:start+len(slices.Compact(dst[start:]))]
}

// reindex builds the plan's dependency indexes from its tensor list in
// full: the annotation→Var-node index from the live tensor spans and
// the annotation→tensor and group→tensor indexes from the tensors'
// annotation and group ids. Per-annotation lists come out ascending,
// which Probe relies on. It also derives probeable and exact. NewPlan
// runs it once; every in-place patch updates the same state from the
// patch instead (install), and the tests hold that to reindex.
func (p *Plan) reindex() {
	ar := p.ar
	numAnns := ar.NumAnns()
	p.probeable = p.ordered
	live := make([]bool, ar.NumNodes())
	p.scalarTensors = nil
	p.mag = magnitude{}
	for i := range p.tensors {
		t := &p.tensors[i]
		for id := t.lo; id <= t.root; id++ {
			live[id] = true
		}
		if i > 0 && p.tensors[i-1].key >= t.key {
			p.probeable = false
		}
		if ar.kind[t.root] == nodeConst && ar.constN[t.root] == 0 {
			p.probeable = false
		}
		t.gid = -1
		if t.group != "" {
			t.gid, _ = ar.AnnID(t.group)
		} else {
			p.scalarTensors = append(p.scalarTensors, int32(i))
		}
		p.mag.add(t.value, 1)
	}
	for id, l := range live {
		if l && ar.kind[id] != nodeVar && !ar.normalNode(int32(id)) {
			p.probeable = false
			break
		}
	}
	p.varNodes = buildIndex(numAnns, func(add func(id, v int32)) {
		for id, l := range live {
			if l && ar.kind[id] == nodeVar {
				add(ar.ann[id], int32(id))
			}
		}
	})
	p.annTensors = buildIndex(numAnns, func(add func(id, v int32)) {
		for i := range p.tensors {
			for _, a := range p.tensors[i].anns {
				add(a, int32(i))
			}
		}
	})
	p.groupTensors = buildIndex(numAnns, func(add func(id, v int32)) {
		for i := range p.tensors {
			if gid := p.tensors[i].gid; gid >= 0 {
				add(gid, int32(i))
			}
		}
	})
	p.exact = !p.numeric() || p.mag.exact()
}

// numeric reports whether the plan folds by SUM or COUNT, whose
// exactness depends on the tensor values.
func (p *Plan) numeric() bool {
	k := p.agg.Agg.Kind
	return k == AggSum || k == AggCount
}

// Probeable reports whether Probe's id-level rewrite is exact for the
// plan (see Plan.probeable); Probe refuses every merge of a plan that is
// not.
func (p *Plan) Probeable() bool { return p.probeable }

// Exact reports whether the plan's folds give the same bits in any
// contribution order or grouping (see Plan.exact). When it is false, a
// probe whose candidate folds a coordinate differently from the base
// (Probe.Reorders) can differ from the base in its last bits even where
// no truth changes.
func (p *Plan) Exact() bool { return p.exact }

// Expr returns the expression the plan was compiled from.
func (p *Plan) Expr() *Agg { return p.agg }

// Arena returns the plan's compiled arena.
func (p *Plan) Arena() *Arena { return p.ar }

// Annotations returns the interned annotations in dense-id order; the
// backing slice must not be modified.
func (p *Plan) Annotations() []Annotation { return p.ar.Annotations() }

// AnnID returns the dense id of ann and whether it occurs in the
// expression (as a polynomial variable or a group coordinate).
func (p *Plan) AnnID(a Annotation) (int32, bool) { return p.ar.AnnID(a) }

// ApplyMerge commits the merge of members into newAnn on the live plan
// and returns the next expression, cur.Apply(MergeMapping(newAnn,
// members...)) tensor for tensor, built from the patch itself: the
// tensors the merge leaves alone keep their Tensor and key, and only
// the rewritten ones, which Probe's id-level rewrite already keyed, are
// simplified, then the two key-ascending streams merge in key order.
// The arena is patched in place instead of recompiled: the member Var
// nodes the plan indexes are retargeted to newAnn's dense id, and
// install moves the rewritten tensors' index entries, the members' Var
// rows into newAnn's, and the slots of member groups into newAnn's, at
// the cost of the tensors the merge touched plus one renumbering pass.
// Node ids stay stable, so pooled scratches and the arena's compiled
// structure survive the step; the spans of the tensors the merge
// collapsed become garbage. The patched plan is observationally
// identical to NewPlan(next) up to garbage spans, and the returned
// MergePatch carries the step's probes onto it.
//
// When the merge Probe refuses (the plan is not probeable, newAnn
// already occurs without being a member, or a reserved annotation is
// involved) it returns nil, nil and the caller must Apply the merge
// itself. When the patch would leave more than half of the arena
// garbage, it returns next with a nil patch and leaves the plan as it
// was: the caller recompiles from next.
func (p *Plan) ApplyMerge(members []Annotation, newAnn Annotation) (*Agg, *MergePatch) {
	return p.applyProbe(p.Probe(members, newAnn))
}

// ApplyProbe is ApplyMerge of the merge pr probes, with its members
// mapped to newAnn instead of pr.NewAnn: pr, a probe of the plan's
// current state (Probe.On) such as the winner of a cohort scored under
// a scratch summary annotation, lends its affected tensors and
// rewritten classes. Those do not depend on the summary annotation's
// name, since any name the plan accepts is fresh or a member, so only
// the rewritten tensors' keys are rendered again. It refuses, returning
// nil, nil, whatever Probe(pr.Members, newAnn) would refuse, and a
// probe of another plan state.
func (p *Plan) ApplyProbe(pr *Probe, newAnn Annotation) (*Agg, *MergePatch) {
	if !pr.On(p) || p.refuses(pr.Members, newAnn) {
		return nil, nil
	}
	if newAnn == pr.NewAnn {
		return p.applyProbe(pr)
	}
	q := &Probe{
		Members: pr.Members, NewAnn: newAnn, Size: pr.Size, RenamesGroup: pr.RenamesGroup,
		plan: p, gen: p.gen, memberIDs: pr.memberIDs, affected: pr.affected,
		rews: slices.Clone(pr.rews),
	}
	fresh := int32(p.ar.NumAnns())
	var keys []byte
	for i := range q.rews {
		r := &q.rews[i]
		if r.gid == fresh {
			r.group = newAnn
		}
		lo := len(keys)
		keys = p.ar.appendRenamedKey(keys, r.root, q.memberIDs, newAnn, nil)
		keys = appendName(append(keys, '|'), r.group)
		r.key = [2]int32{int32(lo), int32(len(keys))}
	}
	q.rewKeys = keys
	return p.applyProbe(q)
}

// applyProbe is ApplyMerge of the merge pr probes on the plan's current
// state; a nil pr refuses.
func (p *Plan) applyProbe(pr *Probe) (*Agg, *MergePatch) {
	if pr == nil {
		return nil, nil
	}
	newAnn := pr.NewAnn
	rews := pr.rews
	order := make([]int32, len(rews))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(i, j int32) int { return bytes.Compare(pr.rewKey(i), pr.rewKey(j)) })

	// Merge the survivor and rewritten streams in key order; remap
	// records where each survivor lands. A rewritten tensor never equals
	// a survivor: it mentions newAnn or lands in newAnn's group.
	n := len(p.tensors) - len(pr.affected) + len(rews)
	next := &Agg{Agg: p.agg.Agg, Tensors: make([]Tensor, 0, n)}
	newTensors := make([]planTensor, 0, n)
	remap := make([]int32, len(p.tensors))
	rename := MergeMapping(newAnn, pr.Members...).Rename
	liveNodes := 0
	emit := func(t planTensor) {
		next.Tensors = append(next.Tensors, Tensor{Prov: t.prov, Value: t.value, Count: t.count, Group: t.group})
		newTensors = append(newTensors, t)
		liveNodes += int(t.root - t.lo + 1)
	}
	rewritten := func(i int32) planTensor {
		r := &rews[i]
		return planTensor{
			root: r.root, lo: r.lo, prov: SimplifyExpr(p.tensors[r.tid].prov.MapAnn(rename)),
			value: r.value, count: r.count, group: r.group, gid: gidUnknown, key: string(pr.rewKey(i)), size: r.size,
		}
	}
	var rewAt []int32 // positions of the rewritten tensors in newTensors
	aff, ri := pr.affected, 0
	for tid := range p.tensors {
		if len(aff) > 0 && aff[0] == int32(tid) {
			aff = aff[1:]
			remap[tid] = -1
			continue
		}
		t := &p.tensors[tid]
		for ; ri < len(order) && string(pr.rewKey(order[ri])) < t.key; ri++ {
			rewAt = append(rewAt, int32(len(newTensors)))
			emit(rewritten(order[ri]))
		}
		remap[tid] = int32(len(newTensors))
		emit(*t)
	}
	for ; ri < len(order); ri++ {
		rewAt = append(rewAt, int32(len(newTensors)))
		emit(rewritten(order[ri]))
	}
	if dead := p.ar.NumNodes() - liveNodes; dead*2 > p.ar.NumNodes() {
		return next, nil
	}

	m := &MergePatch{
		plan: p, members: pr.Members, newAnn: newAnn, remap: remap,
		sizeDelta: pr.Size - p.size, oldFresh: int32(p.ar.NumAnns()),
	}
	for _, tid := range pr.affected {
		m.touched = append(m.touched, p.tensors[tid].gid)
	}
	slices.Sort(m.touched)
	m.touched = slices.Compact(m.touched)
	oldSlots := p.ar.groupKeys

	p.ar.Retarget(pr.memberIDs, newAnn, p.varNodes)
	for _, i := range rewAt {
		t := &newTensors[i]
		t.anns = p.ar.appendSpanAnns(nil, t.lo, t.root)
	}
	// order is spent: it takes the representatives, which ascend since
	// affected does and a class's is its first tensor.
	reused := order
	for i := range rews {
		reused[i] = rews[i].tid
	}
	newID, _ := p.ar.AnnID(newAnn)
	p.install(next, newTensors, liveNodes, planDelta{
		remap: remap, dropped: pr.affected, added: rewAt,
		reused: reused, memberIDs: pr.memberIDs, newID: newID,
	})
	m.gen, m.newFresh = p.gen, int32(p.ar.NumAnns())
	m.slotsChanged = !slices.Equal(oldSlots, p.ar.groupKeys)
	return next, m
}

// ApplyAppend folds an ingest batch into the live plan and returns the
// next expression, NewAgg over the current tensors plus added tensor for
// tensor, built from the patch itself: each added polynomial is
// simplified and keyed, one whose key an existing tensor holds folds
// into it (combining values and adding counts in Simplify's
// existing-then-added order), and the genuinely new tensors, folded
// among themselves the same way, merge into the key-ascending current
// ones in key order. The new tensors compile as fresh arena spans after
// every existing node, so node ids stay stable and pooled scratches
// re-fit, and install adds their Var nodes at the end of their
// annotations' rows, their ids to their annotations' and groups' rows,
// their groups to the slots and their spans to the numeric cone, at the
// cost of the batch plus one renumbering pass. patched reports that the
// plan now holds next.
//
// It returns nil, false when the plan is not probeable, so its tensors
// are not Simplify's and the caller must build next itself, or when
// added is empty. When an added polynomial does not compile
// (Arena.Appendable) or the arena would be more than half garbage, it
// returns next, false and leaves the plan as it was: the caller
// recompiles from next.
func (p *Plan) ApplyAppend(added []Tensor) (next *Agg, patched bool) {
	if !p.probeable || len(added) == 0 {
		return nil, false
	}
	// fold is the value and count a batch folds into a tensor: an
	// existing one (tid >= 0, starting from its own) or a new one (tid
	// -1, starting from its first occurrence, whose polynomial it keeps).
	type fold struct {
		prov  Expr
		value float64
		count int
		group Annotation
		key   string
		tid   int32
	}
	var folds []fold
	at := make(map[string]int, len(added))
	for i := range added {
		t := &added[i]
		prov := SimplifyExpr(t.Prov)
		if c, ok := prov.(Const); ok && c.N == 0 {
			continue
		}
		key := tensorKey(prov, t.Group)
		if j, ok := at[key]; ok {
			folds[j].value = p.agg.Agg.Combine(folds[j].value, t.Value)
			folds[j].count += t.Count
			continue
		}
		f := fold{prov: prov, value: t.Value, count: t.Count, group: t.Group, key: key, tid: -1}
		if tid, ok := slices.BinarySearchFunc(p.tensors, key, func(pt planTensor, k string) int { return strings.Compare(pt.key, k) }); ok {
			src := &p.tensors[tid]
			f = fold{value: p.agg.Agg.Combine(src.value, t.Value), count: src.count + t.Count, key: key, tid: int32(tid)}
		}
		at[key] = len(folds)
		folds = append(folds, f)
	}

	// Merge the new tensors into the current ones in key order, with the
	// folded values of the existing tensors the batch extends.
	var fresh, grown []int32 // indexes into folds: new tensors by key, existing ones by tensor id
	for j := range folds {
		if folds[j].tid < 0 {
			fresh = append(fresh, int32(j))
		} else {
			grown = append(grown, int32(j))
		}
	}
	slices.SortFunc(fresh, func(a, b int32) int { return strings.Compare(folds[a].key, folds[b].key) })
	slices.SortFunc(grown, func(a, b int32) int { return cmp.Compare(folds[a].tid, folds[b].tid) })
	n := len(p.tensors) + len(fresh)
	next = &Agg{Agg: p.agg.Agg, Tensors: make([]Tensor, 0, n)}
	newTensors := make([]planTensor, 0, n)
	d := planDelta{remap: make([]int32, len(p.tensors)), added: make([]int32, 0, len(fresh))}
	liveNodes := 0
	emit := func(t planTensor) {
		next.Tensors = append(next.Tensors, Tensor{Prov: t.prov, Value: t.value, Count: t.count, Group: t.group})
		newTensors = append(newTensors, t)
	}
	appendable := true
	emitFresh := func(j int32) {
		f := &folds[j]
		appendable = appendable && p.ar.Appendable(f.prov)
		d.added = append(d.added, int32(len(newTensors)))
		emit(planTensor{
			root: -1, lo: -1, prov: f.prov, value: f.value, count: f.count,
			group: f.group, gid: gidUnknown, key: f.key, size: f.prov.Size(),
		})
	}
	fi := 0
	for tid := range p.tensors {
		t := p.tensors[tid]
		for ; fi < len(fresh) && folds[fresh[fi]].key < t.key; fi++ {
			emitFresh(fresh[fi])
		}
		if len(grown) > 0 && folds[grown[0]].tid == int32(tid) {
			t.value, t.count = folds[grown[0]].value, folds[grown[0]].count
			grown = grown[1:]
			d.grown = append(d.grown, int32(tid))
		}
		liveNodes += int(t.root - t.lo + 1)
		d.remap[tid] = int32(len(newTensors))
		emit(t)
	}
	for ; fi < len(fresh); fi++ {
		emitFresh(fresh[fi])
	}
	// The garbage check counts the pre-append nodes: appended nodes are
	// all live, so the fraction only improves.
	if dead := p.ar.NumNodes() - liveNodes; !appendable || dead*2 > p.ar.NumNodes() {
		return next, false
	}

	for _, i := range d.added {
		t := &newTensors[i]
		t.lo, t.root = p.ar.AppendSpan(t.prov)
		t.anns = p.ar.appendSpanAnns(nil, t.lo, t.root)
		liveNodes += int(t.root - t.lo + 1)
	}
	p.install(next, newTensors, liveNodes, d)
	return next, true
}

// planDelta is what an in-place patch changed in the plan's tensor
// list, in the terms install updates the plan from.
type planDelta struct {
	// remap maps each old tensor id to its new one, -1 for a dropped
	// tensor; it is monotone over the kept tensors.
	remap []int32
	// dropped lists the ascending old ids of the tensors the patch
	// removed, and added the ascending new ids of the tensors it added:
	// their spans are live and their anns set, but their gid and slot
	// are unresolved. A merge drops the tensors it rewrites and adds
	// the rewritten ones, an append adds the new tensors.
	dropped, added []int32
	// grown lists the old ids of the kept tensors whose value changed.
	grown []int32
	// reused lists the ascending old ids of the dropped tensors whose
	// span an added tensor keeps (a merge's rewritten representatives).
	// Such a span's Var nodes stay in the rows of the annotations the
	// merge leaves alone; only the merge's memberIDs lose them, to newID,
	// the summary annotation's dense id (Arena.Retarget moved them).
	reused, memberIDs []int32
	newID             int32
}

// install makes next, compiled as the plan tensors ts, the plan's
// expression after an in-place patch (liveNodes of the arena's nodes
// back ts), and advances the generation. It updates the plan from the
// patch d alone: the index rows of the annotations and groups the
// dropped and added tensors mention (patchIndexes), the slots of the
// groups that appear or vanish (Arena.moveSlots), the cone over
// appended nodes, and the flags of the added tensors. Beyond that it
// makes one pass over ts, which refolds the arena's tensor table, and
// one over the index entries of the tensors that moved, which
// renumbers them in place.
func (p *Plan) install(next *Agg, ts []planTensor, liveNodes int, d planDelta) {
	ar := p.ar
	for _, i := range d.added {
		t := &ts[i]
		t.gid = -1
		if t.group != "" {
			t.gid = ar.in.Intern(t.group)
		}
	}
	n := ar.NumAnns()
	p.varNodes, p.annTensors, p.groupTensors = p.varNodes.grow(n), p.annTensors.grow(n), p.groupTensors.grow(n)

	// The groups the patch touches, and whether each had tensors before.
	type touched struct {
		gid int32
		had bool
	}
	groups := make([]touched, 0, len(d.dropped)+len(d.added))
	for _, tid := range d.dropped {
		groups = append(groups, touched{gid: p.tensors[tid].gid})
	}
	for _, i := range d.added {
		groups = append(groups, touched{gid: ts[i].gid})
	}
	slices.SortFunc(groups, func(a, b touched) int { return cmp.Compare(a.gid, b.gid) })
	groups = slices.CompactFunc(groups, func(a, b touched) bool { return a.gid == b.gid })
	for k := range groups {
		groups[k].had = len(p.tensorsOfGID(groups[k].gid)) > 0
	}

	p.patchIndexes(ts, d)

	var gone, came []Annotation
	for _, tg := range groups {
		if has := len(p.tensorsOfGID(tg.gid)) > 0; has != tg.had {
			g := Annotation("")
			if tg.gid >= 0 {
				g = ar.in.Ann(tg.gid)
			}
			if has {
				came = append(came, g)
			} else {
				gone = append(gone, g)
			}
		}
	}
	slotRemap := ar.moveSlots(gone, came)
	if cap(ar.tensors) < len(ts) {
		ar.tensors = make([]arenaTensor, len(ts), len(ts)+len(ts)/4)
	}
	ar.tensors = ar.tensors[:len(ts)]
	added := d.added
	for i := range ts {
		t := &ts[i]
		switch {
		case len(added) > 0 && added[0] == int32(i):
			added = added[1:]
			s, _ := slices.BinarySearch(ar.groupKeys, t.group)
			t.slot = int32(s)
		case slotRemap != nil:
			t.slot = slotRemap[t.slot]
		}
		ar.tensors[i] = arenaTensor{root: t.root, value: t.value, slot: t.slot}
	}
	ar.deadNodes = ar.NumNodes() - liveNodes
	ar.extendCone()

	if p.numeric() {
		p.exact = p.mag.exact()
	}
	p.agg, p.tensors = next, ts
	p.gen++
}

// patchIndexes moves the plan's indexes, size and value magnitudes from
// its tensors to ts through the patch d: the dropped tensors leave every
// row that lists them, in old ids, the kept ones move to their new ids,
// and the added ones join their rows in new ids. It checks the added
// tensors' spans and key neighbours for probeable.
func (p *Plan) patchIndexes(ts []planTensor, d planDelta) {
	ar, old := p.ar, p.tensors
	groupRow := func(gid int32) *[]int32 {
		if gid < 0 {
			return &p.scalarTensors
		}
		return &p.groupTensors[gid]
	}
	reused := d.reused
	for _, tid := range d.dropped {
		t := &old[tid]
		kept := len(reused) > 0 && reused[0] == tid
		if kept {
			reused = reused[1:]
		}
		for _, a := range t.anns {
			if !kept || slices.Contains(d.memberIDs, a) {
				p.varNodes[a] = deleteIDs(p.varNodes[a], t.lo, t.root)
			}
			p.annTensors[a] = deleteIDs(p.annTensors[a], tid, tid)
		}
		row := groupRow(t.gid)
		*row = deleteIDs(*row, tid, tid)
		p.size -= t.size
		p.mag.add(t.value, -1)
	}
	if from, ok := firstMoved(d); ok {
		for _, row := range p.annTensors {
			renumber(row, d.remap, from)
		}
		for _, row := range p.groupTensors {
			renumber(row, d.remap, from)
		}
		renumber(p.scalarTensors, d.remap, from)
	}
	for _, tid := range d.grown {
		p.mag.add(old[tid].value, -1)
		p.mag.add(ts[d.remap[tid]].value, 1)
	}
	for _, i := range d.added {
		t := &ts[i]
		// A merge adds only rewrittens, each on its representative's live
		// span: the span's retargeted Var nodes join newID's row, the
		// others never left theirs, and its nodes are in normal form
		// already.
		kept := len(d.reused) > 0
		for id := t.lo; id <= t.root; id++ {
			switch {
			case ar.kind[id] == nodeVar:
				if a := ar.ann[id]; !kept || a == d.newID {
					p.varNodes[a] = insertID(p.varNodes[a], id)
				}
			case !kept && !ar.normalNode(id):
				p.probeable = false
			}
		}
		for _, a := range t.anns {
			p.annTensors[a] = insertID(p.annTensors[a], i)
		}
		row := groupRow(t.gid)
		*row = insertID(*row, i)
		p.size += t.size
		p.mag.add(t.value, 1)
		if (i > 0 && ts[i-1].key >= t.key) || (int(i)+1 < len(ts) && t.key >= ts[i+1].key) ||
			(ar.kind[t.root] == nodeConst && ar.constN[t.root] == 0) {
			p.probeable = false
		}
	}
}

// firstMoved returns the first old tensor id a patch moves, if any: every
// tensor before the first dropped and the first added one keeps its id.
func firstMoved(d planDelta) (int32, bool) {
	from, ok := int32(math.MaxInt32), false
	if len(d.dropped) > 0 {
		from, ok = d.dropped[0], true
	}
	if len(d.added) > 0 {
		from, ok = min(from, d.added[0]), true
	}
	return from, ok
}

// AppendLiveAnnotations appends to dst the annotations the plan's
// expression mentions, as a polynomial variable or a group coordinate,
// in sorted order: Expr().Annotations() read off the indexes. A
// merged-away member stays interned but has no live node or tensor
// left.
func (p *Plan) AppendLiveAnnotations(dst []Annotation) []Annotation {
	start := len(dst)
	for id, a := range p.ar.Annotations() {
		if len(p.varNodes.span(int32(id))) > 0 || len(p.groupTensors.span(int32(id))) > 0 {
			dst = append(dst, a)
		}
	}
	slices.Sort(dst[start:])
	return dst
}

// Generation counts the in-place patches the plan has taken since
// NewPlan compiled it.
func (p *Plan) Generation() uint64 { return p.gen }

// tensorsOfGID returns the ascending tensor ids whose group has dense
// id gid (-1 for the scalar coordinate).
func (p *Plan) tensorsOfGID(gid int32) []int32 {
	if gid < 0 {
		return p.scalarTensors
	}
	return p.groupTensors.span(gid)
}

// foldEntry is one tensor of an affected coordinate's re-fold: either an
// unaffected tensor evaluated from the base table (sub == false) or a
// rewritten tensor evaluated with member substitution (sub == true).
// Entries are ordered by the candidate expression's tensor key, so the
// fold replays the exact combine order of the materialized candidate.
type foldEntry struct {
	value float64
	root  int32
	sub   bool
}

// groupFold is the re-fold program of one coordinate a probe touches:
// the group's tensors that the merge leaves alone (survivors) and the
// rewrittens that land in it. stale is set until compileFolds builds
// entries, and again after a carry whose merge changed the group's
// tensors, when the refold reuses the entries' room if they fit.
type groupFold struct {
	group Annotation
	gid   int32 // group's dense id (the plan's NumAnns for NewAnn, -1 for the scalar coordinate)
	slot  int32 // group's slot among the candidate's (Probe.Slots)
	// affected and rews count the probe's own affected tensors in the
	// group and the rewrittens landing in it; the survivors are the
	// group's other tensors.
	affected, rews int32
	// reorders reports that the entries list their tensors in another
	// order than the plan folds them.
	reorders bool
	stale    bool
	entries  []foldEntry
}

// Probe is the compiled structural delta of one candidate merge: mapping
// Members to the fresh annotation NewAnn over the plan's expression. Its
// eager pass (Plan.Probe) fixes the rewritten tensors and their keys;
// the lazily-built evaluation program is synchronized by compileEval,
// and MergePatch.Carry rebases the probe only between sweeps. It is
// read-only while it is evaluated and safe for concurrent evaluation
// with per-evaluator scratches.
type Probe struct {
	// Members are the merged (current) annotations; NewAnn the summary
	// annotation they map to.
	Members []Annotation
	NewAnn  Annotation
	// Size is the candidate expression's provenance size, equal to
	// expr.Apply(MergeMapping(NewAnn, Members...)).Size() without the
	// Apply.
	Size int
	// RenamesGroup reports whether the merge renames at least one vector
	// coordinate (some member is a group annotation of the expression).
	// Such candidates change the result's coordinate space, so they can
	// never reuse the base evaluation even when no truth changes.
	RenamesGroup bool

	plan *Plan
	gen  uint64 // the plan generation the probe is valid for

	// Evaluation-program state, built lazily on first CandEvalBlock by
	// compileEval: skip-dominated delta sweeps discard
	// most probes after the word-level truth comparison, so only probes
	// that are actually evaluated pay for the dirty closure and re-fold
	// plans. The compile inputs (memberIDs, affected, rews, rewKeys) are
	// retained from Probe's eager pass. A probe carried across a merge
	// (MergePatch.Carry) keeps its dirty closure and the re-fold programs
	// of the coordinates the merge left alone; foldsOK and slotsOK drop
	// when the merge touched one of its coordinates or changed the plan's
	// slots, and the next compileEval rebuilds what dropped. compiled is
	// set once the program is complete; compileMu serializes the
	// evaluators that find it unset. Every slice below is refilled in
	// place when Reprobe recycles the probe.
	compileMu                 sync.Mutex
	compiled                  atomic.Bool
	dirtyOK, foldsOK, slotsOK bool
	memberIDs                 []int32 // dense ids of the interned members
	affected                  []int32 // ascending ids of the tensors the merge rewrites
	rews                      []probeRewritten
	// rewKeys holds the candidate keys of the rewrittens back to back,
	// rendered once by the eager pass and never changed after it (rewKey).
	// A key does not depend on the plan's other tensors, so the keys
	// survive a carry.
	rewKeys []byte

	dirty      Bitset       // per node: lies on a path to a member occurrence
	dirtyNodes []int32      // ascending dirty node ids (children before parents)
	removed    []Annotation // coordinates that disappear (member groups)
	folds      []groupFold  // re-fold programs for the affected coordinates
	// foldBuf backs the folds' entries (compileFolds).
	foldBuf []foldEntry

	// slots are the candidate's coordinates in sorted order: the plan's
	// slots minus removed, plus NewAnn when a member group moves into it.
	// baseSlot maps each plan slot to its candidate slot (-1 when
	// removed); it is nil when the two coincide. slotBuf and baseSlotBuf
	// back them when they are the probe's own.
	slots       []Annotation
	baseSlot    []int32
	slotBuf     []Annotation
	baseSlotBuf []int32

	// reorders reports that some re-fold lists its tensors in another
	// order than the plan does (compileEval).
	reorders bool
}

// probeRewritten is one class of affected tensors that the merge
// rewrites to the same tensor, that is to the same candidate key: the
// first member's span [lo, root] represents the class (its renamed
// polynomial is every member's), and value/count are combined over the
// class in tensor order. gid is the destination group's dense id (the
// plan's NumAnns for NewAnn, -1 for the scalar coordinate). The rename
// keeps the polynomial's shape, so size is the representative tensor's
// own.
type probeRewritten struct {
	root, lo int32
	tid      int32 // the representative's tensor id
	value    float64
	count    int
	group    Annotation
	gid      int32
	size     int
	key      [2]int32 // span of its candidate key in Probe.rewKeys
}

// rewKey returns the candidate's Simplify key of rewritten tensor i:
// tensorKey of the materialized candidate tensor.
func (pr *Probe) rewKey(i int32) []byte {
	sp := pr.rews[i].key
	return pr.rewKeys[sp[0]:sp[1]]
}

// rewEntry returns the fold entry of rewritten tensor i.
func (pr *Probe) rewEntry(i int32) foldEntry {
	return foldEntry{value: pr.rews[i].value, root: pr.rews[i].root, sub: true}
}

// Probe compiles the candidate that merges members into newAnn. It
// returns nil when the probe cannot be compiled soundly: newAnn already
// occurs in the expression without being a member (rewritten tensors
// could merge with existing ones), a reserved annotation is involved, or
// the plan falls outside the id-level rewrite (see Plan.probeable). A
// merge named after one of its members (Universe.Merge's name for a
// group that absorbs another annotation) is sound: every tensor that
// mentions newAnn is then rewritten too.
func (p *Plan) Probe(members []Annotation, newAnn Annotation) *Probe {
	return p.Reprobe(nil, members, newAnn)
}

// Reprobe is Probe compiled into the buffers of old, a probe of any plan
// that nothing evaluates, carries or refers to any more: old is
// overwritten and returned, and its slices are refilled in place, so a
// scorer that recycles the probes it drops builds its next probes
// without allocating. A nil old allocates a new probe. When the plan
// refuses the merge, Reprobe returns nil and leaves old unchanged.
func (p *Plan) Reprobe(old *Probe, members []Annotation, newAnn Annotation) *Probe {
	if p.refuses(members, newAnn) {
		return nil
	}
	pr := old
	if pr == nil {
		// The probe, its member copies and its interned member ids share
		// one allocation at merge arity.
		pa := &probeAlloc{}
		pr = &pa.Probe
		pr.Members, pr.memberIDs = pa.members[:0:len(pa.members)], pa.ids[:0:len(pa.ids)]
	}
	pr.compiled.Store(false)
	pr.dirtyOK, pr.foldsOK, pr.slotsOK, pr.reorders = false, false, false, false
	pr.folds = pr.folds[:0]
	pr.Members = append(pr.Members[:0], members...)
	pr.memberIDs = pr.memberIDs[:0]
	affectedLen := 0
	for _, m := range members {
		if id, ok := p.ar.AnnID(m); ok {
			pr.memberIDs = append(pr.memberIDs, id)
			affectedLen += len(p.annTensors.span(id)) + len(p.groupTensors.span(id))
		}
	}
	memberIDs := pr.memberIDs

	// Affected tensors: polynomial mentions a member, or the group is a
	// member. Ascending tensor ids preserve the expression's tensor order
	// for value merging below. Coordinates that disappear: member groups
	// lose all their tensors to NewAnn.
	affected := slices.Grow(pr.affected[:0], affectedLen)
	removed := pr.removed[:0]
	for _, id := range memberIDs {
		grp := p.groupTensors.span(id)
		if len(grp) > 0 {
			removed = append(removed, p.ar.in.Ann(id))
		}
		affected = append(affected, p.annTensors.span(id)...)
		affected = append(affected, grp...)
	}
	slices.Sort(affected)
	affected = slices.Compact(affected)

	// Rewrite affected tensors through the merge and re-merge them by
	// candidate key, combining values in tensor order — the exact work
	// Apply + Simplify would do, restricted to the affected tensors. The
	// representative root evaluates a rewritten tensor's polynomial:
	// Eval(h(q), v') = Eval(q, v'∘h), and merged duplicates share a
	// polynomial, hence an EvalNat value. A rewritten tensor never equals
	// an unaffected one: it mentions newAnn or lands in newAnn's group.
	fresh := int32(p.ar.NumAnns())
	ps := probeScratchPool.Get().(*probeScratch)
	keys := ps.key[:0]
	rews := slices.Grow(pr.rews[:0], len(affected))
	size := p.size
	for _, tid := range affected {
		t := &p.tensors[tid]
		gid, group := t.gid, t.group
		if gid >= 0 && slices.Contains(memberIDs, gid) {
			gid, group = fresh, newAnn
		}
		lo := len(keys)
		keys = p.ar.appendRenamedKey(keys, t.root, memberIDs, newAnn, nil)
		keys = appendName(append(keys, '|'), group)
		dup := false
		for i := range rews {
			r := &rews[i]
			if bytes.Equal(keys[r.key[0]:r.key[1]], keys[lo:]) {
				r.value = p.agg.Agg.Combine(r.value, t.value)
				r.count += t.count
				size -= t.size
				keys = keys[:lo]
				dup = true
				break
			}
		}
		if !dup {
			rews = append(rews, probeRewritten{
				root: t.root, lo: t.lo, tid: tid, value: t.value, count: t.count,
				group: group, gid: gid, size: t.size, key: [2]int32{int32(lo), int32(len(keys))},
			})
		}
	}

	pr.rewKeys = append(pr.rewKeys[:0], keys...)
	ps.key = keys
	probeScratchPool.Put(ps)

	pr.NewAnn, pr.Size, pr.RenamesGroup = newAnn, size, len(removed) > 0
	pr.plan, pr.gen, pr.affected, pr.rews, pr.removed = p, p.gen, affected, rews, removed
	return pr
}

// refuses reports whether the plan cannot probe the merge of members
// into newAnn (see Probe).
func (p *Plan) refuses(members []Annotation, newAnn Annotation) bool {
	if !p.probeable || newAnn == "" || newAnn == Zero || newAnn == One {
		return true
	}
	if _, ok := p.ar.AnnID(newAnn); ok && !slices.Contains(members, newAnn) {
		return true
	}
	return slices.Contains(members, Zero) || slices.Contains(members, One)
}

// probeAlloc backs a Probe and, at merge arity up to three, its Members
// and memberIDs.
type probeAlloc struct {
	Probe
	members [3]Annotation
	ids     [3]int32
}

// compileEval builds the probe's evaluation program — the dirty-node
// closure, the re-fold plans and the candidate's slots — on first use,
// and rebuilds whatever a carry invalidated. It reads the plan's tensor
// tables, so a probe must be evaluated before a later ApplyMerge patches
// its plan, unless MergePatch.Carry rebased it onto the patch.
func (pr *Probe) compileEval() {
	if pr.compiled.Load() {
		return
	}
	pr.compileMu.Lock()
	defer pr.compileMu.Unlock()
	if !pr.compiled.Load() {
		pr.compileEvalSlow()
		pr.compiled.Store(true)
	}
}

func (pr *Probe) compileEvalSlow() {
	if !pr.dirtyOK {
		pr.compileDirty()
		pr.dirtyOK = true
	}
	if !pr.foldsOK {
		pr.compileFolds()
		pr.foldsOK, pr.slotsOK = true, false
	}
	if !pr.slotsOK {
		pr.compileSlots()
		pr.slotsOK = true
	}
}

// compileFolds builds the re-fold programs of every coordinate the
// probe touches that are stale: on first use all of them, after a carry
// those whose group the merge changed. The entries live in foldBuf,
// refilled from its start on first use. A refold after a carry rewrites
// a program in place when it fits in its old entries' room, and appends
// it behind the others otherwise, or to a buffer of its own when
// foldBuf has no room left.
func (pr *Probe) compileFolds() {
	p := pr.plan
	fresh := int32(p.ar.NumAnns())
	first := len(pr.folds) == 0
	if first {
		pr.folds = pr.foldGroups(slices.Grow(pr.folds[:0], len(pr.rews)))
	}
	survivors := func(f *groupFold) int32 {
		if f.gid == fresh {
			return 0
		}
		return int32(len(p.tensorsOfGID(f.gid))) - f.affected
	}
	buf := pr.foldBuf
	if first {
		buf = buf[:0]
	}
	inPlace := func(f *groupFold) bool { return !first && int(survivors(f)+f.rews) <= cap(f.entries) }
	need := 0
	for i := range pr.folds {
		f := &pr.folds[i]
		if f.stale && !inPlace(f) {
			need += int(survivors(f) + f.rews)
		}
	}
	own := true
	if cap(buf)-len(buf) < need {
		own = first
		buf = make([]foldEntry, 0, need)
	}
	ps := probeScratchPool.Get().(*probeScratch)
	defer probeScratchPool.Put(ps)
	pr.reorders = false
	for i := range pr.folds {
		f := &pr.folds[i]
		if f.stale {
			if inPlace(f) {
				f.entries = pr.appendFold(f.entries[:0], f, survivors(f), ps)
			} else {
				start := len(buf)
				buf = pr.appendFold(buf, f, survivors(f), ps)
				f.entries = buf[start:len(buf):len(buf)]
			}
			f.stale = false
		}
		pr.reorders = pr.reorders || f.reorders
	}
	if own {
		pr.foldBuf = buf
	}
}

// foldGroups appends to folds the coordinates the probe re-folds, in
// first-touch order, with their counts and no entries yet.
func (pr *Probe) foldGroups(folds []groupFold) []groupFold {
	p := pr.plan
	find := func(g Annotation, gid int32) *groupFold {
		for i := range folds {
			if folds[i].gid == gid {
				return &folds[i]
			}
		}
		folds = append(folds, groupFold{group: g, gid: gid, stale: true})
		return &folds[len(folds)-1]
	}
	for _, tid := range pr.affected {
		t := &p.tensors[tid]
		if t.gid >= 0 && slices.Contains(pr.memberIDs, t.gid) {
			continue // coordinate moves to newAnn, covered by its rewrittens
		}
		find(t.group, t.gid).affected++
	}
	for i := range pr.rews {
		find(pr.rews[i].group, pr.rews[i].gid).rews++
	}
	return folds
}

// appendFold appends f's entries to buf: the group's survivors plus the
// rewrittens that land in it, ordered by the candidate's tensor key (the
// materialized candidate's per-group combine order). Simplify sorts the
// planned expression's tensors by that same key, so a group's survivors
// arrive key-ascending and only the rewrittens need placing: they are
// sorted by key and merged in. Keys of a sound probe are distinct, and
// they are only compared: survivor keys are the plan's strings, and
// string(b) < s does not allocate.
func (pr *Probe) appendFold(buf []foldEntry, f *groupFold, survivors int32, ps *probeScratch) []foldEntry {
	p := pr.plan
	// The plan folds a group's tensors in tensor-id order; the re-fold
	// reorders them unless its entries' tensor ids ascend too.
	f.reorders = false
	last := int32(-1)
	place := func(tid int32) {
		f.reorders = f.reorders || tid < last
		last = tid
	}
	rs := ps.order[:0]
	for i := range pr.rews {
		if pr.rews[i].gid == f.gid {
			rs = append(rs, int32(i))
		}
	}
	ps.order = rs
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && bytes.Compare(pr.rewKey(rs[j]), pr.rewKey(rs[j-1])) < 0; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
	ri := 0
	if survivors > 0 {
		aff := pr.affected
		for _, tid := range p.tensorsOfGID(f.gid) {
			for len(aff) > 0 && aff[0] < tid {
				aff = aff[1:]
			}
			if len(aff) > 0 && aff[0] == tid {
				continue
			}
			t := &p.tensors[tid]
			for ; ri < len(rs) && string(pr.rewKey(rs[ri])) < t.key; ri++ {
				buf = append(buf, pr.rewEntry(rs[ri]))
				place(pr.rews[rs[ri]].tid)
			}
			buf = append(buf, foldEntry{value: t.value, root: t.root})
			place(tid)
		}
	}
	for ; ri < len(rs); ri++ {
		buf = append(buf, pr.rewEntry(rs[ri]))
		place(pr.rews[rs[ri]].tid)
	}
	return buf
}

// compileDirty marks every node on a path from a member occurrence to
// its tensor root: those re-evaluate under substitution, everything else
// reads the base table. The ascending dirty-node list drives an
// iterative bottom-up re-evaluation (post-order ids put children before
// parents).
func (pr *Probe) compileDirty() {
	p := pr.plan
	words := (p.ar.NumNodes() + 63) / 64
	dirty := pr.dirty
	if cap(dirty) < words {
		dirty = NewBitset(p.ar.NumNodes())
	} else {
		dirty = dirty[:words]
		clear(dirty)
	}
	live := 0
	for _, tid := range pr.affected {
		live += int(p.tensors[tid].root - p.tensors[tid].lo + 1)
	}
	dirtyNodes := slices.Grow(pr.dirtyNodes[:0], live) // member occurrences live in affected spans
	for _, id := range pr.memberIDs {
		for _, nd := range p.varNodes.span(id) {
			for n := nd; n != -1 && !dirty.Get(n); n = p.ar.parent[n] {
				dirty.Set(n)
				dirtyNodes = append(dirtyNodes, n)
			}
		}
	}
	slices.Sort(dirtyNodes)
	pr.dirty = dirty
	pr.dirtyNodes = dirtyNodes
}

// compileSlots lays out the candidate's coordinate slots and points every
// re-fold at its slot. Without a group rename the candidate keeps the
// plan's slots; otherwise the removed member groups drop out and NewAnn
// takes its sorted place.
func (pr *Probe) compileSlots() {
	base := pr.plan.ar.groupKeys
	pr.slots, pr.baseSlot = base, nil
	if len(pr.removed) > 0 {
		slots := slices.Grow(pr.slotBuf[:0], len(base)-len(pr.removed)+1)
		for _, g := range base {
			if !slices.Contains(pr.removed, g) {
				slots = append(slots, g)
			}
		}
		at, _ := slices.BinarySearch(slots, pr.NewAnn)
		pr.slots = slices.Insert(slots, at, pr.NewAnn)
		pr.slotBuf = pr.slots
		pr.baseSlot = fit(pr.baseSlotBuf, len(base))
		pr.baseSlotBuf = pr.baseSlot
		for i, g := range base {
			pr.baseSlot[i] = -1
			if !slices.Contains(pr.removed, g) {
				cs, _ := slices.BinarySearch(pr.slots, g)
				pr.baseSlot[i] = int32(cs)
			}
		}
	}
	for i := range pr.folds {
		cs, _ := slices.BinarySearch(pr.slots, pr.folds[i].group)
		pr.folds[i].slot = int32(cs)
	}
}

// Slots returns the candidate's coordinates in sorted order: slot i of a
// CandEvalBlock row holds coordinate Slots()[i]. The slice must not be
// modified.
func (pr *Probe) Slots() []Annotation {
	pr.compileEval()
	return pr.slots
}

// Reorders reports whether the candidate folds some coordinate's
// contributions in another grouping or order than the plan: the merge
// collapses several tensors into one, or a rewritten tensor's key moves
// it past another tensor of its group. On a plan that is not Exact, such
// a candidate can differ from the base in its last bits even under
// unchanged truths, so a delta sweep must evaluate it on every lane.
func (pr *Probe) Reorders() bool {
	pr.compileEval()
	return len(pr.rews) < len(pr.affected) || pr.reorders
}
