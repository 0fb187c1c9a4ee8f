package ddp

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/distance"
	"repro/internal/provenance"
)

// This file compiles a DDP expression for delta scoring: the
// distance.BlockPlan that distance.Estimator.DistanceDelta drives
// through its blocked sweep. A summarization run compiles its current
// expression once; every candidate merge of a step is probed on the
// compiled form, and the committed winner patches the plan in place
// (ApplyMerge), which builds the next expression itself.
//
// Soundness rests on the homomorphism identity Eval(h(p), v') =
// Eval(p, v'∘h) plus the tropical congruences Apply re-applies. A merge
// renames only the member variables, so it touches only the executions
// that mention a member. Each touched execution mentions the fresh
// summary variable afterwards, which no untouched execution does, so the
// only executions the congruences can collapse are touched ones, into
// each other. A Probe re-keys the touched executions (integer canonical
// keys, equal exactly when Simplify finds the executions congruent),
// keeps the first of each congruent run in expression order — Apply's
// survivor — and so knows both the candidate's size and its surviving
// executions. The candidate's value on a lane is the tropical min over
// the untouched executions' base values and the touched survivors
// re-evaluated with the members' truths replaced by the merged group's.
// A survivor keeps its transitions in stored order, so its cost sums
// add in the order Eval adds them, and results are bit-identical to
// Apply + Eval.

// Plan is the compiled form of one DDP expression. Annotations intern to
// dense ids. Executions live in slots: slot x holds the user terms
// users[userOff[x]:userOff[x+1]] in stored order and the condition
// terms conds[condOff[x]:condEnd[x]], and sits at position pos[x] of
// the expression (order[i] is the slot at position i); annLo/annHi span
// each annotation's ascending slots in annExecs (the
// annotation→execution index). Between patches a Plan is read-only and
// shared by every probe and evaluator of its step.
//
// ApplyMerge patches the plan into the plan of the merged expression.
// Slots stay put, so a patch rewrites only the touched executions and
// index lists: a collapsed execution's slot goes dead (pos −1), a
// survivor's condition span shrinks in place, and a merged-away
// member's id goes dead — it keeps its place in Annotations, so ids
// stay dense, but AnnID and AppendLiveAnnotations no longer report it,
// and no execution mentions it. The summary annotation takes the next
// id. Dead slots and ids stay until the run ends: a merge never adds
// an execution, and adds at most one id.
type Plan struct {
	expr  *Expr
	names []provenance.Annotation
	ids   map[provenance.Annotation]int32 // live annotations only
	live  []provenance.Annotation         // live annotations, sorted

	userOff, condOff, condEnd []int32
	users                     []userTerm
	conds                     []condTerm
	execSize                  []int
	pos, order, orderBuf      []int32
	// keys are the slots' Simplify keys, rendered by the first patch.
	keys []string

	annLo, annHi []int32
	annExecs     []int32
	size         int
	// gen counts the patches the plan has taken since compilation.
	gen uint64

	keyPool sync.Pool // *keyTable: Probe's and ApplyMerge's scratch
}

type userTerm struct {
	id   int32
	cost float64
}

type condTerm struct {
	a, b    int32
	nonZero bool
}

// code is the condition's integer key: its ids in ascending order and
// its operator, as canon sorts them.
func (c condTerm) code() uint64 {
	a, b := c.a, c.b
	if a > b {
		a, b = b, a
	}
	code := uint64(a)<<33 | uint64(b)<<1
	if c.nonZero {
		code |= 1
	}
	return code
}

// BlockPlan implements distance.BlockPlanner. It refuses an expression
// that is not in Simplify's canonical form, mentions a reserved
// annotation, or carries a negative, infinite or NaN cost. With finite
// non-negative costs no sum is NaN or negative zero, so the tropical min
// does not depend on the order executions are compared in.
func (e *Expr) BlockPlan() (distance.BlockPlan, error) {
	p, err := compilePlan(e)
	if err != nil {
		return nil, err
	}
	return p, nil
}

func compilePlan(e *Expr) (*Plan, error) {
	planCompiles.Add(1)
	n := len(e.Execs)
	p := &Plan{
		expr:     e,
		ids:      make(map[provenance.Annotation]int32),
		userOff:  make([]int32, n+1),
		condOff:  make([]int32, n+1),
		condEnd:  make([]int32, n),
		execSize: make([]int, n),
		pos:      make([]int32, n),
		order:    make([]int32, n),
	}
	intern := func(a provenance.Annotation) (int32, bool) {
		if id, ok := p.ids[a]; ok {
			return id, true
		}
		if a == provenance.Zero || a == provenance.One {
			return 0, false
		}
		id := int32(len(p.names))
		p.ids[a] = id
		p.names = append(p.names, a)
		return id, true
	}
	for x, ex := range e.Execs {
		p.pos[x], p.order[x] = int32(x), int32(x)
		for _, t := range ex {
			if t.IsUser() {
				id, ok := intern(t.CostVar)
				if !ok {
					return nil, errReserved
				}
				if !ValidCost(t.Cost) {
					return nil, fmt.Errorf("ddp: cost %v of %q is negative or not finite", t.Cost, t.CostVar)
				}
				p.users = append(p.users, userTerm{id: id, cost: t.Cost})
				p.execSize[x]++
				continue
			}
			a, okA := intern(t.D1)
			b, okB := intern(t.D2)
			if !okA || !okB {
				return nil, errReserved
			}
			p.conds = append(p.conds, condTerm{a: a, b: b, nonZero: t.NonZero})
			p.execSize[x] += 2
		}
		p.userOff[x+1] = int32(len(p.users))
		p.condOff[x+1] = int32(len(p.conds))
		p.condEnd[x] = int32(len(p.conds))
		p.size += p.execSize[x]
	}

	// Canonical form: no duplicate condition inside an execution and no
	// two congruent executions. Both hold for every expression Simplify
	// returned; anything else would make Apply collapse executions the
	// probes never look at.
	var keys keyTable
	for x := 0; x < n; x++ {
		start := len(keys.flat)
		nConds := keys.canon(p, int32(x), nil, 0)
		if nConds != int(p.condEnd[x]-p.condOff[x]) || !keys.add(start) {
			return nil, fmt.Errorf("ddp: execution %d is not in Simplify's canonical form", x)
		}
	}

	counts := make([]int32, len(p.names)+1)
	last := make([]int32, len(p.names))
	for i := range last {
		last[i] = -1
	}
	p.forEachAnn(func(x, id int32) {
		if last[id] != x {
			last[id] = x
			counts[id+1]++
		}
	})
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	p.annLo = counts[:len(p.names)]
	p.annHi = slices.Clone(p.annLo)
	p.annExecs = make([]int32, counts[len(counts)-1])
	for i := range last {
		last[i] = -1
	}
	p.forEachAnn(func(x, id int32) {
		if last[id] != x {
			last[id] = x
			p.annExecs[p.annHi[id]] = x
			p.annHi[id]++
		}
	})
	p.live = slices.Clone(p.names)
	slices.Sort(p.live)
	return p, nil
}

// errReserved refuses the reserved annotations provenance.Zero and One,
// which Eval reads as constants rather than as variables.
var errReserved = errors.New("ddp: a transition names a reserved annotation")

// planCompiles and exprApplies count compilePlan and Expr.Apply calls:
// the package's tests read them to hold a summarization run to one
// compile of its current expression and no Apply.
var planCompiles, exprApplies atomic.Uint64

// ValidCost reports whether c is a cost the tropical semiring of costs
// holds: finite and not negative.
func ValidCost(c float64) bool { return c >= 0 && !math.IsInf(c, 1) }

// forEachAnn calls f for every variable occurrence, live slots in
// ascending order.
func (p *Plan) forEachAnn(f func(x, id int32)) {
	for x := int32(0); x < int32(len(p.pos)); x++ {
		if p.pos[x] < 0 {
			continue
		}
		for _, u := range p.userTerms(x) {
			f(x, u.id)
		}
		for _, c := range p.condTerms(x) {
			f(x, c.a)
			f(x, c.b)
		}
	}
}

func (p *Plan) userTerms(x int32) []userTerm { return p.users[p.userOff[x]:p.userOff[x+1]] }
func (p *Plan) condTerms(x int32) []condTerm { return p.conds[p.condOff[x]:p.condEnd[x]] }

// execsOf returns annotation id's slots, ascending.
func (p *Plan) execsOf(id int32) []int32 { return p.annExecs[p.annLo[id]:p.annHi[id]] }

// Annotations implements distance.BlockPlan: every id's annotation, the
// dead ids' included.
func (p *Plan) Annotations() []provenance.Annotation { return p.names }

// AnnID implements distance.BlockPlan: the id of a live annotation.
func (p *Plan) AnnID(a provenance.Annotation) (int32, bool) {
	id, ok := p.ids[a]
	return id, ok
}

// AppendLiveAnnotations implements distance.BlockPlan: the expression's
// Annotations, read off the plan.
func (p *Plan) AppendLiveAnnotations(dst []provenance.Annotation) []provenance.Annotation {
	return append(dst, p.live...)
}

// Generation implements distance.BlockPlan.
func (p *Plan) Generation() uint64 { return p.gen }

// Expr returns the expression the plan is the plan of: the compiled
// one, or the next expression of the last patch.
func (p *Plan) Expr() *Expr { return p.expr }

// keyTable is a set of integer canonical keys: canon appends each key
// to flat, and add either keeps it or drops it as a duplicate. Keys are
// prefiltered by hash.
type keyTable struct {
	flat   []uint64
	spans  [][2]int
	hashes []uint64
	users  []userKey // canon's sort buffers
	conds  []uint64

	touched, survivors []int32 // survive's results

	// ApplyMerge's scratch: member ids, touched marks over slots, and
	// the survivors' next executions.
	ms    []int32
	mark  []bool
	items []patchedExec
}

// patchedExec is a survivor of a merge: its slot, and its execution in
// the next expression with that execution's Simplify key.
type patchedExec struct {
	x   int32
	ex  Execution
	key string
}

type userKey struct {
	id   int32
	bits uint64
}

// canon appends execution x's integer canonical key to t.flat, with the
// member ids ms renamed to newID, and returns the number of distinct
// conditions after the rename. The key lists the user terms' (id, cost
// bits) pairs sorted, then the distinct conditions' (low id, high id,
// nonZero) codes sorted: two executions share a key exactly when
// Simplify finds them congruent.
func (t *keyTable) canon(p *Plan, x int32, ms []int32, newID int32) (nConds int) {
	ren := func(id int32) int32 {
		if slices.Contains(ms, id) {
			return newID
		}
		return id
	}
	t.users = t.users[:0]
	for _, u := range p.userTerms(x) {
		t.users = append(t.users, userKey{id: ren(u.id), bits: math.Float64bits(u.cost)})
	}
	slices.SortFunc(t.users, func(a, b userKey) int {
		if c := cmp.Compare(a.id, b.id); c != 0 {
			return c
		}
		return cmp.Compare(a.bits, b.bits)
	})
	t.conds = t.conds[:0]
	for _, c := range p.condTerms(x) {
		t.conds = append(t.conds, condTerm{a: ren(c.a), b: ren(c.b), nonZero: c.nonZero}.code())
	}
	slices.Sort(t.conds)
	t.conds = slices.Compact(t.conds)
	t.flat = append(t.flat, uint64(len(t.users)))
	for _, u := range t.users {
		t.flat = append(t.flat, uint64(u.id), u.bits)
	}
	t.flat = append(t.flat, t.conds...)
	return len(t.conds)
}

// add keeps the key canon appended since start and reports true, or
// drops it and reports false when the table already holds it.
func (t *keyTable) add(start int) bool {
	key := t.flat[start:]
	h := uint64(14695981039346656037)
	for _, w := range key {
		h = (h ^ w) * 1099511628211
	}
	for i, o := range t.hashes {
		if o == h && slices.Equal(t.flat[t.spans[i][0]:t.spans[i][1]], key) {
			t.flat = t.flat[:start]
			return false
		}
	}
	t.hashes = append(t.hashes, h)
	t.spans = append(t.spans, [2]int{start, len(t.flat)})
	return true
}

// survive re-keys the slots that mention a member of ms with the members
// renamed to newID: it leaves them in t.touched in expression order,
// and Apply's survivors among them — the first of each congruent run —
// in t.survivors, and returns the merged expression's size change.
func (p *Plan) survive(t *keyTable, ms []int32, newID int32) (delta int) {
	touched := t.touched[:0]
	for _, id := range ms {
		touched = append(touched, p.execsOf(id)...)
	}
	slices.SortFunc(touched, func(a, b int32) int { return cmp.Compare(p.pos[a], p.pos[b]) })
	touched = slices.Compact(touched)
	survivors := t.survivors[:0]
	for _, x := range touched {
		delta -= p.execSize[x]
		start := len(t.flat)
		nConds := t.canon(p, x, ms, newID)
		if !t.add(start) {
			continue
		}
		survivors = append(survivors, x)
		delta += int(p.userOff[x+1]-p.userOff[x]) + 2*nConds
	}
	t.touched, t.survivors = touched, survivors
	return delta
}

// Probe is one compiled candidate merge: members ↦ a fresh annotation
// over the plan's expression. It implements distance.BlockProbe and is
// read-only after construction.
type Probe struct {
	plan      *Plan
	gen       uint64   // the plan generation the probe is valid for
	members   []int32  // interned member ids
	touched   []uint64 // bitset over slots: mentions a member
	survivors []int32  // touched slots Apply keeps, in expression order
	size      int
	reshapes  bool
}

// Size implements distance.BlockProbe.
func (pr *Probe) Size() int { return pr.size }

// Reshapes implements distance.BlockProbe: the merge collapses touched
// executions. The dropped ones may have summed the same costs in another
// order, so even unchanged truths do not guarantee the base's bits.
func (pr *Probe) Reshapes() bool { return pr.reshapes }

func (pr *Probe) isTouched(x int32) bool { return pr.touched[x>>6]&(1<<uint(x&63)) != 0 }

// Probe implements distance.BlockPlan: it re-keys the executions that
// mention a member and keeps Apply's survivors. Members that do not occur
// in the expression have no effect. It returns nil when newAnn is empty
// (an empty cost variable would turn a user transition into a
// condition), reserved, or occurs in the expression.
func (p *Plan) Probe(members []provenance.Annotation, newAnn provenance.Annotation) distance.BlockProbe {
	if newAnn == "" || newAnn == provenance.Zero || newAnn == provenance.One {
		return nil
	}
	if _, ok := p.ids[newAnn]; ok {
		return nil
	}
	keys := p.getKeyTable()
	defer p.keyPool.Put(keys)
	ms := p.memberIDs(nil, members)
	delta := p.survive(keys, ms, int32(len(p.names)))
	pr := &Probe{
		plan:      p,
		gen:       p.gen,
		members:   ms,
		touched:   make([]uint64, (len(p.pos)+63)/64),
		survivors: slices.Clone(keys.survivors),
		size:      p.size + delta,
		reshapes:  len(keys.survivors) < len(keys.touched),
	}
	for _, x := range keys.touched {
		pr.touched[x>>6] |= 1 << uint(x&63)
	}
	return pr
}

// memberIDs appends the distinct live ids of members to dst.
func (p *Plan) memberIDs(dst []int32, members []provenance.Annotation) []int32 {
	for _, m := range members {
		if id, ok := p.ids[m]; ok && !slices.Contains(dst, id) {
			dst = append(dst, id)
		}
	}
	return dst
}

// ApplyMerge implements distance.BlockPlan: it commits the merge of
// members into newAnn and returns the next expression,
// Expr().Apply(MergeMapping(newAnn, members...)) execution for
// execution, patching the plan in place into that expression's plan.
// The touched executions and Apply's survivors among them come from pr
// when it is this plan state's probe of the same members (any newAnn),
// and from the same integer re-keying otherwise. The untouched
// executions keep their Execution slices, shared with the patched
// expression and already in Simplify's order; only the survivors are
// renamed and condition-deduplicated (canonical), and each is merged
// into that order by its key (exactKey breaks ties). The plan's side
// costs the patch: the survivors' terms are renamed in place, the
// collapsed executions' slots go dead and leave the index lists of
// their other annotations, the members' ids go dead, and newAnn takes
// the next id, indexing the survivors. Only the next expression's
// execution list and the slots' positions are laid out anew.
//
// A merge may be named after one of its members: the member's id goes
// dead like the others', and newAnn takes the next id. It refuses,
// returning nil and false and leaving the plan as it was, when newAnn
// is empty or reserved, occurs in the expression without being a
// member, or a member is reserved; the caller then Applies the merge
// itself. The
// plan holds no invalid cost (compilePlan refuses one), and a merge
// adds none.
func (p *Plan) ApplyMerge(members []provenance.Annotation, newAnn provenance.Annotation, bp distance.BlockProbe) (provenance.Expression, bool) {
	if _, live := p.ids[newAnn]; newAnn == "" || live && !slices.Contains(members, newAnn) {
		return nil, false
	}
	reserved := func(a provenance.Annotation) bool { return a == provenance.Zero || a == provenance.One }
	if reserved(newAnn) || slices.ContainsFunc(members, reserved) {
		return nil, false
	}
	keys := p.getKeyTable()
	defer p.keyPool.Put(keys)
	ms := p.memberIDs(keys.ms[:0], members)
	keys.ms = ms
	newID := int32(len(p.names))
	var touched, survivors []int32
	var delta int
	if pr, ok := bp.(*Probe); ok && pr != nil && pr.plan == p && pr.gen == p.gen && sameIDs(pr.members, ms) {
		touched = keys.touched[:0]
		for w, word := range pr.touched {
			for ; word != 0; word &= word - 1 {
				touched = append(touched, int32(64*w+bits.TrailingZeros64(word)))
			}
		}
		keys.touched = touched
		survivors, delta = pr.survivors, pr.size-p.size
	} else {
		delta = p.survive(keys, ms, newID)
		touched, survivors = keys.touched, keys.survivors
	}
	cur := p.expr
	next := &Expr{Execs: cur.Execs, MaxCost: cur.MaxCost, MaxTransitions: cur.MaxTransitions}
	p.expr, p.gen = next, p.gen+1
	if len(touched) == 0 {
		return next, true
	}
	if p.keys == nil {
		p.renderKeys()
	}
	p.names = append(p.names, newAnn)

	// The survivors: renamed and deduplicated in the expression and in
	// their slots' terms, then keyed off the terms.
	items := keys.items[:0]
	ren := func(id int32) int32 {
		if slices.Contains(ms, id) {
			return newID
		}
		return id
	}
	for _, x := range survivors {
		ex := renameExec(cur.Execs[p.pos[x]], members, newAnn)
		for i := range p.userTerms(x) {
			u := &p.users[p.userOff[x]+int32(i)]
			u.id = ren(u.id)
		}
		lo, w := p.condOff[x], p.condOff[x]
		for _, c := range p.condTerms(x) {
			c.a, c.b = ren(c.a), ren(c.b)
			if !slices.ContainsFunc(p.conds[lo:w], func(d condTerm) bool { return d.code() == c.code() }) {
				p.conds[w] = c
				w++
			}
		}
		p.condEnd[x] = w
		p.execSize[x] = int(p.userOff[x+1]-p.userOff[x]) + 2*int(w-lo)
		p.keys[x] = p.renderKey(x)
		items = append(items, patchedExec{x: x, ex: ex, key: p.keys[x]})
	}
	p.size += delta

	// The collapsed executions: their slots go dead and leave the index
	// lists of the annotations that are not members (the survivor they
	// collapsed into mentions each of them too).
	mark := fit(keys.mark, len(p.pos))
	keys.mark = mark
	for _, x := range survivors {
		mark[x] = true
	}
	for _, x := range touched {
		if mark[x] {
			continue
		}
		for _, u := range p.userTerms(x) {
			p.unindex(u.id, x, ms)
		}
		for _, c := range p.condTerms(x) {
			p.unindex(c.a, x, ms)
			p.unindex(c.b, x, ms)
		}
		p.pos[x], p.execSize[x], p.keys[x] = -1, 0, ""
	}
	for _, x := range touched {
		mark[x] = true
	}

	// The members' ids go dead; newAnn indexes the survivors.
	for _, id := range ms {
		p.annHi[id] = p.annLo[id]
		delete(p.ids, p.names[id])
		if i, found := slices.BinarySearch(p.live, p.names[id]); found {
			p.live = slices.Delete(p.live, i, i+1)
		}
	}
	p.ids[newAnn] = newID
	lo := int32(len(p.annExecs))
	p.annExecs = append(p.annExecs, survivors...)
	slices.Sort(p.annExecs[lo:])
	p.annLo, p.annHi = append(p.annLo, lo), append(p.annHi, int32(len(p.annExecs)))
	i, _ := slices.BinarySearch(p.live, newAnn)
	p.live = slices.Insert(p.live, i, newAnn)

	// The next expression: the untouched executions in their order, the
	// survivors merged in by key.
	slices.SortFunc(items, func(a, b patchedExec) int { return compareKeyed(a.key, a.ex, b.key, b.ex) })
	execs := make([]Execution, 0, len(cur.Execs)-len(touched)+len(survivors))
	order := p.orderBuf[:0]
	if cap(order) < cap(execs) {
		order = make([]int32, 0, cap(execs))
	}
	emit := func(x int32, ex Execution) {
		p.pos[x] = int32(len(execs))
		execs = append(execs, ex)
		order = append(order, x)
	}
	k := 0
	for i, ex := range cur.Execs {
		x := p.order[i]
		if mark[x] {
			mark[x] = false
			continue
		}
		for ; k < len(items) && compareKeyed(items[k].key, items[k].ex, p.keys[x], ex) < 0; k++ {
			emit(items[k].x, items[k].ex)
		}
		emit(x, ex)
	}
	for ; k < len(items); k++ {
		emit(items[k].x, items[k].ex)
	}
	clear(items)
	keys.items = items[:0]
	p.order, p.orderBuf = order, p.order
	next.Execs = execs
	return next, true
}

// Diff describes the first way p differs from q, a plan compiled
// afresh from p.Expr(), up to the renaming of ids and slots, or returns
// "": the live annotations and their ids, each execution's terms and
// size by expression position, each live annotation's executions, the
// size, and the Simplify keys p keeps. Differential tests hold every
// patched plan to it.
func (p *Plan) Diff(q *Plan) string {
	if !slices.Equal(p.live, q.live) {
		return fmt.Sprintf("live annotations %v, want %v", p.live, q.live)
	}
	for _, a := range p.live {
		if id, ok := p.ids[a]; !ok || p.names[id] != a {
			return fmt.Sprintf("live annotation %q has id %d (%v)", a, id, ok)
		}
	}
	if len(p.ids) != len(p.live) {
		return fmt.Sprintf("%d ids for %d live annotations", len(p.ids), len(p.live))
	}
	if len(p.order) != len(q.order) || len(p.expr.Execs) != len(q.order) {
		return fmt.Sprintf("%d positions for %d executions, want %d", len(p.order), len(p.expr.Execs), len(q.order))
	}
	live := 0
	for x := range p.pos {
		if p.pos[x] >= 0 {
			live++
		}
	}
	if live != len(q.order) {
		return fmt.Sprintf("%d live slots, want %d", live, len(q.order))
	}
	for i, x := range p.order {
		if p.pos[x] != int32(i) {
			return fmt.Sprintf("slot %d at position %d has position %d", x, i, p.pos[x])
		}
		pu, qu := p.userTerms(x), q.userTerms(int32(i))
		pc, qc := p.condTerms(x), q.condTerms(int32(i))
		if len(pu) != len(qu) || len(pc) != len(qc) || p.execSize[x] != q.execSize[i] {
			return fmt.Sprintf("execution %d: %d users, %d conditions, size %d; want %d, %d, %d", i, len(pu), len(pc), p.execSize[x], len(qu), len(qc), q.execSize[i])
		}
		for k := range pu {
			if p.names[pu[k].id] != q.names[qu[k].id] || math.Float64bits(pu[k].cost) != math.Float64bits(qu[k].cost) {
				return fmt.Sprintf("execution %d user term %d differs", i, k)
			}
		}
		for k := range pc {
			if p.names[pc[k].a] != q.names[qc[k].a] || p.names[pc[k].b] != q.names[qc[k].b] || pc[k].nonZero != qc[k].nonZero {
				return fmt.Sprintf("execution %d condition %d differs", i, k)
			}
		}
		if p.keys != nil {
			if _, key := p.expr.Execs[i].canonical(); p.keys[x] != key {
				return fmt.Sprintf("execution %d key %q, want %q", i, p.keys[x], key)
			}
		}
	}
	var at []int32
	for _, a := range p.live {
		at = at[:0]
		for _, x := range p.execsOf(p.ids[a]) {
			at = append(at, p.pos[x])
		}
		slices.Sort(at)
		if want := q.execsOf(q.ids[a]); !slices.Equal(at, want) {
			return fmt.Sprintf("%q indexes executions %v, want %v", a, at, want)
		}
	}
	if p.size != q.size {
		return fmt.Sprintf("size %d, want %d", p.size, q.size)
	}
	return ""
}

// renameExec returns ex with members renamed to newAnn and, as
// canonical keeps it, only the first occurrence of each condition.
func renameExec(ex Execution, members []provenance.Annotation, newAnn provenance.Annotation) Execution {
	ren := func(a provenance.Annotation) provenance.Annotation {
		if slices.Contains(members, a) {
			return newAnn
		}
		return a
	}
	out := make(Execution, 0, len(ex))
	for _, t := range ex {
		if t.IsUser() {
			t.CostVar = ren(t.CostVar)
		} else {
			t.D1, t.D2 = ren(t.D1), ren(t.D2)
			if slices.ContainsFunc(out, t.sameCondition) {
				continue
			}
		}
		out = append(out, t)
	}
	return out
}

// renderKeys renders every live slot's Simplify key.
func (p *Plan) renderKeys() {
	p.keys = make([]string, len(p.pos))
	for x, i := range p.pos {
		if i >= 0 {
			p.keys[x] = p.renderKey(int32(x))
		}
	}
}

// renderKey renders slot x's Simplify key off its terms: canonical's
// key of the execution the slot holds.
func (p *Plan) renderKey(x int32) string {
	var bufArr [256]byte
	var spanArr [16][2]int
	buf, spans := bufArr[:0], spanArr[:0]
	for _, u := range p.userTerms(x) {
		start := len(buf)
		buf = User(p.names[u.id], u.cost).appendKey(buf)
		spans = append(spans, [2]int{start, len(buf)})
	}
	for _, c := range p.condTerms(x) {
		start := len(buf)
		buf = Cond(p.names[c.a], p.names[c.b], c.nonZero).appendKey(buf)
		spans = append(spans, [2]int{start, len(buf)})
	}
	return joinSorted(buf, spans)
}

// compareKeyed orders two non-congruent canonical executions as
// Simplify sorts them: by key, then by exactKey, rendered only then.
func compareKeyed(keyA string, a Execution, keyB string, b Execution) int {
	if c := strings.Compare(keyA, keyB); c != 0 {
		return c
	}
	return strings.Compare(a.exactKey(), b.exactKey())
}

// unindex removes slot x from annotation id's index list, unless id is
// one of the members ms, whose lists the merge empties.
func (p *Plan) unindex(id, x int32, ms []int32) {
	if slices.Contains(ms, id) {
		return
	}
	list := p.execsOf(id)
	if i, found := slices.BinarySearch(list, x); found {
		copy(list[i:], list[i+1:])
		p.annHi[id]--
	}
}

// sameIDs reports whether a and b hold the same distinct ids.
func sameIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for _, id := range a {
		if !slices.Contains(b, id) {
			return false
		}
	}
	return true
}

// fit returns s resized to n entries, all false, reallocating only to
// grow.
func fit(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// getKeyTable takes an emptied key table from the plan's pool: probes of
// one step compile one after another, and a patch follows them, so a
// single table's buffers serve them all.
func (p *Plan) getKeyTable() *keyTable {
	t, ok := p.keyPool.Get().(*keyTable)
	if !ok {
		return &keyTable{}
	}
	t.flat, t.spans, t.hashes = t.flat[:0], t.spans[:0], t.hashes[:0]
	return t
}

// Evaluator is one worker's blocked evaluation state over a Plan. It
// implements distance.BlockEvaluator.
type Evaluator struct {
	plan  *Plan
	words []uint64 // per annotation id: the block's truth word
	mask  uint64
	sat   []uint64  // per slot: lanes whose conditions hold (none for a dead slot)
	cost  []float64 // per slot, 64 lanes: cost sum (valid on sat lanes)
	best  [64]float64
	arg   [64]int32             // per lane: slot of the base minimum, -1 if none holds
	boxed [64]provenance.Result // per lane: the base result as EvalBlock returned it

	subSat  []uint64  // per survivor of the probe being evaluated
	subCost []float64 // per survivor, 64 lanes
	evals   uint64
}

// evalPool recycles evaluators across steps and plans: their lane
// tables are sized per plan, but rarely need to grow.
var evalPool sync.Pool

// NewEvaluator implements distance.BlockPlan.
func (p *Plan) NewEvaluator() distance.BlockEvaluator {
	ev, ok := evalPool.Get().(*Evaluator)
	if !ok {
		ev = &Evaluator{}
	}
	n := len(p.pos)
	ev.plan, ev.evals = p, 0
	ev.words = slices.Grow(ev.words[:0], len(p.names))[:len(p.names)]
	ev.sat = slices.Grow(ev.sat[:0], n)[:n]
	ev.cost = slices.Grow(ev.cost[:0], 64*n)[:64*n]
	return ev
}

// Release implements distance.BlockEvaluator.
func (ev *Evaluator) Release() uint64 {
	n := ev.evals
	ev.plan = nil
	clear(ev.boxed[:])
	evalPool.Put(ev)
	return n
}

// word returns annotation id's truth word, substituting merged for the
// member ids ms.
func (ev *Evaluator) word(id int32, ms []int32, merged uint64) uint64 {
	if slices.Contains(ms, id) {
		return merged
	}
	return ev.words[id]
}

// evalExec evaluates execution x on the lanes of within: it returns the
// lanes whose conditions all hold and writes their cost sums to row,
// adding the user costs in stored transition order like Eval.
func (ev *Evaluator) evalExec(x int32, ms []int32, merged, within uint64, row []float64) uint64 {
	p := ev.plan
	sat := within
	for _, c := range p.condTerms(x) {
		w := ev.word(c.a, ms, merged) & ev.word(c.b, ms, merged)
		if !c.nonZero {
			w = ^w
		}
		sat &= w
	}
	for w := sat; w != 0; w &= w - 1 {
		row[bits.TrailingZeros64(w)] = 0
	}
	for _, u := range p.userTerms(x) {
		for w := ev.word(u.id, ms, merged) & sat; w != 0; w &= w - 1 {
			row[bits.TrailingZeros64(w)] += u.cost
		}
	}
	return sat
}

// EvalBlock implements distance.BlockEvaluator: every live execution
// once per block, then each lane's tropical min.
func (ev *Evaluator) EvalBlock(tb *provenance.TruthBlock, out []provenance.Result) {
	ev.mask = tb.Mask()
	for id := range ev.words {
		ev.words[id] = tb.Word(int32(id))
	}
	lanes := tb.Lanes()
	for j := 0; j < lanes; j++ {
		ev.arg[j] = -1
	}
	for x := range ev.sat {
		if ev.plan.pos[x] < 0 {
			ev.sat[x] = 0
			continue
		}
		row := ev.cost[64*x : 64*x+64]
		sat := ev.evalExec(int32(x), nil, 0, ev.mask, row)
		ev.sat[x] = sat
		for w := sat; w != 0; w &= w - 1 {
			j := bits.TrailingZeros64(w)
			if ev.arg[j] < 0 || row[j] < ev.best[j] {
				ev.arg[j] = int32(x)
				ev.best[j] = row[j]
			}
		}
	}
	for j := 0; j < lanes; j++ {
		if ev.arg[j] < 0 {
			ev.boxed[j] = CostTruth{}
		} else {
			ev.boxed[j] = CostTruth{Cost: ev.best[j], Truth: true}
		}
		out[j] = ev.boxed[j]
	}
}

// CandEvalBlock implements distance.BlockEvaluator. Per changed lane,
// the untouched executions contribute the base minimum when it came from
// one of them (otherwise they are rescanned on that lane), and the
// touched survivors are re-evaluated with the merged truths.
func (ev *Evaluator) CandEvalBlock(bp distance.BlockProbe, merged, changed uint64, out []provenance.Result) {
	pr := bp.(*Probe)
	changed &= ev.mask
	if changed == 0 {
		return
	}
	k := len(pr.survivors)
	if cap(ev.subSat) < k {
		ev.subSat = make([]uint64, k)
		ev.subCost = make([]float64, 64*k)
	}
	subSat, subCost := ev.subSat[:k], ev.subCost[:64*k]
	for i, x := range pr.survivors {
		subSat[i] = ev.evalExec(x, pr.members, merged, changed, subCost[64*i:64*i+64])
	}
	ev.evals += uint64(k * bits.OnesCount64(changed))
	for w := changed; w != 0; w &= w - 1 {
		j := bits.TrailingZeros64(w)
		lane := uint64(1) << uint(j)
		var best float64
		holds := false
		if a := ev.arg[j]; a >= 0 {
			if !pr.isTouched(a) {
				best, holds = ev.best[j], true
			} else {
				for x, sat := range ev.sat {
					if sat&lane == 0 || pr.isTouched(int32(x)) {
						continue
					}
					if c := ev.cost[64*x+j]; !holds || c < best {
						best, holds = c, true
					}
				}
			}
		}
		for i, sat := range subSat {
			if sat&lane == 0 {
				continue
			}
			if c := subCost[64*i+j]; !holds || c < best {
				best, holds = c, true
			}
		}
		switch {
		case !holds:
			out[j] = CostTruth{}
		case ev.arg[j] >= 0 && best == ev.best[j]:
			// The base value: share its boxed result. Sums are
			// never NaN or negative zero, so equal means identical.
			out[j] = ev.boxed[j]
		default:
			out[j] = CostTruth{Cost: best, Truth: true}
		}
	}
}
