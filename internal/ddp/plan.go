package ddp

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/distance"
	"repro/internal/provenance"
)

// This file compiles a DDP expression for delta scoring: the
// distance.BlockPlan that distance.Estimator.DistanceDelta drives
// through its blocked sweep. A summarization step compiles the current
// expression once; every candidate merge of the step is then probed on
// the compiled form, and only the winner is ever materialized by Apply.
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
// dense ids; execution x is the span userOff[x]:userOff[x+1] of user
// terms in stored order plus the span condOff[x]:condOff[x+1] of
// condition terms; annOff/annExecs is the annotation→execution CSR index
// (ascending execution ids per annotation). A Plan is read-only after
// compilation and shared by every probe and evaluator of its step.
type Plan struct {
	names []provenance.Annotation
	ids   map[provenance.Annotation]int32

	userOff, condOff []int32
	users            []userTerm
	conds            []condTerm
	execSize         []int

	annOff, annExecs []int32
	size             int

	keyPool sync.Pool // *keyTable: Probe's scratch
}

type userTerm struct {
	id   int32
	cost float64
}

type condTerm struct {
	a, b    int32
	nonZero bool
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
	n := len(e.Execs)
	p := &Plan{
		ids:      make(map[provenance.Annotation]int32),
		userOff:  make([]int32, n+1),
		condOff:  make([]int32, n+1),
		execSize: make([]int, n),
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
		if nConds != int(p.condOff[x+1]-p.condOff[x]) || !keys.add(start) {
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
	p.annOff = counts
	p.annExecs = make([]int32, counts[len(counts)-1])
	fill := slices.Clone(counts[:len(p.names)])
	for i := range last {
		last[i] = -1
	}
	p.forEachAnn(func(x, id int32) {
		if last[id] != x {
			last[id] = x
			p.annExecs[fill[id]] = x
			fill[id]++
		}
	})
	return p, nil
}

// errReserved refuses the reserved annotations provenance.Zero and One,
// which Eval reads as constants rather than as variables.
var errReserved = errors.New("ddp: a transition names a reserved annotation")

// ValidCost reports whether c is a cost the tropical semiring of costs
// holds: finite and not negative.
func ValidCost(c float64) bool { return c >= 0 && !math.IsInf(c, 1) }

// forEachAnn calls f for every variable occurrence, executions in order.
func (p *Plan) forEachAnn(f func(x, id int32)) {
	for x := int32(0); x < int32(len(p.execSize)); x++ {
		for _, u := range p.users[p.userOff[x]:p.userOff[x+1]] {
			f(x, u.id)
		}
		for _, c := range p.conds[p.condOff[x]:p.condOff[x+1]] {
			f(x, c.a)
			f(x, c.b)
		}
	}
}

// Annotations implements distance.BlockPlan.
func (p *Plan) Annotations() []provenance.Annotation { return p.names }

// AnnID implements distance.BlockPlan.
func (p *Plan) AnnID(a provenance.Annotation) (int32, bool) {
	id, ok := p.ids[a]
	return id, ok
}

// keyTable is a set of integer canonical keys: canon appends each key
// to flat, and add either keeps it or drops it as a duplicate. Keys are
// prefiltered by hash.
type keyTable struct {
	flat   []uint64
	spans  [][2]int
	hashes []uint64
	users  []userKey // canon's sort buffers
	conds  []uint64

	touched, survivors []int32 // Probe's scratch
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
	for _, u := range p.users[p.userOff[x]:p.userOff[x+1]] {
		t.users = append(t.users, userKey{id: ren(u.id), bits: math.Float64bits(u.cost)})
	}
	slices.SortFunc(t.users, func(a, b userKey) int {
		if a.id != b.id {
			return int(a.id) - int(b.id)
		}
		switch {
		case a.bits < b.bits:
			return -1
		case a.bits > b.bits:
			return 1
		}
		return 0
	})
	t.conds = t.conds[:0]
	for _, c := range p.conds[p.condOff[x]:p.condOff[x+1]] {
		a, b := ren(c.a), ren(c.b)
		if a > b {
			a, b = b, a
		}
		code := uint64(a)<<33 | uint64(b)<<1
		if c.nonZero {
			code |= 1
		}
		t.conds = append(t.conds, code)
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

// Probe is one compiled candidate merge: members ↦ a fresh annotation
// over the plan's expression. It implements distance.BlockProbe and is
// read-only after construction.
type Probe struct {
	members   []int32  // interned member ids
	touched   []uint64 // bitset over executions: mentions a member
	survivors []int32  // touched executions Apply keeps, ascending
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
	var ms []int32
	for _, m := range members {
		if id, ok := p.ids[m]; ok && !slices.Contains(ms, id) {
			ms = append(ms, id)
		}
	}
	keys := p.getKeyTable()
	defer p.keyPool.Put(keys)
	touched := keys.touched[:0]
	for _, id := range ms {
		touched = append(touched, p.annExecs[p.annOff[id]:p.annOff[id+1]]...)
	}
	slices.Sort(touched)
	touched = slices.Compact(touched)
	keys.touched = touched

	pr := &Probe{
		members: ms,
		touched: make([]uint64, (len(p.execSize)+63)/64),
		size:    p.size,
	}
	newID := int32(len(p.names))
	survivors := keys.survivors[:0]
	for _, x := range touched {
		pr.touched[x>>6] |= 1 << uint(x&63)
		pr.size -= p.execSize[x]
		start := len(keys.flat)
		nConds := keys.canon(p, x, ms, newID)
		if !keys.add(start) {
			pr.reshapes = true
			continue
		}
		survivors = append(survivors, x)
		pr.size += int(p.userOff[x+1]-p.userOff[x]) + 2*nConds
	}
	keys.survivors = survivors
	pr.survivors = slices.Clone(survivors)
	return pr
}

// getKeyTable takes an emptied key table from the plan's pool: probes of
// one step compile one after another, so a single table's buffers serve
// them all.
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
	sat   []uint64  // per execution: lanes whose conditions hold
	cost  []float64 // per execution, 64 lanes: cost sum (valid on sat lanes)
	best  [64]float64
	arg   [64]int32             // per lane: execution of the base minimum, -1 if none holds
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
	n := len(p.execSize)
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
	for _, c := range p.conds[p.condOff[x]:p.condOff[x+1]] {
		w := ev.word(c.a, ms, merged) & ev.word(c.b, ms, merged)
		if !c.nonZero {
			w = ^w
		}
		sat &= w
	}
	for w := sat; w != 0; w &= w - 1 {
		row[bits.TrailingZeros64(w)] = 0
	}
	for _, u := range p.users[p.userOff[x]:p.userOff[x+1]] {
		for w := ev.word(u.id, ms, merged) & sat; w != 0; w &= w - 1 {
			row[bits.TrailingZeros64(w)] += u.cost
		}
	}
	return sat
}

// EvalBlock implements distance.BlockEvaluator: every execution once
// per block, then each lane's tropical min.
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
