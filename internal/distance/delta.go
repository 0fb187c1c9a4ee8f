package distance

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/provenance"
)

// deltaProbe holds the per-candidate metadata the sweep needs: the
// probed members and the flattened original members of the merged group
// (for the φ-truth). pr is the compiled arena probe of an aggregation's
// plan, and space its own coordinate space when it has one; a
// BlockPlan's probes ride in the sweep's laneEval instead.
type deltaProbe struct {
	pr      *provenance.Probe
	members []provenance.Annotation
	// memberIDs are the dense plan ids of members (-1 when a member
	// does not occur in the planned expression).
	memberIDs []int32
	// memberCols and memberRaw back the blocked sweep's truth columns for
	// members whose memberIDs entry is -1: memberCols[k] holds the baseIn
	// ids whose φ-combine is member k's extended truth (the member is a
	// base group), memberRaw[k] the baseIn id of its raw truth otherwise.
	// Both are nil when every member is interned (the common case).
	memberCols [][]int32
	memberRaw  []int32
	// flatIDs are the base-interner ids of the union of the base groups
	// of the probed members: the original annotations whose φ-combined
	// truth the merged group gets.
	flatIDs []int32
	// noSkip blocks the truth-delta short-circuit: the candidate's
	// result can differ from the base even when no truth changes. It
	// renames a vector coordinate or an aligned original coordinate,
	// folds some coordinate in another order on a plan whose folds are
	// not exact, or reshapes a block plan's expression.
	noSkip bool
	// space is the candidate's own coordinate space, set when its merge
	// renames a coordinate of the candidate or of the aligned original;
	// nil when the step's space serves.
	space *denseSpace
}

// deltaTruths holds the step's truth tables in dense form: the plan's
// annotations in id order and, per id, how its extended truth under
// v^{h,φ} is derived. The base-group members (original annotations) AND
// the plan's raw annotations intern into one shared table (rawID maps
// raw plan ids into it), so each raw truth column is pulled from the
// valuations exactly once — a raw annotation that is also some group's
// member is not read twice — and every per-candidate φ-combine is pure
// array indexing, no string hashing on the hot path. It is built once
// per DistanceDelta call and shared read-only across workers.
type deltaTruths struct {
	names   []provenance.Annotation // interned annotations in id order
	members [][]int32               // per id: baseIn ids of its base-group members, nil → raw truth
	rawID   []int32                 // per id: baseIn id of its raw truth (-1 when grouped)
	baseIn  *provenance.Interner    // interned base members and raw plan annotations
	phi     provenance.Combiner
}

func newDeltaTruths(names []provenance.Annotation, base provenance.Groups, phi provenance.Combiner) *deltaTruths {
	baseIn := provenance.NewInternerSize(len(names))
	members := make([][]int32, len(names))
	rawID := make([]int32, len(names))
	for id, ann := range names {
		rawID[id] = -1
		if ms, ok := base[ann]; ok && len(ms) > 0 {
			ids := make([]int32, len(ms))
			for i, m := range ms {
				ids[i] = baseIn.Intern(m)
			}
			members[id] = ids
		} else {
			rawID[id] = baseIn.Intern(ann)
		}
	}
	return &deltaTruths{names: names, members: members, rawID: rawID, baseIn: baseIn, phi: phi}
}

// internFlat interns the flattened member list of one probe.
func (d *deltaTruths) internFlat(flat []provenance.Annotation) []int32 {
	ids := make([]int32, len(flat))
	for i, m := range flat {
		ids[i] = d.baseIn.Intern(m)
	}
	return ids
}

// DistanceDelta scores a cohort of candidate merges over the shared
// current expression cur without materializing the candidates: every
// member set of cohort is probed as a merge into newAnn on cur's
// compiled plan. base must be the step's inverse view
// (GroupsOf(origAnns, cum)), and cum the mapping with cur = cum(p0).
//
// An aggregation compiles into the arena's plan (provenance.NewPlan)
// and is scored on dense rows (dense.go); any other expression
// implementing BlockPlanner (the DDP tropical sum) compiles its own
// BlockPlan, and both drive the same blocked sweep. The sweep is
// valuation-blocked: up to 64 valuations evaluate per plan pass
// (provenance.Arena.EvalRows), member-vs-merged truth deltas compare as
// single word operations, and workers partition the valuation blocks.
// On top of the blocking, the sweep keeps the delta savings: (1)
// candidates evaluate through the homomorphism identity Eval(h(p), v') =
// Eval(p, v'∘h) on the shared plan instead of a per-candidate Apply +
// Eval; (2) a candidate whose merged φ-truth equals every member's
// pre-merge truth reuses the base evaluation's VAL-FUNC value outright
// (counted in Stats.DeltaSkips); (3) when truths do change, only the
// dirty subtrees re-evaluate, lanes in bulk (Stats.DeltaSubtreeEvals).
//
// It returns the per-candidate distances and candidate sizes, computed
// incrementally (equal to Apply(...).Size()). It is the one scorer of
// Algorithm 1: err, a *PlanError, refuses the cohort when CheckPlan
// refuses cur (for newAnn) or when a probe cannot be compiled soundly.
//
// Distances are bit-identical to refDistance, the test oracle that
// reads Definition 3.2.2 off the semantics, and, in enumeration mode,
// to per-candidate Distance calls; per-candidate sums accumulate in
// valuation order at any Parallelism, and sampling mode draws one
// shared sample set up front (common random numbers).
//
// carry, when non-nil, is the calling run's step state: pair probes it
// carried from the previous step are reused instead of rebuilt, and
// this call's pair probes are recorded in it for CommitMerge to carry
// into the next step. Carried probes equal rebuilt ones field for field
// (provenance.MergePatch.Carry), so results do not depend on it.
func (e *Estimator) DistanceDelta(p0, cur provenance.Expression, cum provenance.Mapping, base provenance.Groups, cohort [][]provenance.Annotation, newAnn provenance.Annotation, carry *Carry) (dists []float64, sizes []int, err error) {
	plan, bplan, err := e.planOf(cur)
	carry.use(plan, newAnn, len(cohort))
	if err != nil {
		return nil, nil, err
	}
	names, annID, err := sweepNames(p0, plan, bplan)
	if err != nil {
		return nil, nil, err
	}
	if _, taken := annID(newAnn); taken {
		carry.reset(nil, "")
		return nil, nil, planError("the summary annotation %q occurs in the expression", newAnn)
	}
	truths := newDeltaTruths(names, base, e.Phi)
	// The probes, their member ids, and the φ-member scratch share a few
	// slabs instead of allocating per candidate.
	probes := make([]*deltaProbe, len(cohort))
	slab := make([]deltaProbe, len(cohort))
	nMembers := 0
	for _, ms := range cohort {
		nMembers += len(ms)
	}
	idSlab := make([]int32, 0, nMembers)
	var flat []provenance.Annotation
	var bprobes []BlockProbe
	if bplan != nil {
		bprobes = make([]BlockProbe, len(cohort))
	}
	sizes = make([]int, len(cohort))
	var carried, built uint64
	for i, ms := range cohort {
		dp := &slab[i]
		if plan != nil {
			pr := carry.probe(plan, ms)
			if pr != nil {
				carried++
			} else if pr = plan.Probe(ms, newAnn); pr == nil {
				carry.reset(nil, "")
				return nil, nil, planError("the plan refuses the merge of %q", ms)
			} else {
				built++
				carry.record(ms, pr)
			}
			dp.pr, dp.members = pr, pr.Members
			dp.noSkip = pr.RenamesGroup || (!plan.Exact() && pr.Reorders())
			sizes[i] = pr.Size
		} else {
			bp := bplan.Probe(ms, newAnn)
			if bp == nil {
				return nil, nil, planError("the plan refuses the merge of %q", ms)
			}
			built++
			bprobes[i] = bp
			dp.members, dp.noSkip = ms, bp.Reshapes()
			sizes[i] = bp.Size()
		}
		flat = flat[:0]
		for _, m := range ms {
			flat = append(flat, base.Members(m)...)
		}
		dp.flatIDs = truths.internFlat(flat)
		dp.memberIDs = idSlab[len(idSlab) : len(idSlab)+len(dp.members) : len(idSlab)+len(dp.members)]
		idSlab = idSlab[:len(idSlab)+len(dp.members)]
		for k, m := range dp.members {
			if id, ok := annID(m); ok {
				dp.memberIDs[k] = id
				continue
			}
			// An uninterned member's truth column is the φ-combine of its
			// base group, or its raw truth.
			dp.memberIDs[k] = -1
			if dp.memberCols == nil {
				dp.memberCols = make([][]int32, len(dp.members))
				dp.memberRaw = make([]int32, len(dp.members))
				for r := range dp.memberRaw {
					dp.memberRaw[r] = -1
				}
			}
			if bm, grouped := base[m]; grouped && len(bm) > 0 {
				dp.memberCols[k] = truths.internFlat(bm)
			} else {
				dp.memberRaw[k] = truths.baseIn.Intern(m)
			}
		}
		probes[i] = dp
	}

	t0 := time.Now()
	defer func() {
		e.stats.deltaCalls.Add(1)
		e.stats.deltaCandidates.Add(uint64(len(cohort)))
		e.stats.probesCarried.Add(carried)
		e.stats.probesBuilt.Add(built)
		e.stats.deltaNanos.Add(int64(time.Since(t0)))
	}()

	out := make([]float64, len(cohort))
	if len(cohort) == 0 {
		return out, sizes, nil
	}
	vals := e.batchValuations()
	if len(vals) == 0 {
		return out, sizes, nil
	}

	e.stats.deltaSkips.Add(deltaBlocked(e, truths, probes, vals, out, e.laneEvals(p0, plan, bplan, cum, probes, bprobes, vals, newAnn)))
	e.normalize(out, len(vals))
	return out, sizes, nil
}

// sweepNames returns the annotations, in dense-id order, and the id
// lookup of the plan a sweep against p0 runs on, planOf's plan of the
// current expression. An aggregation's plan sweeps only against an
// aggregated original.
func sweepNames(p0 provenance.Expression, plan *provenance.Plan, bplan BlockPlan) (names []provenance.Annotation, annID func(provenance.Annotation) (int32, bool), err error) {
	if plan != nil {
		if g0, ok := p0.(*provenance.Agg); !ok || g0 == nil {
			return nil, nil, planError("an aggregation is scored against a %T original", p0)
		}
		return plan.Annotations(), plan.AnnID, nil
	}
	return bplan.Annotations(), bplan.AnnID, nil
}

// normalize turns per-candidate VAL-FUNC sums over n valuations into
// distances: the mean, divided by MaxError (capped at 1) when set.
func (e *Estimator) normalize(out []float64, n int) {
	for i, total := range out {
		d := total / float64(n)
		if e.MaxError > 0 {
			d /= e.MaxError
			if d > 1 {
				d = 1
			}
		}
		out[i] = d
	}
}

// batchValuations returns the sweep's valuation list: the enumerated
// class, enumerated once per run, or — in sampling mode — one shared
// sample set drawn up front. The list must not be modified.
func (e *Estimator) batchValuations() []provenance.Valuation {
	if e.Samples <= 0 {
		if e.vals == nil {
			e.vals = e.Class.Valuations()
		}
		return e.vals
	}
	if e.Rand == nil {
		panic("distance: Estimator.Samples > 0 requires Estimator.Rand (see Estimator.Validate)")
	}
	vals := make([]provenance.Valuation, e.Samples)
	for i := range vals {
		vals[i] = e.Class.Sample(e.Rand)
		e.stats.samples.Add(1)
	}
	return vals
}

// laneEvals returns the factory of a sweep's per-worker evaluators: the
// dense rows of an aggregation's plan (denseStep), or a BlockPlan's own
// evaluator, whose results carry no keys, so the originals compare
// unaligned. The original's results are looked up once per valuation
// before the workers fan out, so workers never touch the cache.
func (e *Estimator) laneEvals(p0 provenance.Expression, plan *provenance.Plan, bplan BlockPlan, cum provenance.Mapping, probes []*deltaProbe, bprobes []BlockProbe, vals []provenance.Valuation, newAnn provenance.Annotation) func(*deltaBlockState) laneEval {
	if bplan != nil {
		origs := make([]provenance.Result, len(vals))
		for i, v := range vals {
			origs[i] = e.evalOriginal(v, p0)
		}
		return func(st *deltaBlockState) laneEval {
			if st.results == nil {
				st.results = newLaneResults()
			}
			return &blockPlanEval{e: e, origs: origs, ev: bplan.NewEvaluator(), probes: bprobes, res: st.results}
		}
	}
	step := e.denseStep(p0.(*provenance.Agg), plan, cum, probes, vals, newAnn)
	return func(st *deltaBlockState) laneEval {
		if st.rows == nil {
			st.rows = newLaneRows()
		}
		return &arenaEval{e: e, step: step, bs: step.ar.GetBlockScratch(), r: st.rows}
	}
}

// distanceBase is Distance: the delta sweep of one candidate that
// merges nothing, so every lane skips to the base VAL-FUNC value, summed
// in valuation order. Its skips are not delta work and are not counted.
// The plan stays cached (planOf), so the step that scores pc's merges
// next reuses it. err is planOf's or sweepNames' refusal.
func (e *Estimator) distanceBase(p0, pc provenance.Expression, cum provenance.Mapping, groups provenance.Groups) (float64, error) {
	plan, bplan, err := e.planOf(pc)
	if err != nil {
		return 0, err
	}
	names, _, err := sweepNames(p0, plan, bplan)
	if err != nil {
		return 0, err
	}
	vals := e.batchValuations()
	if len(vals) == 0 {
		return 0, nil
	}
	out := []float64{0}
	deltaBlocked(e, newDeltaTruths(names, groups, e.Phi), []*deltaProbe{{}}, vals, out, e.laneEvals(p0, plan, bplan, cum, nil, nil, vals, ""))
	e.stats.evaluations.Add(uint64(len(vals)))
	e.normalize(out, len(vals))
	return out[0], nil
}

// denseStep builds the shared state of an aggregation's sweep: the
// original's rows (built once per run, origRow), the step's space, and
// the own
// space of every probe that needs one. A probe whose merge renames a
// coordinate of the aligned original is scored against the original
// aligned through its composed mapping, and one that renames a
// coordinate of cur gets its candidate's slots; both block the skip.
func (e *Estimator) denseStep(p0 *provenance.Agg, plan *provenance.Plan, cum provenance.Mapping, probes []*deltaProbe, vals []provenance.Valuation, newAnn provenance.Annotation) *denseStep {
	origs := make([][]float64, len(vals))
	for i, v := range vals {
		origs[i] = e.origRow(v, p0)
	}
	origKeys := e.origKeys
	step := &denseStep{
		ar:     plan.Arena(),
		agg:    plan.Expr().Agg,
		origs:  origs,
		space:  newDenseSpace(origKeys, cum, plan.Arena().Slots()),
		probes: probes,
	}
	for _, dp := range probes {
		touched := false
		for _, m := range dp.members {
			touched = touched || step.space.hasOrig(m)
		}
		if touched || dp.pr.RenamesGroup {
			dp.noSkip = true
			composed := cum.Compose(provenance.MergeMapping(newAnn, dp.members...))
			sp := newDenseSpace(origKeys, composed, dp.pr.Slots())
			dp.space = &sp
		}
	}
	return step
}

// laneEval is one blocked-sweep worker's evaluator over the step plan.
// evalBlock evaluates the base expression on every lane of a truth
// block whose first valuation is vals[lo]; baseVF is the VAL-FUNC value
// of lane j's base result; candVF evaluates probe ci's candidate on the
// changed lanes, reading the base pass, and writes each one's VAL-FUNC
// value to vf[j]. release returns the dirty re-evaluation count and
// recycles the worker's scratch.
type laneEval interface {
	evalBlock(tb *provenance.TruthBlock, lo int, block []provenance.Valuation)
	baseVF(j int) float64
	candVF(ci int, merged, changed uint64, vf []float64)
	release() (subtreeEvals uint64)
}

// laneResults are a BlockPlan worker's lanes: base and candidate results.
type laneResults struct {
	base, cand []provenance.Result
}

func newLaneResults() *laneResults {
	return &laneResults{base: make([]provenance.Result, 64), cand: make([]provenance.Result, 64)}
}

// blockPlanEval drives a BlockPlan through its evaluator. Its results
// carry no coordinate keys, so the original's results (origs, one per
// valuation) compare as they are.
type blockPlanEval struct {
	e      *Estimator
	origs  []provenance.Result
	ev     BlockEvaluator
	probes []BlockProbe
	res    *laneResults
	block  []provenance.Valuation
	lo     int
}

func (b *blockPlanEval) evalBlock(tb *provenance.TruthBlock, lo int, block []provenance.Valuation) {
	b.block, b.lo = block, lo
	b.ev.EvalBlock(tb, b.res.base[:len(block)])
}

func (b *blockPlanEval) baseVF(j int) float64 {
	return b.e.VF.F(b.block[j], b.origs[b.lo+j], b.res.base[j])
}

func (b *blockPlanEval) candVF(ci int, merged, changed uint64, vf []float64) {
	b.ev.CandEvalBlock(b.probes[ci], merged, changed, b.res.cand[:len(b.block)])
	for w := changed; w != 0; w &= w - 1 {
		j := bits.TrailingZeros64(w)
		vf[j] = b.e.VF.F(b.block[j], b.origs[b.lo+j], b.res.cand[j])
	}
}

func (b *blockPlanEval) release() uint64 { return b.ev.Release() }

// deltaBlockState is the worker-private state of one blocked delta
// sweep: the packed raw-truth columns of the current block, the truth
// block handed to the plan, the per-lane VAL-FUNC cache, and the lanes
// of the laneEval the worker runs (allocated on first use: an estimator
// scores one kind of expression in practice). It is pooled on the
// estimator.
type deltaBlockState struct {
	baseTruthW []uint64 // per baseIn id: packed raw truths of the block
	tb         *provenance.TruthBlock
	baseVF     []float64 // per lane: cached base VAL-FUNC value
	wscratch   []uint64
	bscratch   []bool
	rows       *laneRows
	results    *laneResults
}

func getBlockState(e *Estimator) *deltaBlockState {
	st, ok := e.blockStatePool.Get().(*deltaBlockState)
	if !ok {
		st = &deltaBlockState{tb: provenance.NewTruthBlock(), baseVF: make([]float64, 64)}
	}
	return st
}

// putBlockState recycles a block state. Dense rows stay (their reuse is
// the point of the pool: EvalRows refills them in place); aligned-row
// views and result references are dropped so the pool never pins a
// run's originals or evaluation results alive.
func putBlockState(e *Estimator, st *deltaBlockState) {
	if st.rows != nil {
		clear(st.rows.aligned)
	}
	if st.results != nil {
		clear(st.results.base)
		clear(st.results.cand)
	}
	e.blockStatePool.Put(st)
}

// combineW φ-combines packed raw-truth columns lane-wise. Combiners
// implementing
// provenance.WordCombiner (φ = OR, AND) combine whole words; others fall
// back to a per-lane bool column, bit-identical by the WordCombiner
// contract.
func (st *deltaBlockState) combineW(ids []int32, phi provenance.Combiner, mask uint64, lanes int) uint64 {
	if wc, ok := phi.(provenance.WordCombiner); ok {
		ws := st.wscratch[:0]
		for _, id := range ids {
			ws = append(ws, st.baseTruthW[id])
		}
		st.wscratch = ws
		return wc.CombineWords(ws, mask)
	}
	if cap(st.bscratch) < len(ids) {
		st.bscratch = make([]bool, len(ids))
	}
	truths := st.bscratch[:len(ids)]
	var w uint64
	for j := 0; j < lanes; j++ {
		for i, id := range ids {
			truths[i] = st.baseTruthW[id]&(1<<uint(j)) != 0
		}
		if phi.Combine(truths) {
			w |= 1 << uint(j)
		}
	}
	return w
}

// deltaBlocked runs the valuation-blocked sweep: workers partition the
// 64-lane valuation blocks (not the candidates), each with its own
// laneEval from newEval over its pooled block state, writing disjoint
// lane columns of a candidate × valuation summand matrix. The final
// per-candidate sum is a sequential left-fold over that matrix in
// valuation order, so results are bit-identical to a sequential
// per-valuation sum at any worker count. Candidates are chunked when the
// matrix would otherwise outgrow a fixed cell budget. It returns the
// number of (candidate, valuation) pairs that skipped to the base value.
func deltaBlocked(e *Estimator, shared *deltaTruths, probes []*deltaProbe, vals []provenance.Valuation, out []float64, newEval func(*deltaBlockState) laneEval) (skips uint64) {
	V := len(vals)
	nBlocks := (V + 63) / 64
	workers := e.Parallelism
	if workers > nBlocks {
		workers = nBlocks
	}
	const maxCells = 4 << 20
	chunk := len(probes)
	if chunk*V > maxCells {
		chunk = maxCells / V
		if chunk < 1 {
			chunk = 1
		}
	}
	// Prewarm the packed truth column of every raw annotation before
	// fanning out, so sweep workers only read the memo.
	baseAnns := shared.baseIn.Annotations()
	cols := make([][]uint64, len(baseAnns))
	for i, a := range baseAnns {
		cols[i] = e.truthColumn(a, vals)
	}
	var skipped atomic.Uint64
	// Every cell of the matrix is written before it is read (a lane
	// either skips to the base value or is re-evaluated), so the
	// estimator's matrix is reused without clearing.
	e.vf = fit(e.vf, chunk*V)
	vf := e.vf
	for cLo := 0; cLo < len(probes); cLo += chunk {
		cHi := min(len(probes), cLo+chunk)
		if workers <= 1 {
			deltaBlockSweep(e, shared, probes, vals, cols, vf, cLo, cHi, 0, nBlocks, newEval, &skipped)
		} else {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				bLo := w * nBlocks / workers
				bHi := (w + 1) * nBlocks / workers
				wg.Add(1)
				go func(bLo, bHi int) {
					defer wg.Done()
					deltaBlockSweep(e, shared, probes, vals, cols, vf, cLo, cHi, bLo, bHi, newEval, &skipped)
				}(bLo, bHi)
			}
			wg.Wait()
		}
		for ci := cLo; ci < cHi; ci++ {
			row := vf[(ci-cLo)*V : (ci-cLo+1)*V]
			total := 0.0
			for _, x := range row {
				total += x
			}
			out[ci] = total
		}
	}
	return skipped.Load()
}

// deltaBlockSweep scores probes[cLo:cHi] against valuation blocks
// [bLo, bHi), writing each (candidate, valuation) VAL-FUNC summand into
// its vf matrix cell and adding its skipped pairs to skipped. Per block
// it loads the prewarmed raw truth words (cols[i][b] is annotation i's
// packed column word for block b), φ-combines extended truth columns
// word-wise, evaluates the base through its laneEval, and per candidate
// compares member columns against the merged column with XORs: the
// changed-lane word drives both the skip accounting and the one candVF
// call that re-evaluates all changed lanes together.
func deltaBlockSweep(e *Estimator, shared *deltaTruths, probes []*deltaProbe, vals []provenance.Valuation, cols [][]uint64, vf []float64, cLo, cHi, bLo, bHi int, newEval func(*deltaBlockState) laneEval, skipped *atomic.Uint64) {
	st := getBlockState(e)
	ev := newEval(st)
	names := shared.names
	V := len(vals)
	var skips, fulls uint64
	for b := bLo; b < bHi; b++ {
		lo := b * 64
		block := vals[lo:min(V, lo+64)]
		lanes := len(block)
		mask := ^uint64(0) >> uint(64-lanes)
		st.baseTruthW = fit(st.baseTruthW, len(cols))
		for i, col := range cols {
			st.baseTruthW[i] = col[b]
		}
		st.tb.Reset(len(names), lanes)
		for id := range names {
			var w uint64
			if ids := shared.members[id]; ids != nil {
				w = st.combineW(ids, shared.phi, mask, lanes)
			} else {
				w = st.baseTruthW[shared.rawID[id]]
			}
			st.tb.SetWord(int32(id), w)
		}
		ev.evalBlock(st.tb, lo, block)
		var baseVFW uint64 // lanes whose base VAL-FUNC value is cached
		for ci := cLo; ci < cHi; ci++ {
			dp := probes[ci]
			mergedW := st.combineW(dp.flatIDs, shared.phi, mask, lanes)
			var changedW uint64
			if dp.noSkip {
				changedW = mask
			} else {
				for k := range dp.memberIDs {
					var mw uint64
					if id := dp.memberIDs[k]; id >= 0 {
						mw = st.tb.Word(id)
					} else if cols := dp.memberCols[k]; cols != nil {
						mw = st.combineW(cols, shared.phi, mask, lanes)
					} else {
						mw = st.baseTruthW[dp.memberRaw[k]]
					}
					changedW |= mw ^ mergedW
				}
				changedW &= mask
			}
			row := vf[(ci-cLo)*V+lo:]
			if skipW := mask &^ changedW; skipW != 0 {
				for w := skipW &^ baseVFW; w != 0; w &= w - 1 {
					j := bits.TrailingZeros64(w)
					st.baseVF[j] = ev.baseVF(j)
				}
				baseVFW |= skipW
				for w := skipW; w != 0; w &= w - 1 {
					j := bits.TrailingZeros64(w)
					row[j] = st.baseVF[j]
				}
				skips += uint64(bits.OnesCount64(skipW))
			}
			if changedW != 0 {
				ev.candVF(ci, mergedW, changedW, row)
				fulls += uint64(bits.OnesCount64(changedW))
			}
		}
	}
	skipped.Add(skips)
	e.stats.deltaFullEvals.Add(fulls)
	e.stats.evaluations.Add(fulls)
	e.stats.deltaSubtreeEvals.Add(ev.release())
	putBlockState(e, st)
}

// fit grows (or re-slices) a pooled slab to exactly n entries without
// reallocating on shrink.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
