package distance

import (
	"math/bits"
	"sync"
	"time"

	"repro/internal/provenance"
)

// deltaProbe holds the per-candidate metadata the sweep needs: the
// probed members, the flattened original members of the merged group
// (for the φ-truth), whether the candidate touches result alignment, and
// — only then — the composed cumulative mapping. pr is the compiled
// arena probe of an aggregation's plan; a BlockPlan's probes ride in
// the sweep's laneEval instead.
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
	// noSkip blocks the truth-delta short-circuit: the candidate renames
	// a vector coordinate or an aligned original coordinate, or reshapes
	// a block plan's expression, so its result can differ from the base
	// even when no truth changes.
	noSkip bool
	// alignTouched marks candidates whose merge renames original result
	// coordinates; they align with composed instead of reusing the base
	// alignment. needsAlign caches needsAlign(orig, composed), which
	// depends only on the original result's keys.
	alignTouched bool
	needsAlign   bool
	composed     provenance.Mapping
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
// An aggregation compiles into the arena's plan (provenance.NewPlan);
// any other expression implementing BlockPlanner (the DDP tropical sum)
// compiles its own BlockPlan, and both drive the same blocked sweep.
// The sweep is valuation-blocked: up to 64
// valuations evaluate per plan pass (provenance.Arena.EvalBlock),
// member-vs-merged truth deltas compare as single word operations, and
// workers partition the valuation blocks. On top of the blocking, the
// sweep keeps the delta savings: (1) candidates evaluate through the
// homomorphism identity Eval(h(p), v') = Eval(p, v'∘h) on the shared
// plan instead of a per-candidate Apply + Eval; (2) a candidate whose
// merged φ-truth equals every member's pre-merge truth reuses the base
// evaluation's VAL-FUNC value outright (counted in Stats.DeltaSkips);
// (3) when truths do change, only the dirty subtrees re-evaluate, lanes
// in bulk (Stats.DeltaSubtreeEvals).
//
// It returns the per-candidate distances and candidate sizes, computed
// incrementally (equal to Apply(...).Size()). ok is false — and the
// caller must fall back to DistanceBatch — when cur cannot be planned
// (see planOf: non-aggregations without a BlockPlan, arenas the blocked
// kernel refuses) or a probe cannot be compiled soundly (newAnn occurs
// in cur, reserved annotations, names with key separators).
//
// Distances are bit-identical to DistanceBatch and, in enumeration mode,
// to per-candidate Distance calls; per-candidate sums accumulate in
// valuation order at any Parallelism, and sampling mode draws one shared
// sample set up front (common random numbers), exactly like
// DistanceBatch.
func (e *Estimator) DistanceDelta(p0, cur provenance.Expression, cum provenance.Mapping, base provenance.Groups, cohort [][]provenance.Annotation, newAnn provenance.Annotation) (dists []float64, sizes []int, ok bool) {
	plan, bplan := e.planOf(cur)
	var names []provenance.Annotation
	var annID func(provenance.Annotation) (int32, bool)
	switch {
	case plan != nil:
		names, annID = plan.Annotations(), plan.AnnID
	case bplan != nil:
		names, annID = bplan.Annotations(), bplan.AnnID
	default:
		return nil, nil, false
	}
	truths := newDeltaTruths(names, base, e.Phi)
	probes := make([]*deltaProbe, len(cohort))
	var bprobes []BlockProbe
	if bplan != nil {
		bprobes = make([]BlockProbe, len(cohort))
	}
	sizes = make([]int, len(cohort))
	for i, ms := range cohort {
		dp := &deltaProbe{}
		if plan != nil {
			pr := plan.Probe(ms, newAnn)
			if pr == nil {
				return nil, nil, false
			}
			dp.pr, dp.members, dp.noSkip = pr, pr.Members, pr.RenamesGroup
			sizes[i] = pr.Size
		} else {
			bp := bplan.Probe(ms, newAnn)
			if bp == nil {
				return nil, nil, false
			}
			bprobes[i] = bp
			dp.members, dp.noSkip = ms, bp.Reshapes()
			sizes[i] = bp.Size()
		}
		var flat []provenance.Annotation
		for _, m := range ms {
			flat = append(flat, base.Members(m)...)
		}
		dp.flatIDs = truths.internFlat(flat)
		dp.memberIDs = make([]int32, len(dp.members))
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
		e.stats.deltaNanos.Add(int64(time.Since(t0)))
	}()

	out := make([]float64, len(cohort))
	if len(cohort) == 0 {
		return out, sizes, true
	}
	vals := e.batchValuations()
	if len(vals) == 0 {
		return out, sizes, true
	}
	// Fill the original-expression cache before fanning out so workers
	// only read it.
	for _, v := range vals {
		e.evalOriginal(v, p0)
	}

	// Alignment metadata. A block plan's results carry no keys, so
	// nothing ever aligns. For an aggregated original the result keys
	// are the same under every valuation, so one evaluation determines
	// which candidates rename aligned coordinates and whether they need
	// an AlignResult at all; non-vector results align unconditionally,
	// like needsAlign.
	baseNeedsAlign := false
	if plan != nil {
		e.alignProbes(p0, cum, probes, vals[0], newAnn)
		baseNeedsAlign = needsAlign(e.evalOriginal(vals[0], p0), cum)
	}

	if bplan != nil {
		deltaBlocked(e, p0, cur, cum, truths, probes, vals, baseNeedsAlign, out, func() laneEval[provenance.Result] {
			return &blockPlanEval{ev: bplan.NewEvaluator(), probes: bprobes}
		})
	} else {
		ar := plan.Arena()
		deltaBlocked(e, p0, cur, cum, truths, probes, vals, baseNeedsAlign, out, func() laneEval[provenance.Vector] {
			return &arenaEval{ar: ar, bs: ar.GetBlockScratch(), probes: probes}
		})
	}
	e.normalize(out, len(vals))
	return out, sizes, true
}

// alignProbes fills the alignment metadata of an aggregation's probes:
// which candidates rename original result coordinates (and so must align
// with their composed mapping), and which of those need an AlignResult
// at all. v is any valuation: an aggregated original's result keys do
// not depend on it.
func (e *Estimator) alignProbes(p0 provenance.Expression, cum provenance.Mapping, probes []*deltaProbe, v provenance.Valuation, newAnn provenance.Annotation) {
	orig := e.evalOriginal(v, p0)
	origVec, origIsVec := orig.(provenance.Vector)
	var renamedKeys map[provenance.Annotation]struct{}
	if origIsVec {
		renamedKeys = make(map[provenance.Annotation]struct{}, len(origVec))
		for k := range origVec {
			if k != "" {
				renamedKeys[cum.Rename(k)] = struct{}{}
			}
		}
	}
	for _, dp := range probes {
		touched := !origIsVec
		if origIsVec {
			for _, m := range dp.members {
				if _, hit := renamedKeys[m]; hit {
					touched = true
					break
				}
			}
		}
		dp.alignTouched = touched
		dp.noSkip = dp.noSkip || (origIsVec && touched)
		if touched {
			step := provenance.MergeMapping(newAnn, dp.members...)
			dp.composed = cum.Compose(step)
			dp.needsAlign = needsAlign(orig, dp.composed)
		}
	}
}

// laneEval is one blocked-sweep worker's evaluator over the step plan,
// generic over the per-lane result type R: provenance.Vector lanes for an
// aggregation's arena plan, provenance.Result lanes for a BlockPlan.
// evalBlock evaluates the base expression on every lane of a truth
// block; candEvalBlock then evaluates probe ci's
// candidate on the changed lanes, reading the base pass. release returns
// the dirty re-evaluation count and recycles the worker's scratch.
type laneEval[R any] interface {
	evalBlock(tb *provenance.TruthBlock, out []R)
	candEvalBlock(ci int, merged, changed uint64, base, out []R)
	release() (subtreeEvals uint64)
}

// arenaEval drives an aggregation's plan: the arena's blocked kernel and
// the compiled probes.
type arenaEval struct {
	ar     *provenance.Arena
	bs     *provenance.BlockScratch
	probes []*deltaProbe
}

func (a *arenaEval) evalBlock(tb *provenance.TruthBlock, out []provenance.Vector) {
	a.ar.EvalBlock(tb, a.bs, out)
}

func (a *arenaEval) candEvalBlock(ci int, merged, changed uint64, base, out []provenance.Vector) {
	a.probes[ci].pr.CandEvalBlock(merged, changed, base, a.bs, out)
}

func (a *arenaEval) release() uint64 {
	n := a.bs.SubtreeEvals
	a.ar.PutBlockScratch(a.bs)
	return n
}

// blockPlanEval drives a BlockPlan through its evaluator.
type blockPlanEval struct {
	ev     BlockEvaluator
	probes []BlockProbe
}

func (b *blockPlanEval) evalBlock(tb *provenance.TruthBlock, out []provenance.Result) {
	b.ev.EvalBlock(tb, out)
}

func (b *blockPlanEval) candEvalBlock(ci int, merged, changed uint64, _, out []provenance.Result) {
	b.ev.CandEvalBlock(b.probes[ci], merged, changed, out)
}

func (b *blockPlanEval) release() uint64 { return b.ev.Release() }

// deltaBlockState is the worker-private state of one blocked delta
// sweep: the packed raw-truth columns of the current block, the truth
// block handed to the plan, and the per-lane evaluation results and
// VAL-FUNC caches. It is pooled on the estimator.
type deltaBlockState[R any] struct {
	baseTruthW []uint64 // per baseIn id: packed raw truths of the block
	tb         *provenance.TruthBlock
	base       []R                 // per lane: base evaluation
	cand       []R                 // per lane: candidate evaluation
	aligned    []provenance.Result // per lane: base-aligned original
	origs      []provenance.Result // per lane: original evaluation
	baseVF     []float64           // per lane: cached base VAL-FUNC value
	wscratch   []uint64
	bscratch   []bool
}

// getBlockState takes a pooled block state for lanes of type R. An
// estimator scores one kind of expression in practice, so a pooled state
// of the other lane type is simply dropped.
func getBlockState[R any](e *Estimator) *deltaBlockState[R] {
	st, ok := e.blockStatePool.Get().(*deltaBlockState[R])
	if !ok {
		st = &deltaBlockState[R]{
			tb:      provenance.NewTruthBlock(),
			base:    make([]R, 64),
			cand:    make([]R, 64),
			aligned: make([]provenance.Result, 64),
			origs:   make([]provenance.Result, 64),
			baseVF:  make([]float64, 64),
		}
	}
	return st
}

// putBlockState recycles a block state. Vector lanes stay (their reuse
// is the point of the pool: EvalBlock refills them in place); result
// references are dropped so the pool never pins evaluation results
// alive.
func putBlockState[R any](e *Estimator, st *deltaBlockState[R]) {
	for i := range st.aligned {
		st.aligned[i] = nil
		st.origs[i] = nil
	}
	if _, vec := any(st.base).([]provenance.Vector); !vec {
		clear(st.base)
		clear(st.cand)
	}
	e.blockStatePool.Put(st)
}

// combineW φ-combines packed raw-truth columns lane-wise. Combiners
// implementing
// provenance.WordCombiner (φ = OR, AND) combine whole words; others fall
// back to a per-lane bool column, bit-identical by the WordCombiner
// contract.
func (st *deltaBlockState[R]) combineW(ids []int32, phi provenance.Combiner, mask uint64, lanes int) uint64 {
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
// laneEval from newEval, writing disjoint lane columns of a candidate ×
// valuation summand matrix. The final per-candidate sum is a sequential
// left-fold over that matrix in valuation order, so results are
// bit-identical to a sequential per-valuation sum at any worker count.
// Candidates are
// chunked when the matrix would otherwise outgrow a fixed cell budget.
func deltaBlocked[R provenance.Result](e *Estimator, p0, cur provenance.Expression, cum provenance.Mapping, shared *deltaTruths, probes []*deltaProbe, vals []provenance.Valuation, baseNeedsAlign bool, out []float64, newEval func() laneEval[R]) {
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
	vf := make([]float64, chunk*V)
	for cLo := 0; cLo < len(probes); cLo += chunk {
		cHi := min(len(probes), cLo+chunk)
		if workers <= 1 {
			deltaBlockSweep(e, p0, cur, cum, shared, probes, vals, cols, baseNeedsAlign, vf, cLo, cHi, 0, nBlocks, newEval())
		} else {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				bLo := w * nBlocks / workers
				bHi := (w + 1) * nBlocks / workers
				wg.Add(1)
				go func(bLo, bHi int) {
					defer wg.Done()
					deltaBlockSweep(e, p0, cur, cum, shared, probes, vals, cols, baseNeedsAlign, vf, cLo, cHi, bLo, bHi, newEval())
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
}

// deltaBlockSweep scores probes[cLo:cHi] against valuation blocks
// [bLo, bHi), writing each (candidate, valuation) VAL-FUNC summand into
// its vf matrix cell. Per block it loads the prewarmed raw truth words
// (cols[i][b] is annotation i's packed column word for block b),
// φ-combines extended truth columns word-wise, evaluates the base
// through ev, and per candidate compares member columns against the
// merged column with XORs: the changed-lane word drives both the skip
// accounting and the one candEvalBlock call that re-evaluates all
// changed lanes together.
func deltaBlockSweep[R provenance.Result](e *Estimator, p0, cur provenance.Expression, cum provenance.Mapping, shared *deltaTruths, probes []*deltaProbe, vals []provenance.Valuation, cols [][]uint64, baseNeedsAlign bool, vf []float64, cLo, cHi, bLo, bHi int, ev laneEval[R]) {
	st := getBlockState[R](e)
	names := shared.names
	V := len(vals)
	var skips, fulls uint64
	for b := bLo; b < bHi; b++ {
		lo := b * 64
		block := vals[lo:min(V, lo+64)]
		lanes := len(block)
		mask := ^uint64(0) >> uint(64-lanes)
		st.baseTruthW = fitUint64s(st.baseTruthW, len(cols))
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
		ev.evalBlock(st.tb, st.base[:lanes])
		for j, v := range block {
			orig := e.evalOriginal(v, p0) // cache hit after the prewarm
			st.origs[j] = orig
			if baseNeedsAlign {
				st.aligned[j] = cur.AlignResult(orig, cum)
			} else {
				st.aligned[j] = orig
			}
		}
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
					st.baseVF[j] = e.VF.F(block[j], st.aligned[j], st.base[j])
				}
				baseVFW |= skipW
				for w := skipW; w != 0; w &= w - 1 {
					j := bits.TrailingZeros64(w)
					row[j] = st.baseVF[j]
				}
				skips += uint64(bits.OnesCount64(skipW))
			}
			if changedW != 0 {
				ev.candEvalBlock(ci, mergedW, changedW, st.base[:lanes], st.cand[:lanes])
				for w := changedW; w != 0; w &= w - 1 {
					j := bits.TrailingZeros64(w)
					aligned := st.aligned[j]
					if dp.alignTouched {
						if dp.needsAlign {
							aligned = cur.AlignResult(st.origs[j], dp.composed)
						} else {
							aligned = st.origs[j]
						}
					}
					row[j] = e.VF.F(block[j], aligned, st.cand[j])
				}
				fulls += uint64(bits.OnesCount64(changedW))
			}
		}
	}
	e.stats.deltaSkips.Add(skips)
	e.stats.deltaFullEvals.Add(fulls)
	e.stats.evaluations.Add(fulls)
	e.stats.deltaSubtreeEvals.Add(ev.release())
	putBlockState(e, st)
}

// fitUint64s grows (or re-slices) a pooled slab to exactly n entries
// without reallocating on shrink.
func fitUint64s(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}
