package distance

import (
	"math/bits"
	"reflect"
	"slices"
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
	// truth the merged group gets. flatSpan is their span in the run's
	// slab while DistanceDelta fills it.
	flatIDs  []int32
	flatSpan [2]int32
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
// array indexing, no string hashing on the hot path. It is shared
// read-only across a sweep's workers.
//
// The table of a run's plan, arena or block plan, lives on the Run and
// is carried from step to step (Run.stepTruths): a committed merge
// changes the base groups only at its members and its summary
// annotation, so only their ids (stale) are derived again, from the
// next step's base, and the ids the merge interned are added. The
// interner keeps its ids, so the packed truth columns of enumeration
// mode (cols) carry too.
type deltaTruths struct {
	names   []provenance.Annotation // interned annotations in id order
	members [][]int32               // per id: baseIn ids of its base-group members, nil → raw truth
	rawID   []int32                 // per id: baseIn id of its raw truth (-1 when grouped)
	baseIn  *provenance.Interner    // interned base members and raw plan annotations
	phi     provenance.Combiner

	// cols holds, per baseIn id, its packed truth column over the
	// sweep's valuations (columns); in enumeration mode the first ncols
	// are the run's memoized columns and stay valid. colSlab backs
	// sampling mode's columns, packed afresh every sweep.
	cols    [][]uint64
	ncols   int
	colSlab []uint64

	// The carry: the table is plan's at generation gen, derived from the
	// base groups base, except at the ids in stale, which merges
	// committed since changed.
	plan  patchablePlan
	gen   uint64
	base  provenance.Groups
	stale []int32
}

func newDeltaTruths(names []provenance.Annotation, base provenance.Groups, phi provenance.Combiner) *deltaTruths {
	t := &deltaTruths{
		baseIn:  provenance.NewInternerSize(len(names)),
		phi:     phi,
		members: make([][]int32, 0, len(names)),
		rawID:   make([]int32, 0, len(names)),
		base:    base,
	}
	t.extend(names)
	return t
}

// extend adds the ids of names beyond the table's (names extends the
// table's own), each derived from the table's base groups.
func (t *deltaTruths) extend(names []provenance.Annotation) {
	t.names = names
	for id := len(t.members); id < len(names); id++ {
		t.members = append(t.members, nil)
		t.rawID = append(t.rawID, -1)
		t.derive(int32(id))
	}
}

// derive sets how annotation id's extended truth derives from the base
// groups: the φ-combine of its group's members, or its raw truth.
func (t *deltaTruths) derive(id int32) {
	ann := t.names[id]
	if ms, ok := t.base[ann]; ok && len(ms) > 0 {
		ids := make([]int32, len(ms))
		for i, m := range ms {
			ids[i] = t.baseIn.Intern(m)
		}
		t.members[id], t.rawID[id] = ids, -1
		return
	}
	t.members[id], t.rawID[id] = nil, t.baseIn.Intern(ann)
}

// appendFlat appends the baseIn ids of annotation id's base group: the
// original annotations whose φ-combined truth is its extended truth,
// internFlat(base.Members(names[id])) without the interning.
func (t *deltaTruths) appendFlat(dst []int32, id int32) []int32 {
	if ms := t.members[id]; ms != nil {
		return append(dst, ms...)
	}
	return append(dst, t.rawID[id])
}

// flatNames returns the annotations whose truths annotation id's
// extended truth φ-combines: its base group, or itself.
func (t *deltaTruths) flatNames(id int32) []provenance.Annotation {
	var out []provenance.Annotation
	for _, b := range t.appendFlat(nil, id) {
		out = append(out, t.baseIn.Ann(b))
	}
	return out
}

// internFlat interns a flattened member list, appending its ids to dst.
func (t *deltaTruths) internFlat(dst []int32, flat []provenance.Annotation) []int32 {
	for _, m := range flat {
		dst = append(dst, t.baseIn.Intern(m))
	}
	return dst
}

// columns returns the packed truth column over vals of every interned
// base annotation, in baseIn id order: the run's memoized columns in
// enumeration mode, added for the ids interned since the last sweep,
// and columns packed afresh over this sweep's draws in sampling mode.
// It runs before a sweep fans out, so workers only read them.
func (t *deltaTruths) columns(r *Run, vals []provenance.Valuation) [][]uint64 {
	anns := t.baseIn.Annotations()
	if cap(t.cols) < len(anns) {
		t.cols = append(t.cols[:t.ncols], make([][]uint64, len(anns)-t.ncols)...)
	}
	t.cols = t.cols[:len(anns)]
	if r.e.Samples <= 0 {
		for i := t.ncols; i < len(anns); i++ {
			t.cols[i] = r.truthColumn(anns[i], vals)
		}
		t.ncols = len(anns)
		return t.cols
	}
	words := (len(vals) + 63) / 64
	t.colSlab = fit(t.colSlab, words*len(anns))
	clear(t.colSlab)
	for i, a := range anns {
		t.cols[i] = t.colSlab[i*words : (i+1)*words : (i+1)*words]
		packColumn(t.cols[i], a, vals)
	}
	return t.cols
}

// stepTruths returns the truth table of a sweep on plan, the run's
// cached plan (names, its annotations), for the base groups base. The
// table is the run's, carried across the merges committed on the plan
// since the last sweep (noteMerge): it is kept as it is for the same
// base on the same plan state, and its stale ids are derived again from
// base after a merge.
func (r *Run) stepTruths(plan patchablePlan, names []provenance.Annotation, base provenance.Groups) *deltaTruths {
	if plan == nil {
		return newDeltaTruths(names, base, r.e.Phi)
	}
	t := r.truths
	if t == nil || t.plan != plan || t.gen != plan.Generation() || (len(t.stale) == 0 && !sameGroups(t.base, base)) {
		t = newDeltaTruths(names, base, r.e.Phi)
		t.plan, t.gen = plan, plan.Generation()
		r.truths = t
		return t
	}
	if len(t.stale) > 0 {
		t.base = base
		t.extend(names)
		for _, id := range t.stale {
			t.derive(id)
		}
		t.stale = t.stale[:0]
	}
	return t
}

// noteMerge records a merge into newAnn just patched into the cached
// plan, whose members had the ids r.mids before the patch: a table
// carried to the plan's previous generation moves to the new one, with
// the ids whose derivation the merge changed marked stale; any other
// table is dropped.
func (r *Run) noteMerge(plan patchablePlan, newAnn provenance.Annotation) {
	t := r.truths
	if t == nil || t.plan != plan || t.gen+1 != plan.Generation() {
		r.truths = nil
		return
	}
	t.gen++
	t.stale = append(t.stale, r.mids...)
	if id, ok := plan.AnnID(newAnn); ok {
		t.stale = append(t.stale, id)
	}
}

// sameGroups reports whether a and b are the same map.
func sameGroups(a, b provenance.Groups) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
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
// Pair probes the run carried from its previous step are reused
// instead of rebuilt, and this call's pair probes are kept for
// CommitMerge to carry into the next step. Carried probes equal rebuilt
// ones field for field (provenance.MergePatch.Carry), so results do not
// depend on them.
func (r *Run) DistanceDelta(cur provenance.Expression, cum provenance.Mapping, base provenance.Groups, cohort [][]provenance.Annotation, newAnn provenance.Annotation) (dists []float64, sizes []int, err error) {
	e := r.e
	plan, bplan, err := r.planOf(cur)
	if err != nil {
		return nil, nil, err
	}
	r.recycle(r.loose...)
	r.loose = refit(r.loose, 0)
	if r.probeAnn != newAnn {
		r.dropProbes()
		r.probeAnn = newAnn
	}
	if r.step == nil {
		r.step = make(map[[2]provenance.Annotation]*provenance.Probe, len(cohort))
	}
	names, annID, err := r.sweepNames(plan, bplan)
	if err != nil {
		return nil, nil, err
	}
	if _, taken := annID(newAnn); taken {
		r.dropProbes()
		return nil, nil, planError("the summary annotation %q occurs in the expression", newAnn)
	}
	truths := r.stepTruths(patchableOf(plan, bplan), names, base)
	// The probes, their member ids and their flattened base groups live
	// in the run's slabs, refilled by every call.
	n := len(cohort)
	r.dps, r.dpp = refit(r.dps, n), refit(r.dpp, n)
	nMembers := 0
	for _, ms := range cohort {
		nMembers += len(ms)
	}
	r.ids = fit(r.ids, nMembers)
	ids, flat := r.ids, r.flat[:0]
	var bprobes []BlockProbe
	if bplan != nil {
		r.bprobes = refit(r.bprobes, n)
		bprobes = r.bprobes
	}
	sizes = fit(r.sizes, n)
	r.sizes = sizes
	var carried, built uint64
	for i, ms := range cohort {
		dp := &r.dps[i]
		*dp = deltaProbe{}
		if plan != nil {
			k, pair := pairKey(ms)
			pr := r.carried[k]
			if pair && pr != nil && pr.On(plan) {
				carried++
			} else if pr = r.probe(plan, ms, newAnn); pr == nil {
				r.dropProbes()
				return nil, nil, planError("the plan refuses the merge of %q", ms)
			} else {
				built++
			}
			if !pair {
				r.loose = append(r.loose, pr)
			} else {
				if old := r.step[k]; old != nil && old != pr && old != r.carried[k] {
					r.loose = append(r.loose, old)
				}
				r.step[k] = pr
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
		dp.memberIDs, ids = ids[:len(dp.members):len(dp.members)], ids[len(dp.members):]
		flatLo := len(flat)
		for k, m := range dp.members {
			id, ok := annID(m)
			if ok {
				dp.memberIDs[k] = id
				flat = truths.appendFlat(flat, id)
				continue
			}
			// An uninterned member's truth column is the φ-combine of its
			// base group, or its raw truth.
			flat = truths.internFlat(flat, base.Members(m))
			dp.memberIDs[k] = -1
			if dp.memberCols == nil {
				dp.memberCols = make([][]int32, len(dp.members))
				dp.memberRaw = make([]int32, len(dp.members))
				for j := range dp.memberRaw {
					dp.memberRaw[j] = -1
				}
			}
			if bm, grouped := base[m]; grouped && len(bm) > 0 {
				dp.memberCols[k] = truths.internFlat(nil, bm)
			} else {
				dp.memberRaw[k] = truths.baseIn.Intern(m)
			}
		}
		dp.flatSpan = [2]int32{int32(flatLo), int32(len(flat))}
		r.dpp[i] = dp
	}
	// The free probes this cohort did not reuse are let go.
	r.free = refit(r.free, 0)
	// flat is complete: point every probe at its span.
	for _, dp := range r.dpp[:n] {
		dp.flatIDs = flat[dp.flatSpan[0]:dp.flatSpan[1]:dp.flatSpan[1]]
	}
	r.flat = flat

	t0 := time.Now()
	defer func() {
		e.stats.deltaCalls.Add(1)
		e.stats.deltaCandidates.Add(uint64(len(cohort)))
		e.stats.probesCarried.Add(carried)
		e.stats.probesBuilt.Add(built)
		e.stats.deltaNanos.Add(int64(time.Since(t0)))
	}()

	out := fit(r.out, n)
	r.out = out
	clear(out)
	if len(cohort) == 0 {
		return out, sizes, nil
	}
	vals := r.batchValuations()
	if len(vals) == 0 {
		return out, sizes, nil
	}

	probes := r.dpp[:n]
	e.stats.deltaSkips.Add(r.deltaBlocked(truths, probes, vals, out, r.laneEvals(plan, bplan, cum, probes, bprobes, vals, newAnn)))
	e.normalize(out, len(vals))
	return out, sizes, nil
}

// sweepNames returns the annotations, in dense-id order, and the id
// lookup of the plan a sweep against the run's original runs on,
// planOf's plan of the current expression. An aggregation's plan
// sweeps only against an aggregated original the blocked kernel
// evaluates: the check compiles the original's arena (originalArena),
// which the sweep's denseStep then reads. A block plan sweeps only
// against a BlockPlanner original: the check compiles the original's
// block plan (originalBlockPlan), which originalResults evaluates.
func (r *Run) sweepNames(plan *provenance.Plan, bplan BlockPlan) (names []provenance.Annotation, annID func(provenance.Annotation) (int32, bool), err error) {
	if plan != nil {
		g0, ok := r.p0.(*provenance.Agg)
		if !ok || g0 == nil {
			return nil, nil, planError("an aggregation is scored against a %T original", r.p0)
		}
		if _, err := r.originalArena(g0); err != nil {
			return nil, nil, err
		}
		return plan.Annotations(), plan.AnnID, nil
	}
	if _, err := r.originalBlockPlan(); err != nil {
		return nil, nil, err
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

// laneEvals returns the factory of a sweep's per-worker evaluators: the
// dense rows of an aggregation's plan (denseStep), or a BlockPlan's own
// evaluator, whose results carry no keys, so the originals compare
// unaligned. The original's results are computed or looked up before
// the workers fan out, so workers never touch the cache.
func (r *Run) laneEvals(plan *provenance.Plan, bplan BlockPlan, cum provenance.Mapping, probes []*deltaProbe, bprobes []BlockProbe, vals []provenance.Valuation, newAnn provenance.Annotation) func(*deltaBlockState) laneEval {
	e := r.e
	if bplan != nil {
		origs := r.originalResults(vals)
		return func(st *deltaBlockState) laneEval {
			if st.results == nil {
				st.results = newLaneResults()
			}
			return &blockPlanEval{e: e, origs: origs, ev: bplan.NewEvaluator(), probes: bprobes, res: st.results}
		}
	}
	step := r.denseStep(plan, cum, probes, vals, newAnn)
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
func (r *Run) distanceBase(pc provenance.Expression, cum provenance.Mapping, groups provenance.Groups) (float64, error) {
	e := r.e
	plan, bplan, err := r.planOf(pc)
	if err != nil {
		return 0, err
	}
	names, _, err := r.sweepNames(plan, bplan)
	if err != nil {
		return 0, err
	}
	vals := r.batchValuations()
	if len(vals) == 0 {
		return 0, nil
	}
	out := []float64{0}
	r.deltaBlocked(r.stepTruths(patchableOf(plan, bplan), names, groups), []*deltaProbe{{}}, vals, out, r.laneEvals(plan, bplan, cum, nil, nil, vals, ""))
	e.stats.evaluations.Add(uint64(len(vals)))
	e.normalize(out, len(vals))
	return out[0], nil
}

// denseStep builds the shared state of an aggregation's sweep: the
// original's rows over its arena's slots (originalRows, on the arena
// sweepNames compiled), the step's space, and the own space of every
// probe that needs one. A probe whose merge renames a coordinate of the
// aligned original is scored against the original aligned through cum
// followed by its merge, and one that renames a coordinate of cur gets
// its candidate's slots; both block the skip.
func (r *Run) denseStep(plan *provenance.Plan, cum provenance.Mapping, probes []*deltaProbe, vals []provenance.Valuation, newAnn provenance.Annotation) *denseStep {
	origs := r.originalRows(vals)
	origKeys := r.origArena.Slots()
	step := &denseStep{
		ar:     plan.Arena(),
		agg:    plan.Expr().Agg,
		origs:  origs,
		space:  newDenseSpace(origKeys, cum.Rename, plan.Arena().Slots()),
		probes: probes,
	}
	for _, dp := range probes {
		touched := false
		for _, m := range dp.members {
			touched = touched || step.space.hasOrig(m)
		}
		if touched || dp.pr.RenamesGroup {
			dp.noSkip = true
			merged := func(k provenance.Annotation) provenance.Annotation {
				if nk := cum.Rename(k); !slices.Contains(dp.members, nk) {
					return nk
				}
				return newAnn
			}
			sp := newDenseSpace(origKeys, merged, dp.pr.Slots())
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
func (r *Run) deltaBlocked(shared *deltaTruths, probes []*deltaProbe, vals []provenance.Valuation, out []float64, newEval func(*deltaBlockState) laneEval) (skips uint64) {
	e := r.e
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
	// fanning out, so sweep workers only read them.
	cols := shared.columns(r, vals)
	var skipped atomic.Uint64
	// Every cell of the matrix is written before it is read (a lane
	// either skips to the base value or is re-evaluated), so the run's
	// matrix is reused without clearing.
	r.vf = fit(r.vf, chunk*V)
	vf := r.vf
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

// refit is fit for a slab whose entries hold references: the entries a
// shrink drops are zeroed first, so the slab keeps nothing they pointed
// at alive.
func refit[T any](s []T, n int) []T {
	if n < len(s) {
		clear(s[n:])
	}
	return fit(s, n)
}
