package distance

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/provenance"
	"repro/internal/randx"
	"repro/internal/valuation"
)

// Estimator computes the distance dist^{h,φ}(p0, pc) of Definition 3.2.2:
// the average VAL-FUNC value over the valuation class, either by exact
// enumeration of the class or by Monte-Carlo sampling (Prop. 4.1.2).
//
// For every valuation v, the original expression is evaluated under v,
// the result is aligned into the summary's result space (merged group
// keys are re-aggregated), the summary is evaluated under the extended
// valuation v^{h,φ}, and the VAL-FUNC is applied to the pair.
//
// The estimator caches original-expression evaluations keyed by valuation
// name, because during summarization the same p0 is compared against many
// candidates under the same class.
type Estimator struct {
	Class valuation.Class
	Phi   provenance.Combiner
	VF    ValFunc

	// Samples > 0 switches to Monte-Carlo sampling with that many draws;
	// 0 enumerates the whole class.
	Samples int
	// Rand drives sampling; required when Samples > 0 (Validate reports
	// the misconfiguration as an error).
	Rand *rand.Rand
	// RandSrc, when set, is the serializable source backing Rand; if Rand
	// is nil, Validate creates it from RandSrc. The summarizer's
	// checkpoint layer snapshots and restores RandSrc so sampling-mode
	// runs can be resumed bit-identically (core.Config.CheckpointEvery
	// requires it when Samples > 0).
	RandSrc *randx.Source
	// MaxError, when positive, normalizes distances into [0,1] by
	// dividing by the maximum possible error (Sec. 6.3).
	MaxError float64
	// Parallelism, when > 1, fans DistanceBatch's candidate sweep across
	// that many goroutines. Sampling draws happen up front on the calling
	// goroutine and per-candidate sums accumulate in fixed valuation
	// order, so batched results are bit-identical at any worker count.
	// Distance (single-candidate) is unaffected.
	Parallelism int
	// LegacyEval forces the recursive interface-dispatch evaluator for
	// Distance and DistanceBatch instead of compiling candidates into
	// the flat arena (provenance.CompileArena). Results are
	// bit-identical either way; the flag exists as an A/B switch and for
	// the arena-vs-legacy differential tests. DistanceDelta is
	// unaffected: its plans (the arena's, or an expression's own
	// BlockPlan) are compiled by construction.
	LegacyEval bool
	// ScalarEval forces per-valuation scalar arena evaluation instead of
	// the valuation-blocked kernel (provenance.Arena.EvalBlock) in
	// Distance, DistanceBatch and DistanceDelta. Results are
	// bit-identical either way; the flag exists as an A/B switch and for
	// the block-vs-scalar differential tests. Arenas that are not
	// Blockable (negative compiled constants) take the scalar path
	// regardless of the flag; a BlockPlan (DDP) has no scalar path and
	// ignores it.
	ScalarEval bool
	// NoMergePatch disables CommitMerge's in-place plan patching
	// (provenance.Plan.ApplyMerge), so every summarization step
	// recompiles its plan from the committed expression. The flag exists
	// as an A/B switch for the patch-vs-recompile equivalence tests.
	NoMergePatch bool

	origCache map[string]provenance.Result
	cachedFor provenance.Expression

	// truthCols memoizes, per raw annotation, its packed truth column
	// over the enumerated valuation class: word b bit j is the truth
	// under valuation 64*b+j. Valid only in enumeration mode, where the
	// class — like the per-valuation results origCache keys by name — is
	// immutable for the estimator's lifetime. Filled sequentially by
	// deltaBlocked's prewarm, read concurrently by its sweep workers.
	truthCols map[provenance.Annotation][]uint64

	// plan and blockPlan cache the compiled evaluation plan of the
	// current expression for DistanceDelta (at most one is set), keyed
	// by expression identity like origCache. A block plan is recompiled
	// every step; only an arena plan is patched by CommitMerge.
	plan      *provenance.Plan
	blockPlan BlockPlan
	planFor   provenance.Expression

	// forkPool recycles the per-worker valuation state of scalar delta
	// sweeps (deltaTruths), and blockStatePool the per-worker state of
	// blocked delta sweeps (word columns, lane vectors, VAL-FUNC caches),
	// so mid-run steps allocate no per-worker slabs in steady state.
	forkPool       sync.Pool
	blockStatePool sync.Pool

	stats estimatorCounters
}

// estimatorCounters are the estimator's live instrumentation. They are
// atomics because enumeration-mode estimators are shared by parallel
// candidate-evaluation workers (core.Config.Parallelism), which hit the
// prewarmed cache concurrently.
type estimatorCounters struct {
	evaluations   atomic.Uint64
	cacheHits     atomic.Uint64
	cacheMisses   atomic.Uint64
	cacheResets   atomic.Uint64
	samples       atomic.Uint64
	distanceCalls atomic.Uint64
	distanceNanos atomic.Int64

	batchCalls      atomic.Uint64
	batchCandidates atomic.Uint64
	batchNanos      atomic.Int64

	deltaCalls        atomic.Uint64
	deltaCandidates   atomic.Uint64
	deltaNanos        atomic.Int64
	deltaSkips        atomic.Uint64
	deltaSubtreeEvals atomic.Uint64
	deltaFullEvals    atomic.Uint64

	mergePatches    atomic.Uint64
	mergeRecompiles atomic.Uint64
}

// Stats is a snapshot of the estimator's instrumentation counters: the
// per-call cost the paper's Sec. 6.9 timing experiment measures offline,
// exposed live (e.g. on the server's /metrics endpoint).
type Stats struct {
	// Evaluations counts VAL-FUNC summands computed (one per valuation
	// per Distance call).
	Evaluations uint64
	// CacheHits and CacheMisses count original-expression evaluation
	// cache lookups; CacheResets counts cache invalidations (a new
	// original expression identity, or an explicit ResetCache).
	CacheHits, CacheMisses, CacheResets uint64
	// Samples counts Monte-Carlo valuation draws (sampling mode only).
	Samples uint64
	// DistanceCalls and DistanceTime accumulate single-candidate Distance
	// invocations and their total wall time.
	DistanceCalls uint64
	DistanceTime  time.Duration
	// BatchCalls counts DistanceBatch invocations, BatchCandidates the
	// candidates they scored, and BatchTime their total wall time (wall,
	// not summed worker time: a parallel sweep's BatchTime shrinks with
	// the speedup).
	BatchCalls, BatchCandidates uint64
	BatchTime                   time.Duration
	// DeltaCalls counts successful DistanceDelta sweeps, DeltaCandidates
	// the candidates they scored, and DeltaTime their total wall time.
	DeltaCalls, DeltaCandidates uint64
	DeltaTime                   time.Duration
	// DeltaSkips counts (candidate, valuation) pairs whose merged truth
	// matched every member's pre-merge truth, so the base evaluation's
	// VAL-FUNC value was reused outright; DeltaFullEvals counts the pairs
	// that did need a candidate evaluation (their VAL-FUNC summands are
	// also in Evaluations); DeltaSubtreeEvals counts the expression nodes
	// those evaluations recomputed — the rest came from the per-valuation
	// node-result memo (for a DDP block plan: the surviving executions a
	// merge touched, per re-evaluated lane).
	DeltaSkips, DeltaSubtreeEvals, DeltaFullEvals uint64
	// MergePatches counts committed merges that CommitMerge patched into
	// the cached plan's arena in place (provenance.Plan.ApplyMerge);
	// MergeRecompiles counts commits where the patch was refused and the
	// next step recompiled the plan from scratch.
	MergePatches, MergeRecompiles uint64
}

// Stats returns a snapshot of the estimator's counters. Counters survive
// ResetCache (which is itself counted) and accumulate over the
// estimator's lifetime.
func (e *Estimator) Stats() Stats {
	return Stats{
		Evaluations:     e.stats.evaluations.Load(),
		CacheHits:       e.stats.cacheHits.Load(),
		CacheMisses:     e.stats.cacheMisses.Load(),
		CacheResets:     e.stats.cacheResets.Load(),
		Samples:         e.stats.samples.Load(),
		DistanceCalls:   e.stats.distanceCalls.Load(),
		DistanceTime:    time.Duration(e.stats.distanceNanos.Load()),
		BatchCalls:      e.stats.batchCalls.Load(),
		BatchCandidates: e.stats.batchCandidates.Load(),
		BatchTime:       time.Duration(e.stats.batchNanos.Load()),

		DeltaCalls:        e.stats.deltaCalls.Load(),
		DeltaCandidates:   e.stats.deltaCandidates.Load(),
		DeltaTime:         time.Duration(e.stats.deltaNanos.Load()),
		DeltaSkips:        e.stats.deltaSkips.Load(),
		DeltaSubtreeEvals: e.stats.deltaSubtreeEvals.Load(),
		DeltaFullEvals:    e.stats.deltaFullEvals.Load(),

		MergePatches:    e.stats.mergePatches.Load(),
		MergeRecompiles: e.stats.mergeRecompiles.Load(),
	}
}

// Validate reports configuration errors that would otherwise surface as
// panics deep inside a summarization run — most importantly a sampling
// estimator (Samples > 0) without a random source, which would
// nil-pointer-dereference inside Class.Sample on the first Distance call.
// core.New and the baselines call it up front.
func (e *Estimator) Validate() error {
	if e.Class == nil {
		return errors.New("distance: Estimator.Class is required")
	}
	if e.VF.F == nil {
		return errors.New("distance: Estimator.VF is required")
	}
	if e.Rand == nil && e.RandSrc != nil {
		e.Rand = rand.New(e.RandSrc)
	}
	if e.Samples > 0 && e.Rand == nil {
		return fmt.Errorf("distance: Estimator.Samples = %d requires Estimator.Rand (Monte-Carlo sampling needs a random source)", e.Samples)
	}
	return nil
}

// Distance computes the (possibly normalized) distance between the
// original expression p0 and the candidate summary pc, where cumulative
// is the mapping with h(p0) = pc and groups is its inverse view.
func (e *Estimator) Distance(p0, pc provenance.Expression, cumulative provenance.Mapping, groups provenance.Groups) float64 {
	t0 := time.Now()
	defer func() {
		e.stats.distanceCalls.Add(1)
		e.stats.distanceNanos.Add(int64(time.Since(t0)))
	}()
	ev := e.candEvaluator(pc)
	if ev != nil && !e.ScalarEval && ev.ar.Blockable() {
		return e.distanceBlocked(p0, pc, cumulative, groups, ev.ar)
	}
	var total float64
	var n int
	if e.Samples > 0 {
		if e.Rand == nil {
			panic("distance: Estimator.Samples > 0 requires Estimator.Rand (see Estimator.Validate)")
		}
		for i := 0; i < e.Samples; i++ {
			v := e.Class.Sample(e.Rand)
			e.stats.samples.Add(1)
			total += e.valFuncAt(v, p0, pc, cumulative, groups, ev)
			n++
		}
	} else {
		for _, v := range e.Class.Valuations() {
			total += e.valFuncAt(v, p0, pc, cumulative, groups, ev)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	d := total / float64(n)
	if e.MaxError > 0 {
		d /= e.MaxError
		if d > 1 {
			d = 1
		}
	}
	return d
}

// distanceBlocked is Distance's valuation-blocked path: the class (or
// the drawn sample set) is packed into 64-lane truth blocks and the
// candidate evaluates once per block through Arena.EvalBlock instead of
// once per valuation on the scalar arena. VAL-FUNC summands accumulate
// in valuation order, so the result is bit-identical to the scalar path.
func (e *Estimator) distanceBlocked(p0, pc provenance.Expression, cumulative provenance.Mapping, groups provenance.Groups, ar *provenance.Arena) float64 {
	vals := e.batchValuations()
	if len(vals) == 0 {
		return 0
	}
	tb := provenance.NewTruthBlock()
	bs := ar.GetBlockScratch()
	defer ar.PutBlockScratch(bs)
	anns := ar.Annotations()
	exts := make([]provenance.Valuation, 64)
	summ := make([]provenance.Vector, 64)
	var total float64
	for lo := 0; lo < len(vals); lo += 64 {
		block := vals[lo:min(len(vals), lo+64)]
		for j, v := range block {
			exts[j] = provenance.ExtendValuation(v, groups, e.Phi)
		}
		tb.Reset(len(anns), len(block))
		for id, ann := range anns {
			var w uint64
			for j := range block {
				if exts[j].Truth(ann) {
					w |= 1 << uint(j)
				}
			}
			tb.SetWord(int32(id), w)
		}
		ar.EvalBlock(tb, bs, summ[:len(block)])
		for j, v := range block {
			e.stats.evaluations.Add(1)
			orig := e.evalOriginal(v, p0)
			aligned := pc.AlignResult(orig, cumulative)
			total += e.VF.F(v, aligned, summ[j])
		}
	}
	d := total / float64(len(vals))
	if e.MaxError > 0 {
		d /= e.MaxError
		if d > 1 {
			d = 1
		}
	}
	return d
}

// CommitMerge tells the estimator that the summarizer committed the merge
// of members into newAnn, turning cur into next. When the cached delta
// plan is for cur, the plan is patched in place
// (provenance.Plan.ApplyMerge) and rekeyed to next, so the next step's
// DistanceDelta reuses the compiled arena instead of recompiling the
// whole expression. ApplyMerge self-verifies against next; a refused
// patch (or NoMergePatch) just drops the cached plan and the next step
// recompiles — either way results are unchanged. A block plan is never
// patched: the commit drops it, so an estimator between runs pins no
// plan.
func (e *Estimator) CommitMerge(cur, next provenance.Expression, members []provenance.Annotation, newAnn provenance.Annotation) {
	if e.blockPlan != nil {
		e.blockPlan = nil
		e.planFor = nil
		return
	}
	if e.plan == nil || !comparableExpr(cur) || e.planFor != cur {
		return
	}
	ng, ok := next.(*provenance.Agg)
	if !ok || e.NoMergePatch || !comparableExpr(next) {
		e.plan = nil
		e.planFor = nil
		e.stats.mergeRecompiles.Add(1)
		return
	}
	if e.plan.ApplyMerge(ng, members, newAnn) {
		e.planFor = next
		e.stats.mergePatches.Add(1)
	} else {
		e.plan = nil
		e.planFor = nil
		e.stats.mergeRecompiles.Add(1)
	}
}

// valFuncAt evaluates one summand of Definition 3.2.2. When ev is
// non-nil the candidate evaluates on its compiled arena (one bitset
// fill plus an iterative pass over the node arrays) instead of the
// recursive tree walk; the two are bit-identical.
func (e *Estimator) valFuncAt(v provenance.Valuation, p0, pc provenance.Expression, cumulative provenance.Mapping, groups provenance.Groups, ev *arenaEvaluator) float64 {
	e.stats.evaluations.Add(1)
	orig := e.evalOriginal(v, p0)
	aligned := pc.AlignResult(orig, cumulative)
	ext := provenance.ExtendValuation(v, groups, e.Phi)
	var summ provenance.Result
	if ev != nil {
		summ = ev.eval(ext)
	} else {
		summ = pc.Eval(ext)
	}
	return e.VF.F(v, aligned, summ)
}

// arenaEvaluator owns the compiled arena of one candidate expression
// plus the per-evaluator truth bitset and scratch. It amortizes the one
// CompileArena pass over every valuation of a Distance call.
type arenaEvaluator struct {
	ar   *provenance.Arena
	s    *provenance.ArenaScratch
	bits provenance.Bitset
}

// candEvaluator compiles pc for arena evaluation, or returns nil — and
// the caller falls back to interface dispatch — when LegacyEval is set
// or pc is not a compilable aggregated expression.
func (e *Estimator) candEvaluator(pc provenance.Expression) *arenaEvaluator {
	if e.LegacyEval {
		return nil
	}
	g, ok := pc.(*provenance.Agg)
	if !ok {
		return nil
	}
	ar := provenance.CompileArena(g)
	if ar == nil {
		return nil
	}
	return &arenaEvaluator{ar: ar, s: ar.NewScratch(), bits: ar.NewTruths()}
}

// eval evaluates the compiled candidate under the extended valuation:
// truths are pulled once per interned annotation (instead of once per
// occurrence) and the node pass is iterative.
func (ae *arenaEvaluator) eval(ext provenance.Valuation) provenance.Result {
	ae.ar.FillTruths(ae.bits, ext.Truth)
	return ae.ar.Eval(ae.bits, ae.s)
}

// comparableExpr reports whether an Expression's dynamic type supports
// interface comparison. Comparing interfaces whose dynamic type is a
// non-comparable struct (one with slice or map fields, say) panics at
// runtime, so identity-keyed caches must check this before using an
// expression as a cache key.
func comparableExpr(e provenance.Expression) bool {
	if e == nil {
		return false
	}
	return reflect.TypeOf(e).Comparable()
}

// evalOriginal evaluates p0 under v with memoization. Expressions of
// non-comparable dynamic types cannot be identity-checked against the
// cache key, so they are evaluated uncached instead of panicking on the
// interface comparison.
func (e *Estimator) evalOriginal(v provenance.Valuation, p0 provenance.Expression) provenance.Result {
	if !comparableExpr(p0) {
		e.stats.cacheMisses.Add(1)
		return p0.Eval(v)
	}
	// Safe even while cachedFor holds a value: only comparable types are
	// ever stored, and comparing across distinct dynamic types is false
	// without panicking.
	if e.cachedFor != p0 {
		if e.cachedFor != nil {
			e.stats.cacheResets.Add(1)
		}
		e.origCache = make(map[string]provenance.Result)
		e.cachedFor = p0
	}
	key := v.Name()
	if r, ok := e.origCache[key]; ok {
		e.stats.cacheHits.Add(1)
		return r
	}
	e.stats.cacheMisses.Add(1)
	r := p0.Eval(v)
	e.origCache[key] = r
	return r
}

// ResetCache drops the original-expression evaluation cache. Call it when
// the estimator is reused with a different original expression identity
// that may collide on valuation names.
func (e *Estimator) ResetCache() {
	if e.cachedFor != nil {
		e.stats.cacheResets.Add(1)
	}
	e.origCache = nil
	e.cachedFor = nil
	e.truthCols = nil
	e.plan = nil
	e.blockPlan = nil
	e.planFor = nil
}

// truthColumn returns annotation a's packed truth column over vals
// (word j>>6, bit j&63 = vals[j].Truth(a)), memoized across calls in
// enumeration mode. Sampling mode redraws valuations per sweep, so its
// columns are computed fresh and never cached.
func (e *Estimator) truthColumn(a provenance.Annotation, vals []provenance.Valuation) []uint64 {
	words := (len(vals) + 63) / 64
	if e.Samples <= 0 {
		if col, ok := e.truthCols[a]; ok && len(col) == words {
			return col
		}
	}
	col := make([]uint64, words)
	for j, v := range vals {
		if v.Truth(a) {
			col[j>>6] |= 1 << uint(j&63)
		}
	}
	if e.Samples <= 0 {
		if e.truthCols == nil {
			e.truthCols = make(map[provenance.Annotation][]uint64)
		}
		e.truthCols[a] = col
	}
	return col
}

// planOf returns the compiled evaluation plan for cur, cached by
// expression identity across the calls of one summarization step (a step
// scores its pair cohort and any k-ary growth rounds against the same
// cur): the arena plan of an aggregation, or the block plan of an
// expression implementing BlockPlanner. Both are nil when cur
// cannot be planned.
func (e *Estimator) planOf(cur provenance.Expression) (*provenance.Plan, BlockPlan) {
	if comparableExpr(cur) && e.planFor == cur {
		return e.plan, e.blockPlan
	}
	plan := provenance.NewPlan(cur)
	var bplan BlockPlan
	if bp, ok := cur.(BlockPlanner); ok && plan == nil {
		bplan = bp.BlockPlan()
	}
	if comparableExpr(cur) {
		e.plan, e.blockPlan, e.planFor = plan, bplan, cur
	}
	return plan, bplan
}

// Prewarm fills the original-expression cache with the evaluation of p0
// under every valuation of the class. After a prewarm, enumeration-mode
// Distance calls only read the cache, which makes the estimator safe for
// concurrent use by parallel candidate evaluation (sampling mode draws
// fresh valuations and must not be shared across goroutines).
func (e *Estimator) Prewarm(p0 provenance.Expression) {
	for _, v := range e.Class.Valuations() {
		e.evalOriginal(v, p0)
	}
}

// SampleSize returns a number of Monte-Carlo samples sufficient for
// Prob(|d' − dist| > eps) < 1 − delta via Chebyshev's inequality, given
// an upper bound on the per-sample variance (for a VAL-FUNC bounded in
// [0,B], varBound = B²/4 always suffices). This makes the polynomial
// convergence guarantee of Prop. 4.1.2 concrete.
func SampleSize(eps, delta, varBound float64) int {
	if eps <= 0 || delta <= 0 || delta >= 1 {
		return 1
	}
	n := varBound / (eps * eps * (1 - delta))
	if n < 1 {
		return 1
	}
	return int(math.Ceil(n))
}
