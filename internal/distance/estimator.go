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
// During summarization the same p0 is compared against many candidates
// under the same class, so the original's results are computed once per
// run. An aggregated original is compiled into its own arena and
// evaluated by the blocked kernel, 64 valuations per pass, into dense
// rows over its sorted coordinates: in enumeration mode the rows of the
// whole class are kept for the run, in sampling mode each sweep's draws
// are evaluated afresh. Any other original (a BlockPlanner's) is
// evaluated per valuation and memoized by valuation name.
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
	// Parallelism, when > 1, fans the sweeps of DistanceDelta and of
	// Distance across that many goroutines. Sampling draws happen up
	// front on the calling goroutine and per-candidate sums accumulate
	// in fixed valuation order, so results are bit-identical at any
	// worker count.
	Parallelism int

	origCache map[string]provenance.Result
	cachedFor provenance.Expression

	// origArena is an aggregated original's compiled arena, compiled once
	// per run (originalArena). origRows are, in enumeration mode, its
	// rows over the arena's slots under every valuation of vals, indexed
	// like vals (originalRows). Both belong to cachedFor.
	origArena *provenance.Arena
	origRows  [][]float64

	// truthCols memoizes, per raw annotation, its packed truth column
	// over the enumerated valuation class: word b bit j is the truth
	// under valuation 64*b+j. Valid only in enumeration mode, where the
	// class — like the per-valuation results origCache keys by name — is
	// immutable for the estimator's lifetime. Filled sequentially by
	// originalRows and deltaBlocked's prewarm, read concurrently by the
	// sweep workers.
	truthCols map[provenance.Annotation][]uint64

	// vals memoizes the enumerated valuation class for one run
	// (batchValuations), under the same immutability truthCols assumes.
	vals []provenance.Valuation

	// vf is the candidate × valuation summand matrix of the last delta
	// sweep (deltaBlocked), reused by the next one of the run.
	vf []float64

	// plan and blockPlan cache the compiled evaluation plan of the
	// current expression for DistanceDelta (at most one is set; planErr
	// when neither is), keyed by expression identity like origCache. A
	// block plan is recompiled every step; only an arena plan is patched
	// by CommitMerge.
	plan      *provenance.Plan
	blockPlan BlockPlan
	planErr   error
	planFor   provenance.Expression
	// committed is the counter (MergePatches or MergeRecompiles) the
	// last committed merge's outcome goes to, counted when the next step
	// asks for a plan or commits (countCommit); nil when there is none.
	committed *atomic.Uint64
	// replayApply records that Replay met an aggregation the arena cannot
	// plan or probe; the run's remaining replayed merges Apply.
	replayApply bool

	// blockStatePool recycles the per-worker state of delta sweeps (word
	// columns, lane rows, VAL-FUNC caches), so mid-run steps allocate no
	// per-worker slabs in steady state.
	blockStatePool sync.Pool

	stats estimatorCounters
}

// estimatorCounters are the estimator's live instrumentation. They are
// atomics because the workers of one sweep (Parallelism) update them
// concurrently.
type estimatorCounters struct {
	evaluations   atomic.Uint64
	cacheHits     atomic.Uint64
	cacheMisses   atomic.Uint64
	cacheResets   atomic.Uint64
	samples       atomic.Uint64
	distanceCalls atomic.Uint64
	distanceNanos atomic.Int64

	deltaCalls        atomic.Uint64
	deltaCandidates   atomic.Uint64
	deltaNanos        atomic.Int64
	deltaSkips        atomic.Uint64
	deltaSubtreeEvals atomic.Uint64
	deltaFullEvals    atomic.Uint64

	mergePatches    atomic.Uint64
	mergeRecompiles atomic.Uint64

	probesCarried atomic.Uint64
	probesBuilt   atomic.Uint64
}

// Stats is a snapshot of the estimator's instrumentation counters: the
// per-call cost the paper's Sec. 6.9 timing experiment measures offline,
// exposed live (e.g. on the server's /metrics endpoint).
type Stats struct {
	// Evaluations counts VAL-FUNC summands computed (one per valuation
	// per Distance call).
	Evaluations uint64
	// CacheHits and CacheMisses count original-expression evaluations
	// per valuation: a miss for each valuation the original is evaluated
	// under, a hit for each valuation whose result a run kept from an
	// earlier sweep. CacheResets counts cache invalidations (a new
	// original expression identity, or an explicit ResetCache).
	CacheHits, CacheMisses, CacheResets uint64
	// Samples counts Monte-Carlo valuation draws (sampling mode only).
	Samples uint64
	// DistanceCalls and DistanceTime accumulate single-candidate Distance
	// invocations and their total wall time.
	DistanceCalls uint64
	DistanceTime  time.Duration
	// BatchTime is always 0. It timed the materialized fallback scorer,
	// which is gone: every expression the estimator accepts is scored
	// by the delta sweep. It stays for readers of the field.
	BatchTime time.Duration
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
	// next step recompiles the plan from scratch. Both count a commit
	// when the next step begins, so a run's last merge, which no step
	// follows, counts in neither. Merges a run replays (Replay) are not
	// counted.
	MergePatches, MergeRecompiles uint64
	// ProbesCarried counts DeltaCandidates whose probe a run carried
	// over from its previous step (a Carry), ProbesBuilt those whose
	// probe was compiled afresh; the two sum to DeltaCandidates.
	ProbesCarried, ProbesBuilt uint64
}

// Stats returns a snapshot of the estimator's counters. Counters survive
// ResetCache (which is itself counted) and accumulate over the
// estimator's lifetime.
func (e *Estimator) Stats() Stats {
	return Stats{
		Evaluations:   e.stats.evaluations.Load(),
		CacheHits:     e.stats.cacheHits.Load(),
		CacheMisses:   e.stats.cacheMisses.Load(),
		CacheResets:   e.stats.cacheResets.Load(),
		Samples:       e.stats.samples.Load(),
		DistanceCalls: e.stats.distanceCalls.Load(),
		DistanceTime:  time.Duration(e.stats.distanceNanos.Load()),

		DeltaCalls:        e.stats.deltaCalls.Load(),
		DeltaCandidates:   e.stats.deltaCandidates.Load(),
		DeltaTime:         time.Duration(e.stats.deltaNanos.Load()),
		DeltaSkips:        e.stats.deltaSkips.Load(),
		DeltaSubtreeEvals: e.stats.deltaSubtreeEvals.Load(),
		DeltaFullEvals:    e.stats.deltaFullEvals.Load(),

		MergePatches:    e.stats.mergePatches.Load(),
		MergeRecompiles: e.stats.mergeRecompiles.Load(),

		ProbesCarried: e.stats.probesCarried.Load(),
		ProbesBuilt:   e.stats.probesBuilt.Load(),
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
// is the mapping with h(p0) = pc and groups is its inverse view. It is
// DistanceDelta's sweep with no candidate: every lane is the base
// evaluation's VAL-FUNC value, and pc's plan stays cached for the step
// that scores pc's merges. It draws the same valuations in the same
// order and sums them in valuation order, so the result is
// bit-identical to scoring pc as a candidate. It is counted in the
// Distance* statistics, Evaluations and the cache counters only.
//
// pc must plan against p0: Distance panics with CheckPlan's error
// otherwise, a misconfiguration callers report up front by calling
// CheckPlan, as batchValuations' panic is one Validate reports.
func (e *Estimator) Distance(p0, pc provenance.Expression, cumulative provenance.Mapping, groups provenance.Groups) float64 {
	t0 := time.Now()
	defer func() {
		e.stats.distanceCalls.Add(1)
		e.stats.distanceNanos.Add(int64(time.Since(t0)))
	}()
	d, err := e.distanceBase(p0, pc, cumulative, groups)
	if err != nil {
		panic(fmt.Sprintf("distance: Distance on an expression Estimator.CheckPlan refuses: %v", err))
	}
	return d
}

// PlanError is the estimator's refusal of an expression it cannot
// score: Reason names what stops the delta sweep from planning it.
type PlanError struct {
	Reason string
}

func (e *PlanError) Error() string { return "distance: cannot plan the expression: " + e.Reason }

func planError(format string, args ...any) *PlanError {
	return &PlanError{Reason: fmt.Sprintf(format, args...)}
}

// CheckPlan reports why the estimator cannot score cur against p0, as a
// *PlanError: cur has no compiled plan (planOf), an aggregation's plan
// is asked to score against an original that is not one or whose arena
// the blocked kernel cannot evaluate (originalArena), an
// aggregation is not in Simplify normal form (Probe refuses every merge
// of it; a Sum or Prod listing its children out of key order counts,
// so a hand-built Agg needs Simplify first), cur holds a reserved
// annotation (provenance.Zero or One), or newAnn, the summary
// annotation DistanceDelta probes merges into, when not empty, already
// occurs in cur. Distance needs only the plan. The
// plan stays cached, so the first Distance or DistanceDelta on cur
// reuses it instead of compiling again.
func (e *Estimator) CheckPlan(p0, cur provenance.Expression, newAnn provenance.Annotation) error {
	plan, bplan, err := e.planOf(cur)
	if err != nil {
		return err
	}
	_, annID, err := e.sweepNames(p0, plan, bplan)
	if err != nil {
		return err
	}
	if plan != nil && !plan.Probeable() {
		return planError("the aggregation is not in Simplify normal form")
	}
	for _, a := range []provenance.Annotation{provenance.Zero, provenance.One, newAnn} {
		if _, taken := annID(a); taken && a != "" {
			return planError("the expression holds the reserved annotation %q", a)
		}
	}
	return nil
}

// CommitMerge commits the merge of members into newAnn on cur and
// returns the next expression, cur.Apply(MergeMapping(newAnn,
// members...)). When the cached delta plan is cur's arena plan, the
// plan builds next itself and is patched in place
// (provenance.Plan.ApplyMerge, or ApplyProbe from the winner's probe
// when the carry scored it), so the next step's DistanceDelta reuses
// the compiled arena instead of recompiling the whole expression, and
// the run's carry keeps the step's probes that survive the merge: they
// are rebased onto the patch when the next step uses the carry. A patch
// the plan refuses falls back to Apply; it, and one refused for the
// arena's garbage, drops the cached plan and the carried probes, and
// the next step compiles next — either way results are unchanged. The
// outcome counts in MergePatches or MergeRecompiles when the next step
// begins (countCommit). A block plan is never patched: the commit drops
// it and Applies.
func (e *Estimator) CommitMerge(cur provenance.Expression, members []provenance.Annotation, newAnn provenance.Annotation, carry *Carry) provenance.Expression {
	e.countCommit()
	next, patch, onPlan := e.mergeOnPlan(cur, members, newAnn, carry.winner(members))
	carry.commit(patch)
	switch {
	case patch != nil:
		e.committed = &e.stats.mergePatches
	case onPlan:
		e.committed = &e.stats.mergeRecompiles
	}
	return next
}

// Replay commits one merge a run replays — a seed step of
// Summarizer.Extend or a step of a resumed checkpoint — on cur and
// returns the next expression, cur.Apply(MergeMapping(newAnn,
// members...)). It is CommitMerge without a carry and without
// counting: an aggregation's plan is compiled at the first replayed
// merge and patched in place at every later one, and it stays cached,
// so the run's CheckPlan and first step reuse it. Its fallbacks are
// CommitMerge's: a merge the plan refuses, or one that would leave the
// arena more than half garbage, drops the plan, and the next replayed
// merge compiles the expression it returns. An aggregation the arena
// cannot plan or probe makes the run Apply its remaining replayed
// merges without compiling again, and any other expression (DDP)
// Applies without compiling a block plan just to drop it.
func (e *Estimator) Replay(cur provenance.Expression, members []provenance.Annotation, newAnn provenance.Annotation) provenance.Expression {
	if g, ok := cur.(*provenance.Agg); ok && g != nil && !e.replayApply {
		if plan, _, err := e.planOf(cur); err != nil || !plan.Probeable() {
			e.replayApply = true
		}
	}
	next, _, _ := e.mergeOnPlan(cur, members, newAnn, nil)
	return next
}

// mergeOnPlan is the shared body of CommitMerge and Replay. When the
// cached plan is cur's arena plan (onPlan), it builds next by patching
// the plan in place (ApplyProbe from pr when pr is on the plan, else
// ApplyMerge) and keeps the patched plan cached for next; a refused
// patch drops the plan and falls back to Apply, and one refused for
// the arena's garbage drops it and returns the patch's next. Otherwise
// it drops a cached block plan and Applies. patch is nil unless the
// plan was patched.
func (e *Estimator) mergeOnPlan(cur provenance.Expression, members []provenance.Annotation, newAnn provenance.Annotation, pr *provenance.Probe) (next provenance.Expression, patch *provenance.MergePatch, onPlan bool) {
	if e.blockPlan != nil || e.plan == nil || !comparableExpr(cur) || e.planFor != cur {
		if e.blockPlan != nil {
			e.blockPlan, e.planFor = nil, nil
		}
		return cur.Apply(provenance.MergeMapping(newAnn, members...)), nil, false
	}
	var g *provenance.Agg
	if pr != nil && pr.On(e.plan) {
		g, patch = e.plan.ApplyProbe(pr, newAnn)
	} else {
		g, patch = e.plan.ApplyMerge(members, newAnn)
	}
	if patch != nil {
		e.planFor = g
		return g, patch, true
	}
	e.plan, e.planFor = nil, nil
	if g == nil {
		return cur.Apply(provenance.MergeMapping(newAnn, members...)), nil, true
	}
	return g, nil, true
}

// countCommit counts the last committed merge's outcome, once the step
// after it has begun.
func (e *Estimator) countCommit() {
	if e.committed != nil {
		e.committed.Add(1)
		e.committed = nil
	}
}

// ReleasePlan drops the cached delta plan and the run's sweep state:
// the enumerated valuation list, the summand matrix, and the original's
// arena and rows. The summarizer calls it when a run returns, so an
// estimator between runs pins none of them: the next run's ResetCache
// would drop them unused anyway.
func (e *Estimator) ReleasePlan() {
	e.plan, e.blockPlan, e.planErr, e.planFor = nil, nil, nil, nil
	e.committed, e.replayApply, e.vals, e.vf = nil, false, nil, nil
	e.origArena, e.origRows = nil, nil
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

// evalOriginal evaluates an original that is not an aggregation (a
// BlockPlanner's) under v with memoization by valuation name; an
// aggregated original is evaluated on its arena instead (originalRows).
// Expressions of non-comparable dynamic types cannot be identity-checked
// against the cache key, so they are evaluated uncached instead of
// panicking on the interface comparison.
func (e *Estimator) evalOriginal(v provenance.Valuation, p0 provenance.Expression) provenance.Result {
	if !comparableExpr(p0) {
		e.stats.cacheMisses.Add(1)
		return p0.Eval(v)
	}
	e.useOriginal(p0)
	key := v.Name()
	if r, ok := e.origCache[key]; ok {
		e.stats.cacheHits.Add(1)
		return r
	}
	e.stats.cacheMisses.Add(1)
	r := p0.Eval(v)
	if e.origCache == nil {
		e.origCache = make(map[string]provenance.Result)
	}
	e.origCache[key] = r
	return r
}

// originalArena returns the aggregated original g's compiled arena,
// compiled once per run, or a *PlanError when the blocked kernel cannot
// evaluate g: a polynomial does not compile, or the arena is not
// Blockable.
func (e *Estimator) originalArena(g *provenance.Agg) (*provenance.Arena, error) {
	e.useOriginal(g)
	if e.origArena != nil {
		return e.origArena, nil
	}
	ar := provenance.CompileArena(g)
	if ar == nil {
		return nil, planError("the original holds a constant outside int32 or a node the arena does not compile")
	}
	if !ar.Blockable() {
		return nil, planError("the original holds a negative constant")
	}
	e.origArena = ar
	return ar, nil
}

// originalRows returns the original's results under vals as dense rows
// over the slots of its arena (origArena, compiled by originalArena),
// row i for vals[i]: the blocked kernel evaluates 64 valuations per
// pass, fed from the packed truth columns (truthColumn). Each row
// equals the original's Agg.Eval under the valuation, keyed by the
// arena's Slots. In enumeration mode vals is the run's class and the
// rows are kept for the run; sampling mode evaluates each sweep's draws
// afresh. It runs on the calling goroutine; the rows must not be
// modified.
func (e *Estimator) originalRows(vals []provenance.Valuation) [][]float64 {
	if e.Samples <= 0 && e.origRows != nil && len(e.origRows) == len(vals) {
		e.stats.cacheHits.Add(uint64(len(vals)))
		return e.origRows
	}
	e.stats.cacheMisses.Add(uint64(len(vals)))
	ar := e.origArena
	n := len(ar.Slots())
	slab := make([]float64, len(vals)*n)
	rows := make([][]float64, len(vals))
	for i := range rows {
		rows[i] = slab[i*n : (i+1)*n : (i+1)*n]
	}
	anns := ar.Annotations()
	cols := make([][]uint64, len(anns))
	for id, a := range anns {
		cols[id] = e.truthColumn(a, vals)
	}
	tb := provenance.NewTruthBlock()
	bs := ar.GetBlockScratch()
	for lo := 0; lo < len(vals); lo += 64 {
		lanes := min(64, len(vals)-lo)
		tb.Reset(len(anns), lanes)
		for id, col := range cols {
			tb.SetWord(int32(id), col[lo>>6])
		}
		ar.EvalRows(tb, bs, rows[lo:lo+lanes])
	}
	ar.PutBlockScratch(bs)
	if e.Samples <= 0 {
		e.origRows = rows
	}
	return rows
}

// useOriginal drops the original-result memo when p0 is not the original
// it holds. Safe even while cachedFor holds a value: only comparable
// types are ever stored, and comparing across distinct dynamic types is
// false without panicking.
func (e *Estimator) useOriginal(p0 provenance.Expression) {
	if e.cachedFor != p0 {
		if e.cachedFor != nil {
			e.stats.cacheResets.Add(1)
		}
		e.origCache, e.origArena, e.origRows = nil, nil, nil
		e.cachedFor = p0
	}
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
	e.ReleasePlan()
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
// expression implementing BlockPlanner. When cur has neither, err (a
// *PlanError) names why — an aggregation whose arena the blocked kernel
// refuses (provenance.Arena.Blockable) included, so a refused plan is
// never swept or patched.
func (e *Estimator) planOf(cur provenance.Expression) (*provenance.Plan, BlockPlan, error) {
	e.countCommit()
	if comparableExpr(cur) && e.planFor == cur {
		return e.plan, e.blockPlan, e.planErr
	}
	plan, bplan, err := compilePlan(cur)
	if comparableExpr(cur) {
		e.plan, e.blockPlan, e.planErr, e.planFor = plan, bplan, err, cur
	}
	return plan, bplan, err
}

func compilePlan(cur provenance.Expression) (*provenance.Plan, BlockPlan, error) {
	switch c := cur.(type) {
	case *provenance.Agg:
		plan := provenance.NewPlan(c)
		if plan == nil {
			return nil, nil, planError("a polynomial holds a constant outside int32 or a node the arena does not compile")
		}
		if !plan.Arena().Blockable() {
			return nil, nil, planError("a polynomial holds a negative constant")
		}
		return plan, nil, nil
	case BlockPlanner:
		bplan, err := c.BlockPlan()
		if err != nil {
			return nil, nil, &PlanError{Reason: err.Error()}
		}
		return nil, bplan, nil
	}
	return nil, nil, planError("%T has no compiled plan", cur)
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
