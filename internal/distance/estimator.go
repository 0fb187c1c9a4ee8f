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
// The Estimator holds the configuration, the counters and pooled sweep
// scratch. Everything one run builds against its original — the
// original's rows, the truth columns, the step's plan and the probes it
// carries — belongs to the Run that Begin returns, and dies with it.
// The one-shot Distance keeps the Run of its last original, so repeated
// calls on one original share it.
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

	// last is the Run of the one-shot Distance's last original; Begin
	// drops it.
	last *Run

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
	runs          atomic.Uint64
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

	probesCarried  atomic.Uint64
	probesBuilt    atomic.Uint64
	probesRecycled atomic.Uint64
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
	// earlier sweep. CacheResets counts the runs begun after the first
	// (Begin, or Distance on a new original), each dropping what the
	// previous run kept.
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
	// MergePatches counts committed merges that Run.CommitMerge patched
	// into the cached plan in place (provenance.Plan.ApplyMerge for an
	// arena plan, BlockPlan.ApplyMerge for a block plan);
	// MergeRecompiles counts commits where the patch was refused and the
	// next step recompiles the plan from scratch. Both count a commit
	// when the next step begins, so a run's last merge, which no step
	// follows, counts in neither. Merges a run replays (Run.Replay) are
	// not counted.
	MergePatches, MergeRecompiles uint64
	// ProbesCarried counts DeltaCandidates whose probe a run carried
	// over from its previous step, ProbesBuilt those whose probe was
	// compiled afresh; the two sum to DeltaCandidates. ProbesRecycled
	// counts the built probes compiled into the buffers of a probe the
	// run dropped earlier (provenance.Plan.Reprobe).
	ProbesCarried, ProbesBuilt, ProbesRecycled uint64
}

// Stats returns a snapshot of the estimator's counters, accumulated over
// its lifetime and every run it began.
func (e *Estimator) Stats() Stats {
	var resets uint64
	if n := e.stats.runs.Load(); n > 1 {
		resets = n - 1
	}
	return Stats{
		Evaluations:   e.stats.evaluations.Load(),
		CacheHits:     e.stats.cacheHits.Load(),
		CacheMisses:   e.stats.cacheMisses.Load(),
		CacheResets:   resets,
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

		ProbesCarried:  e.stats.probesCarried.Load(),
		ProbesBuilt:    e.stats.probesBuilt.Load(),
		ProbesRecycled: e.stats.probesRecycled.Load(),
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

// Begin starts a run that scores candidates against the original p0:
// the returned Run owns the state the run builds (see Run) and drops it
// with the Run. Begin also drops the one-shot Distance's run.
func (e *Estimator) Begin(p0 provenance.Expression) *Run {
	e.stats.runs.Add(1)
	e.last = nil
	return &Run{e: e, p0: p0}
}

// Distance computes the (possibly normalized) distance between the
// original expression p0 and the candidate summary pc, where cumulative
// is the mapping with h(p0) = pc and groups is its inverse view: it is
// Run.Distance on a run of p0. The run is kept for the next call, which
// reuses it when its original is p0 again (the same expression value)
// and begins a new one otherwise.
func (e *Estimator) Distance(p0, pc provenance.Expression, cumulative provenance.Mapping, groups provenance.Groups) float64 {
	if r := e.last; r == nil || !comparableExpr(p0) || r.p0 != p0 {
		e.last = e.Begin(p0)
	}
	return e.last.Distance(pc, cumulative, groups)
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
