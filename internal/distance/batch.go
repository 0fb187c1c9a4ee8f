package distance

import (
	"sync"
	"time"

	"repro/internal/provenance"
)

// BatchCandidate is one candidate summary of a shared original expression,
// as scored by DistanceBatch: the candidate expression pc, the cumulative
// mapping h with pc = h(p0), and its inverse view. Candidates of one
// summarization step share every group except the one the probed merge
// creates; when their Groups share member-slice identity for the common
// groups (as core's batch scorer arranges), DistanceBatch reuses the
// φ-combined truth of each shared group across all candidates of a
// valuation instead of recomputing it per candidate.
type BatchCandidate struct {
	Expr       provenance.Expression
	Cumulative provenance.Mapping
	Groups     provenance.Groups
}

// DistanceBatch computes the distance of Definition 3.2.2 for every
// candidate in one valuation-major sweep: the outer loop runs over the
// valuation class (or over one shared Monte-Carlo sample set) and the
// inner loop over candidates, so the per-valuation work that does not
// depend on the candidate — the original expression's evaluation and the
// φ-combined truth of every group the candidates share — is computed once
// per valuation instead of once per (candidate, valuation). It is the
// materialized fallback of DistanceDelta, the scorer for cohorts whose
// current expression cannot be planned or probed, and it evaluates each
// candidate by the Expr tree walk: the reference computation.
//
// In sampling mode (Samples > 0) the valuation draws happen once, up
// front, and every candidate is scored under the same draws (common
// random numbers): candidate comparisons lose the between-candidate
// sampling variance, results are deterministic given the seed, and —
// because the Rand is only touched before any candidate work starts — the
// candidate sweep is safe to fan out across Parallelism goroutines.
//
// Per-candidate sums are accumulated in valuation order regardless of
// Parallelism, so the returned distances are bit-identical to a
// sequential sweep, and to per-candidate Distance calls in enumeration
// mode.
func (e *Estimator) DistanceBatch(p0 provenance.Expression, cands []BatchCandidate) []float64 {
	t0 := time.Now()
	defer func() {
		e.stats.batchCalls.Add(1)
		e.stats.batchCandidates.Add(uint64(len(cands)))
		e.stats.batchNanos.Add(int64(time.Since(t0)))
	}()
	return e.scoreCohort(p0, cands)
}

// scoreCohort is the body of DistanceBatch and Distance: one
// batchSweepBlock over the cohort, candidates partitioned across
// Parallelism workers.
func (e *Estimator) scoreCohort(p0 provenance.Expression, cands []BatchCandidate) []float64 {
	out := make([]float64, len(cands))
	if len(cands) == 0 {
		return out
	}
	vals := e.batchValuations()
	if len(vals) == 0 {
		return out
	}
	// Evaluate the original once per valuation before fanning out, so
	// workers share the results without touching the cache.
	origs := make([]provenance.Result, len(vals))
	for i, v := range vals {
		origs[i] = e.evalOriginal(v, p0)
	}

	workers := min(e.Parallelism, len(cands))
	if workers <= 1 {
		e.batchSweepBlock(cands, vals, origs, out, 0, len(cands))
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * len(cands) / workers
			hi := (w + 1) * len(cands) / workers
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				e.batchSweepBlock(cands, vals, origs, out, lo, hi)
			}(lo, hi)
		}
		wg.Wait()
	}
	e.normalize(out, len(vals))
	return out
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
// class, or — in sampling mode — one shared sample set drawn up front.
func (e *Estimator) batchValuations() []provenance.Valuation {
	if e.Samples <= 0 {
		return e.Class.Valuations()
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

// batchSweepBlock scores cands[lo:hi] against every valuation by the
// Expr tree walk — refDistance's computation, with the φ-memo —
// valuation-major in blocks of up to 64 lanes. Workers partition
// candidates (out columns stay disjoint); within a worker the blocks run
// outermost so the per-lane φ-memos — keyed by group member-slice
// identity — fill once per block and serve every candidate, whose
// expression stays hot across the block's lanes. Per-candidate sums
// accumulate in valuation order. origs[i] is p0's result under vals[i].
func (e *Estimator) batchSweepBlock(cands []BatchCandidate, vals []provenance.Valuation, origs []provenance.Result, out []float64, lo, hi int) {
	exts := make([]*memoExtendedValuation, 64)
	for j := range exts {
		exts[j] = &memoExtendedValuation{phi: e.Phi}
	}
	var evals uint64
	for lo64 := 0; lo64 < len(vals); lo64 += 64 {
		block := vals[lo64:min(len(vals), lo64+64)]
		for j, v := range block {
			exts[j].reset(v)
		}
		for ci := lo; ci < hi; ci++ {
			c := cands[ci]
			for j, v := range block {
				exts[j].groups = c.Groups
				orig := origs[lo64+j]
				aligned := orig
				if needsAlign(orig, c.Cumulative) {
					aligned = c.Expr.AlignResult(orig, c.Cumulative)
				}
				out[ci] += e.VF.F(v, aligned, c.Expr.Eval(exts[j]))
				evals++
			}
		}
	}
	e.stats.evaluations.Add(evals)
}

// needsAlign reports whether AlignResult can change orig under m.
// AlignResult re-keys a Vector result through the mapping (merged group
// keys are combined), so when no coordinate key is renamed it returns a
// value-identical copy — which the sweep shares instead of rebuilding per
// candidate. A step's candidates usually merge non-group annotations, so
// the whole cohort skips alignment. Non-Vector results are handed to
// AlignResult unconditionally.
func needsAlign(orig provenance.Result, m provenance.Mapping) bool {
	vec, ok := orig.(provenance.Vector)
	if !ok {
		return true
	}
	for k := range vec {
		if k != "" && m.Rename(k) != k {
			return true
		}
	}
	return false
}

// groupKey identifies a group's member slice: equal keys imply the same
// backing array and length, hence the same members. Groups built by
// provenance.GroupsOf (or patched from one base, as core's batch scorer
// does) never alias distinct member sets over one array, so identity is a
// sound memoization key; distinct slices with equal contents merely miss
// the memo and recompute.
type groupKey struct {
	first *provenance.Annotation
	n     int
}

func keyOf(members []provenance.Annotation) groupKey {
	return groupKey{first: &members[0], n: len(members)}
}

// memoExtendedValuation is the batch sweep's v^{h,φ}: semantically
// identical to provenance.ExtendValuation, but the φ combination of each
// group is memoized per valuation and shared across the candidates of the
// sweep. The same instance is reused across candidates with only the
// groups field swapped; reset clears the memo when the base valuation
// changes.
type memoExtendedValuation struct {
	base    provenance.Valuation
	groups  provenance.Groups
	phi     provenance.Combiner
	memo    map[groupKey]bool
	scratch []bool
}

func (m *memoExtendedValuation) reset(base provenance.Valuation) {
	m.base = base
	if m.memo == nil {
		m.memo = make(map[groupKey]bool)
	} else {
		clear(m.memo)
	}
}

// Truth implements provenance.Valuation.
func (m *memoExtendedValuation) Truth(a provenance.Annotation) bool {
	members, ok := m.groups[a]
	if !ok || len(members) == 0 {
		return m.base.Truth(a)
	}
	// A singleton group costs one raw truth: combining it is cheaper than
	// a memo entry.
	if len(members) == 1 {
		return m.combine(members)
	}
	k := keyOf(members)
	if t, ok := m.memo[k]; ok {
		return t
	}
	t := m.combine(members)
	m.memo[k] = t
	return t
}

// combine φ-combines the raw truths of members.
func (m *memoExtendedValuation) combine(members []provenance.Annotation) bool {
	if cap(m.scratch) < len(members) {
		m.scratch = make([]bool, len(members))
	}
	truths := m.scratch[:len(members)]
	for i, mm := range members {
		truths[i] = m.base.Truth(mm)
	}
	return m.phi.Combine(truths)
}

// Name implements provenance.Valuation.
func (m *memoExtendedValuation) Name() string { return m.base.Name() + "^φ" }
