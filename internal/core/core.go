// Package core implements the PROX provenance summarization algorithm
// (Algorithm 1 of Ch. 4): a greedy A*-like search that repeatedly maps a
// pair of annotations to a fresh summary annotation, choosing at each
// step the candidate minimizing
//
//	CandidateScore = wDist·rDist + wSize·rSize,
//
// where rDist is the (approximated, normalized) distance of the candidate
// summary from the original provenance and rSize its normalized size.
// The search starts by grouping annotations that are equivalent with
// respect to the valuation class (Prop. 4.2.1, a free first step), and
// stops when the summary reaches the TARGET-SIZE or TARGET-DIST bound,
// when the step budget is exhausted, or when no constraint-satisfying
// candidate pair remains. Ties between minimal-score candidates are
// broken by taxonomy distance (MAX or SUM of member-to-summary Wu–Palmer
// distances) when a taxonomy is available.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/constraints"
	"repro/internal/distance"
	"repro/internal/provenance"
	"repro/internal/randx"
	"repro/internal/valuation"
)

// Config parameterizes the summarizer. WDist and WSize are the candidate
// score weights (the paper requires WDist+WSize = 1); TargetSize and
// TargetDist are the stop bounds (use TargetSize = 1 and TargetDist = 1
// to disable the respective bound); MaxSteps caps the number of merge
// steps (0 means unlimited).
type Config struct {
	// Policy decides mergeability and names summary annotations.
	Policy *constraints.Policy
	// Estimator computes candidate distances (it fixes the valuation
	// class, φ and VAL-FUNC, and the sweeps' Parallelism). Each run
	// begins its own distance.Run on it.
	Estimator *distance.Estimator

	WDist, WSize float64
	TargetSize   int
	TargetDist   float64
	MaxSteps     int

	// TieBreakSum switches taxonomy tie-breaking from MAX to SUM of
	// member distances.
	TieBreakSum bool

	// CandidateCap, when positive, examines at most this many randomly
	// chosen candidate pairs per step instead of all pairs; Rand must be
	// set. This bounds per-step cost on large inputs without changing the
	// algorithm's structure.
	CandidateCap int
	// Rand drives candidate sampling (and nothing else in this package).
	Rand *rand.Rand
	// RandSrc, when set, is the serializable randx source backing Rand;
	// if Rand is nil, New creates it from RandSrc. Checkpointing
	// (CheckpointEvery) requires RandSrc whenever Rand is in use, because
	// a resumable snapshot must capture the random stream's position.
	RandSrc *randx.Source

	// StepObserver, when non-nil, receives a StepEvent after every
	// committed merge step (and never for the free Prop. 4.2.1
	// equivalence pre-step, which performs no candidate search). When a
	// TARGET-DIST rollback retracts the final merge (lines 11–13 of
	// Algorithm 1), the retracted step has already been observed; compare
	// against Summary.Steps for the post-rollback trace. It is called
	// synchronously from Summarize, so observers should be cheap or hand
	// off; it must not call back into the Summarizer.
	StepObserver StepObserver

	// CheckpointEvery, when positive, snapshots the run through
	// CheckpointSink once before the first merge step and again after
	// every CheckpointEvery-th committed step. A snapshot restored with
	// Resume continues the run bit-identically to an uninterrupted one.
	// Setting CheckpointSink with CheckpointEvery <= 0 defaults the
	// interval to 1 (a snapshot after every step).
	CheckpointEvery int
	// CheckpointSink receives checkpoint snapshots; a non-nil error
	// aborts the run (so persistence failures are not silently dropped).
	// It is called synchronously between merge steps; the Checkpoint and
	// everything it references belong to the sink (the summarizer never
	// mutates an emitted snapshot).
	CheckpointSink func(Checkpoint) error

	// TraceParent is an opaque trace context (a W3C traceparent value)
	// identifying the request this run belongs to. The summarizer never
	// interprets it; it is copied into every emitted Checkpoint so a
	// crash-resumed run can rejoin the original distributed trace.
	TraceParent string

	// MergeArity generalizes the algorithm to map k annotations to a new
	// annotation per step instead of 2 (the thesis's future-work
	// extension, Ch. 9). 0 and 2 give the paper's pairwise algorithm;
	// with k > 2, after the best pair is found the group is grown
	// greedily — at each growth step the constraint-compatible annotation
	// whose absorption yields the lowest candidate score is added — until
	// the group has k members or no compatible annotation remains. Larger
	// arity does more work per step so fewer steps are needed to reach
	// the stop condition — the tradeoff the thesis proposes to study.
	MergeArity int
}

// Step records one merge performed by the algorithm.
type Step struct {
	// A and B are the first two annotations merged at this step (the
	// full set, for k-ary merges, is in Members).
	A, B provenance.Annotation
	// Members is the complete set of annotations merged at this step.
	Members []provenance.Annotation
	// New is the summary annotation they were mapped to.
	New provenance.Annotation
	// Score is the winning candidate score; Dist and Size the candidate's
	// distance and size after the merge.
	Score, Dist float64
	Size        int
}

// Summary is the result of a summarization run.
type Summary struct {
	// Original is the input expression p0.
	Original provenance.Expression
	// Expr is the final summary expression.
	Expr provenance.Expression
	// Mapping is the cumulative homomorphism with Expr = Mapping(Original).
	Mapping provenance.Mapping
	// Groups is the inverse view of Mapping over the original annotations.
	Groups provenance.Groups
	// Equivalences are the merges of the free Prop. 4.2.1 pre-step, in
	// commit order; they carry A, B, Members and New only. Expr and
	// Mapping compose them before Steps. Seeded runs (Extend) have none.
	Equivalences []Step
	// Steps is the merge trace, in order.
	Steps []Step
	// Dist is the final (approximated, normalized) distance from Original.
	Dist float64
	// StopReason explains termination: "target-size", "target-dist",
	// "max-steps", "no-candidates". When the post-loop TARGET-DIST
	// rollback retracts the final merge, StopReason is "target-dist"
	// regardless of which bound ended the loop — the retraction, not the
	// loop's exit test, decided the returned expression.
	StopReason string
	// ExtendedFrom is the number of leading Steps entries seeded from a
	// prior partition (Summarizer.Extend) rather than chosen by this run;
	// len(Steps) - ExtendedFrom is the number of merges the run actually
	// performed. 0 for from-scratch runs.
	ExtendedFrom int

	// CandidatesEvaluated counts candidate (pair, distance) evaluations;
	// CandidateTime is the total time spent evaluating them. Both feed
	// the Sec. 6.9 timing experiment.
	CandidatesEvaluated int
	CandidateTime       time.Duration
	// Elapsed is the total summarization wall time.
	Elapsed time.Duration
}

// Summarizer runs Algorithm 1.
type Summarizer struct {
	cfg Config
	// checkCarry, set only by tests, inspects the carried step state
	// after every committed step; an error aborts the run.
	checkCarry func(cur provenance.Expression, cum provenance.Mapping, carry *stepCarry, r *distance.Run) error
	// replay, set only by tests, replaces the run's replay of a restored
	// or Prop. 4.2.1 merge (distance.Run.Replay).
	replay replayFunc
	// rebegin, set only by tests, begins a new distance.Run after every
	// committed step, so every step compiles its plan afresh.
	rebegin bool
	// applyCommits, set only by tests, commits every winning merge with
	// a whole-expression Apply instead of the run's plan
	// (distance.Run.CommitMerge).
	applyCommits bool
}

// replayFunc replays the merge of members into newAnn on cur.
type replayFunc func(cur provenance.Expression, members []provenance.Annotation, newAnn provenance.Annotation) provenance.Expression

// replayOn returns the run's merge replay, or the tests' replacement.
func (s *Summarizer) replayOn(r *distance.Run) replayFunc {
	if s.replay != nil {
		return s.replay
	}
	return r.Replay
}

// New validates the configuration and returns a Summarizer. The defaults
// are TargetSize 1 and TargetDist 1 (bounds disabled).
func New(cfg Config) (*Summarizer, error) {
	if cfg.Policy == nil {
		return nil, errors.New("core: Config.Policy is required")
	}
	if cfg.Estimator == nil {
		return nil, errors.New("core: Config.Estimator is required")
	}
	if cfg.WDist < 0 || cfg.WSize < 0 || cfg.WDist+cfg.WSize == 0 {
		return nil, fmt.Errorf("core: invalid weights wDist=%g wSize=%g", cfg.WDist, cfg.WSize)
	}
	if cfg.TargetSize <= 0 {
		cfg.TargetSize = 1
	}
	if cfg.TargetDist <= 0 {
		cfg.TargetDist = 1
	}
	if cfg.Rand == nil && cfg.RandSrc != nil {
		cfg.Rand = rand.New(cfg.RandSrc)
	}
	if cfg.CandidateCap > 0 && cfg.Rand == nil {
		return nil, errors.New("core: CandidateCap requires Rand")
	}
	if cfg.CheckpointSink != nil && cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 1
	}
	if cfg.CheckpointEvery > 0 {
		if cfg.CandidateCap > 0 && cfg.RandSrc == nil {
			return nil, errors.New("core: checkpointing a candidate-capped run requires Config.RandSrc (the RNG position must be part of the snapshot)")
		}
		if cfg.Estimator.Samples > 0 && cfg.Estimator.RandSrc == nil {
			return nil, errors.New("core: checkpointing a sampling run requires Estimator.RandSrc (the RNG position must be part of the snapshot)")
		}
	}
	if cfg.MergeArity == 1 || cfg.MergeArity < 0 {
		return nil, fmt.Errorf("core: invalid MergeArity %d (want 0 or >= 2)", cfg.MergeArity)
	}
	if cfg.MergeArity == 0 {
		cfg.MergeArity = 2
	}
	if err := cfg.Estimator.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Summarizer{cfg: cfg}, nil
}

// Summarize runs Algorithm 1 on p0 and returns the summary.
func (s *Summarizer) Summarize(p0 provenance.Expression) (*Summary, error) {
	return s.run(context.Background(), p0, nil)
}

// SummarizeContext runs Algorithm 1 on p0, checking ctx between merge
// steps: when ctx is canceled or its deadline passes, the run stops at
// the next step boundary and the context's error is returned, wrapped so
// errors.Is(err, context.Canceled / DeadlineExceeded) holds. A long
// individual step is not interrupted mid-step.
func (s *Summarizer) SummarizeContext(ctx context.Context, p0 provenance.Expression) (*Summary, error) {
	return s.run(ctx, p0, nil)
}

// run is the shared body of Summarize, SummarizeContext and Resume: it
// executes Algorithm 1 starting either fresh (cp == nil) or from a
// restored checkpoint. Its scoring state is one distance.Run, begun
// here and dropped when it returns.
func (s *Summarizer) run(ctx context.Context, p0 provenance.Expression, cp *Checkpoint) (*Summary, error) {
	start := time.Now()
	cfg := s.cfg
	r := cfg.Estimator.Begin(p0)

	res := &Summary{Original: p0}
	cur := p0
	cum := provenance.NewMapping()
	origAnns := p0.Annotations()
	origSize := p0.Size()
	if origSize == 0 {
		res.Expr = p0
		res.Mapping = cum
		res.Groups = provenance.GroupsOf(origAnns, cum)
		res.StopReason = "no-candidates"
		res.Elapsed = time.Since(start)
		return res, nil
	}

	extendFrom := 0
	if cp != nil {
		extendFrom = cp.ExtendFrom
	}
	res.ExtendedFrom = extendFrom

	// Free pre-step: group annotations equivalent under every valuation
	// of the class (Prop. 4.2.1). Distance is unchanged (0-cost merges).
	// On resume this replays deterministically, so the restored state
	// matches the state the checkpoint was taken from. Extend-seeded runs
	// skip it entirely (fresh and crash-resumed alike): the prior
	// partition already reflects the class's equivalences, and an
	// equivalence merge would race the seed replay for the same members.
	if extendFrom == 0 {
		cur, cum, res.Equivalences = s.groupEquivalent(r, cur, cum)
	}

	var st restoredState
	if cp != nil {
		var err error
		if st, err = s.restore(r, cp, cur, cum, res); err != nil {
			return nil, err
		}
		cur, cum = st.cur, st.cum
	}
	// Every cohort of the run is delta-scored, so an expression the
	// estimator cannot plan is refused before any work is journaled.
	// The check compiles the plan the run's first scoring reuses.
	if err := r.CheckPlan(cur, probeAnn); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// The candidate state carried from step to step lives and dies with
	// this run.
	carry := &stepCarry{origAnns: origAnns, base: provenance.GroupsOf(origAnns, cum)}

	// prev tracks the state before the latest merge, for the post-loop
	// TARGET-DIST rollback (lines 11–13 of Algorithm 1). A checkpoint
	// restore rebuilds it from the recorded trace.
	var curDist, prevDist, initDist float64
	prev, prevCum := cur, cum
	steps := 0
	if cp == nil {
		curDist = timedDistance(r, cur, cum, carry.base, res)
		initDist, prevDist = curDist, curDist
		if err := s.emitCheckpoint(res, initDist); err != nil {
			return nil, err
		}
	} else {
		curDist = st.curDist
		prev, prevCum, prevDist = st.prev, st.prevCum, st.prevDist
		initDist = cp.InitDist
		// The step budget counts this run's own merges; a seeded prior
		// partition rides along for free.
		steps = len(cp.Steps) - extendFrom
		if math.IsNaN(initDist) {
			// Fresh Extend: the synthetic seed checkpoint carries no
			// measured distances. Measure once after the seed replay —
			// this is the run's baseline, exactly like the cp == nil
			// branch — and backfill the seed trace so emitted
			// checkpoints and the final summary never carry the NaN
			// sentinel.
			curDist = timedDistance(r, cur, cum, carry.base, res)
			initDist, prevDist = curDist, curDist
			for i := range res.Steps[:extendFrom] {
				res.Steps[i].Dist = curDist
			}
			if err := s.emitCheckpoint(res, initDist); err != nil {
				return nil, err
			}
		}
	}

	res.StopReason = "no-candidates"
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: summarization interrupted after step %d: %w", steps, err)
		}
		if cur.Size() <= cfg.TargetSize {
			res.StopReason = "target-size"
			break
		}
		if cfg.TargetDist < 1 && curDist >= cfg.TargetDist {
			res.StopReason = "target-dist"
			break
		}
		if cfg.MaxSteps > 0 && steps >= cfg.MaxSteps {
			res.StopReason = "max-steps"
			break
		}

		candsBefore, probeBefore := res.CandidatesEvaluated, res.CandidateTime
		var before distance.Stats
		if cfg.StepObserver != nil {
			before = cfg.Estimator.Stats()
		}
		best, ok, err := s.bestCandidate(r, cur, cum, origSize, carry, res)
		if err != nil {
			return nil, fmt.Errorf("core: step %d: %w", steps+1, err)
		}
		if !ok {
			res.StopReason = "no-candidates"
			break
		}

		prev, prevCum, prevDist = cur, cum, curDist
		cur, cum, curDist = best.expr, best.cum, best.dist
		size := best.expr.Size()
		res.Steps = append(res.Steps, Step{
			A: best.members[0], B: best.members[1], Members: best.members,
			New:   best.newAnn,
			Score: best.score, Dist: best.dist, Size: size,
		})
		steps++
		if cfg.StepObserver != nil {
			after := cfg.Estimator.Stats()
			cfg.StepObserver(StepEvent{
				Step:          steps,
				Members:       best.members,
				New:           best.newAnn,
				Score:         best.score,
				RDist:         best.dist,
				RSize:         float64(size) / float64(origSize),
				Size:          size,
				Candidates:    res.CandidatesEvaluated - candsBefore,
				CandidateTime: res.CandidateTime - probeBefore,
				DeltaSkips:    after.DeltaSkips - before.DeltaSkips,
				ProbesCarried: after.ProbesCarried - before.ProbesCarried,
				Elapsed:       time.Since(start),
			})
		}
		if s.checkCarry != nil {
			if err := s.checkCarry(cur, cum, carry, r); err != nil {
				return nil, fmt.Errorf("core: step %d: %w", steps, err)
			}
		}
		if s.rebegin {
			r = cfg.Estimator.Begin(p0)
		}
		if cfg.CheckpointEvery > 0 && steps%cfg.CheckpointEvery == 0 {
			if err := s.emitCheckpoint(res, initDist); err != nil {
				return nil, err
			}
		}
	}

	// Post-loop rollback: if a distance bound is in force and the final
	// expression exceeds it, return the previous expression (the last one
	// within the bound). The retraction decides the returned expression
	// even when the loop stopped for another reason (e.g. the retracted
	// merge was the one that reached TARGET-SIZE), so StopReason must
	// follow it — otherwise StopReason, Expr.Size() and Dist disagree.
	if cfg.TargetDist < 1 && curDist >= cfg.TargetDist && len(res.Steps) > extendFrom {
		cur, cum, curDist = prev, prevCum, prevDist
		res.Steps = res.Steps[:len(res.Steps)-1]
		res.StopReason = "target-dist"
	}

	res.Expr = cur
	res.Mapping = cum
	res.Groups = provenance.GroupsOf(origAnns, cum)
	res.Dist = curDist
	res.Elapsed = time.Since(start)
	return res, nil
}

// candidate is one examined single-step mapping of a member set to a
// fresh summary annotation.
type candidate struct {
	members []provenance.Annotation
	newAnn  provenance.Annotation
	expr    provenance.Expression
	cum     provenance.Mapping
	dist    float64
	score   float64
}

// probeAnn is the scratch summary annotation used while scoring
// candidates. Scores do not depend on the summary annotation's name, so
// candidates are evaluated under this reserved name and only the winning
// merge is registered (named) in the Universe — otherwise every examined
// pair would pollute the annotation registry.
const probeAnn provenance.Annotation = "\x00probe"

// bestCandidate enumerates (or samples) the constraint-satisfying pairs
// of current annotations, scores each, and returns the minimal-score
// candidate, breaking ties by taxonomy distance when available. The
// pair list and the base groups come from carry, which the previous
// step's merge left valid (the probes from the run r), and the
// committed merge is recorded in it. err is the scorer's refusal of a
// cohort.
func (s *Summarizer) bestCandidate(r *distance.Run, cur provenance.Expression, cum provenance.Mapping, origSize int, carry *stepCarry, res *Summary) (candidate, bool, error) {
	cfg := s.cfg
	carry.flush(cfg.Policy)
	anns := r.Annotations(cur)
	pairs := carry.pairs.forAnns(cfg.Policy, anns)
	if len(pairs) == 0 {
		return candidate{}, false, nil
	}
	if cfg.CandidateCap > 0 && len(pairs) > cfg.CandidateCap {
		// Shuffle a copy: the carried list keeps enumeration order.
		pairs = append(carry.shuffled[:0], pairs...)
		carry.shuffled = pairs
		cfg.Rand.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		pairs = pairs[:cfg.CandidateCap]
	}

	cands, err := s.probeCohort(r, cur, cum, origSize, carry.memberSets(pairs), carry, res)
	if err != nil {
		return candidate{}, false, err
	}

	var best candidate
	ties := carry.ties[:0]
	found := false
	for _, cand := range cands {
		switch {
		case !found || cand.score < best.score-1e-12:
			best = cand
			ties = ties[:0]
			found = true
		case cand.score <= best.score+1e-12:
			ties = append(ties, cand)
		}
	}
	carry.ties = ties
	if !found {
		return candidate{}, false, nil
	}
	if len(ties) > 0 && cfg.Policy.Tax != nil {
		best = s.breakTies(append(ties, best))
	}
	if cfg.MergeArity > 2 {
		if best, err = s.growCandidate(r, cur, cum, origSize, anns, best, carry, res); err != nil {
			return candidate{}, false, err
		}
	}
	return s.commitCandidate(r, cur, cum, best, carry), true, nil
}

// probeCohort scores one cohort of candidate member sets through the
// delta engine (distance.Run.DistanceDelta), which probes every merge
// against the shared current expression without materializing
// candidates. The returned candidates, in carry's buffer until the next
// cohort, carry no expression or cumulative mapping — only the winner
// is materialized, by commitCandidate — and share the cohort's member
// sets. run checked that the run plans the input
// (distance.Run.CheckPlan); a refusal here (err) fails the run instead
// of leaving a cohort unscored.
func (s *Summarizer) probeCohort(r *distance.Run, cur provenance.Expression, cum provenance.Mapping, origSize int, members [][]provenance.Annotation, carry *stepCarry, res *Summary) ([]candidate, error) {
	cfg := s.cfg
	t0 := time.Now()
	dists, sizes, err := r.DistanceDelta(cur, cum, carry.base, members, probeAnn)
	if err != nil {
		return nil, err
	}
	cands := fitSlice(carry.cands, len(members))
	carry.cands = cands
	for i, ms := range members {
		rSize := float64(sizes[i]) / float64(origSize)
		cands[i] = candidate{members: ms, dist: dists[i], score: cfg.WDist*dists[i] + cfg.WSize*rSize}
	}
	res.CandidateTime += time.Since(t0)
	res.CandidatesEvaluated += len(members)
	return cands, nil
}

// growCandidate extends the winning pair towards MergeArity members: at
// each growth step the constraint-compatible annotation whose absorption
// yields the lowest candidate score joins the group. Each growth round is
// one candidate cohort, scored with a single cohort sweep; its member
// sets share carry's growth slab, so the group a round grows is copied
// out of it first.
func (s *Summarizer) growCandidate(r *distance.Run, cur provenance.Expression, cum provenance.Mapping, origSize int, anns []provenance.Annotation, best candidate, carry *stepCarry, res *Summary) (candidate, error) {
	for len(best.members) < s.cfg.MergeArity {
		group := append(carry.growing[:0], best.members...)
		carry.growing = group
		k := len(group) + 1
		members, slab := carry.grown[:0], carry.growSlab[:0]
		for _, a := range anns {
			if contains(group, a) || !s.compatibleWithAll(a, group) {
				continue
			}
			slab = append(append(slab, group...), a)
		}
		for at := 0; at < len(slab); at += k {
			members = append(members, slab[at:at+k:at+k])
		}
		carry.grown, carry.growSlab = members, slab
		cands, err := s.probeCohort(r, cur, cum, origSize, members, carry, res)
		if err != nil {
			return candidate{}, err
		}
		var grown candidate
		found := false
		for _, cand := range cands {
			if !found || cand.score < grown.score-1e-12 {
				grown = cand
				found = true
			}
		}
		if !found {
			break
		}
		best = grown
	}
	return best, nil
}

func (s *Summarizer) compatibleWithAll(a provenance.Annotation, members []provenance.Annotation) bool {
	for _, m := range members {
		if !s.cfg.Policy.CanMerge(a, m) {
			return false
		}
	}
	return true
}

func contains(list []provenance.Annotation, a provenance.Annotation) bool {
	for _, x := range list {
		if x == a {
			return true
		}
	}
	return false
}

// commitCandidate registers the winning merge's summary annotation and
// builds the expression and cumulative mapping under its real name. The
// run patches its cached delta plan in place and reads the next
// expression off the patch (distance.Run.CommitMerge), instead of
// rebuilding the whole expression and recompiling it on the next
// step's first probe; the next step carries the merge into the pair
// list (stepCarry.flush).
func (s *Summarizer) commitCandidate(r *distance.Run, cur provenance.Expression, cum provenance.Mapping, c candidate, carry *stepCarry) candidate {
	// The winner's members leave the step's slab: the trace keeps them.
	c.members = slices.Clone(c.members)
	c.newAnn = s.cfg.Policy.MergeName(c.members)
	c.cum = cum.Compose(provenance.MergeMapping(c.newAnn, c.members...))
	if s.applyCommits {
		c.expr = cur.Apply(provenance.MergeMapping(c.newAnn, c.members...))
	} else {
		c.expr = r.CommitMerge(cur, c.members, c.newAnn)
	}
	carry.pending = committedMerge{members: c.members, newAnn: c.newAnn}
	return c
}

// breakTies picks among equal-score candidates the one whose members are
// taxonomically closest to the summary annotation they would be mapped to
// (their LCA; MAX or SUM of distances per Config.TieBreakSum). Ties on
// taxonomy distance resolve to the lexicographically first pair, keeping
// runs deterministic.
func (s *Summarizer) breakTies(cands []candidate) candidate {
	best := cands[0]
	bestD := s.taxDistance(best)
	for _, c := range cands[1:] {
		d := s.taxDistance(c)
		if d < bestD || (d == bestD && pairLess(c, best)) {
			best, bestD = c, d
		}
	}
	return best
}

// taxDistance is the tie-breaking score of a candidate: the taxonomy
// distance of its members from their LCA (the concept the merge would be
// named after). Members outside the taxonomy score the maximal distance.
func (s *Summarizer) taxDistance(c candidate) float64 {
	tax := s.cfg.Policy.Tax
	lca, ok := tax.LCA(c.members[0], c.members[1])
	if !ok {
		return float64(len(c.members)) // MAX and SUM folds cap here
	}
	for _, m := range c.members[2:] {
		lca2, ok := tax.LCA(lca, m)
		if !ok {
			return float64(len(c.members))
		}
		lca = lca2
	}
	return tax.MappingDistance(lca, c.members, s.cfg.TieBreakSum)
}

func pairLess(x, y candidate) bool {
	if x.members[0] != y.members[0] {
		return x.members[0] < y.members[0]
	}
	return x.members[1] < y.members[1]
}

// timedDistance measures cur against the run's original, counting the
// work in res; base is GroupsOf(origAnns, cum).
func timedDistance(r *distance.Run, cur provenance.Expression, cum provenance.Mapping, base provenance.Groups, res *Summary) float64 {
	t0 := time.Now()
	d := r.Distance(cur, cum, base)
	res.CandidateTime += time.Since(t0)
	return d
}

// groupEquivalent performs the Prop. 4.2.1 pre-step: annotations that
// receive the same truth value under every valuation of the class are
// merged (a free simplification — their evaluations can never be told
// apart). Only groups whose members the policy allows to merge pairwise
// are collapsed, so semantic constraints are never violated. The classes
// come from the run's truth columns (distance.Run.EquivalenceClasses);
// each is named by Policy.MergeName and the merges replay through
// replayTrace on the run's plan, which the run's CheckPlan and first
// step then reuse. It returns the merges in commit order.
func (s *Summarizer) groupEquivalent(r *distance.Run, cur provenance.Expression, cum provenance.Mapping) (provenance.Expression, provenance.Mapping, []Step) {
	var eqs []Step
	for _, cls := range r.EquivalenceClasses(r.Annotations(cur)) {
		if len(cls) >= 2 && s.allMergeable(cls) {
			eqs = append(eqs, Step{A: cls[0], B: cls[1], Members: cls, New: s.cfg.Policy.MergeName(cls)})
		}
	}
	cur, cum = replayTrace(s.replayOn(r), s.cfg.Policy.Universe, cur, cum, eqs)
	return cur, cum, eqs
}

func (s *Summarizer) allMergeable(cls []provenance.Annotation) bool {
	for i := 0; i < len(cls); i++ {
		for j := i + 1; j < len(cls); j++ {
			if !s.cfg.Policy.CanMerge(cls[i], cls[j]) {
				return false
			}
		}
	}
	return true
}

// EquivalenceClasses partitions anns into the classes of annotations
// that agree under every valuation of class (Prop. 4.2.1): those whose
// truth columns over the class are equal (distance.EquivalenceClasses).
// Classes come in the order the proposition's partition refinement
// yields, with members in the input order of anns (callers pass sorted
// annotation sets).
func EquivalenceClasses(anns []provenance.Annotation, class valuation.Class) [][]provenance.Annotation {
	return distance.EquivalenceClasses(anns, class.Valuations())
}
