package distance

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/provenance"
)

// Run is the scoring state of one summarization run. Algorithm 1 scores
// every candidate of a run against one original p0 under one valuation
// class, so everything derived from them is built once per run and
// lives here:
//
//   - the original's side: an aggregation's arena and, in enumeration
//     mode, its rows under every valuation of the class; a
//     BlockPlanner original's block plan and, in enumeration mode, its
//     results under every valuation of the class;
//   - the class's side: the enumerated valuation list, the packed truth
//     column of each annotation, and the summand matrix of the sweeps;
//   - the step's side: the compiled plan of the expression being scored,
//     an arena or a block plan (cached by expression identity, patched
//     in place by CommitMerge and Replay),
//     the pair probes of the step, carried across the committed merge's
//     patch into the next step, and the committed merge's outcome,
//     counted when the next step begins.
//
// A Run belongs to one run and dies with it: the Estimator keeps no
// reference to a Run it began. It is not safe for concurrent use.
type Run struct {
	e  *Estimator
	p0 provenance.Expression

	// origArena is an aggregated original's arena (originalArena) and
	// origRows, in enumeration mode, its rows under every valuation of
	// vals (originalRows). origBlock is a BlockPlanner original's block
	// plan (originalBlockPlan) and origResults, in enumeration mode, its
	// results under every valuation of vals (originalResults).
	origArena   *provenance.Arena
	origRows    [][]float64
	origBlock   BlockPlan
	origResults []provenance.Result

	// truthCols memoizes, per raw annotation, its packed truth column
	// over the enumerated class: word b bit j is the truth under
	// valuation 64*b+j (truthColumn). vals is the enumerated class
	// (batchValuations) and vf the candidate × valuation summand matrix
	// of the last sweep, reused by the next.
	truthCols map[provenance.Annotation][]uint64
	vals      []provenance.Valuation
	vf        []float64

	// plan and blockPlan are the compiled plan of planFor (at most one is
	// set; planErr when neither is), patched in place by every merge
	// CommitMerge or Replay commits on it.
	plan      *provenance.Plan
	blockPlan BlockPlan
	planErr   error
	planFor   provenance.Expression

	// carried holds the pair probes carried into the current step and
	// step those the current step scored, all on plan for merges into
	// probeAnn. pending is the committed merge's patch, across which
	// settle rebases step, and committed the counter (MergePatches or
	// MergeRecompiles) its outcome goes to.
	probeAnn      provenance.Annotation
	carried, step map[[2]provenance.Annotation]*provenance.Probe
	pending       *provenance.MergePatch
	committed     *atomic.Uint64
	// free is the run's free list of probes (recycle): those settle
	// drops, the committed winner among them, and every probe of a
	// dropped plan. loose holds the probes of the last DistanceDelta
	// call that no step map keeps (k-ary growth probes, and pair probes
	// a later call of the step replaced), which the next call recycles.
	// A free probe that call does not reuse is let go, so the run's live
	// heap still shrinks with its cohorts.
	free, loose []*provenance.Probe

	// truths is the sweeps' truth table, carried across the merges
	// patched into the plan (stepTruths), and mids the member ids of the
	// merge being patched (noteMerge). The rest is DistanceDelta's
	// scratch, refilled by every call: its probes and their slab, the
	// probes' member ids and flattened base groups, a block plan's
	// probes, and the sizes and distances it returns, which stay valid
	// until the next call. anns is Annotations' result.
	truths  *deltaTruths
	mids    []int32
	dps     []deltaProbe
	dpp     []*deltaProbe
	ids     []int32
	flat    []int32
	bprobes []BlockProbe
	sizes   []int
	out     []float64
	anns    []provenance.Annotation
	// replayApply records that Replay met an aggregation the arena cannot
	// plan or probe; the run's remaining replayed merges Apply.
	replayApply bool
}

// CheckPlan reports why the run cannot score cur, as a *PlanError: cur
// has no compiled plan (planOf), an aggregation's plan is asked to score
// against an original that is not one or whose arena the blocked kernel
// cannot evaluate (originalArena), an aggregation is not in Simplify
// normal form (Probe refuses every merge of it; a Sum or Prod listing
// its children out of key order counts, so a hand-built Agg needs
// Simplify first), cur holds a reserved annotation (provenance.Zero or
// One), or newAnn, the summary annotation DistanceDelta probes merges
// into, when not empty, already occurs in cur. Distance needs only the
// plan. The plan stays cached, so the first Distance or DistanceDelta
// on cur reuses it instead of compiling again.
func (r *Run) CheckPlan(cur provenance.Expression, newAnn provenance.Annotation) error {
	plan, bplan, err := r.planOf(cur)
	if err != nil {
		return err
	}
	_, annID, err := r.sweepNames(plan, bplan)
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

// Distance computes the (possibly normalized) distance between the run's
// original and the candidate summary pc, where cumulative is the
// mapping with h(p0) = pc and groups is its inverse view. It is
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
func (r *Run) Distance(pc provenance.Expression, cumulative provenance.Mapping, groups provenance.Groups) float64 {
	t0 := time.Now()
	defer func() {
		r.e.stats.distanceCalls.Add(1)
		r.e.stats.distanceNanos.Add(int64(time.Since(t0)))
	}()
	d, err := r.distanceBase(pc, cumulative, groups)
	if err != nil {
		panic(fmt.Sprintf("distance: Distance on an expression Run.CheckPlan refuses: %v", err))
	}
	return d
}

// CommitMerge commits the merge of members into newAnn on cur and
// returns the next expression, cur.Apply(MergeMapping(newAnn,
// members...)). When the cached plan is cur's, the plan builds next
// itself and is patched in place, so the next step's DistanceDelta
// reuses it instead of recompiling the whole expression: an arena plan
// by provenance.Plan.ApplyMerge, or ApplyProbe from the winner's probe
// when this step scored it, and the step's probes that survive the
// merge are rebased onto the patch when the next step begins; a block
// plan by BlockPlan.ApplyMerge, handed the winner's probe when this
// step scored it. A patch the plan refuses falls back to Apply; it, and
// an arena patch refused for the arena's garbage, drops the cached plan
// and the carried probes, and the next step compiles next — either way
// results are unchanged. The outcome counts in MergePatches or
// MergeRecompiles when the next step begins.
func (r *Run) CommitMerge(cur provenance.Expression, members []provenance.Annotation, newAnn provenance.Annotation) provenance.Expression {
	r.settle()
	var winner *provenance.Probe
	if k, ok := pairKey(members); ok {
		winner = r.step[k]
	}
	next, patch, how := r.mergeOnPlan(cur, members, newAnn, winner, r.blockProbeOf(members))
	if patch != nil {
		r.pending = patch
	} else {
		r.dropProbes()
	}
	switch how {
	case mergePatched:
		r.committed = &r.e.stats.mergePatches
	case mergeRefused:
		r.committed = &r.e.stats.mergeRecompiles
	}
	return next
}

// Replay commits one merge a run replays — a seed step of
// Summarizer.Extend, a step of a resumed checkpoint or a Prop. 4.2.1
// class — on cur and returns the next expression,
// cur.Apply(MergeMapping(newAnn, members...)). It is CommitMerge
// without probes and without counting: the plan, an arena or a block
// plan, is compiled at the first replayed merge and patched in place at
// every later one, and it stays cached, so the run's CheckPlan and
// first step reuse it. Its fallbacks are CommitMerge's: a merge the
// plan refuses, or one that would leave an arena more than half
// garbage, drops the plan, and the next replayed merge compiles the
// expression it returns. An expression the estimator cannot plan (or
// an aggregation it cannot probe) makes the run Apply its remaining
// replayed merges without compiling again.
func (r *Run) Replay(cur provenance.Expression, members []provenance.Annotation, newAnn provenance.Annotation) provenance.Expression {
	if !r.replayApply && plannable(cur) {
		if plan, _, err := r.planOf(cur); err != nil || plan != nil && !plan.Probeable() {
			r.replayApply = true
		}
	}
	next, _, _ := r.mergeOnPlan(cur, members, newAnn, nil, nil)
	return next
}

// plannable reports whether cur is an expression kind planOf compiles.
func plannable(cur provenance.Expression) bool {
	switch c := cur.(type) {
	case *provenance.Agg:
		return c != nil
	case BlockPlanner:
		return true
	}
	return false
}

// Annotations returns cur.Annotations(), read off the plan's indexes
// (provenance.Plan.AppendLiveAnnotations, BlockPlan's) into a slice the
// run reuses, valid until the next call, when the run holds cur's plan,
// as it does from CheckPlan on and after every patched merge; any other
// expression collects them from its tree.
func (r *Run) Annotations(cur provenance.Expression) []provenance.Annotation {
	if pl := r.cachedPlan(); pl != nil && comparableExpr(cur) && r.planFor == cur {
		r.anns = pl.AppendLiveAnnotations(r.anns[:0])
		return r.anns
	}
	return cur.Annotations()
}

// mergeOutcome is how mergeOnPlan committed a merge.
type mergeOutcome int

const (
	// mergeOffPlan: the run held no plan of cur, and the merge Applied.
	mergeOffPlan mergeOutcome = iota
	// mergePatched: the plan was patched in place and is cached for next.
	mergePatched
	// mergeRefused: the plan refused the patch and was dropped; next
	// comes from Apply, or from an arena patch refused for its garbage.
	mergeRefused
)

// mergeOnPlan is the shared body of CommitMerge and Replay. When the
// cached plan is cur's, it builds next by patching the plan in place —
// an arena plan by ApplyProbe from pr when pr is on the plan, else
// ApplyMerge; a block plan by its ApplyMerge, handed bp — and keeps the
// patched plan cached for next, with the truth table carried across
// the merge (noteMerge). A refused patch drops the plan and falls back
// to Apply, and an arena patch refused for the arena's garbage drops it
// and returns the patch's next. Otherwise it Applies. patch is the
// arena plan's patch, nil unless an arena plan was patched.
func (r *Run) mergeOnPlan(cur provenance.Expression, members []provenance.Annotation, newAnn provenance.Annotation, pr *provenance.Probe, bp BlockProbe) (next provenance.Expression, patch *provenance.MergePatch, how mergeOutcome) {
	pl := r.cachedPlan()
	if pl == nil || !comparableExpr(cur) || r.planFor != cur {
		return cur.Apply(provenance.MergeMapping(newAnn, members...)), nil, mergeOffPlan
	}
	r.mids = r.mids[:0]
	for _, m := range members {
		if id, ok := pl.AnnID(m); ok {
			r.mids = append(r.mids, id)
		}
	}
	if r.blockPlan != nil {
		if next, ok := r.blockPlan.ApplyMerge(members, newAnn, bp); ok {
			r.planFor = next
			r.noteMerge(pl, newAnn)
			return next, nil, mergePatched
		}
		r.blockPlan, r.planFor = nil, nil
		return cur.Apply(provenance.MergeMapping(newAnn, members...)), nil, mergeRefused
	}
	var g *provenance.Agg
	if pr != nil && pr.On(r.plan) {
		g, patch = r.plan.ApplyProbe(pr, newAnn)
	} else {
		g, patch = r.plan.ApplyMerge(members, newAnn)
	}
	if patch != nil {
		r.planFor = g
		r.noteMerge(pl, newAnn)
		return g, patch, mergePatched
	}
	r.plan, r.planFor = nil, nil
	if g == nil {
		return cur.Apply(provenance.MergeMapping(newAnn, members...)), nil, mergeRefused
	}
	return g, nil, mergeRefused
}

// cachedPlan returns the run's cached plan, an arena or a block plan,
// or nil when it holds neither.
func (r *Run) cachedPlan() patchablePlan { return patchableOf(r.plan, r.blockPlan) }

// patchableOf returns the one of plan and bplan that is set, or nil.
func patchableOf(plan *provenance.Plan, bplan BlockPlan) patchablePlan {
	switch {
	case plan != nil:
		return plan
	case bplan != nil:
		return bplan
	}
	return nil
}

// patchablePlan is what the run reads of a plan that merges patch in
// place, provenance.Plan or BlockPlan: the truth-table carry's ids and
// generation, and the live annotations.
type patchablePlan interface {
	Annotations() []provenance.Annotation
	AnnID(a provenance.Annotation) (int32, bool)
	AppendLiveAnnotations(dst []provenance.Annotation) []provenance.Annotation
	Generation() uint64
}

// blockProbeOf returns the block-plan probe the run's last
// DistanceDelta call built for exactly members, or nil. The plan's
// ApplyMerge checks it is the probe of the merge on its current state.
func (r *Run) blockProbeOf(members []provenance.Annotation) BlockProbe {
	if r.blockPlan == nil {
		return nil
	}
	for i, bp := range r.bprobes {
		if i < len(r.dps) && slices.Equal(r.dps[i].members, members) {
			return bp
		}
	}
	return nil
}

// settle carries the committed merge into the run once the next step
// has begun: its outcome is counted, and the probes the previous step
// scored are rebased across its patch (provenance.MergePatch.Carry) to
// become the carried probes. The probes that do not survive are
// recycled: the patch, which shares the winner's Members, is dropped by
// then, and the step's sweeps are over.
func (r *Run) settle() {
	if r.committed != nil {
		r.committed.Add(1)
		r.committed = nil
	}
	m := r.pending
	if m == nil {
		return
	}
	r.pending = nil
	r.dropCarried()
	for k, pr := range r.step {
		if !m.Carry(pr) {
			delete(r.step, k)
			r.recycle(pr)
		}
	}
	r.carried, r.step = r.step, r.carried
}

// dropProbes recycles the carried, the step's and the loose probes,
// which a recompiled or dropped plan shares nothing with.
func (r *Run) dropProbes() {
	r.dropCarried()
	for _, pr := range r.step {
		r.recycle(pr)
	}
	clear(r.step)
	r.recycle(r.loose...)
	r.loose = refit(r.loose, 0)
}

// dropCarried recycles the carried probes the step did not score, which
// no merge rebases, and empties the carried map; the others are the
// step's.
func (r *Run) dropCarried() {
	for k, pr := range r.carried {
		if r.step[k] != pr {
			r.recycle(pr)
		}
	}
	clear(r.carried)
}

// recycle puts probes no step map, sweep or patch refers to any more on
// the run's free list.
func (r *Run) recycle(probes ...*provenance.Probe) {
	r.free = append(r.free, probes...)
}

// probe builds the probe of the merge of ms into newAnn on plan into a
// recycled probe when the free list has one (provenance.Plan.Reprobe).
// It returns nil when the plan refuses the merge.
func (r *Run) probe(plan *provenance.Plan, ms []provenance.Annotation, newAnn provenance.Annotation) *provenance.Probe {
	n := len(r.free)
	if n == 0 {
		return plan.Probe(ms, newAnn)
	}
	old := r.free[n-1]
	pr := plan.Reprobe(old, ms, newAnn)
	if pr != nil {
		r.free[n-1] = nil
		r.free = r.free[:n-1]
		r.e.stats.probesRecycled.Add(1)
	}
	return pr
}

// pairKey is the carry's key of a member set: probes are carried for
// pairs only.
func pairKey(ms []provenance.Annotation) ([2]provenance.Annotation, bool) {
	if len(ms) != 2 {
		return [2]provenance.Annotation{}, false
	}
	return [2]provenance.Annotation{ms[0], ms[1]}, true
}

// CheckCarry settles the committed merge and holds the state the run
// carries into the next step to a rebuild on the same plan state: every
// carried probe to one built afresh (provenance.Probe.Diff), and the
// truth table, carried to base, the next step's base groups, to one
// derived from base in full. It returns how many probes it checked, or
// the first mismatch. Differential tests call it between steps.
func (r *Run) CheckCarry(base provenance.Groups) (int, error) {
	r.settle()
	for k, pr := range r.carried {
		if !pr.On(r.plan) {
			return 0, fmt.Errorf("carried probe %v is not on the run's plan", k)
		}
		fresh := r.plan.Probe(pr.Members, pr.NewAnn)
		if fresh == nil {
			return 0, fmt.Errorf("carried probe %v: the plan refuses it", k)
		}
		if d := pr.Diff(fresh); d != "" {
			return 0, fmt.Errorf("carried probe %v: %s", k, d)
		}
	}
	if pl := r.cachedPlan(); pl != nil && r.truths != nil && r.truths.plan == pl {
		names := pl.Annotations()
		got, want := r.stepTruths(pl, names, base), newDeltaTruths(names, base, r.e.Phi)
		for id, a := range names {
			if live, ok := pl.AnnID(a); !ok || live != int32(id) {
				// A block plan's merged-away id: no execution reads it.
				continue
			}
			if g, w := got.flatNames(int32(id)), want.flatNames(int32(id)); !slices.Equal(g, w) {
				return 0, fmt.Errorf("carried truth of %q derives from %v, want %v", names[id], g, w)
			}
		}
	}
	return len(r.carried), nil
}

// planOf returns the compiled evaluation plan for cur, cached by
// expression identity across the calls of one summarization step (a step
// scores its pair cohort and any k-ary growth rounds against the same
// cur): the arena plan of an aggregation, or the block plan of an
// expression implementing BlockPlanner. When cur has neither, err (a
// *PlanError) names why — an aggregation whose arena the blocked kernel
// refuses (provenance.Arena.Blockable) included, so a refused plan is
// never swept or patched. It settles the committed merge first, and a
// compiled plan drops the carried probes.
func (r *Run) planOf(cur provenance.Expression) (*provenance.Plan, BlockPlan, error) {
	r.settle()
	if comparableExpr(cur) && r.planFor == cur {
		return r.plan, r.blockPlan, r.planErr
	}
	r.dropProbes()
	plan, bplan, err := compilePlan(cur)
	if comparableExpr(cur) {
		r.plan, r.blockPlan, r.planErr, r.planFor = plan, bplan, err, cur
	}
	return plan, bplan, err
}

// originalBlockPlan returns the block plan of a BlockPlanner original,
// compiled once per run, or a *PlanError when the original is not one
// or its plan does not compile.
func (r *Run) originalBlockPlan() (BlockPlan, error) {
	if r.origBlock != nil {
		return r.origBlock, nil
	}
	bp, ok := r.p0.(BlockPlanner)
	if !ok {
		return nil, planError("a block plan is scored against a %T original", r.p0)
	}
	plan, err := bp.BlockPlan()
	if err != nil {
		return nil, planError("the original: %v", err)
	}
	r.origBlock = plan
	return plan, nil
}

// originalArena returns the aggregated original g's compiled arena,
// compiled once per run, or a *PlanError when the blocked kernel cannot
// evaluate g: a polynomial does not compile, or the arena is not
// Blockable.
func (r *Run) originalArena(g *provenance.Agg) (*provenance.Arena, error) {
	if r.origArena != nil {
		return r.origArena, nil
	}
	ar := provenance.CompileArena(g)
	if ar == nil {
		return nil, planError("the original holds a constant outside int32 or a node the arena does not compile")
	}
	if !ar.Blockable() {
		return nil, planError("the original holds a negative constant")
	}
	r.origArena = ar
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
func (r *Run) originalRows(vals []provenance.Valuation) [][]float64 {
	e := r.e
	if e.Samples <= 0 && r.origRows != nil && len(r.origRows) == len(vals) {
		e.stats.cacheHits.Add(uint64(len(vals)))
		return r.origRows
	}
	e.stats.cacheMisses.Add(uint64(len(vals)))
	ar := r.origArena
	n := len(ar.Slots())
	slab := make([]float64, len(vals)*n)
	rows := make([][]float64, len(vals))
	for i := range rows {
		rows[i] = slab[i*n : (i+1)*n : (i+1)*n]
	}
	anns := ar.Annotations()
	cols := make([][]uint64, len(anns))
	for id, a := range anns {
		cols[id] = r.truthColumn(a, vals)
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
		r.origRows = rows
	}
	return rows
}

// originalResults returns the original's results under vals, result i
// for vals[i], evaluated on its block plan (origBlock, compiled by
// originalBlockPlan) 64 valuations per pass from the packed truth
// columns (truthColumn). Each equals the original's Eval under the
// valuation. In enumeration mode vals is the run's class and the
// results are kept for the run; sampling mode evaluates each sweep's
// draws afresh. It runs on the calling goroutine; the results must not
// be modified.
func (r *Run) originalResults(vals []provenance.Valuation) []provenance.Result {
	e := r.e
	if e.Samples <= 0 && r.origResults != nil && len(r.origResults) == len(vals) {
		e.stats.cacheHits.Add(uint64(len(vals)))
		return r.origResults
	}
	e.stats.cacheMisses.Add(uint64(len(vals)))
	bp := r.origBlock
	anns := bp.Annotations()
	cols := make([][]uint64, len(anns))
	for id, a := range anns {
		cols[id] = r.truthColumn(a, vals)
	}
	out := make([]provenance.Result, len(vals))
	tb := provenance.NewTruthBlock()
	ev := bp.NewEvaluator()
	for lo := 0; lo < len(vals); lo += 64 {
		lanes := min(64, len(vals)-lo)
		tb.Reset(len(anns), lanes)
		for id, col := range cols {
			tb.SetWord(int32(id), col[lo>>6])
		}
		ev.EvalBlock(tb, out[lo:lo+lanes])
	}
	ev.Release()
	if e.Samples <= 0 {
		r.origResults = out
	}
	return out
}

// truthColumn returns annotation a's packed truth column over vals
// (word j>>6, bit j&63 = vals[j].Truth(a)), memoized for the run in
// enumeration mode. Sampling mode redraws valuations per sweep, so its
// columns are computed fresh and never cached.
func (r *Run) truthColumn(a provenance.Annotation, vals []provenance.Valuation) []uint64 {
	words := (len(vals) + 63) / 64
	enum := r.e.Samples <= 0
	if enum {
		if col, ok := r.truthCols[a]; ok && len(col) == words {
			return col
		}
	}
	col := make([]uint64, words)
	packColumn(col, a, vals)
	if enum {
		if r.truthCols == nil {
			r.truthCols = make(map[provenance.Annotation][]uint64)
		}
		r.truthCols[a] = col
	}
	return col
}

// packColumn sets the bits of a's truths over vals in the zeroed col.
func packColumn(col []uint64, a provenance.Annotation, vals []provenance.Valuation) {
	for j, v := range vals {
		if v.Truth(a) {
			col[j>>6] |= 1 << uint(j&63)
		}
	}
}

// batchValuations returns the sweep's valuation list: the enumerated
// class, enumerated once per run, or — in sampling mode — one shared
// sample set drawn up front. The list must not be modified.
func (r *Run) batchValuations() []provenance.Valuation {
	e := r.e
	if e.Samples <= 0 {
		if r.vals == nil {
			r.vals = e.Class.Valuations()
		}
		return r.vals
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
