// External test package: package ddp imports distance (for its
// VAL-FUNC), so DDP scenarios can only be built from outside.
package distance_test

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/ddp"
	"repro/internal/distance"
	"repro/internal/provenance"
	"repro/internal/valuation"
)

// ddpScenario is one mid-run summarization step over a DDP expression:
// the original p0, the current summary cur = cum(p0), the step's inverse
// view, and a candidate cohort as member sets plus the materialized
// reference candidates RefDistance scores.
type ddpScenario struct {
	p0    *ddp.Expr
	anns  []provenance.Annotation
	cur   provenance.Expression
	cum   provenance.Mapping
	base  provenance.Groups
	sets  [][]provenance.Annotation
	cands []distance.RefCandidate
}

// isCost reports whether a DDP variable of the scenarios below is a cost
// variable (or a cost summary); DDP merges never mix the two kinds.
func isCost(a provenance.Annotation) bool {
	return strings.HasPrefix(string(a), "c") || strings.HasPrefix(string(a), "C")
}

// newDDPScenario completes a scenario from p0, the prior merges cum and
// the member sets, materializing one reference candidate per set.
func newDDPScenario(p0 *ddp.Expr, cum provenance.Mapping, sets [][]provenance.Annotation) ddpScenario {
	anns := p0.Annotations()
	base := provenance.GroupsOf(anns, cum)
	cur := p0.Apply(cum)
	sc := ddpScenario{p0: p0, anns: anns, cur: cur, cum: cum, base: base, sets: sets}
	for _, ms := range sets {
		h := provenance.MergeMapping("Z", ms...)
		g := make(provenance.Groups, len(base)+1)
		for name, members := range base {
			g[name] = members
		}
		var merged []provenance.Annotation
		for _, m := range ms {
			merged = append(merged, base.Members(m)...)
			delete(g, m)
		}
		g["Z"] = merged
		sc.cands = append(sc.cands, distance.RefCandidate{Expr: cur.Apply(h), Cumulative: cum.Compose(h), Groups: g})
	}
	return sc
}

// ddpStep is the benchmark step: the default generated DDP expression
// (12 executions over pools of 16 cost and 16 database variables), a
// prior summary that merged four cost and three database variables, and
// every same-kind pair of the current variables as the cohort (127
// candidates).
func ddpStep(tb testing.TB) ddpScenario {
	tb.Helper()
	p0, _ := ddp.Generate(ddp.DefaultGenConfig(), rand.New(rand.NewSource(3)))
	table := make(map[provenance.Annotation]provenance.Annotation)
	for _, a := range []provenance.Annotation{"c1", "c2", "c3", "c4"} {
		table[a] = "C1"
	}
	for _, a := range []provenance.Annotation{"d1", "d2", "d3"} {
		table[a] = "D1"
	}
	cum := provenance.MappingOf(table)
	curAnns := p0.Apply(cum).Annotations()
	var sets [][]provenance.Annotation
	for i := range curAnns {
		for j := i + 1; j < len(curAnns); j++ {
			if isCost(curAnns[i]) == isCost(curAnns[j]) {
				sets = append(sets, []provenance.Annotation{curAnns[i], curAnns[j]})
			}
		}
	}
	if len(sets) < 20 {
		tb.Fatalf("only %d candidates, want >= 20", len(sets))
	}
	return newDDPScenario(p0, cum, sets)
}

func ddpEstimator(sc ddpScenario) *distance.Estimator {
	return &distance.Estimator{
		Class:    valuation.NewCancelSingleAnnotation(sc.anns),
		Phi:      provenance.CombineOr,
		VF:       ddp.ValFunc(sc.p0.Penalty()),
		MaxError: sc.p0.Penalty(),
	}
}

// BenchmarkSummarizeStepScoringDDP scores one DDP step cohort through
// the delta engine: the tropical sum compiles into its block plan, and
// every merge is probed without materializing the candidate. Iterations
// alternate between two copies of the current expression, so each one
// compiles its plan afresh, as a run's first step does (later steps
// score on the plan the committed merge patched), while the original's
// results stay kept as they do across a run.
func BenchmarkSummarizeStepScoringDDP(b *testing.B) {
	sc := ddpStep(b)
	twin := *sc.cur.(*ddp.Expr)
	curs := []provenance.Expression{sc.cur, &twin}
	run := ddpEstimator(sc).Begin(sc.p0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := run.DistanceDelta(curs[i%2], sc.cum, sc.base, sc.sets, "Z"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDDPPlanMerge commits one merge of the benchmark step by the
// block plan's patch (ddp.Plan.ApplyMerge): the first same-kind pair of
// the cohort into a fresh summary variable, the patch building the next
// expression and patching the plan into its plan. Fresh plans of the
// step's expression are compiled untimed, a batch at a time, so one
// timer stop and restart covers a batch of patches.
func BenchmarkDDPPlanMerge(b *testing.B) {
	sc := ddpStep(b)
	cur := sc.cur.(*ddp.Expr)
	members := sc.sets[0]
	plans := make([]distance.BlockPlan, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(plans) {
		batch := plans[:min(len(plans), b.N-i)]
		b.StopTimer()
		for j := range batch {
			bp, err := cur.BlockPlan()
			if err != nil {
				b.Fatal(err)
			}
			batch[j] = bp
		}
		b.StartTimer()
		for _, bp := range batch {
			if _, ok := bp.ApplyMerge(members, "Z", nil); !ok {
				b.Fatalf("the plan refused the merge of %v", members)
			}
		}
	}
}

// TestOriginalResultsMatchEval pins the DDP original's results, which
// its block plan evaluates once per run 64 valuations per pass, to
// Expr.Eval's tree walk under every valuation of a sweep, in
// enumeration mode, where the run keeps them (a second sweep's lookup
// counts as cache hits), and in sampling mode, whose draws are evaluated
// afresh every sweep (misses only) and repeat valuations. It is the DDP
// twin of TestOriginalRowsMatchTreeWalk.
func TestOriginalResultsMatchEval(t *testing.T) {
	sc := ddpStep(t)
	for _, samples := range []int{0, 150} {
		e := ddpEstimator(sc)
		if samples > 0 {
			e.Samples = samples
			e.Rand = rand.New(rand.NewSource(3))
		}
		run := e.Begin(sc.p0)
		seen := make(map[string]bool)
		repeated := false
		for sweep := 0; sweep < 2; sweep++ {
			vals, res, err := distance.OriginalResults(run)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != len(vals) || len(vals) == 0 {
				t.Fatalf("samples=%d: %d results for %d valuations", samples, len(res), len(vals))
			}
			for i, v := range vals {
				if want := sc.p0.Eval(v); res[i] != want {
					t.Fatalf("samples=%d sweep %d: valuation %d (%s) = %v, Eval %v", samples, sweep, i, v.Name(), res[i], want)
				}
				repeated = repeated || seen[v.Name()]
				seen[v.Name()] = true
			}
			st := e.Stats()
			wantHits, wantMisses := uint64(sweep*len(vals)), uint64(len(vals))
			if samples > 0 {
				wantHits, wantMisses = 0, uint64((sweep+1)*len(vals))
			}
			if st.CacheHits != wantHits || st.CacheMisses != wantMisses {
				t.Fatalf("samples=%d sweep %d: %d hits and %d misses, want %d and %d", samples, sweep, st.CacheHits, st.CacheMisses, wantHits, wantMisses)
			}
		}
		if samples > 0 && !repeated {
			t.Fatalf("samples=%d: no draw repeated a valuation", samples)
		}
	}
}

// TestDistanceDeltaDDPMatchesBatch pins the benchmark step itself: the
// delta engine must plan it and agree bit for bit with the reference
// over the materialized batch, sizes included.
func TestDistanceDeltaDDPMatchesBatch(t *testing.T) {
	sc := ddpStep(t)
	checkDDPScenario(t, sc)
	st := ddpEstimator(sc)
	st.Begin(sc.p0).DistanceDelta(sc.cur, sc.cum, sc.base, sc.sets, "Z")
	if s := st.Stats(); s.DeltaSkips == 0 || s.DeltaFullEvals == 0 {
		t.Fatalf("step neither skipped nor re-evaluated: %+v", s)
	}
}

// checkDDPScenario is the differential oracle: DistanceDelta distances
// (Parallelism 1 and 3) are bit-identical to distance.RefDistance, in enumeration and in seeded
// sampling with enough draws for several 64-lane blocks, and the delta
// sizes equal the materialized candidates'. φ = OR and AND.
func checkDDPScenario(t *testing.T, sc ddpScenario) {
	t.Helper()
	for _, phi := range []provenance.Combiner{provenance.CombineOr, provenance.CombineAnd} {
		for _, samples := range []int{0, 150} {
			est := func(workers int) *distance.Estimator {
				e := ddpEstimator(sc)
				e.Phi = phi
				e.Parallelism = workers
				if samples > 0 {
					e.Samples = samples
					e.Rand = rand.New(rand.NewSource(7))
				}
				return e
			}
			ref := est(1)
			vals := distance.RefVals(ref.Class, samples, 7)
			want := distance.RefDistances(ref, vals, sc.p0, sc.cands)
			for _, workers := range []int{1, 3} {
				got, sizes, err := est(workers).Begin(sc.p0).DistanceDelta(sc.cur, sc.cum, sc.base, sc.sets, "Z")
				if err != nil {
					t.Fatalf("DistanceDelta refused %v: %v", sc.cur, err)
				}
				for i, c := range sc.cands {
					if got[i] != want[i] {
						t.Fatalf("φ=%s samples=%d workers=%d candidate %v: delta %v != reference %v\ncur=%v", phi.Name(), samples, workers, sc.sets[i], got[i], want[i], sc.cur)
					}
					if s := c.Expr.Size(); sizes[i] != s {
						t.Fatalf("candidate %v: delta size %d != Apply size %d\ncur=%v", sc.sets[i], sizes[i], s, sc.cur)
					}
				}
			}
		}
	}
}

// FuzzDistanceDeltaDDP is the DDP differential fuzzer of the delta
// engine: random tropical sums with non-dyadic costs (0.1 steps),
// repeated user terms, near-duplicate executions, conditions whose
// two variables both get merged, and names whose rendered keys collide
// ("d1:d2" with "d3" renders like "d1" with "d2:d3"); random prior
// summaries; cohorts of cost–cost and db–db merges (pairs and triples).
func FuzzDistanceDeltaDDP(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{200, 7, 42, 3, 99, 1, 0, 255, 13, 21, 34, 55, 89, 144, 233, 5})
	f.Add([]byte("tropical-delta-differential-oracle"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, ok := fuzzDDPScenario(data)
		if !ok {
			return
		}
		checkDDPScenario(t, sc)
	})
}

func fuzzDDPScenario(data []byte) (ddpScenario, bool) {
	pos := 0
	next := func(n int) int {
		if pos >= len(data) {
			pos++
			return pos % n
		}
		b := data[pos]
		pos++
		return int(b) % n
	}
	costVars := []provenance.Annotation{"c1", "c2", "c3", "c4"}
	dbVars := []provenance.Annotation{"d1", "d2", "d3", "rel:R1", "d1:d2", "d2:d3"}
	execs := make([]ddp.Execution, 2+next(7))
	for i := range execs {
		if i > 0 && next(3) == 0 {
			// Near-duplicate of an earlier execution, so merges collapse.
			ex := append(ddp.Execution(nil), execs[next(i)]...)
			k := next(len(ex))
			if ex[k].IsUser() {
				ex[k].CostVar = costVars[next(len(costVars))]
			} else {
				ex[k].D2 = dbVars[next(len(dbVars))]
			}
			execs[i] = ex
			continue
		}
		ex := make(ddp.Execution, 1+next(5))
		for k := range ex {
			switch next(3) {
			case 0:
				ex[k] = ddp.User(costVars[next(len(costVars))], float64(1+next(30))*0.1)
			case 1:
				if k > 0 && ex[k-1].IsUser() {
					ex[k] = ex[k-1] // repeated user term: its cost adds twice
				} else {
					ex[k] = ddp.User(costVars[next(len(costVars))], float64(1+next(30))*0.1)
				}
			default:
				ex[k] = ddp.Cond(dbVars[next(len(dbVars))], dbVars[next(len(dbVars))], next(4) != 0)
			}
		}
		execs[i] = ex
	}
	p0 := ddp.NewExpr(execs...)

	// Prior summary: each variable stays or joins its kind's summary.
	table := make(map[provenance.Annotation]provenance.Annotation)
	for _, a := range p0.Annotations() {
		if next(3) == 0 {
			if isCost(a) {
				table[a] = "C1"
			} else {
				table[a] = "D1"
			}
		}
	}
	cum := provenance.MappingOf(table)
	cur := p0.Apply(cum).(*ddp.Expr)
	var costs, dbs []provenance.Annotation
	for _, a := range cur.Annotations() {
		if isCost(a) {
			costs = append(costs, a)
		} else {
			dbs = append(dbs, a)
		}
	}
	var sets [][]provenance.Annotation
	pick := func(pool []provenance.Annotation) {
		if len(pool) < 2 {
			return
		}
		i := next(len(pool))
		j := (i + 1 + next(len(pool)-1)) % len(pool)
		ms := []provenance.Annotation{pool[i], pool[j]}
		if len(pool) > 2 && next(3) == 0 {
			for _, a := range pool {
				if a != ms[0] && a != ms[1] {
					ms = append(ms, a)
					break
				}
			}
		}
		sets = append(sets, ms)
	}
	for c := 1 + next(4); c > 0; c-- {
		pick(costs)
		pick(dbs)
	}
	// A merge of both variables of one condition.
	for _, ex := range cur.Execs {
		for _, tr := range ex {
			if !tr.IsUser() && tr.D1 != tr.D2 {
				sets = append(sets, []provenance.Annotation{tr.D1, tr.D2})
				return newDDPScenario(p0, cum, sets), true
			}
		}
	}
	if len(sets) == 0 {
		return ddpScenario{}, false
	}
	return newDDPScenario(p0, cum, sets), true
}

// The DDP plan-merge scenarios of FuzzDDPPlanMerge draw their names from
// small pools: colon names make distinct conditions render one key
// ("a:b"·"c" renders like "a"·"b:c"), "ghost" occurs in no execution,
// and a summary name can be empty, reserved, live, hold a key
// separator, or be the first member's own.
var (
	mergeCostVars = []provenance.Annotation{"c1", "c2", "c3", "c4"}
	mergeDBVars   = []provenance.Annotation{"d1", "d2", "d3", "a:b", "c", "a", "b:c"}
	mergeMembers  = append(append(append([]provenance.Annotation(nil), mergeCostVars...), mergeDBVars...), "ghost")
	mergeNewAnns  = []provenance.Annotation{"Z", "Y", "b:c", "a:b", "c1*", "", provenance.Zero}
	mergeCosts    = []float64{1, 2, 0.1, 0.2, 0.3, 2.5, 0, 7}
)

// planMergeStep is one merge of a plan-merge scenario: members into
// newAnn, handed the plan's probe of the merge when probe is set.
type planMergeStep struct {
	members []provenance.Annotation
	newAnn  provenance.Annotation
	probe   bool
}

// decodePlanMerge reads a plan-merge scenario from data, each byte
// taken modulo the range it picks from (past the end, a counter stands
// in): up to 8 executions of up to 5 transitions — a user term (cost
// variable, cost) or a condition (two database variables, operator) —
// then up to 6 merges of 2 or 3 members from mergeMembers, each into a
// name of mergeNewAnns or, one past its end, into its first member.
func decodePlanMerge(data []byte) (*ddp.Expr, []planMergeStep) {
	pos := 0
	next := func(n int) int {
		if pos >= len(data) {
			pos++
			return pos % n
		}
		b := data[pos]
		pos++
		return int(b) % n
	}
	execs := make([]ddp.Execution, 1+next(8))
	for i := range execs {
		ex := make(ddp.Execution, 1+next(5))
		for k := range ex {
			if next(2) == 0 {
				ex[k] = ddp.User(mergeCostVars[next(len(mergeCostVars))], mergeCosts[next(len(mergeCosts))])
			} else {
				ex[k] = ddp.Cond(mergeDBVars[next(len(mergeDBVars))], mergeDBVars[next(len(mergeDBVars))], next(2) == 0)
			}
		}
		execs[i] = ex
	}
	steps := make([]planMergeStep, 1+next(6))
	for i := range steps {
		ms := make([]provenance.Annotation, 2+next(2))
		for k := range ms {
			ms[k] = mergeMembers[next(len(mergeMembers))]
		}
		st := planMergeStep{members: ms, newAnn: ms[0]}
		if j := next(len(mergeNewAnns) + 1); j < len(mergeNewAnns) {
			st.newAnn = mergeNewAnns[j]
		}
		st.probe = next(2) == 0
		steps[i] = st
	}
	return ddp.NewExpr(execs...), steps
}

// Seed encodings for decodePlanMerge: user(v, cost) and cond(d1, d2,
// nonZero) index mergeCostVars, mergeCosts and mergeDBVars; merge lists
// members by mergeMembers index (c1..c4 = 0..3, d1 = 4, d2 = 5, d3 = 6,
// a:b = 7, c = 8, a = 9, b:c = 10, ghost = 11) and newAnn by
// mergeNewAnns index, len(mergeNewAnns) for the first member.
func seedUser(v, cost int) []byte { return []byte{0, byte(v), byte(cost)} }
func seedCond(a, b int, nz bool) []byte {
	return []byte{1, byte(a), byte(b), map[bool]byte{true: 0, false: 1}[nz]}
}
func seedExec(ts ...[]byte) []byte {
	out := []byte{byte(len(ts) - 1)}
	for _, t := range ts {
		out = append(out, t...)
	}
	return out
}
func seedMerge(newAnn int, probe bool, members ...int) []byte {
	out := []byte{byte(len(members) - 2)}
	for _, m := range members {
		out = append(out, byte(m))
	}
	return append(out, byte(newAnn), map[bool]byte{true: 0, false: 1}[probe])
}
func seedScenario(execs [][]byte, merges ...[]byte) []byte {
	out := []byte{byte(len(execs) - 1)}
	for _, ex := range execs {
		out = append(out, ex...)
	}
	out = append(out, byte(len(merges)-1))
	for _, m := range merges {
		out = append(out, m...)
	}
	return out
}

// FuzzDDPPlanMerge is the differential fuzzer of the DDP merge patch
// (ddp.Plan.ApplyMerge): over a chain of merges on one plan, every next
// expression the patch builds must deep-equal Apply's, executions in
// order, and every patched plan must equal the plan compiled afresh from
// it up to id renaming (ddp.Plan.Diff: live names, per-execution terms,
// index, size), evaluate every lane like it bit for bit (EvalBlock), and
// probe every merge like it (Size, Reshapes, CandEvalBlock). A merge the
// patch refuses must be one it has to refuse — an empty, reserved or
// live non-member summary name, or a reserved member — and the chain
// goes on from Apply on a plan compiled afresh, as the Run's fallback
// does, unless the estimator refuses what Apply returns.
func FuzzDDPPlanMerge(f *testing.F) {
	named := len(mergeNewAnns)
	// A merge named after one of its members.
	f.Add(seedScenario([][]byte{
		seedExec(seedUser(0, 0), seedCond(0, 1, true)),
		seedExec(seedUser(1, 1), seedCond(0, 2, true)),
	}, seedMerge(named, false, 5, 6), seedMerge(named, true, 5, 4)))
	// A merge that collapses touched executions (the probe reshapes).
	f.Add(seedScenario([][]byte{
		seedExec(seedUser(0, 2), seedUser(1, 3), seedCond(0, 1, true)),
		seedExec(seedUser(1, 3), seedUser(0, 2), seedCond(0, 2, true)),
		seedExec(seedUser(2, 4), seedCond(1, 2, false)),
	}, seedMerge(0, true, 5, 6), seedMerge(1, false, 0, 1)))
	// Members that occur in no execution, one of a merge's and all of
	// another's.
	f.Add(seedScenario([][]byte{
		seedExec(seedUser(0, 0), seedCond(0, 1, true)),
		seedExec(seedUser(1, 5), seedCond(0, 2, false)),
	}, seedMerge(0, false, 5, 11), seedMerge(1, true, 11, 3)))
	// A condition that becomes a duplicate after the rename.
	f.Add(seedScenario([][]byte{
		seedExec(seedCond(0, 1, true), seedCond(0, 2, true), seedUser(0, 0)),
		seedExec(seedCond(1, 2, true), seedUser(1, 1)),
	}, seedMerge(0, false, 5, 6)))
	// A survivor whose string key ties an untouched execution's:
	// d1 becomes "b:c", so a·d1 renders like the untouched a:b·c.
	f.Add(seedScenario([][]byte{
		seedExec(seedCond(3, 4, true), seedUser(0, 0)),
		seedExec(seedCond(5, 0, true), seedUser(0, 0)),
		seedExec(seedCond(1, 2, true), seedUser(1, 0)),
	}, seedMerge(2, true, 4, 6), seedMerge(2, false, 4, 5)))
	// Refused merges: into a live non-member, into the empty name, with
	// a reserved summary name; the chain goes on from Apply.
	f.Add(seedScenario([][]byte{
		seedExec(seedUser(0, 0), seedCond(3, 4, true)),
		seedExec(seedUser(1, 1), seedCond(0, 1, true)),
	}, seedMerge(3, false, 0, 1), seedMerge(5, true, 4, 5), seedMerge(6, false, 0, 1), seedMerge(0, true, 0, 1)))
	f.Add([]byte("tropical-merge-patch"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cur, steps := decodePlanMerge(data)
		rng := rand.New(rand.NewSource(int64(len(data))))
		bp, err := cur.BlockPlan()
		if err != nil {
			t.Fatalf("the generated expression does not plan: %v\n%s", err, cur)
		}
		plan := bp.(*ddp.Plan)
		for i, st := range steps {
			want := cur.Apply(provenance.MergeMapping(st.newAnn, st.members...)).(*ddp.Expr)
			var pr distance.BlockProbe
			if st.probe {
				pr = plan.Probe(st.members, "\x00probe")
			}
			gen := plan.Generation()
			next, ok := plan.ApplyMerge(st.members, st.newAnn, pr)
			if !ok {
				if plan.Generation() != gen {
					t.Fatalf("merge %d: a refused patch moved the generation", i)
				}
				if !mergeRefusable(plan, st) {
					t.Fatalf("merge %d of %v into %q refused\n%s", i, st.members, st.newAnn, cur)
				}
				cur = want
				if bp, err = cur.BlockPlan(); err != nil {
					// A merge into a reserved name: the estimator refuses
					// what Apply returns, and the chain ends.
					return
				}
				plan = bp.(*ddp.Plan)
				continue
			}
			if plan.Generation() != gen+1 {
				t.Fatalf("merge %d: generation %d after a patch of %d", i, plan.Generation(), gen)
			}
			if !reflect.DeepEqual(next, want) {
				t.Fatalf("merge %d of %v into %q:\npatch %#v\nApply %#v\nof %s", i, st.members, st.newAnn, next, want, cur)
			}
			fresh, err := want.BlockPlan()
			if err != nil {
				t.Fatalf("merge %d: Apply's expression does not plan: %v", i, err)
			}
			if d := plan.Diff(fresh.(*ddp.Plan)); d != "" {
				t.Fatalf("merge %d of %v into %q: patched plan differs from a fresh one: %s\n%s → %s", i, st.members, st.newAnn, d, cur, want)
			}
			checkPlansAgree(t, plan, fresh.(*ddp.Plan), rng)
			cur = want
		}
	})
}

// mergeRefusable reports whether ApplyMerge may refuse st on plan.
func mergeRefusable(plan *ddp.Plan, st planMergeStep) bool {
	_, live := plan.AnnID(st.newAnn)
	reserved := func(a provenance.Annotation) bool { return a == provenance.Zero || a == provenance.One }
	return st.newAnn == "" || reserved(st.newAnn) || live && !slices.Contains(st.members, st.newAnn) || slices.ContainsFunc(st.members, reserved)
}

// checkPlansAgree evaluates a patched plan p and a fresh plan q of the
// same expression on one random truth block, the truths given by name,
// and requires EvalBlock and, for a few random merges of live names,
// the probes' Size, Reshapes and CandEvalBlock to agree bit for bit.
func checkPlansAgree(t *testing.T, p, q *ddp.Plan, rng *rand.Rand) {
	t.Helper()
	live := p.AppendLiveAnnotations(nil)
	lanes := 1 + rng.Intn(64)
	truth := make(map[provenance.Annotation]uint64, len(live))
	for _, a := range live {
		truth[a] = rng.Uint64()
	}
	eval := func(pl *ddp.Plan) (distance.BlockEvaluator, []provenance.Result, uint64) {
		tb := provenance.NewTruthBlock()
		tb.Reset(len(pl.Annotations()), lanes)
		for id, a := range pl.Annotations() {
			if got, ok := pl.AnnID(a); ok && got == int32(id) {
				tb.SetWord(int32(id), truth[a]&tb.Mask())
			}
		}
		ev := pl.NewEvaluator()
		out := make([]provenance.Result, lanes)
		ev.EvalBlock(tb, out)
		return ev, out, tb.Mask()
	}
	pe, pout, mask := eval(p)
	qe, qout, _ := eval(q)
	defer pe.Release()
	defer qe.Release()
	for j := range pout {
		if pout[j] != qout[j] {
			t.Fatalf("lane %d: patched plan %v, fresh plan %v\n%s", j, pout[j], qout[j], p.Expr())
		}
	}
	if len(live) < 2 {
		return
	}
	for c := 0; c < 3; c++ {
		ms := []provenance.Annotation{live[rng.Intn(len(live))], live[rng.Intn(len(live))]}
		pp, qp := p.Probe(ms, "\x00probe"), q.Probe(ms, "\x00probe")
		if pp.Size() != qp.Size() || pp.Reshapes() != qp.Reshapes() {
			t.Fatalf("probe %v: size %d reshapes %v on the patched plan, %d %v on a fresh one", ms, pp.Size(), pp.Reshapes(), qp.Size(), qp.Reshapes())
		}
		merged := rng.Uint64() & mask
		pc, qc := make([]provenance.Result, lanes), make([]provenance.Result, lanes)
		pe.CandEvalBlock(pp, merged, mask, pc)
		qe.CandEvalBlock(qp, merged, mask, qc)
		for j := range pc {
			if pc[j] != qc[j] {
				t.Fatalf("probe %v lane %d: patched plan %v, fresh plan %v", ms, j, pc[j], qc[j])
			}
		}
	}
}
