// External test package: package ddp imports distance (for its
// VAL-FUNC), so DDP scenarios can only be built from outside.
package distance_test

import (
	"math/rand"
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
// the delta engine: the tropical sum compiles once into its block plan,
// every merge is probed without materializing the candidate. Iterations
// alternate between two copies of the current expression, so each one
// compiles its plan afresh as a summarization step does, while the
// original's evaluations stay cached as they do across a run.
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
