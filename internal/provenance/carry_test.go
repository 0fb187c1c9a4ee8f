package provenance

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// carryFixture decodes an aggregation shaped like MovieLens from fuzz
// bytes: users rate movies in a year, each tensor the product
// user·movie·year (or a two-user sum times the movie, or a bare user)
// in its movie's coordinate or the scalar one, with values whose float
// sums depend on their order. Some names hold key separators, as real
// titles do.
func carryFixture(next func() byte, kind AggKind) *Agg {
	users := []Annotation{"u1", "u2", "u3", "u4", "u5", "p*q", "b+v:c"}
	movies := []Annotation{"m1", "m2", "m3", "m4", "x (1)", "{a+b}", "r|s"}
	years := []Annotation{"y1", "y2", "m⊗n"}
	values := []float64{0.1, 0.7, 1e16, 1, 3}
	pick := func(as []Annotation) Annotation { return as[int(next())%len(as)] }
	nt := int(next())%10 + 2
	tensors := make([]Tensor, nt)
	for i := range tensors {
		u, m := pick(users), pick(movies)
		var prov Expr
		switch next() % 4 {
		case 0:
			prov = Prod{Factors: []Expr{Sum{Terms: []Expr{V(u), V(pick(users))}}, V(m)}}
		case 1:
			prov = V(u)
		default:
			prov = P(u, m, pick(years))
		}
		group := m
		if next()%5 == 0 {
			group = ""
		}
		tensors[i] = Tensor{Prov: prov, Value: values[int(next())%len(values)], Count: 1, Group: group}
	}
	return NewAgg(kind, tensors...)
}

// FuzzPlanCarry is the differential fuzzer of the probe carry: over a
// decoded MAX or SUM aggregation it runs a decoded sequence of committed
// merges — user pairs that collapse ratings, movie (group) merges,
// merges named after one of their members — through Plan.ApplyMerge,
// carrying every pair probe of the previous state with the returned
// MergePatch; some merges are committed from the cohort's probe of the
// pair (Plan.ApplyProbe), scored under another summary annotation. The
// next expression the patch builds must equal
// cur.Apply of the merge tensor for tensor, in polynomial structure and
// value bits. Each surviving probe must equal a probe built afresh on
// the patched plan in every compiled field (Probe.Diff: Members, Size,
// RenamesGroup, Slots, Reorders, the fold programs, the dirty closure),
// and its CandEvalBlock rows must match the fresh probe's bit for bit.
// Some probes are compiled before the merge and some are not, so both
// kept and lazily rebuilt programs are checked.
func FuzzPlanCarry(f *testing.F) {
	f.Add([]byte{9, 0, 0, 2, 0, 1, 1, 1, 2, 2, 1, 3, 0, 0, 1, 0, 0, 0, 2, 2, 1, 1, 3, 3, 0}, uint64(7), uint8(0))
	f.Add([]byte{11, 1, 2, 0, 1, 4, 2, 3, 3, 1, 2, 2, 0, 3, 0, 4, 1, 1, 2, 0, 3, 1, 2, 2, 1, 0, 1}, uint64(99), uint8(1))
	f.Add([]byte{5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, uint64(1<<40|3), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, kindByte uint8) {
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		kind := AggMax
		if kindByte%2 == 1 {
			kind = AggSum
		}
		cur := carryFixture(next, kind)
		plan := NewPlan(cur)
		if plan == nil || !plan.probeable {
			t.Skipf("fixture does not plan: %s", cur)
		}
		probes := pairProbes(plan, cur, next)

		for step := 0; step < 4; step++ {
			anns := cur.Annotations()
			if len(anns) < 2 {
				return
			}
			i := int(next()) % len(anns)
			j := (i + 1 + int(next())%(len(anns)-1)) % len(anns)
			members := []Annotation{anns[i], anns[j]}
			newAnn := Annotation(fmt.Sprintf("S%d", step))
			if next()%3 == 0 {
				newAnn = members[int(next())%2] // named after a member
			}
			want := cur.Apply(MergeMapping(newAnn, members...)).(*Agg)
			var nextAgg *Agg
			var patch *MergePatch
			if winner := probeOf(probes, members); winner != nil && next()%2 == 0 {
				nextAgg, patch = plan.ApplyProbe(winner, newAnn)
			} else {
				nextAgg, patch = plan.ApplyMerge(members, newAnn)
			}
			if nextAgg == nil {
				nextAgg = want
			} else if d := aggDiff(nextAgg, want); d != "" {
				t.Fatalf("step %d: ApplyMerge(%v→%s) built a next expression unlike Apply: %s", step, members, newAnn, d)
			}
			cur = nextAgg
			if patch == nil {
				plan = NewPlan(cur)
				if plan == nil || !plan.probeable {
					return
				}
				probes = pairProbes(plan, cur, next)
				continue
			}
			var kept []*Probe
			for _, pr := range probes {
				if !patch.Carry(pr) {
					continue
				}
				fresh := plan.Probe(pr.Members, pr.NewAnn)
				if fresh == nil {
					t.Fatalf("step %d: %v carried across %v→%s, but the patched plan refuses it", step, pr.Members, members, newAnn)
				}
				if d := pr.Diff(fresh); d != "" {
					t.Fatalf("step %d: %v carried across %v→%s differs from a fresh probe: %s", step, pr.Members, members, newAnn, d)
				}
				checkCandRows(t, plan, pr, fresh, seed+uint64(step))
				kept = append(kept, pr)
			}
			// Carried probes stay in the cohort next to fresh ones for
			// the pairs the merge created or invalidated.
			probes = append(kept, pairProbes(plan, cur, next)...)
		}
	})
}

// probeOf returns the probe of member pair ms, in either order, among
// probes, or nil.
func probeOf(probes []*Probe, ms []Annotation) *Probe {
	for _, pr := range probes {
		if slices.Equal(pr.Members, ms) || slices.Equal(pr.Members, []Annotation{ms[1], ms[0]}) {
			return pr
		}
	}
	return nil
}

// pairProbes probes every pair of cur's annotations into "Z",
// compiling a decoded subset of them.
func pairProbes(plan *Plan, cur *Agg, next func() byte) []*Probe {
	anns := cur.Annotations()
	var probes []*Probe
	for i := range anns {
		for j := i + 1; j < len(anns); j++ {
			pr := plan.Probe([]Annotation{anns[i], anns[j]}, "Z")
			if pr == nil {
				continue
			}
			if next()%2 == 0 {
				pr.compileEval()
			}
			probes = append(probes, pr)
		}
	}
	return probes
}

// checkCandRows evaluates a carried probe and a fresh one on one
// seed-derived truth block of plan and requires bit-identical rows.
func checkCandRows(t *testing.T, plan *Plan, carried, fresh *Probe, seed uint64) {
	t.Helper()
	ar := plan.Arena()
	const lanes = 64
	tb := NewTruthBlock()
	tb.Reset(ar.NumAnns(), lanes)
	for id := 0; id < ar.NumAnns(); id++ {
		x := seed ^ uint64(id+1)*0x9e3779b97f4a7c15
		x ^= x >> 31
		x *= 0xbf58476d1ce4e5b9
		tb.SetWord(int32(id), x^x>>29)
	}
	merged := seed*0x94d049bb133111eb ^ seed>>17
	bs := ar.GetBlockScratch()
	defer ar.PutBlockScratch(bs)
	base := make([][]float64, lanes)
	ar.EvalRows(tb, bs, base)
	got := make([][]float64, lanes)
	want := make([][]float64, lanes)
	carried.CandEvalBlock(merged, tb.Mask(), base, bs, got)
	fresh.CandEvalBlock(merged, tb.Mask(), base, bs, want)
	for j := range got {
		if len(got[j]) != len(want[j]) {
			t.Fatalf("%v lane %d: carried row %v, fresh row %v", carried.Members, j, got[j], want[j])
		}
		for k := range got[j] {
			if math.Float64bits(got[j][k]) != math.Float64bits(want[j][k]) {
				t.Fatalf("%v lane %d slot %d: carried %v, fresh %v", carried.Members, j, k, got[j][k], want[j][k])
			}
		}
	}
}
