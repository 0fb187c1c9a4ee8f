package distance

import (
	"math/rand"
	"testing"

	"repro/internal/provenance"
	"repro/internal/valuation"
)

// fuzzReader turns the fuzz input into an endless byte stream (zeros
// once exhausted), so every structural decision below is a total
// function of the input.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// fuzzPool holds names that are prefixes of each other ("a", "ab"),
// names with bytes that sort below the key separators '*', '+', '(' and
// '|' (space, '!', '#'), a multibyte name, and names holding the
// separators themselves, which keys escape ("x (1)", "b+v:c", ...), so
// the fold order of a probe, which follows Simplify's key order, meets
// every way names can order against the key syntax.
var fuzzPool = []provenance.Annotation{"a", "ab", "b", "c", "d", "e", " ", "!", "#x", "é",
	"x (1)", "p*q", "r|s", "b+v:c", "{a+b}", "m⊗n"}

// fuzzPoly generates a random polynomial over fuzzPool covering every
// node kind the plan compiler knows, with small integer constants so
// all arithmetic stays exact in float64.
func fuzzPoly(r *fuzzReader, depth int) provenance.Expr {
	if depth <= 0 {
		return provenance.V(fuzzPool[int(r.next())%len(fuzzPool)])
	}
	switch r.next() % 5 {
	case 0:
		return provenance.V(fuzzPool[int(r.next())%len(fuzzPool)])
	case 1:
		return provenance.Const{N: int(r.next()) % 3}
	case 2:
		return provenance.Sum{Terms: []provenance.Expr{fuzzPoly(r, depth-1), fuzzPoly(r, depth-1)}}
	case 3:
		return provenance.Prod{Factors: []provenance.Expr{fuzzPoly(r, depth-1), fuzzPoly(r, depth-1)}}
	default:
		return provenance.Cmp{
			Inner: fuzzPoly(r, depth-1),
			Value: float64(int(r.next())%4 + 1),
			Op:    provenance.OpGE,
			Bound: float64(int(r.next()) % 3),
		}
	}
}

// fuzzScenario builds a random mid-run summarization step: a random
// aggregation, a random prior cumulative mapping (merges into S1/S2),
// and a random candidate cohort over the current annotations, returned
// both as member sets and as materialized reference candidates.
func fuzzScenario(r *fuzzReader) (p0 *provenance.Agg, cur provenance.Expression, cum provenance.Mapping, base provenance.Groups, anns []provenance.Annotation, sets [][]provenance.Annotation, cands []refCandidate) {
	// SUM comes up twice as often as each other monoid: it is the one
	// whose fold order could show in the result. Values mix small
	// integers with 0.1, 0.7 and 1e16, whose float sums depend on their
	// order and grouping, so every path must fold, align and compare in
	// the reference's order to stay bitwise equal.
	kinds := []provenance.AggKind{provenance.AggSum, provenance.AggSum, provenance.AggMax, provenance.AggMin, provenance.AggCount}
	values := []float64{1, 2, 3, 4, 0.1, 0.7, 1e16}
	kind := kinds[int(r.next())%len(kinds)]
	groups := []provenance.Annotation{"g1", "g2", ""}
	nTensors := int(r.next())%6 + 3
	tensors := make([]provenance.Tensor, nTensors)
	for i := range tensors {
		tensors[i] = provenance.Tensor{
			Prov:  fuzzPoly(r, 3),
			Value: values[int(r.next())%len(values)],
			Count: int(r.next())%3 + 1,
			Group: groups[int(r.next())%len(groups)],
		}
	}
	p0 = provenance.NewAgg(kind, tensors...)
	anns = p0.Annotations()

	// Random prior merges: each original annotation stays, or joins S1 or
	// S2. The step under test probes on top of this summary.
	table := make(map[provenance.Annotation]provenance.Annotation)
	for _, a := range anns {
		switch r.next() % 3 {
		case 1:
			table[a] = "S1"
		case 2:
			table[a] = "S2"
		}
	}
	cum = provenance.MappingOf(table)
	cur = p0.Apply(cum)
	base = provenance.GroupsOf(anns, cum)

	curAnns := cur.Annotations()
	if len(curAnns) < 2 {
		return p0, cur, cum, base, anns, nil, nil
	}
	nCands := int(r.next())%4 + 1
	for c := 0; c < nCands; c++ {
		i := int(r.next()) % len(curAnns)
		j := int(r.next()) % len(curAnns)
		if i == j {
			j = (j + 1) % len(curAnns)
		}
		ms := []provenance.Annotation{curAnns[i], curAnns[j]}
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
		sets = append(sets, ms)
		cands = append(cands, refCandidate{Expr: cur.Apply(h), Cumulative: cum.Compose(h), Groups: g})
	}
	return p0, cur, cum, base, anns, sets, cands
}

// FuzzDistanceDelta is the differential oracle for the scorers: on
// random expressions, prior merges, cohorts, combiners and monoids,
// DistanceDelta and per-candidate Distance must both be bitwise equal
// to refDistance — in enumeration mode and in
// seeded sampling mode — and the incremental sizes must equal the
// materialized candidates' sizes. The run then commits the cohort's
// first merge and scores the next step's cohort on the patched plan,
// with the probes it dropped recycled and its truth table carried
// (checkNextStep).
func FuzzDistanceDelta(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{200, 7, 42, 3, 99, 1, 0, 255, 13, 21, 34, 55, 89, 144, 233, 5})
	f.Add([]byte("delta-scoring-differential-oracle"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		p0, cur, cum, base, anns, sets, cands := fuzzScenario(r)
		if len(sets) == 0 {
			return
		}
		for _, phi := range []provenance.Combiner{provenance.CombineOr, provenance.CombineAnd} {
			for _, samples := range []int{0, 4} {
				est := func() *Estimator {
					e := &Estimator{Class: valuation.NewCancelSingleAnnotation(anns), Phi: phi, VF: Euclidean(), Samples: samples}
					if samples > 0 {
						e.Rand = rand.New(rand.NewSource(3))
					}
					return e
				}
				d := est()
				run := d.Begin(p0)
				got, sizes, err := run.DistanceDelta(cur, cum, base, sets, "Z")
				if err != nil {
					t.Fatalf("DistanceDelta refused a plain aggregation: %v: %v", err, cur)
				}
				vals := refVals(d.Class, samples, 3)
				for i, c := range cands {
					want := refDistance(d, vals, p0, c.Expr, c.Cumulative, c.Groups)
					if got[i] != want {
						t.Fatalf("φ=%s samples=%d candidate %d (%v): delta %v != reference %v\ncur=%v", phi.Name(), samples, i, sets[i], got[i], want, cur)
					}
					if dist := est().Distance(p0, c.Expr, c.Cumulative, c.Groups); dist != want {
						t.Fatalf("φ=%s samples=%d candidate %d (%v): distance %v != reference %v\ncur=%v", phi.Name(), samples, i, sets[i], dist, want, cur)
					}
					if want := c.Expr.Size(); sizes[i] != want {
						t.Fatalf("φ=%s candidate %d (%v): incremental size %d != Apply size %d", phi.Name(), i, sets[i], sizes[i], want)
					}
				}
				checkNextStep(t, run, p0, cur, cum, anns, sets[0], refVals(d.Class, 2*samples, 3)[samples:])
			}
		}
	})
}

// checkNextStep commits the merge of ms on run's plan of cur and holds
// the next step's scores — every pair of the next expression's first
// annotations, on the patched plan, with the probes the merge dropped
// recycled and the truth table carried — to refDistance over vals, the
// next sweep's valuations.
func checkNextStep(t *testing.T, run *Run, p0 *provenance.Agg, cur provenance.Expression, cum provenance.Mapping, anns, ms []provenance.Annotation, vals []provenance.Valuation) {
	t.Helper()
	step := provenance.MergeMapping("M", ms...)
	next := run.CommitMerge(cur, ms, "M")
	nextCum := cum.Compose(step)
	base := provenance.GroupsOf(anns, nextCum)
	nextAnns := next.Annotations()
	var sets [][]provenance.Annotation
	for i := 0; i < len(nextAnns) && i < 3; i++ {
		for j := i + 1; j < len(nextAnns); j++ {
			sets = append(sets, []provenance.Annotation{nextAnns[i], nextAnns[j]})
		}
	}
	if len(sets) == 0 {
		return
	}
	got, _, err := run.DistanceDelta(next, nextCum, base, sets, "Z")
	if err != nil {
		t.Fatalf("next step: DistanceDelta refused %v: %v", next, err)
	}
	for i, c := range sets {
		h := provenance.MergeMapping("Z", c...)
		candCum := nextCum.Compose(h)
		want := refDistance(run.e, vals, p0, next.Apply(h), candCum, provenance.GroupsOf(anns, candCum))
		if got[i] != want {
			t.Fatalf("next step after %v→M, candidate %v: delta %v != reference %v\nnext=%v", ms, c, got[i], want, next)
		}
	}
}
