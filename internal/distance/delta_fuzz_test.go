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
// '|' (space, '!', '#'), and a multibyte name, so the fold order of a
// probe, which follows Simplify's key order, meets every way names can
// order against the key syntax.
var fuzzPool = []provenance.Annotation{"a", "ab", "b", "c", "d", "e", " ", "!", "#x", "é"}

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
func fuzzScenario(r *fuzzReader) (p0 *provenance.Agg, cur provenance.Expression, cum provenance.Mapping, base provenance.Groups, anns []provenance.Annotation, sets [][]provenance.Annotation, cands []BatchCandidate) {
	// SUM comes up twice as often as each other monoid: it is the one
	// whose fold order could show in the result. The values stay small
	// integers, so every path's float sums are exact and the distances
	// bitwise comparable; the fold order itself is pinned with inexact
	// values at the probe level (TestProbeIDRewriteMatchesApply).
	kinds := []provenance.AggKind{provenance.AggSum, provenance.AggSum, provenance.AggMax, provenance.AggMin, provenance.AggCount}
	kind := kinds[int(r.next())%len(kinds)]
	groups := []provenance.Annotation{"g1", "g2", ""}
	nTensors := int(r.next())%6 + 3
	tensors := make([]provenance.Tensor, nTensors)
	for i := range tensors {
		tensors[i] = provenance.Tensor{
			Prov:  fuzzPoly(r, 3),
			Value: float64(int(r.next())%4 + 1),
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
		cands = append(cands, BatchCandidate{Expr: cur.Apply(h), Cumulative: cum.Compose(h), Groups: g})
	}
	return p0, cur, cum, base, anns, sets, cands
}

// FuzzDistanceDelta is the differential oracle for the delta engine:
// on random expressions, prior merges, cohorts, combiners and monoids,
// DistanceDelta must be bitwise equal to both the per-candidate
// Distance reference and the DistanceBatch sweep — in enumeration mode
// and in seeded sampling mode — and its incremental sizes must equal
// the materialized candidates' sizes.
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
			d := &Estimator{Class: valuation.NewCancelSingleAnnotation(anns), Phi: phi, VF: Euclidean()}
			got, sizes, ok := d.DistanceDelta(p0, cur, cum, base, sets, "Z")
			if !ok {
				t.Fatalf("DistanceDelta fell back on a plain aggregation: %v", cur)
			}
			b := &Estimator{Class: valuation.NewCancelSingleAnnotation(anns), Phi: phi, VF: Euclidean()}
			batch := b.DistanceBatch(p0, cands)
			// Legacy references force the recursive tree evaluator, so the
			// fuzzer is also an arena-vs-legacy differential oracle.
			refLegacy := &Estimator{Class: valuation.NewCancelSingleAnnotation(anns), Phi: phi, VF: Euclidean(), LegacyEval: true}
			bLegacy := &Estimator{Class: valuation.NewCancelSingleAnnotation(anns), Phi: phi, VF: Euclidean(), LegacyEval: true}
			batchLegacy := bLegacy.DistanceBatch(p0, cands)
			// Scalar-arena references (ScalarEval) pin the valuation-
			// blocked kernel to the per-valuation arena path: the
			// block-vs-scalar differential oracle on both cohort engines.
			dScalar := &Estimator{Class: valuation.NewCancelSingleAnnotation(anns), Phi: phi, VF: Euclidean(), ScalarEval: true}
			scalarDelta, _, ok := dScalar.DistanceDelta(p0, cur, cum, base, sets, "Z")
			if !ok {
				t.Fatal("scalar DistanceDelta fell back on a plain aggregation")
			}
			bScalar := &Estimator{Class: valuation.NewCancelSingleAnnotation(anns), Phi: phi, VF: Euclidean(), ScalarEval: true}
			scalarBatch := bScalar.DistanceBatch(p0, cands)
			ref := &Estimator{Class: valuation.NewCancelSingleAnnotation(anns), Phi: phi, VF: Euclidean()}
			for i, c := range cands {
				want := ref.Distance(p0, c.Expr, c.Cumulative, c.Groups)
				if got[i] != want {
					t.Fatalf("φ=%s candidate %d (%v): delta %v != distance %v\ncur=%v", phi.Name(), i, sets[i], got[i], want, cur)
				}
				if got[i] != batch[i] {
					t.Fatalf("φ=%s candidate %d (%v): delta %v != batch %v\ncur=%v", phi.Name(), i, sets[i], got[i], batch[i], cur)
				}
				if legacy := refLegacy.Distance(p0, c.Expr, c.Cumulative, c.Groups); got[i] != legacy {
					t.Fatalf("φ=%s candidate %d (%v): arena %v != legacy distance %v\ncur=%v", phi.Name(), i, sets[i], got[i], legacy, cur)
				}
				if got[i] != batchLegacy[i] {
					t.Fatalf("φ=%s candidate %d (%v): arena %v != legacy batch %v\ncur=%v", phi.Name(), i, sets[i], got[i], batchLegacy[i], cur)
				}
				if got[i] != scalarDelta[i] {
					t.Fatalf("φ=%s candidate %d (%v): blocked delta %v != scalar delta %v\ncur=%v", phi.Name(), i, sets[i], got[i], scalarDelta[i], cur)
				}
				if batch[i] != scalarBatch[i] {
					t.Fatalf("φ=%s candidate %d (%v): blocked batch %v != scalar batch %v\ncur=%v", phi.Name(), i, sets[i], batch[i], scalarBatch[i], cur)
				}
				if want := c.Expr.Size(); sizes[i] != want {
					t.Fatalf("φ=%s candidate %d (%v): incremental size %d != Apply size %d", phi.Name(), i, sets[i], sizes[i], want)
				}
			}

			// Sampling mode with common random numbers: same seed, same
			// distances on both cohort paths.
			ds := &Estimator{Class: valuation.NewCancelSingleAnnotation(anns), Phi: phi, VF: Euclidean(),
				Samples: 4, Rand: rand.New(rand.NewSource(3))}
			sampledDelta, _, ok := ds.DistanceDelta(p0, cur, cum, base, sets, "Z")
			if !ok {
				t.Fatal("sampled DistanceDelta fell back")
			}
			bs := &Estimator{Class: valuation.NewCancelSingleAnnotation(anns), Phi: phi, VF: Euclidean(),
				Samples: 4, Rand: rand.New(rand.NewSource(3))}
			sampledBatch := bs.DistanceBatch(p0, cands)
			for i := range sets {
				if sampledDelta[i] != sampledBatch[i] {
					t.Fatalf("φ=%s sampled candidate %d (%v): delta %v != batch %v", phi.Name(), i, sets[i], sampledDelta[i], sampledBatch[i])
				}
			}
		}
	})
}
