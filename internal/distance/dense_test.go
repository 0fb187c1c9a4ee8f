package distance

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/provenance"
	"repro/internal/valuation"
)

// orderVectors is a vector pair whose sums depend on the order they are
// taken in: values from {0.1, 0.7, 1e8, 1e16} over 40 coordinates, so
// small terms vanish when added to a large partial sum but not when
// added to each other first.
func orderVectors() (a, b provenance.Vector) {
	vals := []float64{0.1, 0.7, 1e16, 0.7, 0.1, 1e8, 0.1, 0.7}
	a, b = provenance.Vector{}, provenance.Vector{}
	for i := 0; i < 40; i++ {
		k := provenance.Annotation(fmt.Sprintf("k%02d", i))
		a[k] = vals[i%len(vals)]
		if i%5 != 0 {
			b[k] = vals[(i+3)%len(vals)]
		}
	}
	b["only-b"] = 0.7
	return a, b
}

// TestMapFormsSumInSortedOrder pins the map forms to sorted key order:
// over 100 fresh copies of an order-sensitive vector pair (fresh maps
// iterate in fresh orders), Euclid, the AbsDiff VAL-FUNC and a SUM
// AlignResult each give one bit pattern, and the dense forms over the
// sorted rows give the same bits.
func TestMapFormsSumInSortedOrder(t *testing.T) {
	g := provenance.NewAgg(provenance.AggSum)
	merge := provenance.MergeMapping("K", "k01", "k02", "k03", "k05", "k07", "k11", "k13", "k17", "k19", "k23")
	seen := map[string]map[uint64]bool{"euclid": {}, "absdiff": {}, "align": {}}
	for run := 0; run < 100; run++ {
		a, b := orderVectors()
		seen["euclid"][math.Float64bits(provenance.Euclid(a, b))] = true
		seen["absdiff"][math.Float64bits(AbsDiff(nil).F(nil, a, b))] = true
		seen["align"][math.Float64bits(g.AlignResult(a, merge).(provenance.Vector)["K"])] = true
	}
	for name, bitsSeen := range seen {
		if len(bitsSeen) != 1 {
			t.Errorf("%s: %d distinct results over 100 runs, want 1", name, len(bitsSeen))
		}
	}

	a, b := orderVectors()
	keys := provenance.UnionKeys(a, b)
	ra, rb := make([]float64, len(keys)), make([]float64, len(keys))
	for i, k := range keys {
		ra[i], rb[i] = a[k], b[k]
	}
	for _, vf := range []ValFunc{Euclidean(), AbsDiff(nil), Disagree(nil)} {
		if got, want := vf.Dense(nil, ra, rb), vf.F(nil, a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: dense %v != map form %v", vf.Name, got, want)
		}
	}
}

// TestDenseSpaceMatchesAlignResult checks a denseSpace's alignment
// against AlignResult on every re-keying it must reproduce: merged
// coordinates combining in sorted order, a coordinate sent to Zero
// dropping, one sent to One keeping its key, and the scalar coordinate.
func TestDenseSpaceMatchesAlignResult(t *testing.T) {
	origKeys := []provenance.Annotation{"", "a", "b", "c", "d", "e"}
	orig := []float64{0.1, 0.7, 1e16, 0.1, 0.7, 2.5}
	vec := provenance.Vector{}
	for i, k := range origKeys {
		vec[k] = orig[i]
	}
	m := provenance.MappingOf(map[provenance.Annotation]provenance.Annotation{
		"a": "S", "c": "S", "b": "S", "d": provenance.Zero, "e": provenance.One,
	})
	summKeys := []provenance.Annotation{"", "S", "x"}
	for _, kind := range []provenance.AggKind{provenance.AggSum, provenance.AggMax} {
		g := provenance.NewAgg(kind)
		want := g.AlignResult(vec, m).(provenance.Vector)
		sp := newDenseSpace(origKeys, m.Rename, summKeys)
		var scr []float64
		row := sp.alignRow(&scr, orig, g.Agg)
		if got := len(sp.keys); got != 4 { // "", S, e, x
			t.Fatalf("%v: space has keys %v", kind, sp.keys)
		}
		for slot, k := range sp.keys {
			w, ok := want[k]
			if has := sp.origOff[slot] < sp.origOff[slot+1]; has != ok {
				t.Fatalf("%v: coordinate %q presence %v, AlignResult %v", kind, k, has, ok)
			}
			if math.Float64bits(row[slot]) != math.Float64bits(w) {
				t.Fatalf("%v: coordinate %q = %v, AlignResult %v", kind, k, row[slot], w)
			}
		}
		summ := sp.summRow(&scr, []float64{1, 2, 3})
		if summ[0] != 1 || summ[1] != 2 || summ[2] != 0 || summ[3] != 3 {
			t.Fatalf("%v: summary row laid out as %v over %v", kind, summ, sp.keys)
		}
	}
}

// TestDeltaSkipBlockedOnInexactFolds is the reproducer of the skip's
// last-bit divergence: merging {#x, a} collapses #x and a into one
// tensor, so the candidate sums 0.7 and 2.7 before scaling while the
// base scales them apart. Where neither truth changes, reusing the base
// differs from the candidate in the last bit, so on a plan whose folds
// are not exact the probe must evaluate every lane. With integer values
// the folds are exact and the skip stays.
func TestDeltaSkipBlockedOnInexactFolds(t *testing.T) {
	xx := provenance.Prod{Factors: []provenance.Expr{provenance.V("#x"), provenance.V("#x")}}
	for _, c := range []struct {
		values   [3]float64
		wantSkip bool
	}{
		{[3]float64{0.1, 0.7, 2.7}, false},
		{[3]float64{1, 7, 27}, true},
	} {
		p0 := provenance.NewAgg(provenance.AggSum,
			provenance.Tensor{Prov: xx, Value: c.values[0], Count: 1, Group: "g1"},
			provenance.Tensor{Prov: provenance.V("#x"), Value: c.values[1], Count: 1, Group: "g1"},
			provenance.Tensor{Prov: provenance.V("a"), Value: c.values[2], Count: 3, Group: "g1"},
		)
		anns := p0.Annotations()
		base := provenance.GroupsOf(anns, provenance.NewMapping())
		ms := []provenance.Annotation{"#x", "a"}
		step := provenance.MergeMapping("Z", ms...)
		e := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
		got, _, err := e.Begin(p0).DistanceDelta(p0, provenance.NewMapping(), base, [][]provenance.Annotation{ms}, "Z")
		if err != nil {
			t.Fatalf("values %v: DistanceDelta refused: %v", c.values, err)
		}
		want := refDistance(e, e.Class.Valuations(), p0, p0.Apply(step), step, provenance.GroupsOf(anns, step))
		if math.Float64bits(got[0]) != math.Float64bits(want) {
			t.Fatalf("values %v: delta %v != reference %v", c.values, got[0], want)
		}
		if skipped := e.Stats().DeltaSkips > 0; skipped != c.wantSkip {
			t.Fatalf("values %v: skipped=%v, want %v", c.values, skipped, c.wantSkip)
		}
	}
}

// denseScenario is a mid-run MovieLens-shaped step with inexact SUM
// values: users rate movies through user·movie products (group
// annotations inside polynomials), a prior summary merged two users and
// two movies and sent user U7 to Zero, which empties movie M5 (so the
// aligned original has a coordinate the summaries lack), and the cohort
// pairs every current annotation, so it holds polynomial-only merges,
// group renames, and merges of coordinates the aligned original has
// (alignTouched).
func denseScenario(kind provenance.AggKind) (p0 *provenance.Agg, cur provenance.Expression, cum provenance.Mapping, base provenance.Groups, anns []provenance.Annotation, sets [][]provenance.Annotation, cands []refCandidate) {
	values := []float64{0.1, 0.7, 2.5, 1e16, 0.3}
	var tensors []provenance.Tensor
	for u := 1; u <= 6; u++ {
		for m := 1; m <= 4; m++ {
			if (u+m)%3 == 0 {
				continue
			}
			user, movie := provenance.Annotation(fmt.Sprintf("U%d", u)), provenance.Annotation(fmt.Sprintf("M%d", m))
			tensors = append(tensors, provenance.Tensor{
				Prov: provenance.P(user, movie), Value: values[(u*m)%len(values)], Count: 1, Group: movie,
			})
		}
	}
	tensors = append(tensors,
		provenance.Tensor{Prov: provenance.V("U1"), Value: 0.7, Count: 1},
		provenance.Tensor{Prov: provenance.P("U7", "M5"), Value: 0.1, Count: 1, Group: "M5"},
	)
	p0 = provenance.NewAgg(kind, tensors...)
	anns = p0.Annotations()
	cum = provenance.MappingOf(map[provenance.Annotation]provenance.Annotation{"U1": "SU", "U2": "SU", "M1": "SM", "M2": "SM", "U7": provenance.Zero})
	cur = p0.Apply(cum)
	base = provenance.GroupsOf(anns, cum)
	curAnns := cur.Annotations()
	for i := range curAnns {
		for j := i + 1; j < len(curAnns); j++ {
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
	}
	return p0, cur, cum, base, anns, sets, cands
}

// TestDistanceDeltaDenseMatchesReference pins the dense sweep to
// refDistance bit for bit on denseScenario, under enumeration and
// sampling at Parallelism 1 and 4: once with a VAL-FUNC that has no
// dense form and reads the vectors' coordinate sets (so the rows must
// rebuild exactly the vectors the map path would see), and once with
// the Euclidean VAL-FUNC's dense form, on steps whose group-renaming
// and alignTouched probes score in their own spaces.
func TestDistanceDeltaDenseMatchesReference(t *testing.T) {
	mapOnly := ValFunc{
		Name: "coordinates and gap",
		F: func(_ provenance.Valuation, orig, summ provenance.Result) float64 {
			ov, sv := orig.(provenance.Vector), summ.(provenance.Vector)
			return float64(len(ov)) + 10*float64(len(sv)) + provenance.Euclid(ov, sv)
		},
	}
	for _, kind := range []provenance.AggKind{provenance.AggSum, provenance.AggMax} {
		p0, cur, cum, base, anns, sets, cands := denseScenario(kind)
		renaming := 0 // merges of coordinates: alignTouched, own spaces
		for _, c := range cands {
			if len(c.Expr.(*provenance.Agg).Groups()) < len(cur.(*provenance.Agg).Groups()) {
				renaming++
			}
		}
		if renaming == 0 {
			t.Fatalf("%v: scenario lost its coordinate-merging probes", kind)
		}
		for _, vf := range []ValFunc{mapOnly, Euclidean()} {
			for _, samples := range []int{0, 7} {
				for _, workers := range []int{1, 4} {
					e := &Estimator{Class: valuation.NewCancelSingleAnnotation(anns), Phi: provenance.CombineOr, VF: vf, Samples: samples, Parallelism: workers}
					if samples > 0 {
						e.Rand = rand.New(rand.NewSource(9))
					}
					got, _, err := e.Begin(p0).DistanceDelta(cur, cum, base, sets, "Z")
					if err != nil {
						t.Fatalf("%v %s: DistanceDelta refused: %v", kind, vf.Name, err)
					}
					vals := refVals(e.Class, samples, 9)
					for i, c := range cands {
						want := refDistance(e, vals, p0, c.Expr, c.Cumulative, c.Groups)
						if math.Float64bits(got[i]) != math.Float64bits(want) {
							t.Fatalf("%v %s samples=%d workers=%d candidate %v: delta %v != reference %v",
								kind, vf.Name, samples, workers, sets[i], got[i], want)
						}
					}
				}
			}
		}
	}
}
