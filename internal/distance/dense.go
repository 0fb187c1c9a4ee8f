package distance

import (
	"math/bits"
	"slices"

	"repro/internal/provenance"
)

// This file holds the dense side of the delta sweep over an
// aggregation's plan. Under the tensor semantics an aggregation's result
// is one value per group, so every result the sweep compares is a
// []float64 row over a sorted coordinate space instead of a Vector map:
// the plan's EvalRows and CandEvalBlock write rows over their slots
// (provenance.Arena.Slots, provenance.Probe.Slots), the original's
// results are rows over its own sorted groups, built once per run, and a
// denseSpace aligns both into the space a VAL-FUNC reads. Summing in
// slot order is summing in sorted key order, which is what the map forms
// (provenance.Euclid, absDiff, AlignResult) do, so both agree bit for
// bit.

// denseSpace is one sorted coordinate space the VAL-FUNC compares in:
// the union of a summary's coordinates and the original's coordinates
// aligned through a mapping. A coordinate missing from either side
// reads 0.
type denseSpace struct {
	keys []provenance.Annotation
	// origOff/origSrc list, per slot in CSR form, the original's slots
	// whose values the alignment combines into it, ascending (so in
	// sorted key order, like AlignResult). An empty span is a coordinate
	// the aligned original lacks.
	origOff []int32
	origSrc []int32
	// origSame reports that the alignment is the identity: slot i is the
	// original's slot i, so the original's rows serve unchanged.
	origSame bool
	// summTo maps each slot of the summary's rows to its slot here; nil
	// when the summary's slots are this space's.
	summTo []int32
}

// newDenseSpace lays out the space of a summary with coordinates
// summKeys (sorted) against the original's coordinates origKeys (sorted)
// aligned through the mapping image renames by (provenance.AlignRenamed).
func newDenseSpace(origKeys []provenance.Annotation, image func(provenance.Annotation) provenance.Annotation, summKeys []provenance.Annotation) denseSpace {
	// The space is the summary's own when it has every aligned key (the
	// common case): then it shares summKeys.
	keys := summKeys
	for _, k := range origKeys {
		nk, ok := provenance.AlignRenamed(k, image(k))
		if _, found := slices.BinarySearch(summKeys, nk); ok && !found {
			if len(keys) == len(summKeys) {
				keys = slices.Clone(summKeys)
			}
			keys = append(keys, nk)
		}
	}
	if len(keys) != len(summKeys) {
		slices.Sort(keys)
		keys = slices.Compact(keys)
	}
	n := len(keys)
	slotOf := func(k provenance.Annotation) int32 {
		t, _ := slices.BinarySearch(keys, k)
		return int32(t)
	}

	// Count each slot's sources, prefix-sum the counts into span starts,
	// fill the spans in ascending source order with each start as its
	// cursor (leaving it at the span's end), then shift the offsets back
	// by one slot. One allocation backs the offsets, the sources, and
	// targets, each original slot's destination.
	csr := make([]int32, n+1+2*len(origKeys))
	sp := denseSpace{keys: keys, origOff: csr[:n+1]}
	targets := csr[n+1 : n+1+len(origKeys)]
	for i, k := range origKeys {
		targets[i] = -1
		if nk, ok := provenance.AlignRenamed(k, image(k)); ok {
			targets[i] = slotOf(nk)
			sp.origOff[targets[i]+1]++
		}
	}
	for t := 0; t < n; t++ {
		sp.origOff[t+1] += sp.origOff[t]
	}
	src := csr[n+1+len(origKeys):][:sp.origOff[n]]
	for i, t := range targets {
		if t >= 0 {
			src[sp.origOff[t]] = int32(i)
			sp.origOff[t]++
		}
	}
	copy(sp.origOff[1:], sp.origOff[:n])
	sp.origOff[0] = 0
	sp.origSrc = src

	sp.origSame = n == len(origKeys) && len(src) == n
	for t := 0; sp.origSame && t < n; t++ {
		sp.origSame = src[t] == int32(t)
	}
	if n != len(summKeys) {
		sp.summTo = make([]int32, len(summKeys))
		for i, k := range summKeys {
			sp.summTo[i] = slotOf(k)
		}
	}
	return sp
}

// hasOrig reports whether the aligned original has coordinate k.
func (sp *denseSpace) hasOrig(k provenance.Annotation) bool {
	t, ok := slices.BinarySearch(sp.keys, k)
	return ok && sp.origOff[t] < sp.origOff[t+1]
}

// alignRow aligns the original's row into the space: each slot combines
// its sources in order under agg, a slot without any reads 0. It returns
// orig itself when the alignment is the identity, else the row it
// builds in *scr.
func (sp *denseSpace) alignRow(scr *[]float64, orig []float64, agg provenance.Aggregator) []float64 {
	if sp.origSame {
		return orig
	}
	dst := fit(*scr, len(sp.keys))
	*scr = dst
	for t := range sp.keys {
		src := sp.origSrc[sp.origOff[t]:sp.origOff[t+1]]
		if len(src) == 0 {
			dst[t] = 0
			continue
		}
		acc := orig[src[0]]
		for _, i := range src[1:] {
			acc = agg.Combine(acc, orig[i])
		}
		dst[t] = acc
	}
	return dst
}

// summRow lays a summary row out in the space: row itself when the slots
// coincide, else the row it builds in *scr with the summary's missing
// coordinates at 0.
func (sp *denseSpace) summRow(scr *[]float64, row []float64) []float64 {
	if sp.summTo == nil {
		return row
	}
	dst := fit(*scr, len(sp.keys))
	*scr = dst
	clear(dst)
	for i, t := range sp.summTo {
		dst[t] = row[i]
	}
	return dst
}

// vf applies e's VAL-FUNC to an aligned original row and a summary row
// of the space: its dense form when it has one, else F on the vectors
// the rows stand for, each with exactly its own coordinates.
func (sp *denseSpace) vf(e *Estimator, v provenance.Valuation, orig, summ []float64) float64 {
	if e.VF.Dense != nil {
		return e.VF.Dense(v, orig, summ)
	}
	ov := make(provenance.Vector, len(sp.keys))
	for t, k := range sp.keys {
		if sp.origOff[t] < sp.origOff[t+1] {
			ov[k] = orig[t]
		}
	}
	sv := make(provenance.Vector, len(sp.keys))
	if sp.summTo == nil {
		for t, k := range sp.keys {
			sv[k] = summ[t]
		}
	} else {
		for _, t := range sp.summTo {
			sv[sp.keys[t]] = summ[t]
		}
	}
	return e.VF.F(v, ov, sv)
}

// denseStep is the read-only state an aggregation's delta sweep shares
// across its workers: the plan's arena, the original's row per
// valuation, the step's space (the plan's slots against the original
// aligned through the cumulative mapping), and the probes, each with its
// own space when its candidate's coordinates or alignment differ from
// the step's.
type denseStep struct {
	ar     *provenance.Arena
	agg    provenance.Aggregator
	origs  [][]float64
	space  denseSpace
	probes []*deltaProbe
}

// laneRows are one sweep worker's dense lanes: base and candidate rows,
// the step-aligned original rows with their buffers, and scratch rows
// for a probe's own space. They are pooled with the worker's block
// state.
type laneRows struct {
	base, cand        [][]float64
	aligned, alignBuf [][]float64
	origScr, summScr  []float64
}

func newLaneRows() *laneRows {
	return &laneRows{
		base:     make([][]float64, 64),
		cand:     make([][]float64, 64),
		aligned:  make([][]float64, 64),
		alignBuf: make([][]float64, 64),
	}
}

// arenaEval drives an aggregation's plan on dense rows: the arena's
// blocked kernel, the compiled probes, and the VAL-FUNC over aligned
// rows.
type arenaEval struct {
	e     *Estimator
	step  *denseStep
	bs    *provenance.BlockScratch
	r     *laneRows
	block []provenance.Valuation
	lo    int
}

func (a *arenaEval) evalBlock(tb *provenance.TruthBlock, lo int, block []provenance.Valuation) {
	a.block, a.lo = block, lo
	a.step.ar.EvalRows(tb, a.bs, a.r.base[:len(block)])
	for j := range block {
		a.r.aligned[j] = a.step.space.alignRow(&a.r.alignBuf[j], a.step.origs[lo+j], a.step.agg)
	}
}

func (a *arenaEval) baseVF(j int) float64 {
	sp := &a.step.space
	return sp.vf(a.e, a.block[j], a.r.aligned[j], sp.summRow(&a.r.summScr, a.r.base[j]))
}

func (a *arenaEval) candVF(ci int, merged, changed uint64, vf []float64) {
	dp, r := a.step.probes[ci], a.r
	dp.pr.CandEvalBlock(merged, changed, r.base[:len(a.block)], a.bs, r.cand[:len(a.block)])
	for w := changed; w != 0; w &= w - 1 {
		j := bits.TrailingZeros64(w)
		sp, orig := &a.step.space, r.aligned[j]
		if dp.space != nil {
			sp = dp.space
			orig = sp.alignRow(&r.origScr, a.step.origs[a.lo+j], a.step.agg)
		}
		vf[j] = sp.vf(a.e, a.block[j], orig, sp.summRow(&r.summScr, r.cand[j]))
	}
}

func (a *arenaEval) release() uint64 {
	n := a.bs.SubtreeEvals
	a.step.ar.PutBlockScratch(a.bs)
	return n
}
