package provenance

import "math/bits"

// This file implements the valuation-blocked evaluation kernel: the hot
// loop of candidate scoring transposed from valuation-major to
// node-major. A TruthBlock packs the truths of up to 64 valuations into
// one uint64 word per annotation id (bit j = valuation lane j), and
// Arena.EvalBlock evaluates every lane in a single forward sweep over
// the columnar node arrays:
//
//	per valuation:  for v in valuations:  for node in arena:  eval(node, v)
//	per block:      for node in arena:    one word op / 64 lanes (guards)
//	                for node in cone:     per-lane numeric rows
//	                for lane in block:    fold  (identical to Agg.Eval's)
//
// Phase A computes, for every node, the word of lanes on which the node
// is nonzero — Var is its truth word, Sum is the OR of its kids (a sum
// of nonzero naturals is nonzero), Prod the AND, and Cmp a two-constant
// mask expression — 64 valuations per operation straight from the
// packed truth words. That word layer is exact only when no compiled
// constant is negative (Arena.Blockable); engines keep the Expr tree
// walk for the rest. Phase B then materializes exact natural values only
// for the numeric cone (computeCone): the Sum/Prod nodes whose magnitude,
// not just zeroness, reaches a SUM/COUNT tensor fold — and only on
// their nonzero lanes. MAX/MIN aggregations scale idempotently, so
// their numeric phase is empty and evaluation is pure word ops plus the
// fold.
//
// Probe.CandEvalBlock applies the same transposition to delta scoring:
// the probe's dirty nodes are re-swept at word level with the merged
// group's truth word substituted for member occurrences, and only the
// lanes whose truths actually changed pay the per-lane refold.

// TruthBlock holds the packed truths of one valuation block: words[id]
// bit j is the truth of annotation id under the block's j-th valuation.
// A block holds 1..64 lanes; Mask has the low Lanes bits set.
type TruthBlock struct {
	words []uint64
	n     int
	mask  uint64
}

// NewTruthBlock returns an empty truth block; Reset sizes it.
func NewTruthBlock() *TruthBlock { return &TruthBlock{} }

// Reset prepares the block for numAnns annotations and lanes valuations
// (1..64), clearing every truth word.
func (tb *TruthBlock) Reset(numAnns, lanes int) {
	if lanes < 1 || lanes > 64 {
		panic("provenance: TruthBlock lanes out of range")
	}
	tb.words = fit(tb.words, numAnns)
	clear(tb.words)
	tb.n = lanes
	tb.mask = ^uint64(0) >> uint(64-lanes)
}

// SetWord sets annotation id's packed truths; bits above the lane count
// are discarded.
func (tb *TruthBlock) SetWord(id int32, w uint64) { tb.words[id] = w & tb.mask }

// Word returns annotation id's packed truths.
func (tb *TruthBlock) Word(id int32) uint64 { return tb.words[id] }

// Lanes returns the number of valuations in the block.
func (tb *TruthBlock) Lanes() int { return tb.n }

// Mask returns the word with the low Lanes bits set.
func (tb *TruthBlock) Mask() uint64 { return tb.mask }

// BlockScratch is the per-evaluator mutable state of one blocked
// evaluation: the word-level nonzero masks of every node, the numeric
// rows of the cone, and their substituted twins for probe evaluation.
// EvalRows sizes it for its arena on entry, so one scratch can serve
// arenas of different shapes sequentially.
type BlockScratch struct {
	nz          []uint64  // per node: lanes with a nonzero value
	num         []int     // cone rows, indexed coneSlot*64 + lane
	subNz       []uint64  // probe sweep: substituted nonzero masks
	subNum      []int     // probe sweep: substituted cone rows
	contributed []bool    // per group slot, reset by each fold
	row         []float64 // EvalBlock's per-lane row before it fills a Vector
	mask        uint64    // lane mask of the last EvalRows
	lanes       int

	// SubtreeEvals counts dirty (node, lane) re-evaluations by
	// CandEvalBlock since the scratch was created or taken from a pool.
	SubtreeEvals uint64
}

// NewBlockScratch returns an empty block scratch; EvalRows sizes it.
func NewBlockScratch() *BlockScratch { return &BlockScratch{} }

func (s *BlockScratch) fit(a *Arena) {
	s.nz = fit(s.nz, len(a.kind))
	s.subNz = fit(s.subNz, len(a.kind))
	s.num = fit(s.num, len(a.coneNodes)*64)
	s.subNum = fit(s.subNum, len(a.coneNodes)*64)
	s.contributed = fit(s.contributed, len(a.groupKeys))
	s.row = fit(s.row, len(a.groupKeys))
}

// GetBlockScratch returns a pooled block scratch. Pair with
// PutBlockScratch to make steady-state blocked evaluation allocation-
// free.
func (a *Arena) GetBlockScratch() *BlockScratch {
	s, ok := a.blockPool.Get().(*BlockScratch)
	if !ok {
		s = NewBlockScratch()
	}
	s.SubtreeEvals = 0
	return s
}

// PutBlockScratch returns a scratch obtained from GetBlockScratch.
func (a *Arena) PutBlockScratch(s *BlockScratch) {
	if s != nil {
		a.blockPool.Put(s)
	}
}

// EvalRows evaluates the compiled expression under every lane of the
// truth block in one node-major sweep, writing lane j's result into the
// dense row rows[j]: slot i holds the aggregate of coordinate Slots()[i]
// (rows are re-fitted to the slot count in place). Each row is
// op-for-op identical to Agg.Eval under the lane's valuation: tensors
// fold in expression order, a coordinate's first nonzero contribution
// replaces the identity, and a coordinate without one reads the
// identity. The arena must be Blockable.
func (a *Arena) EvalRows(tb *TruthBlock, s *BlockScratch, rows [][]float64) {
	a.sweep(tb, s)
	for j := 0; j < tb.n; j++ {
		rows[j] = fit(rows[j], len(a.groupKeys))
		a.foldRow(s, j, rows[j])
	}
}

// EvalBlock is EvalRows with each lane's row keyed by its coordinates:
// lane j's vector goes into out[j] (a nil entry is allocated, a non-nil
// one is cleared and refilled in place).
func (a *Arena) EvalBlock(tb *TruthBlock, s *BlockScratch, out []Vector) {
	a.sweep(tb, s)
	for j := 0; j < tb.n; j++ {
		a.foldRow(s, j, s.row)
		vec := out[j]
		if vec == nil {
			vec = make(Vector, len(a.groupKeys))
		} else {
			clear(vec)
		}
		for slot, g := range a.groupKeys {
			vec[g] = s.row[slot]
		}
		out[j] = vec
	}
}

// sweep runs both phases of a block evaluation into s.
func (a *Arena) sweep(tb *TruthBlock, s *BlockScratch) {
	if !a.Blockable() {
		panic("provenance: EvalBlock on a non-blockable arena (negative constants)")
	}
	s.fit(a)
	s.mask = tb.mask
	s.lanes = tb.n
	a.sweepNz(tb, s)
	a.sweepCone(s)
}

// sweepNz is Phase A: per-node words of nonzero lanes, one forward pass.
func (a *Arena) sweepNz(tb *TruthBlock, s *BlockScratch) {
	mask := tb.mask
	nz := s.nz
	for i := range a.kind {
		switch a.kind[i] {
		case nodeVar:
			nz[i] = tb.words[a.ann[i]] & mask
		case nodeConst:
			if a.constN[i] != 0 {
				nz[i] = mask
			} else {
				nz[i] = 0
			}
		case nodeSum:
			var w uint64
			for _, k := range a.kids[a.kidOff[i]:a.kidOff[i+1]] {
				w |= nz[k]
			}
			nz[i] = w
		case nodeProd:
			w := mask
			for _, k := range a.kids[a.kidOff[i]:a.kidOff[i+1]] {
				w &= nz[k]
				if w == 0 {
					break
				}
			}
			nz[i] = w
		case nodeCmp:
			inner := nz[a.kids[a.kidOff[i]]]
			var w uint64
			if a.op[i].holds(a.value[i], a.bound[i]) {
				w = inner
			}
			if a.op[i].holds(0, a.bound[i]) {
				w |= ^inner & mask
			}
			nz[i] = w
		}
	}
}

// sweepCone is Phase B: exact natural values for the numeric cone, only
// on the lanes where the node is nonzero (zero lanes stay 0).
func (a *Arena) sweepCone(s *BlockScratch) {
	for _, id := range a.coneNodes {
		row := s.num[int(a.coneSlot[id])*64:][:64]
		for j := 0; j < s.lanes; j++ {
			row[j] = 0
		}
		kids := a.kids[a.kidOff[id]:a.kidOff[id+1]]
		if a.kind[id] == nodeSum {
			for w := s.nz[id]; w != 0; w &= w - 1 {
				j := bits.TrailingZeros64(w)
				v := 0
				for _, k := range kids {
					v += a.laneVal(s, k, j)
				}
				row[j] = v
			}
		} else { // nodeProd: every kid is nonzero on these lanes
			for w := s.nz[id]; w != 0; w &= w - 1 {
				j := bits.TrailingZeros64(w)
				v := 1
				for _, k := range kids {
					v *= a.laneVal(s, k, j)
				}
				row[j] = v
			}
		}
	}
}

// laneVal returns node id's exact natural value on a lane: cone nodes
// read their numeric row, constants their compile-time value, and
// everything else its 0/1 nonzero bit — exact for Var/Cmp, and for
// Sum/Prod outside the cone by construction (such nodes are only
// consumed in zero-testing contexts).
func (a *Arena) laneVal(s *BlockScratch, id int32, lane int) int {
	if slot := a.coneSlot[id]; slot >= 0 {
		return s.num[int(slot)*64+lane]
	}
	if a.kind[id] == nodeConst {
		return int(a.constN[id])
	}
	return int((s.nz[id] >> uint(lane)) & 1)
}

// subLaneVal is laneVal over the probe sweep's substituted tables.
func (a *Arena) subLaneVal(s *BlockScratch, id int32, lane int) int {
	if slot := a.coneSlot[id]; slot >= 0 {
		return s.subNum[int(slot)*64+lane]
	}
	if a.kind[id] == nodeConst {
		return int(a.constN[id])
	}
	return int((s.subNz[id] >> uint(lane)) & 1)
}

// foldRow replays Agg.Eval's tensor fold for one lane into row: each
// slot combines its tensors' contributions in tensor order, and a slot
// without any reads the identity.
func (a *Arena) foldRow(s *BlockScratch, lane int, row []float64) {
	contributed := s.contributed
	clear(contributed)
	for i := range a.tensors {
		t := &a.tensors[i]
		n := a.laneVal(s, t.root, lane)
		if n == 0 {
			continue
		}
		contrib := a.agg.Scale(t.value, n)
		if contributed[t.slot] {
			row[t.slot] = a.agg.Combine(row[t.slot], contrib)
		} else {
			row[t.slot] = contrib
			contributed[t.slot] = true
		}
	}
	for slot, c := range contributed {
		if !c {
			row[slot] = a.agg.Identity()
		}
	}
}

// CandEvalBlock evaluates the probed candidate, without materializing
// it, on every lane set in lanes, writing lane j's dense row over the
// candidate's slots (pr.Slots) into out[j], re-fitted in place. mergedW
// is the merged group's packed φ-truth word; base[j] must be lane j's
// row from the EvalRows whose node state is still in s. Lanes outside
// the set are left untouched — the caller reuses the base result for
// them. Each evaluated row is op-for-op identical to Agg.Eval of the
// materialized candidate under the lane's extended valuation.
func (pr *Probe) CandEvalBlock(mergedW, lanes uint64, base [][]float64, s *BlockScratch, out [][]float64) {
	pr.compileEval()
	ar := pr.plan.ar
	mergedW &= s.mask
	lanes &= s.mask
	if lanes == 0 {
		return
	}
	// Word-level substituted sweep over the dirty nodes: dirty kids read
	// the substituted tables, clean kids the base sweep's.
	for _, id := range pr.dirtyNodes {
		switch ar.kind[id] {
		case nodeVar:
			s.subNz[id] = mergedW
		case nodeConst:
			s.subNz[id] = s.nz[id]
		case nodeSum:
			var w uint64
			for _, k := range ar.kids[ar.kidOff[id]:ar.kidOff[id+1]] {
				if pr.dirty.Get(k) {
					w |= s.subNz[k]
				} else {
					w |= s.nz[k]
				}
			}
			s.subNz[id] = w
		case nodeProd:
			w := s.mask
			for _, k := range ar.kids[ar.kidOff[id]:ar.kidOff[id+1]] {
				if pr.dirty.Get(k) {
					w &= s.subNz[k]
				} else {
					w &= s.nz[k]
				}
				if w == 0 {
					break
				}
			}
			s.subNz[id] = w
		case nodeCmp:
			k := ar.kids[ar.kidOff[id]]
			inner := s.nz[k]
			if pr.dirty.Get(k) {
				inner = s.subNz[k]
			}
			var w uint64
			if ar.op[id].holds(ar.value[id], ar.bound[id]) {
				w = inner
			}
			if ar.op[id].holds(0, ar.bound[id]) {
				w |= ^inner & s.mask
			}
			s.subNz[id] = w
		}
	}
	// Substituted numeric rows for the dirty cone nodes, on the
	// evaluated lanes only.
	for _, id := range pr.dirtyNodes {
		slot := ar.coneSlot[id]
		if slot < 0 {
			continue
		}
		row := s.subNum[int(slot)*64:][:64]
		for w := lanes; w != 0; w &= w - 1 {
			row[bits.TrailingZeros64(w)] = 0
		}
		kids := ar.kids[ar.kidOff[id]:ar.kidOff[id+1]]
		if ar.kind[id] == nodeSum {
			for w := s.subNz[id] & lanes; w != 0; w &= w - 1 {
				j := bits.TrailingZeros64(w)
				v := 0
				for _, k := range kids {
					if pr.dirty.Get(k) {
						v += ar.subLaneVal(s, k, j)
					} else {
						v += ar.laneVal(s, k, j)
					}
				}
				row[j] = v
			}
		} else { // nodeProd
			for w := s.subNz[id] & lanes; w != 0; w &= w - 1 {
				j := bits.TrailingZeros64(w)
				v := 1
				for _, k := range kids {
					if pr.dirty.Get(k) {
						v *= ar.subLaneVal(s, k, j)
					} else {
						v *= ar.laneVal(s, k, j)
					}
				}
				row[j] = v
			}
		}
	}
	s.SubtreeEvals += uint64(len(pr.dirtyNodes)) * uint64(bits.OnesCount64(lanes))
	// Per evaluated lane: carry the base row over into the candidate's
	// slots (dropping removed coordinates) and refold the affected ones
	// in the candidate's tensor order.
	agg := pr.plan.agg.Agg
	for w := lanes; w != 0; w &= w - 1 {
		j := bits.TrailingZeros64(w)
		row := fit(out[j], len(pr.slots))
		if pr.baseSlot == nil {
			copy(row, base[j])
		} else {
			for bs, cs := range pr.baseSlot {
				if cs >= 0 {
					row[cs] = base[j][bs]
				}
			}
		}
		for fi := range pr.folds {
			f := &pr.folds[fi]
			acc := agg.Identity()
			contributed := false
			for i := range f.entries {
				en := &f.entries[i]
				var n int
				if en.sub && pr.dirty.Get(en.root) {
					n = ar.subLaneVal(s, en.root, j)
				} else {
					n = ar.laneVal(s, en.root, j)
				}
				if n == 0 {
					continue
				}
				contrib := agg.Scale(en.value, n)
				if contributed {
					acc = agg.Combine(acc, contrib)
				} else {
					acc = contrib
					contributed = true
				}
			}
			row[f.slot] = acc
		}
		out[j] = row
	}
}
