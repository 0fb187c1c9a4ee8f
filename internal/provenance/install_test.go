package provenance

import (
	"math"
	"slices"
	"testing"
)

// rebuilt builds, over the patched plan p's tensors and arena nodes, the
// plan state NewPlan's full build derives: the arena's fold table and
// sorted slots (setSlots) and the plan's indexes, gids and flags
// (reindex). It shares p's interner, so dense ids compare directly.
func rebuilt(p *Plan) *Plan {
	src := p.ar
	ar := &Arena{
		in: src.in, kind: src.kind, ann: src.ann, constN: src.constN,
		kidOff: src.kidOff, kids: src.kids, parent: src.parent, agg: src.agg,
		tensors: make([]arenaTensor, len(p.tensors)),
	}
	groups := make([]Annotation, len(p.tensors))
	for i, t := range p.tensors {
		ar.tensors[i] = arenaTensor{root: t.root, value: t.value}
		groups[i] = t.group
	}
	ar.setSlots(groups)
	q := &Plan{agg: p.agg, ar: ar, tensors: slices.Clone(p.tensors), ordered: p.ordered}
	for i := range q.tensors {
		q.tensors[i].gid, q.tensors[i].slot = gidUnknown, ar.tensors[i].slot
	}
	q.reindex()
	return q
}

// liveCone returns, per node, whether it belongs to the numeric cone of
// the tensors' roots (garbage spans excluded): for SUM/COUNT the Sum and
// Prod roots and, top-down, every Sum or Prod kid of a cone node.
func liveCone(ar *Arena, ts []planTensor) []bool {
	need := make([]bool, ar.NumNodes())
	if ar.agg.Kind != AggSum && ar.agg.Kind != AggCount {
		return need
	}
	arith := func(id int32) bool { return ar.kind[id] == nodeSum || ar.kind[id] == nodeProd }
	for _, t := range ts {
		need[t.root] = arith(t.root)
	}
	for i := len(need) - 1; i >= 0; i-- {
		if need[i] {
			for _, k := range ar.kids[ar.kidOff[i]:ar.kidOff[i+1]] {
				need[k] = need[k] || arith(k)
			}
		}
	}
	return need
}

// requireRebuilt holds the plan p, as in-place patches left it, to a
// full rebuild over the same tensors (rebuilt): every row of the
// varNodes, annTensors and groupTensors indexes and the scalar tensors,
// the arena's slots and fold table, each tensor's gid and slot, the
// numeric cone over the live nodes, the garbage count, size, probeable
// and exact — the last also against the float sum it stands for — and
// the live annotation set against the expression's.
func requireRebuilt(t *testing.T, label string, p *Plan) {
	t.Helper()
	q := rebuilt(p)
	ar := p.ar
	for id := int32(0); id < int32(ar.NumAnns()); id++ {
		for _, ix := range []struct {
			name      string
			got, want annIndex
		}{{"varNodes", p.varNodes, q.varNodes}, {"annTensors", p.annTensors, q.annTensors}, {"groupTensors", p.groupTensors, q.groupTensors}} {
			if got, want := ix.got.span(id), ix.want.span(id); !slices.Equal(got, want) {
				t.Fatalf("%s: %s of %q = %v, a full rebuild has %v", label, ix.name, ar.in.Ann(id), got, want)
			}
		}
	}
	if !slices.Equal(p.scalarTensors, q.scalarTensors) {
		t.Fatalf("%s: scalar tensors %v, a full rebuild has %v", label, p.scalarTensors, q.scalarTensors)
	}
	if !slices.Equal(ar.Slots(), q.ar.Slots()) {
		t.Fatalf("%s: slots %v, a full rebuild has %v", label, ar.Slots(), q.ar.Slots())
	}
	if len(ar.tensors) != len(p.tensors) {
		t.Fatalf("%s: %d arena tensors for %d plan tensors", label, len(ar.tensors), len(p.tensors))
	}
	size, live := 0, make([]bool, ar.NumNodes())
	for i, pt := range p.tensors {
		at, want := ar.tensors[i], q.ar.tensors[i]
		if at.root != want.root || math.Float64bits(at.value) != math.Float64bits(want.value) || at.slot != want.slot {
			t.Fatalf("%s: arena tensor %d = %+v, a full rebuild has %+v", label, i, at, want)
		}
		if pt.slot != want.slot || pt.gid != q.tensors[i].gid {
			t.Fatalf("%s: plan tensor %d gid/slot %d/%d, a full rebuild has %d/%d", label, i, pt.gid, pt.slot, q.tensors[i].gid, want.slot)
		}
		size += pt.size
		for id := pt.lo; id <= pt.root; id++ {
			live[id] = true
		}
	}
	dead := 0
	for _, l := range live {
		if !l {
			dead++
		}
	}
	if p.size != size || ar.DeadNodes() != dead {
		t.Fatalf("%s: size/dead nodes %d/%d, want %d/%d", label, p.size, ar.DeadNodes(), size, dead)
	}
	cone := liveCone(ar, p.tensors)
	if len(ar.coneSlot) != ar.NumNodes() {
		t.Fatalf("%s: cone slots for %d of %d nodes", label, len(ar.coneSlot), ar.NumNodes())
	}
	for k, id := range ar.coneNodes {
		if ar.coneSlot[id] != int32(k) || (k > 0 && ar.coneNodes[k-1] >= id) {
			t.Fatalf("%s: cone node %d (node %d) has slot %d", label, k, id, ar.coneSlot[id])
		}
	}
	for id, l := range live {
		if l && (ar.coneSlot[id] >= 0) != cone[id] {
			t.Fatalf("%s: live node %d in the cone: %v, want %v", label, id, ar.coneSlot[id] >= 0, cone[id])
		}
	}
	exact := true
	if p.numeric() {
		total := 0.0
		for _, pt := range p.tensors {
			exact = exact && pt.value == math.Trunc(pt.value)
			total += math.Abs(pt.value)
		}
		exact = exact && total < 1<<53
	}
	if p.probeable != q.probeable || p.exact != q.exact || p.exact != exact {
		t.Fatalf("%s: probeable/exact %v/%v, a full rebuild has %v/%v (float sum: exact %v)", label, p.probeable, p.exact, q.probeable, q.exact, exact)
	}
	if got, want := p.AppendLiveAnnotations(nil), p.agg.Annotations(); !slices.Equal(got, want) {
		t.Fatalf("%s: live annotations %v, the expression's are %v", label, got, want)
	}
}
