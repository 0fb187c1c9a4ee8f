package provenance

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// oracleRew is one rewritten tensor class of the string rewrite: the
// tensor ids that collapse into it (the first is the representative),
// its Simplify key and group, and its combined value and count.
type oracleRew struct {
	key   string
	group Annotation
	tids  []int32
	value float64
	count int
}

// oracleRewrite is the string rewrite the id-level one replaced, kept as
// its oracle: rename the members in every affected tensor's polynomial,
// SimplifyExpr it, key it, and merge equal keys in tensor order.
func oracleRewrite(p *Plan, members []Annotation, newAnn Annotation) (affected []int32, rews []oracleRew) {
	memberOf := func(a Annotation) bool { return slices.Contains(members, a) }
	rename := func(a Annotation) Annotation {
		if memberOf(a) {
			return newAnn
		}
		return a
	}
	for tid := range p.tensors {
		t := &p.tensors[tid]
		hit := memberOf(t.group)
		for _, a := range Anns(t.prov) {
			hit = hit || memberOf(a)
		}
		if !hit {
			continue
		}
		affected = append(affected, int32(tid))
		prov := SimplifyExpr(t.prov.MapAnn(rename))
		key := oracleKey(prov) + "|" + oracleName(rename(t.group))
		i := slices.IndexFunc(rews, func(r oracleRew) bool { return r.key == key })
		if i < 0 {
			rews = append(rews, oracleRew{key: key, group: rename(t.group), tids: []int32{int32(tid)}, value: t.value, count: t.count})
			continue
		}
		rews[i].tids = append(rews[i].tids, int32(tid))
		rews[i].value = p.agg.Agg.Combine(rews[i].value, t.value)
		rews[i].count += t.count
	}
	return affected, rews
}

// checkProbeAgainstApply compares the probe of one merge with the
// materialized candidate cur.Apply(merge) and its fresh plan: size,
// group renaming, the collapsed tensors, the rewritten keys, every
// re-fold's entry order and evaluation, and ApplyMerge's patch.
func checkProbeAgainstApply(t *testing.T, cur *Agg, ms []Annotation, newAnn Annotation) {
	t.Helper()
	plan := NewPlan(cur)
	pr := plan.Probe(ms, newAnn)
	if pr == nil {
		t.Fatalf("%v → %s over %v: unexpected nil probe", ms, newAnn, cur)
	}
	next := cur.Apply(MergeMapping(newAnn, ms...)).(*Agg)
	if pr.Size != next.Size() {
		t.Fatalf("%v over %v: probe size %d != Apply size %d", ms, cur, pr.Size, next.Size())
	}
	renames := false
	for _, g := range cur.Groups() {
		renames = renames || slices.Contains(ms, g)
	}
	if pr.RenamesGroup != renames {
		t.Fatalf("%v over %v: RenamesGroup %v, want %v", ms, cur, pr.RenamesGroup, renames)
	}

	// Rewritten classes: same representatives, values, counts and keys,
	// hence the same collapsed tensors.
	affected, rews := oracleRewrite(plan, ms, newAnn)
	if !slices.Equal(pr.affected, affected) {
		t.Fatalf("%v over %v: affected %v, want %v", ms, cur, pr.affected, affected)
	}
	if len(pr.rews) != len(rews) {
		t.Fatalf("%v over %v: %d rewritten tensors, want %d (%v)", ms, cur, len(pr.rews), len(rews), rews)
	}
	var collapsed, wantCollapsed []int32
	for i, r := range pr.rews {
		o := rews[i]
		if r.root != plan.tensors[o.tids[0]].root || r.value != o.value || r.count != o.count {
			t.Fatalf("%v over %v: rewritten %d = (root %d, %v, %d), want (root %d, %v, %d)",
				ms, cur, i, r.root, r.value, r.count, plan.tensors[o.tids[0]].root, o.value, o.count)
		}
		if k := string(pr.rewKey(int32(i))); k != o.key {
			t.Fatalf("%v over %v: rewritten key %q, want %q", ms, cur, k, o.key)
		}
		wantCollapsed = append(wantCollapsed, o.tids[1:]...)
	}
	for _, tid := range pr.affected {
		if !slices.ContainsFunc(pr.rews, func(r probeRewritten) bool { return r.root == plan.tensors[tid].root }) {
			collapsed = append(collapsed, tid)
		}
	}
	slices.Sort(wantCollapsed)
	if !slices.Equal(collapsed, wantCollapsed) {
		t.Fatalf("%v over %v: collapsed tensors %v, want %v", ms, cur, collapsed, wantCollapsed)
	}

	// Every re-fold lists the candidate's tensors of its group in the
	// candidate's order: survivors read their own root, rewrittens their
	// representative's under substitution.
	pr.compileEval()
	survivor := make(map[string]int32)
	for tid := range plan.tensors {
		if !slices.Contains(affected, int32(tid)) {
			survivor[plan.tensors[tid].key] = int32(tid)
		}
	}
	nextPlan := NewPlan(next)
	folded := 0
	for _, f := range pr.folds {
		var want []foldEntry
		for _, nt := range nextPlan.tensors {
			if nt.group != f.group {
				continue
			}
			if tid, ok := survivor[nt.key]; ok {
				want = append(want, foldEntry{value: nt.value, root: plan.tensors[tid].root})
				continue
			}
			i := slices.IndexFunc(rews, func(r oracleRew) bool { return r.key == nt.key })
			if i < 0 {
				t.Fatalf("%v over %v: candidate tensor %q is neither a survivor nor rewritten", ms, cur, nt.key)
			}
			want = append(want, foldEntry{value: nt.value, root: plan.tensors[rews[i].tids[0]].root, sub: true})
		}
		if !slices.Equal(f.entries, want) {
			t.Fatalf("%v over %v: fold of %q = %v, want %v", ms, cur, f.group, f.entries, want)
		}
		folded++
	}
	groups := map[Annotation]bool{}
	for _, tid := range affected {
		if g := plan.tensors[tid].group; !slices.Contains(ms, g) {
			groups[g] = true
		}
	}
	for _, r := range rews {
		groups[r.group] = true
	}
	if folded != len(groups) {
		t.Fatalf("%v over %v: %d folds, want one per affected coordinate (%d)", ms, cur, folded, len(groups))
	}

	// The folds replay the candidate's combine order: under SUM values
	// whose float sums depend on that order, CandEvalBlock equals the
	// candidate's own evaluation bit for bit.
	anns := cur.Annotations()
	vals := make([]Valuation, 1<<min(len(anns), 6))
	for mask := range vals {
		assign := make(map[Annotation]bool, len(anns))
		for i, a := range anns {
			assign[a] = i >= 6 || mask&(1<<i) != 0
		}
		vals[mask] = MapValuation{Assign: assign, Default: true}
	}
	got := candVecs(pr, vals, phiOf(vals, ms, CombineOr))
	for mask, v := range vals {
		want := next.Eval(ExtendValuation(v, Groups{newAnn: ms}, CombineOr)).(Vector)
		if !vecEqual(got[mask], want) {
			t.Fatalf("%v over %v, mask %b: CandEvalBlock %v, want %v", ms, cur, mask, got[mask], want)
		}
	}

	// ApplyMerge runs the same rewrite: a patch it accepts must leave the
	// plan's tensors exactly as a fresh plan of the candidate has them.
	if plan.ApplyMerge(next, ms, newAnn) == nil {
		if dead := plan.ar.NumNodes() - liveNodesAfter(plan, pr); dead*2 <= plan.ar.NumNodes() {
			t.Fatalf("%v over %v: ApplyMerge refused a patch within the garbage bound", ms, cur)
		}
		return
	}
	if len(plan.tensors) != len(nextPlan.tensors) {
		t.Fatalf("%v over %v: patched plan has %d tensors, want %d", ms, cur, len(plan.tensors), len(nextPlan.tensors))
	}
	for i, pt := range plan.tensors {
		nt := nextPlan.tensors[i]
		if pt.key != nt.key || pt.value != nt.value || pt.count != nt.count || pt.group != nt.group || pt.size != nt.size {
			t.Fatalf("%v over %v: patched tensor %d = %+v, want %+v", ms, cur, i, pt, nt)
		}
	}
}

// liveNodesAfter counts the arena nodes the tensors of pr's candidate
// keep live: the unaffected spans and one span per rewritten class.
func liveNodesAfter(p *Plan, pr *Probe) int {
	n := 0
	for tid, t := range p.tensors {
		if !slices.Contains(pr.affected, int32(tid)) {
			n += int(t.root - t.lo + 1)
		}
	}
	for _, r := range pr.rews {
		n += int(r.root - r.lo + 1)
	}
	return n
}

// TestProbeIDRewriteMatchesApply pins the id-level rewrite to the
// materialized candidate: products that gain a repeated factor, sums,
// guards and constants, group renames, and merges that collapse several
// tensors into one, under SUM with values whose sum depends on the fold
// order.
func TestProbeIDRewriteMatchesApply(t *testing.T) {
	cases := []struct {
		name    string
		tensors []Tensor
		merges  [][]Annotation
	}{
		{
			name: "repeated factors",
			tensors: []Tensor{
				{Prov: P("x", "y"), Value: 0.1, Count: 1, Group: "g1"},
				{Prov: P("x", "x", "z"), Value: 0.2, Count: 1, Group: "g1"},
				{Prov: P("y", "y", "z"), Value: 0.7, Count: 2, Group: "g1"},
				{Prov: P("y", "z"), Value: 1e16, Count: 1, Group: "g2"},
			},
			merges: [][]Annotation{{"x", "y"}, {"x", "z"}, {"x", "y", "z"}},
		},
		{
			name: "sums guards constants",
			tensors: []Tensor{
				{Prov: Sum{Terms: []Expr{V("u1"), V("u2"), Const{2}}}, Value: 0.3, Count: 1, Group: "m1"},
				{Prov: Prod{Factors: []Expr{V("u1"), V("m1"), Const{3}}}, Value: 0.6, Count: 1, Group: "m1"},
				{Prov: Prod{Factors: []Expr{V("u2"), V("m1"), Const{3}}}, Value: 0.1, Count: 1, Group: "m1"},
				{Prov: Cmp{Inner: Sum{Terms: []Expr{V("u1"), V("u3")}}, Value: 2.5, Op: OpLT, Bound: 3}, Value: 5, Count: 1, Group: "m2"},
				{Prov: Cmp{Inner: Sum{Terms: []Expr{V("u2"), V("u3")}}, Value: 2.5, Op: OpLT, Bound: 3}, Value: 7, Count: 1, Group: "m2"},
				{Prov: Const{4}, Value: 0.25, Count: 3, Group: "m2"},
				{Prov: Sum{Terms: []Expr{P("u1", "u3"), P("u2", "u3")}}, Value: 1, Count: 1, Group: ""},
			},
			// "zz" occurs nowhere: a member without tensors.
			merges: [][]Annotation{{"u1", "u2"}, {"u1", "u3"}, {"m1", "m2"}, {"u2", "m1"}, {"u1", "u2", "u3"}, {"zz", "m1"}},
		},
		{
			// Guards collapse when their keys print alike: every NaN is
			// "NaN" and every unknown operator "?", but -0 is not 0.
			name: "guard floats",
			tensors: []Tensor{
				{Prov: Cmp{Inner: V("u1"), Value: math.NaN(), Op: OpGE, Bound: 1}, Value: 0.1, Count: 1, Group: "g"},
				{Prov: Cmp{Inner: V("u2"), Value: math.Float64frombits(0x7ff8000000000002), Op: OpGE, Bound: 1}, Value: 0.2, Count: 1, Group: "g"},
				{Prov: Cmp{Inner: V("u3"), Value: 0, Op: OpLE, Bound: 1}, Value: 0.7, Count: 1, Group: "g"},
				{Prov: Cmp{Inner: V("u4"), Value: math.Copysign(0, -1), Op: OpLE, Bound: 1}, Value: 0.3, Count: 1, Group: "g"},
				{Prov: Cmp{Inner: V("u5"), Value: 2, Op: CmpOp(7), Bound: 1}, Value: 0.6, Count: 1, Group: "g"},
				{Prov: Cmp{Inner: V("u6"), Value: 2, Op: CmpOp(9), Bound: 1}, Value: 0.9, Count: 1, Group: "g"},
			},
			merges: [][]Annotation{{"u1", "u2"}, {"u3", "u4"}, {"u5", "u6"}, {"u1", "u3"}},
		},
		{
			name: "collapse into one",
			tensors: []Tensor{
				{Prov: P("u1", "m1"), Value: 0.1, Count: 1, Group: "m1"},
				{Prov: P("u2", "m1"), Value: 0.2, Count: 1, Group: "m1"},
				{Prov: P("u3", "m1"), Value: 0.7, Count: 1, Group: "m1"},
				{Prov: P("u4", "m1"), Value: 0.3, Count: 1, Group: "m1"},
				{Prov: P("u1", "m2"), Value: 0.9, Count: 1, Group: "m2"},
				{Prov: P("u2", "m2"), Value: 1e-3, Count: 1, Group: "m2"},
			},
			merges: [][]Annotation{{"u1", "u2", "u3"}, {"m1", "m2"}, {"u1", "u2"}, {"u3", "u4"}},
		},
	}
	for _, c := range cases {
		for _, kind := range []AggKind{AggSum, AggMax, AggMin, AggCount} {
			cur := NewAgg(kind, c.tensors...)
			for _, ms := range c.merges {
				t.Run(c.name, func(t *testing.T) { checkProbeAgainstApply(t, cur, ms, "Z") })
			}
		}
	}
	for _, kind := range []AggKind{AggSum, AggMax} {
		for _, ms := range [][]Annotation{{"u1", "u2"}, {"u1", "u3"}, {"m1", "m2"}, {"u2", "m1"}, {"u1", "u2", "u3"}} {
			checkProbeAgainstApply(t, planFixture(kind), ms, "Z")
		}
	}

	// Random aggregations over a small pool, every pair and some triples
	// of their annotations merged.
	r := rand.New(rand.NewSource(11))
	values := []float64{0.1, 0.2, 0.7, 1, 3, 1e16}
	groups := []Annotation{"", "g1", "g2", "a"}
	for iter := 0; iter < 200; iter++ {
		data := make([]byte, 64)
		r.Read(data)
		pos := 0
		tensors := make([]Tensor, 2+r.Intn(6))
		for i := range tensors {
			tensors[i] = Tensor{
				Prov:  buildExpr(data, &pos, 3),
				Value: values[r.Intn(len(values))],
				Count: 1 + r.Intn(3),
				Group: groups[r.Intn(len(groups))],
			}
		}
		cur := NewAgg(AggKind(r.Intn(4)), tensors...)
		anns := cur.Annotations()
		for i := range anns {
			for j := i + 1; j < len(anns); j++ {
				checkProbeAgainstApply(t, cur, []Annotation{anns[i], anns[j]}, "Z")
				if k := j + 1; k < len(anns) {
					checkProbeAgainstApply(t, cur, []Annotation{anns[i], anns[j], anns[k]}, "Z")
				}
			}
		}
	}
}

// TestProbeEscapedNames pins the probe over names that hold key
// separators: Key escapes them, so tensors whose unescaped keys would
// coincide stay apart, and the probe of every merge and summary name —
// separators included — matches the materialized candidate.
func TestProbeEscapedNames(t *testing.T) {
	a := Sum{Terms: []Expr{V("a+v:b"), V("c")}}
	b := Sum{Terms: []Expr{V("a"), V("b+v:c")}}
	if a.Key() == b.Key() {
		t.Fatalf("distinct polynomials share the key %q", a.Key())
	}
	cur := NewAgg(AggSum,
		Tensor{Prov: P("a+v:b", "m"), Value: 1, Count: 1, Group: "m"},
		Tensor{Prov: P("u", "m"), Value: 2, Count: 1, Group: "m"},
		Tensor{Prov: P("u", "Heat (1995)"), Value: 3, Count: 1, Group: "Heat (1995)"},
		Tensor{Prov: P("r|s", "m"), Value: 4, Count: 1, Group: "x*y"},
	)
	for _, ms := range [][]Annotation{{"u", "m"}, {"a+v:b", "u"}, {"m", "Heat (1995)"}, {"r|s", "u"}} {
		for _, newAnn := range []Annotation{"Z", "x*y", "(Z)", "Z|", "a+c:1", "⊗", "{u1+u2}", "é"} {
			if !slices.Contains(ms, newAnn) && slices.Contains(cur.Annotations(), newAnn) {
				continue
			}
			checkProbeAgainstApply(t, cur, ms, newAnn)
		}
	}
}

// TestProbeRefusesUnrewritable pins the nil-Probe fallback (and the
// recompile fallback of ApplyMerge) for plans over expressions not in
// Simplify normal form.
func TestProbeRefusesUnrewritable(t *testing.T) {
	// Hand-built aggregations skip Simplify: a one-factor product, a
	// product holding the constant 1, nested sums, and unsorted or
	// duplicate tensors all fall outside the normal form.
	for _, g := range []*Agg{
		{Agg: Aggregator{AggSum}, Tensors: []Tensor{{Prov: Prod{Factors: []Expr{V("u1")}}, Value: 1, Count: 1}}},
		{Agg: Aggregator{AggSum}, Tensors: []Tensor{{Prov: Prod{Factors: []Expr{V("u1"), Const{1}}}, Value: 1, Count: 1}}},
		{Agg: Aggregator{AggSum}, Tensors: []Tensor{{Prov: Sum{Terms: []Expr{V("u1"), Sum{Terms: []Expr{V("u2"), V("u3")}}}}, Value: 1, Count: 1}}},
		{Agg: Aggregator{AggSum}, Tensors: []Tensor{{Prov: Cmp{Inner: Const{1}, Value: 1, Op: OpGE, Bound: 0}, Value: 1, Count: 1}, {Prov: V("u1"), Value: 1, Count: 1}}},
		{Agg: Aggregator{AggSum}, Tensors: []Tensor{{Prov: V("u2"), Value: 1, Count: 1}, {Prov: V("u1"), Value: 1, Count: 1}}},
		{Agg: Aggregator{AggSum}, Tensors: []Tensor{{Prov: V("u1"), Value: 1, Count: 1}, {Prov: V("u1"), Value: 1, Count: 1}}},
		{Agg: Aggregator{AggSum}, Tensors: []Tensor{{Prov: Const{0}, Value: 1, Count: 1}, {Prov: V("u1"), Value: 1, Count: 1}}},
	} {
		if NewPlan(g).Probe([]Annotation{"u1", "u2"}, "Z") != nil {
			t.Fatalf("Probe must refuse a plan outside Simplify normal form: %v", g)
		}
		if NewPlan(g.Simplify()).Probe([]Annotation{"u1", "u2"}, "Z") == nil {
			t.Fatalf("Probe refused the simplified form of %v", g)
		}
	}
}
