package provenance

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestMappingRenameIdentity(t *testing.T) {
	m := NewMapping()
	if m.Rename("x") != "x" {
		t.Fatal("empty mapping must be identity")
	}
	var zero Mapping // zero value must also behave as identity
	if zero.Rename("x") != "x" {
		t.Fatal("zero-value mapping must be identity")
	}
}

func TestMappingSetAndPairs(t *testing.T) {
	m := NewMapping().Set("a", "G").Set("b", "G")
	if m.Rename("a") != "G" || m.Rename("b") != "G" || m.Rename("c") != "c" {
		t.Fatalf("rename wrong: %v", m.Pairs())
	}
	pairs := m.Pairs()
	want := [][2]Annotation{{"a", "G"}, {"b", "G"}}
	if !reflect.DeepEqual(pairs, want) {
		t.Fatalf("Pairs = %v, want %v", pairs, want)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
}

func TestMappingSetDoesNotMutate(t *testing.T) {
	m1 := NewMapping().Set("a", "G")
	m2 := m1.Set("b", "H")
	if m1.Rename("b") != "b" {
		t.Fatal("Set mutated the receiver")
	}
	if m2.Rename("a") != "G" || m2.Rename("b") != "H" {
		t.Fatal("Set lost entries")
	}
}

func TestMappingCompose(t *testing.T) {
	// first: a,b -> G ; then: G,c -> H. Composition: a,b,c -> H, G -> H.
	first := MergeMapping("G", "a", "b")
	second := MergeMapping("H", "G", "c")
	comp := first.Compose(second)
	for _, a := range []Annotation{"a", "b", "c", "G"} {
		if comp.Rename(a) != "H" {
			t.Fatalf("compose(%s) = %s, want H", a, comp.Rename(a))
		}
	}
	if comp.Rename("z") != "z" {
		t.Fatal("compose must be identity elsewhere")
	}
}

// Property: Compose agrees with sequential renaming on arbitrary chains.
func TestComposeLaw(t *testing.T) {
	anns := []Annotation{"a", "b", "c", "d", "e", "F", "G", "H"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		randMapping := func() Mapping {
			m := NewMapping()
			for _, a := range anns[:5] {
				if r.Intn(2) == 0 {
					m = m.Set(a, anns[5+r.Intn(3)])
				}
			}
			return m
		}
		m1, m2 := randMapping(), randMapping()
		comp := m1.Compose(m2)
		for _, a := range anns {
			if comp.Rename(a) != m2.Rename(m1.Rename(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupsOf(t *testing.T) {
	original := []Annotation{"a", "b", "c", "d"}
	cum := MergeMapping("G", "a", "b")
	g := GroupsOf(original, cum)
	if !reflect.DeepEqual(g["G"], []Annotation{"a", "b"}) {
		t.Fatalf("group G = %v", g["G"])
	}
	if !reflect.DeepEqual(g.Members("c"), []Annotation{"c"}) {
		t.Fatalf("singleton = %v", g.Members("c"))
	}
	if !reflect.DeepEqual(g.Members("missing"), []Annotation{"missing"}) {
		t.Fatalf("missing = %v", g.Members("missing"))
	}
}

func TestUniverseBasics(t *testing.T) {
	u := NewUniverse()
	u.Add("U1", "users", Attrs{"gender": "F", "age": "25-34"})
	u.Add("U2", "users", Attrs{"gender": "F", "age": "35-44"})
	u.Add("M1", "movies", Attrs{"year": "1995"})

	if u.Table("U1") != "users" || u.Table("M1") != "movies" {
		t.Fatal("table lookup broken")
	}
	if u.Attr("U1", "gender") != "F" {
		t.Fatal("attr lookup broken")
	}
	if !u.Known("U1") || u.Known("nope") {
		t.Fatal("Known broken")
	}
	if got := u.InTable("users"); len(got) != 2 {
		t.Fatalf("InTable(users) = %v", got)
	}
	if got := u.Annotations(); len(got) != 3 {
		t.Fatalf("Annotations = %v", got)
	}
}

func TestUniverseMergeNaming(t *testing.T) {
	u := NewUniverse()
	u.Add("U1", "users", Attrs{"gender": "F", "age": "25-34"})
	u.Add("U2", "users", Attrs{"gender": "F", "age": "35-44"})
	name := u.Merge([]Annotation{"U1", "U2"}, FreshName([]Annotation{"U1", "U2"}))
	if name != "gender:F" {
		t.Fatalf("merge name = %s, want gender:F", name)
	}
	if u.Attr(name, "gender") != "F" {
		t.Fatal("merged annotation must carry shared attrs")
	}
	if u.Attr(name, "age") != "" {
		t.Fatal("non-shared attrs must be dropped")
	}
	if u.Table(name) != "users" {
		t.Fatal("merged annotation must keep table")
	}
}

func TestUniverseMergeNameCollision(t *testing.T) {
	u := NewUniverse()
	u.Add("U1", "users", Attrs{"gender": "F"})
	u.Add("U2", "users", Attrs{"gender": "F"})
	u.Add("U3", "users", Attrs{"gender": "F"})
	u.Add("U4", "users", Attrs{"gender": "F"})
	n1 := u.Merge([]Annotation{"U1", "U2"}, "fb1")
	n2 := u.Merge([]Annotation{"U3", "U4"}, "fb2")
	if n1 == n2 {
		t.Fatalf("colliding merge names not disambiguated: %s", n1)
	}
	// Growing an existing group keeps its name.
	n3 := u.Merge([]Annotation{n1, "U3"}, "fb3")
	if n3 == n2 {
		t.Fatalf("grown group stole another group's name")
	}
}

func TestUniverseMergeNoSharedAttrs(t *testing.T) {
	u := NewUniverse()
	u.Add("U1", "users", Attrs{"gender": "F"})
	u.Add("U2", "users", Attrs{"gender": "M"})
	fb := FreshName([]Annotation{"U2", "U1"})
	name := u.Merge([]Annotation{"U1", "U2"}, fb)
	if name != fb {
		t.Fatalf("merge without shared attrs = %s, want fallback %s", name, fb)
	}
	if fb != "{U1+U2}" {
		t.Fatalf("FreshName = %s", fb)
	}
}

func TestShared(t *testing.T) {
	got := Shared([]Attrs{
		{"a": "1", "b": "2"},
		{"a": "1", "b": "3"},
		{"a": "1"},
	})
	if len(got) != 1 || got["a"] != "1" {
		t.Fatalf("Shared = %v", got)
	}
	if len(Shared(nil)) != 0 {
		t.Fatal("Shared(nil) must be empty")
	}
}

func TestValuationNames(t *testing.T) {
	v := CancelAnnotation("U7")
	if v.Name() != "cancel U7" {
		t.Fatalf("Name = %q", v.Name())
	}
	if v.Truth("U7") || !v.Truth("U8") {
		t.Fatal("CancelAnnotation truth table wrong")
	}
	s := CancelSet("cancel gender=M", "U1", "U2")
	if s.Truth("U1") || s.Truth("U2") || !s.Truth("U3") {
		t.Fatal("CancelSet truth table wrong")
	}
	unnamed := MapValuation{Assign: map[Annotation]bool{"b": false, "a": false}, Default: true}
	if unnamed.Name() != "flip{a,b}" {
		t.Fatalf("derived name = %q", unnamed.Name())
	}
}

func TestCombiners(t *testing.T) {
	if !CombineOr.Combine([]bool{false, true}) {
		t.Fatal("OR")
	}
	if CombineOr.Combine([]bool{false, false}) {
		t.Fatal("OR all false")
	}
	if CombineAnd.Combine([]bool{true, false}) {
		t.Fatal("AND")
	}
	if !CombineAnd.Combine([]bool{true, true}) {
		t.Fatal("AND all true")
	}
	if CombineOr.Name() != "OR" || CombineAnd.Name() != "AND" {
		t.Fatal("combiner names")
	}
}

func TestResultStrings(t *testing.T) {
	if Scalar(2.5).ResultString() != "2.5" {
		t.Fatalf("Scalar string = %q", Scalar(2.5).ResultString())
	}
	v := Vector{"b": 1, "a": 2}
	if v.ResultString() != "(a:2, b:1)" {
		t.Fatalf("Vector string = %q", v.ResultString())
	}
}

// linearMerge is Universe.Merge with the linear "#N" probe it replaced:
// it tries name#2, name#3, … until one is unregistered or a member. It
// is the test oracle of the suffix hint.
func linearMerge(u *Universe, members []Annotation, fallback Annotation) Annotation {
	if len(members) == 0 {
		return fallback
	}
	table := u.Table(members[0])
	var attrSets []Attrs
	for _, m := range members {
		if u.Known(m) {
			attrSets = append(attrSets, u.AttrsOf(m))
		}
	}
	shared := Shared(attrSets)
	name := fallback
	if len(shared) > 0 {
		keys := make([]string, 0, len(shared))
		for k := range shared {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		name = Annotation(fmt.Sprintf("%s:%s", keys[0], shared[keys[0]]))
		if u.Known(name) && !slices.Contains(members, name) {
			for i := 2; ; i++ {
				cand := Annotation(fmt.Sprintf("%s#%d", name, i))
				if !u.Known(cand) || slices.Contains(members, cand) {
					name = cand
					break
				}
			}
		}
	}
	u.Add(name, table, shared)
	return name
}

// TestUniverseMergeMatchesLinearProbe runs scripted merges on two
// universes, one through Merge and one through the linear probe, and
// requires the same name at every step and the same registry at the
// end. The scripts merge users of few attribute values, so names
// collide often; merge summary annotations with each other and with
// users (members named name#k, which the probe returns first); and
// register name#k entries through Add, which the hint must skip.
func TestUniverseMergeMatchesLinearProbe(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		hinted, linear := NewUniverse(), NewUniverse()
		var pool []Annotation
		for i := 0; i < 12; i++ {
			a := Annotation(fmt.Sprintf("U%d", i))
			attrs := Attrs{"gender": []string{"F", "M"}[r.Intn(2)], "zip": []string{"1", "2", "3"}[r.Intn(3)]}
			hinted.Add(a, "users", attrs)
			linear.Add(a, "users", attrs)
			pool = append(pool, a)
		}
		for step := 0; step < 300; step++ {
			if r.Intn(6) == 0 {
				a := Annotation(fmt.Sprintf("%s#%d", []string{"gender:F", "gender:M", "zip:2"}[r.Intn(3)], 2+r.Intn(40)))
				hinted.Add(a, "users", Attrs{"gender": "F"})
				linear.Add(a, "users", Attrs{"gender": "F"})
				pool = append(pool, a)
				continue
			}
			members := []Annotation{pool[r.Intn(len(pool))], pool[r.Intn(len(pool))]}
			if r.Intn(3) == 0 {
				members = append(members, pool[r.Intn(len(pool))])
			}
			fallback := FreshName(members)
			got, want := hinted.Merge(members, fallback), linearMerge(linear, members, fallback)
			if got != want {
				t.Fatalf("seed %d step %d: Merge(%v) = %q, linear probe %q", seed, step, members, got, want)
			}
			pool = append(pool, got)
		}
		if got, want := hinted.Annotations(), linear.Annotations(); !slices.Equal(got, want) {
			t.Fatalf("seed %d: registries differ: %v != %v", seed, got, want)
		}
	}
}
