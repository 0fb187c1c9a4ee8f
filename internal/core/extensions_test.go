package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/constraints"
	"repro/internal/distance"
	"repro/internal/provenance"
	"repro/internal/valuation"
)

// bigFixture builds an 8-user MAX aggregation where every user shares a
// gender attribute with three others.
func bigFixture() (*provenance.Agg, *constraints.Policy, *distance.Estimator) {
	var tensors []provenance.Tensor
	u := provenance.NewUniverse()
	users := make([]provenance.Annotation, 8)
	for i := range users {
		users[i] = provenance.Annotation(rune('a' + i))
		gender := "F"
		if i%2 == 0 {
			gender = "M"
		}
		u.Add(users[i], "users", provenance.Attrs{"gender": gender})
		tensors = append(tensors, provenance.Tensor{
			Prov: provenance.V(users[i]), Value: float64(i%5 + 1), Count: 1, Group: "G",
		})
	}
	u.Add("G", "movies", nil)
	pol := constraints.NewPolicy(u, constraints.SameTable(), constraints.SharedAttr("gender"))
	est := &distance.Estimator{
		Class: valuation.NewCancelSingleAnnotation(users),
		Phi:   provenance.CombineOr,
		VF:    distance.Euclidean(),
	}
	return provenance.NewAgg(provenance.AggMax, tensors...), pol, est
}

func TestMergeArityValidation(t *testing.T) {
	_, pol, est := bigFixture()
	if _, err := New(Config{Policy: pol, Estimator: est, WDist: 1, MergeArity: 1}); err == nil {
		t.Fatal("arity 1 must fail")
	}
	if _, err := New(Config{Policy: pol, Estimator: est, WDist: 1, MergeArity: -3}); err == nil {
		t.Fatal("negative arity must fail")
	}
	if _, err := New(Config{Policy: pol, Estimator: est, WDist: 1, MergeArity: 4}); err != nil {
		t.Fatal(err)
	}
}

// TestKAryMergesFasterConvergence verifies the thesis's Ch. 9 tradeoff:
// with arity k, a single step merges up to k annotations, so the same
// step budget shrinks the expression at least as much as pairwise merges.
func TestKAryMergesFasterConvergence(t *testing.T) {
	run := func(arity int) *Summary {
		p0, pol, est := bigFixture()
		s, err := New(Config{
			Policy: pol, Estimator: est, WDist: 0, WSize: 1,
			MaxSteps: 2, MergeArity: arity,
		})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := s.Summarize(p0)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	pair := run(2)
	quad := run(4)
	if quad.Expr.Size() > pair.Expr.Size() {
		t.Fatalf("arity-4 size %d > pairwise size %d under the same budget",
			quad.Expr.Size(), pair.Expr.Size())
	}
	// with wSize=1 and 4 mergeable same-gender users per gender, arity 4
	// should form a group of more than 2 members in some step
	grew := false
	for _, st := range quad.Steps {
		if len(st.Members) > 2 {
			grew = true
		}
		if len(st.Members) > 4 {
			t.Fatalf("step exceeded arity: %v", st.Members)
		}
	}
	if !grew {
		t.Fatal("arity 4 never grew past a pair")
	}
}

func TestKAryRespectsConstraints(t *testing.T) {
	p0, pol, est := bigFixture()
	s, err := New(Config{
		Policy: pol, Estimator: est, WDist: 0, WSize: 1,
		MaxSteps: 3, MergeArity: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Summarize(p0)
	if err != nil {
		t.Fatal(err)
	}
	u := pol.Universe
	for _, st := range sum.Steps {
		g := u.Attr(st.Members[0], "gender")
		for _, m := range st.Members[1:] {
			if got := u.Attr(m, "gender"); got != g && got != "" {
				t.Fatalf("mixed-gender k-ary merge: %v", st.Members)
			}
		}
	}
}

// TestParallelismMatchesSequential verifies the deterministic-reduction
// guarantee: parallel candidate evaluation picks the same merges.
func TestParallelismMatchesSequential(t *testing.T) {
	run := func(par int) []Step {
		p0, pol, est := bigFixture()
		est.Parallelism = par
		s, err := New(Config{
			Policy: pol, Estimator: est, WDist: 0.5, WSize: 0.5,
			MaxSteps: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := s.Summarize(p0)
		if err != nil {
			t.Fatal(err)
		}
		return sum.Steps
	}
	seq := run(1)
	par := run(4)
	if len(seq) != len(par) {
		t.Fatalf("step counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].A != par[i].A || seq[i].B != par[i].B || seq[i].New != par[i].New {
			t.Fatalf("step %d differs: %+v vs %+v", i, seq[i], par[i])
		}
	}
}

// TestParallelismSamplingModes pins the sampling × parallelism matrix:
// every sweep draws its samples up front, so Samples > 0 with
// Parallelism is accepted.
func TestParallelismSamplingModes(t *testing.T) {
	_, pol, est := bigFixture()
	est.Samples = 10
	est.Rand = rand.New(rand.NewSource(1))
	est.Parallelism = 4
	if _, err := New(Config{Policy: pol, Estimator: est, WDist: 1}); err != nil {
		t.Fatalf("parallel sampling must be accepted, got %v", err)
	}
}

// TestParallelLargeWorkload runs a 40-user workload in parallel; under
// -race this catches estimator-cache races between probe workers.
func TestParallelLargeWorkload(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	u := provenance.NewUniverse()
	var tensors []provenance.Tensor
	users := make([]provenance.Annotation, 40)
	genders := []string{"M", "F"}
	ages := []string{"18-24", "25-34", "35-44"}
	for i := range users {
		users[i] = provenance.Annotation(fmt.Sprintf("u%02d", i))
		u.Add(users[i], "users", provenance.Attrs{
			"gender": genders[r.Intn(2)],
			"age":    ages[r.Intn(3)],
		})
		tensors = append(tensors, provenance.Tensor{
			Prov:  provenance.V(users[i]),
			Value: float64(1 + r.Intn(5)), Count: 1,
			Group: provenance.Annotation(rune('A' + r.Intn(4))),
		})
	}
	p0 := provenance.NewAgg(provenance.AggMax, tensors...)
	pol := constraints.NewPolicy(u, constraints.SameTable(), constraints.SharedAttr("gender", "age"))
	est := &distance.Estimator{
		Class: valuation.NewCancelSingleAnnotation(users),
		Phi:   provenance.CombineOr,
		VF:    distance.Euclidean(),

		Parallelism: 8,
	}
	s, err := New(Config{
		Policy: pol, Estimator: est,
		WDist: 1, MaxSteps: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Summarize(p0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Steps) != 3 {
		t.Fatalf("steps = %d", len(sum.Steps))
	}
}

func TestStepMembersRecorded(t *testing.T) {
	p0, pol, est := bigFixture()
	s, _ := New(Config{Policy: pol, Estimator: est, WDist: 1, MaxSteps: 1})
	sum, err := s.Summarize(p0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Steps) != 1 {
		t.Fatalf("steps = %d", len(sum.Steps))
	}
	st := sum.Steps[0]
	want := []provenance.Annotation{st.A, st.B}
	if !reflect.DeepEqual(st.Members, want) {
		t.Fatalf("Members = %v, want %v", st.Members, want)
	}
}
