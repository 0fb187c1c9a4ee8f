package baseline

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/constraints"
	"repro/internal/distance"
	"repro/internal/provenance"
	"repro/internal/valuation"
)

func fixture() (*provenance.Agg, *provenance.Universe, []provenance.Annotation) {
	p0 := provenance.NewAgg(provenance.AggMax,
		provenance.Tensor{Prov: provenance.V("U1"), Value: 3, Count: 1, Group: "MP"},
		provenance.Tensor{Prov: provenance.V("U2"), Value: 5, Count: 1, Group: "MP"},
		provenance.Tensor{Prov: provenance.V("U3"), Value: 3, Count: 1, Group: "MP"},
		provenance.Tensor{Prov: provenance.V("U4"), Value: 4, Count: 1, Group: "MP"},
	)
	u := provenance.NewUniverse()
	u.Add("U1", "users", provenance.Attrs{"gender": "F"})
	u.Add("U2", "users", provenance.Attrs{"gender": "F"})
	u.Add("U3", "users", provenance.Attrs{"gender": "M"})
	u.Add("U4", "users", provenance.Attrs{"gender": "M"})
	u.Add("MP", "movies", provenance.Attrs{"genre": "drama"})
	users := []provenance.Annotation{"U1", "U2", "U3", "U4"}
	return p0, u, users
}

func fixtureConfig(u *provenance.Universe, users []provenance.Annotation) Config {
	pol := constraints.NewPolicy(u, constraints.SameTable(), constraints.SharedAttr("gender"))
	est := &distance.Estimator{
		Class: valuation.NewCancelSingleAnnotation(users),
		Phi:   provenance.CombineOr,
		VF:    distance.Euclidean(),
	}
	return Config{Policy: pol, Estimator: est}
}

func TestRandomValidation(t *testing.T) {
	p0, u, users := fixture()
	_ = p0
	cfg := fixtureConfig(u, users)
	if _, err := NewRandom(cfg, nil); err == nil {
		t.Fatal("nil rand must fail")
	}
	if _, err := NewRandom(Config{}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("empty config must fail")
	}
	if _, err := NewRandom(cfg, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
}

func TestRandomRespectsConstraints(t *testing.T) {
	p0, u, users := fixture()
	cfg := fixtureConfig(u, users)
	cfg.MaxSteps = 10
	r, err := NewRandom(cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Summarize(p0)
	if err != nil {
		t.Fatal(err)
	}
	// Only same-gender merges are allowed: at most 2 merges possible
	// (U1+U2 and U3+U4); the groups formed must be single-gender.
	if len(sum.Steps) == 0 || len(sum.Steps) > 2 {
		t.Fatalf("steps = %d", len(sum.Steps))
	}
	for summary, members := range sum.Groups {
		if len(members) < 2 {
			continue
		}
		g := u.Attr(members[0], "gender")
		for _, m := range members[1:] {
			if u.Attr(m, "gender") != g {
				t.Fatalf("mixed-gender group %s: %v", summary, members)
			}
		}
	}
	if sum.StopReason != "no-candidates" {
		t.Fatalf("stop reason = %s", sum.StopReason)
	}
}

func TestRandomTargetSize(t *testing.T) {
	p0, u, users := fixture()
	cfg := fixtureConfig(u, users)
	cfg.TargetSize = p0.Size() - 1
	r, _ := NewRandom(cfg, rand.New(rand.NewSource(3)))
	sum, err := r.Summarize(p0)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Expr.Size() > cfg.TargetSize {
		t.Fatalf("size %d > target %d", sum.Expr.Size(), cfg.TargetSize)
	}
	if sum.StopReason != "target-size" {
		t.Fatalf("stop reason = %s", sum.StopReason)
	}
}

func TestRandomTargetDistRollback(t *testing.T) {
	p0, u, users := fixture()
	cfg := fixtureConfig(u, users)
	cfg.Estimator.MaxError = 10
	cfg.TargetDist = 1e-9 // any real merge busts this bound
	cfg.MaxSteps = 5
	r, _ := NewRandom(cfg, rand.New(rand.NewSource(3)))
	sum, err := r.Summarize(p0)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Dist >= cfg.TargetDist && len(sum.Steps) > 0 {
		t.Fatalf("returned dist %g with %d steps; rollback failed", sum.Dist, len(sum.Steps))
	}
}

func TestRandomEmptyExpression(t *testing.T) {
	_, u, users := fixture()
	cfg := fixtureConfig(u, users)
	r, _ := NewRandom(cfg, rand.New(rand.NewSource(1)))
	sum, err := r.Summarize(provenance.NewAgg(provenance.AggMax))
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Steps) != 0 {
		t.Fatal("empty expression must produce no steps")
	}
}

func TestClusteringAdapter(t *testing.T) {
	p0, u, users := fixture()
	cfg := fixtureConfig(u, users)
	cfg.MaxSteps = 10

	// Build rating vectors and run real HAC with the same constraint.
	ratings := []map[string]float64{
		{"MP": 3, "X": 1, "Y": 2}, // U1
		{"MP": 5, "X": 2, "Y": 4}, // U2 — correlated with U1
		{"MP": 3, "X": 5, "Y": 1}, // U3
		{"MP": 4, "X": 1, "Y": 5}, // U4
	}
	can := func(a, b []int) bool {
		for _, x := range a {
			for _, y := range b {
				if !cfg.Policy.CanMerge(users[x], users[y]) {
					return false
				}
			}
		}
		return true
	}
	dend, err := cluster.Run(len(users), func(i, j int) float64 {
		return cluster.PearsonDissimilarity(ratings[i], ratings[j])
	}, cluster.Single, can)
	if err != nil {
		t.Fatal(err)
	}
	if len(dend.Merges) == 0 {
		t.Fatal("expected at least one HAC merge")
	}

	var steps []MergeStep
	for _, m := range dend.Merges {
		st := MergeStep{}
		for _, i := range m.MembersA {
			st.A = append(st.A, users[i])
		}
		for _, i := range m.MembersB {
			st.B = append(st.B, users[i])
		}
		steps = append(steps, st)
	}

	c, err := NewClustering(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := c.Summarize(p0, steps)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Steps) != len(steps) {
		t.Fatalf("adapter applied %d of %d merges", len(sum.Steps), len(steps))
	}
	// groups must match the dendrogram's final partition
	for _, m := range dend.Merges {
		a := users[m.MembersA[0]]
		b := users[m.MembersB[0]]
		if sum.Mapping.Rename(a) != sum.Mapping.Rename(b) {
			t.Fatalf("dendrogram merge (%s,%s) not reflected in mapping", a, b)
		}
	}
}

func TestClusteringAdapterSkipsDegenerate(t *testing.T) {
	p0, u, users := fixture()
	cfg := fixtureConfig(u, users)
	c, _ := NewClustering(cfg)
	steps := []MergeStep{
		{A: nil, B: []provenance.Annotation{"U1"}}, // skipped
		{A: []provenance.Annotation{"U1"}, B: []provenance.Annotation{"U2"}},
		{A: []provenance.Annotation{"U2"}, B: []provenance.Annotation{"U1"}}, // already merged
	}
	sum, err := c.Summarize(p0, steps)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Steps) != 1 {
		t.Fatalf("steps = %d, want 1", len(sum.Steps))
	}
}

func TestClusteringValidation(t *testing.T) {
	if _, err := NewClustering(Config{}); err == nil {
		t.Fatal("empty config must fail")
	}
}

// TestRefusesUnplannableInput: the baselines score with the estimator's
// one path, so an input it cannot plan (here a negative constant) is
// refused with its *distance.PlanError instead of being scored.
func TestRefusesUnplannableInput(t *testing.T) {
	_, u, users := fixture()
	neg := provenance.NewAgg(provenance.AggSum,
		provenance.Tensor{Prov: provenance.Sum{Terms: []provenance.Expr{provenance.V("U1"), provenance.Const{N: -1}}}, Value: 3, Count: 1, Group: "MP"},
		provenance.Tensor{Prov: provenance.V("U2"), Value: 5, Count: 1, Group: "MP"},
	)
	r, err := NewRandom(fixtureConfig(u, users), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	var pe *distance.PlanError
	if _, err := r.Summarize(neg); !errors.As(err, &pe) {
		t.Fatalf("Random.Summarize err = %v, want a *distance.PlanError", err)
	}
	c, err := NewClustering(fixtureConfig(u, users))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Summarize(neg, nil); !errors.As(err, &pe) {
		t.Fatalf("Clustering.Summarize err = %v, want a *distance.PlanError", err)
	}
}
