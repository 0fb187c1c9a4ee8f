// External test package: the seeded-dataset determinism tests need
// internal/datasets, which depends on core via the baselines, so they
// cannot live in package core.
package core_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/provenance"
)

func movieLens(t *testing.T) *datasets.Workload {
	t.Helper()
	cfg := datasets.DefaultMovieLensConfig()
	cfg.Users = 14
	cfg.Movies = 6
	return datasets.MovieLens(cfg, rand.New(rand.NewSource(9)))
}

func mlSummaryKey(t *testing.T, sum *core.Summary) string {
	t.Helper()
	if len(sum.Steps) == 0 {
		t.Fatal("workload produced no merges")
	}
	var b strings.Builder
	for _, st := range sum.Steps {
		fmt.Fprintf(&b, "%v->%s score=%b dist=%b size=%d\n", st.Members, st.New, st.Score, st.Dist, st.Size)
	}
	fmt.Fprintf(&b, "dist=%b stop=%s expr=%s", sum.Dist, sum.StopReason, sum.Expr)
	return b.String()
}

// titledMovieLens is movieLens with every movie annotation renamed to
// a "Title (Year)" name, the way real MovieLens titles read. Parentheses
// are key separators, which keys escape, so the delta engine plans and
// probes the expression like any other.
func titledMovieLens(t *testing.T) *datasets.Workload {
	t.Helper()
	w := movieLens(t)
	table := make(map[provenance.Annotation]provenance.Annotation)
	for _, a := range w.Universe.InTable(datasets.MLMoviesTable) {
		titled := provenance.Annotation(fmt.Sprintf("%s (%s)", a, w.Universe.Attr(a, "year")))
		w.Universe.Add(titled, datasets.MLMoviesTable, w.Universe.AttrsOf(a))
		table[a] = titled
	}
	w.Prov = w.Prov.Apply(provenance.MappingOf(table))
	return w
}

// negMovieLens is movieLens plus one tensor whose polynomial holds the
// constant -1, built in process since parse and codec refuse it. The
// blocked kernel refuses its arena, so the estimator cannot plan it and
// the summarizer refuses it.
func negMovieLens(t *testing.T) *datasets.Workload {
	t.Helper()
	w := movieLens(t)
	g := w.Prov.(*provenance.Agg)
	users := w.Universe.InTable(datasets.MLUsersTable)
	neg := provenance.Tensor{
		Prov:  provenance.Sum{Terms: []provenance.Expr{provenance.V(users[0]), provenance.V(users[1]), provenance.Const{N: -1}}},
		Value: 3, Count: 1, Group: g.Tensors[0].Group,
	}
	w.Prov = provenance.NewAgg(g.Agg.Kind, append(slices.Clone(g.Tensors), neg)...)
	return w
}

// The determinism matrix pins each row's summary to the SHA-256 of its
// mlSummaryKey. Every reference was produced by, and agreed across, the
// retired scoring layouts — candidate-major, materialized batch and
// delta, on the recursive, scalar-arena and blocked evaluators — before
// they were folded into one engine. Each row runs at Parallelism 1 and 4.
const (
	mlEnumKey   = "ab01cd20da177d9339e5b43f3f03c589597bb8ad330951992578ac646bd6ee35"
	mlSampKey   = "25b207fd17787f4bf94a52c13fc3667c4ae76d9fbf723ad4dfd8614bc444ed58"
	ddpEnumKey  = "be93d10305ec1a50595f7dce8e55d8c68f8e9b43245f97fd10bfc15e95d51800"
	ddpSampKey  = "2b4b412f381f7c70d3ff0e259f58fd35f1697d82690e37a1ac2a6edb53d6dfc2"
	extEnumKey  = "ce30749c460f1995f70edbfd629bdb940f0d0f9c8deb2e10f389fd0934c21ec2"
	extSampKey  = "d218fabfb2b0753c1d4781e94ccf93a7107e77754f595b98015467786390e808"
	matrixSteps = 6
)

var matrixWorkers = []int{1, 4}

// checkMatrixKey fails unless key hashes to want.
func checkMatrixKey(t *testing.T, row string, key, want string) {
	t.Helper()
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(key))); got != want {
		t.Fatalf("%s: summary hash %s, want %s; summary:\n%s", row, got, want, key)
	}
}

// runMovieLens summarizes the seeded MovieLens workload and returns the
// summary key, requiring that every cohort went through the delta
// engine. Each of with is applied to the summarizer before the run.
func runMovieLens(t *testing.T, workers, samples, steps int, with ...func(*core.Summarizer)) string {
	t.Helper()
	w := movieLens(t)
	est := w.Estimator(datasets.CancelSingleAnnotation)
	est.Parallelism = workers
	if samples > 0 {
		est.Samples = samples
		est.Rand = rand.New(rand.NewSource(21))
	}
	s, err := core.New(core.Config{
		Policy:    w.Policy,
		Estimator: est,
		WDist:     0.7,
		WSize:     0.3,
		MaxSteps:  steps,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range with {
		f(s)
	}
	sum, err := s.Summarize(w.Prov)
	if err != nil {
		t.Fatal(err)
	}
	if st := est.Stats(); st.DeltaCalls == 0 || st.DeltaSkips == 0 {
		t.Fatalf("run did not delta-score: DeltaCalls=%d DeltaSkips=%d", st.DeltaCalls, st.DeltaSkips)
	}
	return mlSummaryKey(t, sum)
}

// TestMovieLensScoringModesIdentical is the determinism matrix's
// MovieLens enumeration row: the seeded workload summarized at
// Parallelism 1 and 4 must reproduce the pinned summary — same merges,
// bit-identical scores and distances, same rendered expression.
func TestMovieLensScoringModesIdentical(t *testing.T) {
	for _, workers := range matrixWorkers {
		checkMatrixKey(t, fmt.Sprintf("workers=%d", workers), runMovieLens(t, workers, 0, matrixSteps), mlEnumKey)
	}
}

// TestMovieLensMergePatchEquivalence is the acceptance test for
// Plan.ApplyMerge: a full seeded MovieLens run with in-place merge
// patching must be byte-identical to the same run recompiling its plan
// every step (core.RebeginEveryStep begins a new distance.Run after each
// commit, dropping the patched plan) — and the default run must actually patch
// (MergePatches moves). Some commits may still recompile by design:
// ApplyMerge bails when the patch would be unsound or leave the arena
// more than half dead.
func TestMovieLensMergePatchEquivalence(t *testing.T) {
	run := func(recompile bool, workers int) (string, uint64) {
		w := movieLens(t)
		est := w.Estimator(datasets.CancelSingleAnnotation)
		est.Parallelism = workers
		s, err := core.New(core.Config{
			Policy:    w.Policy,
			Estimator: est,
			WDist:     0.7,
			WSize:     0.3,
			MaxSteps:  matrixSteps,
		})
		if err != nil {
			t.Fatal(err)
		}
		if recompile {
			core.RebeginEveryStep(s)
		}
		sum, err := s.Summarize(w.Prov)
		if err != nil {
			t.Fatal(err)
		}
		return mlSummaryKey(t, sum), est.Stats().MergePatches
	}
	want, patches := run(false, 1)
	if patches == 0 {
		t.Fatal("default run never patched a plan in place")
	}
	checkMatrixKey(t, "patched", want, mlEnumKey)
	if got, _ := run(true, 1); got != want {
		t.Fatalf("recompile-per-step run diverged from patched run:\n%s\n--- want ---\n%s", got, want)
	}
	if got, _ := run(false, 4); got != want {
		t.Fatalf("patched parallel run diverged:\n%s\n--- want ---\n%s", got, want)
	}
}

// TestMovieLensSampledParallelIdentical is the determinism matrix's
// MovieLens sampling row: Samples > 0 at Parallelism 1 and 4 must
// reproduce the pinned summary given the same seed, because each step's
// sample set is drawn once before the candidate fan-out.
func TestMovieLensSampledParallelIdentical(t *testing.T) {
	for _, workers := range matrixWorkers {
		checkMatrixKey(t, fmt.Sprintf("workers=%d", workers), runMovieLens(t, workers, 8, 5), mlSampKey)
	}
}

func ddpWorkload(t *testing.T) *datasets.Workload {
	t.Helper()
	return datasets.DDP(datasets.DefaultDDPConfig(), rand.New(rand.NewSource(13)))
}

// runDDP summarizes (or, with prior groups, extends) the seeded DDP
// workload and returns the summary key. Every cohort is scored on the
// DDP block plan. Each of with is applied to the summarizer before the
// run.
func runDDP(t *testing.T, workers, samples int, prior provenance.Groups, with ...func(*core.Summarizer)) string {
	t.Helper()
	w := ddpWorkload(t)
	est := w.Estimator(datasets.CancelSingleAttribute)
	est.Parallelism = workers
	if samples > 0 {
		est.Samples = samples
		est.Rand = rand.New(rand.NewSource(5))
	}
	s, err := core.New(core.Config{
		Policy:    w.Policy,
		Estimator: est,
		WDist:     0.5,
		WSize:     0.5,
		MaxSteps:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range with {
		f(s)
	}
	var sum *core.Summary
	if prior != nil {
		sum, err = s.Extend(context.Background(), w.Prov, prior)
	} else {
		sum, err = s.Summarize(w.Prov)
	}
	if err != nil {
		t.Fatal(err)
	}
	if st := est.Stats(); st.DeltaCalls == 0 || st.DeltaSkips == 0 {
		t.Fatalf("DDP run did not delta-score: DeltaCalls=%d DeltaSkips=%d", st.DeltaCalls, st.DeltaSkips)
	}
	return mlSummaryKey(t, sum)
}

// TestDDPScoringModesIdentical is the determinism matrix's DDP rows: the
// seeded DDP workload summarized on its tropical block plan, in
// enumeration and in sampling mode, and an Extend run warm-started from
// a prior summary's groups (both modes), each at Parallelism 1 and 4,
// must reproduce the pinned summaries.
func TestDDPScoringModesIdentical(t *testing.T) {
	prior := ddpPrior(t)
	for _, row := range []struct {
		name    string
		samples int
		prior   provenance.Groups
		want    string
	}{
		{"summarize", 0, nil, ddpEnumKey},
		{"summarize-sampled", 80, nil, ddpSampKey},
		{"extend", 0, prior, extEnumKey},
		{"extend-sampled", 80, prior, extSampKey},
	} {
		for _, workers := range matrixWorkers {
			checkMatrixKey(t, fmt.Sprintf("%s workers=%d", row.name, workers), runDDP(t, workers, row.samples, row.prior), row.want)
		}
	}
}

// ddpPrior returns the groups of a short DDP summary, the prior
// partition the matrix's extend rows warm-start from.
func ddpPrior(t *testing.T) provenance.Groups {
	t.Helper()
	w := ddpWorkload(t)
	s, err := core.New(core.Config{Policy: w.Policy, Estimator: w.Estimator(datasets.CancelSingleAttribute), WDist: 0.5, WSize: 0.5, MaxSteps: 3})
	if err != nil {
		t.Fatal(err)
	}
	prior, err := s.Summarize(w.Prov)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior.Groups) == 0 {
		t.Fatal("prior run produced no groups")
	}
	return prior.Groups
}
