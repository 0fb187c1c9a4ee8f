package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/distance"
	"repro/internal/randx"
)

// TestCarryMatchesRebuild is the exactness test of the carried step
// state: every step of the determinism matrix — MovieLens and DDP, in
// enumeration and sampling mode, summarize and extend, at Parallelism 1
// and 4 — is replayed with core.CheckCarry, which after each committed
// step holds the carried pair list to a fresh enumeration and every
// carried probe to one built afresh on the same plan state, field by
// field. The pinned summaries must not move. MovieLens runs must carry
// probes; DDP's block-plan probes are built afresh every step, so its
// pair list and truth table carry.
func TestCarryMatchesRebuild(t *testing.T) {
	prior := ddpPrior(t)
	for _, workers := range matrixWorkers {
		carried := 0
		check := func(s *core.Summarizer) {
			core.CheckCarry(s, func(n int) { carried += n })
		}
		checkMatrixKey(t, fmt.Sprintf("movielens workers=%d", workers), runMovieLens(t, workers, 0, matrixSteps, check), mlEnumKey)
		checkMatrixKey(t, fmt.Sprintf("movielens-sampled workers=%d", workers), runMovieLens(t, workers, 8, 5, check), mlSampKey)
		if carried == 0 {
			t.Fatalf("workers=%d: no MovieLens step carried a probe", workers)
		}
		checkMatrixKey(t, fmt.Sprintf("ddp workers=%d", workers), runDDP(t, workers, 0, nil, check), ddpEnumKey)
		checkMatrixKey(t, fmt.Sprintf("ddp-sampled workers=%d", workers), runDDP(t, workers, 80, nil, check), ddpSampKey)
		checkMatrixKey(t, fmt.Sprintf("extend workers=%d", workers), runDDP(t, workers, 0, prior, check), extEnumKey)
		checkMatrixKey(t, fmt.Sprintf("extend-sampled workers=%d", workers), runDDP(t, workers, 80, prior, check), extSampKey)
	}
}

// TestCarryStatsMovieLens runs the MovieLens matrix workload to the end
// and checks the carry's counters: probes are carried, and every delta
// candidate's probe was either carried or built.
func TestCarryStatsMovieLens(t *testing.T) {
	w := movieLens(t)
	est := w.Estimator(datasets.CancelSingleAnnotation)
	var stepCarried uint64
	s, err := core.New(core.Config{
		Policy: w.Policy, Estimator: est, WDist: 0.7, WSize: 0.3,
		StepObserver: func(ev core.StepEvent) { stepCarried += ev.ProbesCarried },
	})
	if err != nil {
		t.Fatal(err)
	}
	core.CheckCarry(s, nil)
	if _, err := s.Summarize(w.Prov); err != nil {
		t.Fatal(err)
	}
	st := est.Stats()
	if st.ProbesCarried == 0 {
		t.Fatal("no probe was carried across a merge")
	}
	if st.ProbesCarried+st.ProbesBuilt != st.DeltaCandidates {
		t.Fatalf("ProbesCarried %d + ProbesBuilt %d != DeltaCandidates %d", st.ProbesCarried, st.ProbesBuilt, st.DeltaCandidates)
	}
	if stepCarried != st.ProbesCarried {
		t.Fatalf("StepEvent.ProbesCarried sums to %d, Stats.ProbesCarried is %d", stepCarried, st.ProbesCarried)
	}
}

// TestRecycledProbesCarry is the differential test of probe recycling
// under four sweep workers (CI runs it with -race): every probe a
// MovieLens run builds after its first step refills one the run dropped
// (distance.Stats.ProbesRecycled), and after every step core.CheckCarry
// holds the carried probes, pair list, base groups and truth table to a
// rebuild on the same plan state. The summary must stay the
// determinism matrix's. At merge arity 3 the growth rounds' probes,
// which no step keeps, are recycled too.
func TestRecycledProbesCarry(t *testing.T) {
	var afterFirst, firstBuilt uint64
	var est *distance.Estimator
	observe := func(ev core.StepEvent) {
		if ev.Step == 1 {
			firstBuilt = est.Stats().ProbesBuilt
		}
	}
	key := runMovieLens(t, 4, 0, matrixSteps, func(s *core.Summarizer) {
		est = core.EstimatorOf(s)
		core.ObserveSteps(s, observe)
		core.CheckCarry(s, nil)
	})
	checkMatrixKey(t, "movielens recycled workers=4", key, mlEnumKey)
	st := est.Stats()
	afterFirst = st.ProbesBuilt - firstBuilt
	if afterFirst == 0 || st.ProbesRecycled != afterFirst {
		t.Fatalf("%d probes built after the first step, %d of them recycled; want all of them", afterFirst, st.ProbesRecycled)
	}

	w := movieLens(t)
	est = w.Estimator(datasets.CancelSingleAnnotation)
	est.Parallelism = 4
	s, err := core.New(core.Config{Policy: w.Policy, Estimator: est, WDist: 0.7, WSize: 0.3, MaxSteps: 5, MergeArity: 3})
	if err != nil {
		t.Fatal(err)
	}
	core.CheckCarry(s, nil)
	if _, err := s.Summarize(w.Prov); err != nil {
		t.Fatal(err)
	}
	if st := est.Stats(); st.ProbesRecycled == 0 {
		t.Fatalf("arity 3: no probe recycled (%d built)", st.ProbesBuilt)
	}
}

// Pair-list edge cases, pinned to the summaries Algorithm 1 produced
// when it re-enumerated the pairs at every step, before pairs were
// carried.
const (
	capKey        = "518e411b6bff8bcf5501a68b09ec37f207c4848031234123967a464d286e1a7d"
	arity3Key     = "0f8aaa14e7031f068f70a829e5106c2393c13a961cf124db2040ff950b9908d5"
	registeredKey = "82dbdbf975427017a0dcc56ebc358832b560556146e7fd5cc7626f4c8fc4d004"
	resumedKey    = "e94fc35a9fb6fe482d6832f518f42ba4914234a4e70e153b82a3e8492d5653cf"
)

// TestPairListEdgeCases checks the carried pair list against
// re-enumeration at every step (core.CheckCarry) where carrying is
// easiest to get wrong, and pins each row's summary:
//   - CandidateCap: the sampled pairs must be the same permutation of
//     the same list;
//   - MergeArity 3: a merge removes three annotations;
//   - a taxonomy policy whose MergeName returns an already-registered
//     name (an LCA named before, or a member's own name);
//   - a run resumed from a mid-run checkpoint, which starts from an
//     empty carry and must equal the uninterrupted run.
func TestPairListEdgeCases(t *testing.T) {
	mlConfig := func() (*datasets.Workload, core.Config) {
		w := movieLens(t)
		return w, core.Config{
			Policy: w.Policy, Estimator: w.Estimator(datasets.CancelSingleAnnotation),
			WDist: 0.7, WSize: 0.3, MaxSteps: 10,
		}
	}
	run := func(w *datasets.Workload, cfg core.Config) *core.Summary {
		t.Helper()
		s, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		core.CheckCarry(s, nil)
		sum, err := s.Summarize(w.Prov)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}

	t.Run("candidate-cap", func(t *testing.T) {
		w, cfg := mlConfig()
		cfg.CandidateCap = 25
		cfg.Rand = rand.New(rand.NewSource(17))
		checkMatrixKey(t, "candidate-cap", mlSummaryKey(t, run(w, cfg)), capKey)
	})

	t.Run("arity-3", func(t *testing.T) {
		w, cfg := mlConfig()
		cfg.MergeArity = 3
		cfg.MaxSteps = 5
		sum := run(w, cfg)
		if !slices.ContainsFunc(sum.Steps, func(st core.Step) bool { return len(st.Members) == 3 }) {
			t.Fatal("no step merged three annotations")
		}
		checkMatrixKey(t, "arity-3", mlSummaryKey(t, sum), arity3Key)
	})

	t.Run("registered-name", func(t *testing.T) {
		w := datasets.Wikipedia(datasets.DefaultWikipediaConfig(), rand.New(rand.NewSource(3)))
		cfg := core.Config{
			Policy: w.Policy, Estimator: w.Estimator(datasets.CancelSingleAnnotation),
			WDist: 0.5, WSize: 0.5, MaxSteps: 12,
		}
		sum := run(w, cfg)
		reused := false
		for i, st := range sum.Steps {
			reused = reused || slices.Contains(st.Members, st.New) ||
				slices.ContainsFunc(sum.Steps[:i], func(p core.Step) bool { return p.New == st.New })
		}
		if !reused {
			t.Fatal("no step's summary annotation was already registered")
		}
		checkMatrixKey(t, "registered-name", mlSummaryKey(t, sum), registeredKey)
	})

	t.Run("resumed", func(t *testing.T) {
		sampled := func() (*datasets.Workload, core.Config) {
			w, cfg := mlConfig()
			cfg.Estimator.Samples = 8
			cfg.Estimator.RandSrc = randx.NewSource(21)
			cfg.CandidateCap = 25
			cfg.RandSrc = randx.NewSource(33)
			return w, cfg
		}
		w, cfg := sampled()
		var cps []core.Checkpoint
		cfg.CheckpointSink = func(cp core.Checkpoint) error {
			cps = append(cps, cp)
			return nil
		}
		want := mlSummaryKey(t, run(w, cfg))
		checkMatrixKey(t, "uninterrupted", want, resumedKey)
		cp := cps[len(cps)/2]
		w2, cfg2 := sampled()
		s, err := core.New(cfg2)
		if err != nil {
			t.Fatal(err)
		}
		core.CheckCarry(s, nil)
		sum, err := s.Resume(context.Background(), w2.Prov, &cp)
		if err != nil {
			t.Fatal(err)
		}
		if got := mlSummaryKey(t, sum); got != want {
			t.Fatalf("resume at step %d diverged:\n%s\n--- want ---\n%s", cp.Step, got, want)
		}
	})
}
