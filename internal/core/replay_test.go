// External test package: the replay tests run real seeded workloads
// from internal/datasets, like the determinism matrix.
package core_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/provenance"
	"repro/internal/randx"
)

// summaryDiff describes the first way got differs from want — trace
// (sizes and float bits included), expression tensor for tensor,
// mapping, groups, distance bits, stop reason, seed length — or
// returns "" when the two summaries agree.
func summaryDiff(got, want *core.Summary) string {
	if g, w := fmt.Sprintf("%#v", got.Steps), fmt.Sprintf("%#v", want.Steps); g != w {
		return fmt.Sprintf("steps\n%s\n--- want ---\n%s", g, w)
	}
	if d := exprDiff(got.Expr, want.Expr); d != "" {
		return "expression: " + d
	}
	switch {
	case !reflect.DeepEqual(got.Mapping, want.Mapping):
		return fmt.Sprintf("mapping %v, want %v", got.Mapping, want.Mapping)
	case !reflect.DeepEqual(got.Groups, want.Groups):
		return fmt.Sprintf("groups %v, want %v", got.Groups, want.Groups)
	case math.Float64bits(got.Dist) != math.Float64bits(want.Dist):
		return fmt.Sprintf("dist %b, want %b", got.Dist, want.Dist)
	case got.StopReason != want.StopReason || got.ExtendedFrom != want.ExtendedFrom:
		return fmt.Sprintf("stop %s from %d, want %s from %d", got.StopReason, got.ExtendedFrom, want.StopReason, want.ExtendedFrom)
	}
	return ""
}

// exprDiff compares two summary expressions: an aggregation tensor for
// tensor (polynomial structure, value bits, count and group, the %#v
// form printing every float in its shortest exact form), any other
// expression by its rendering.
func exprDiff(got, want provenance.Expression) string {
	g, gok := got.(*provenance.Agg)
	w, wok := want.(*provenance.Agg)
	if !gok || !wok {
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Sprintf("%v, want %v", got, want)
		}
		return ""
	}
	if g.Agg != w.Agg || len(g.Tensors) != len(w.Tensors) {
		return fmt.Sprintf("%s, want %s", g, w)
	}
	for i := range g.Tensors {
		if gt, wt := fmt.Sprintf("%#v", g.Tensors[i]), fmt.Sprintf("%#v", w.Tensors[i]); gt != wt {
			return fmt.Sprintf("tensor %d = %s, want %s", i, gt, wt)
		}
	}
	return ""
}

// replayConfig is the MovieLens configuration of the replay cases, on a
// fresh workload (merge naming depends on the universe's registrations,
// so each run gets its own). sampled turns on Monte-Carlo sampling and
// candidate capping, so both random streams ride through the replay.
func replayConfig(t *testing.T, workers int, sampled bool) (*datasets.Workload, core.Config) {
	t.Helper()
	w := movieLens(t)
	est := w.Estimator(datasets.CancelSingleAnnotation)
	est.Parallelism = workers
	cfg := core.Config{Policy: w.Policy, Estimator: est, WDist: 0.7, WSize: 0.3, MaxSteps: 6}
	if sampled {
		est.Samples = 8
		est.RandSrc = randx.NewSource(21)
		cfg.CandidateCap = 40
		cfg.RandSrc = randx.NewSource(33)
	}
	return w, cfg
}

// garbageCapStep replays seed on a plan of p0 the way the estimator does
// and returns the index of the first step whose patch the arena's
// garbage cap refuses (provenance.Plan.ApplyMerge returns next without a
// patch), or -1.
func garbageCapStep(t *testing.T, p0 provenance.Expression, seed []core.Step) int {
	t.Helper()
	plan := provenance.NewPlan(p0)
	for i, st := range seed {
		next, patch := plan.ApplyMerge(st.Members, st.New)
		switch {
		case next == nil:
			t.Fatalf("seed step %d (%v->%s) refused", i, st.Members, st.New)
		case patch == nil:
			return i
		}
	}
	return -1
}

// TestSeedReplayMatchesApply holds the plan replay of restored merges
// (distance.Estimator.Replay, one compiled plan patched step by step) to
// the Apply replay it replaces (core.ReplayByApply): a seeded Extend and
// a checkpoint Resume must produce the same summary either way — the
// same trace with its sizes, the expression tensor for tensor, the same
// mapping, groups and distance bits. The priors cover members absent
// from the expression, a group named after one of its members, and a
// seed long enough to trip the arena's garbage cap mid-replay; DDP
// replays on its block plan (TestDDPMergePatchMatchesApply holds whole
// DDP runs to Apply). Resuming from every checkpoint of a plain and
// of a seeded run must equal the uninterrupted run.
func TestSeedReplayMatchesApply(t *testing.T) {
	users := movieLens(t).Universe.InTable(datasets.MLUsersTable)
	movies := movieLens(t).Universe.InTable(datasets.MLMoviesTable)
	half := len(users) / 2
	priors := map[string]provenance.Groups{
		"absent-members": {
			"Ghost": {"UIDx900", "UIDx901"},
			"Mixed": {users[0], "UIDx999"},
			"Pair":  {users[4], users[5]},
		},
		"named-after-member": {
			users[2]: {users[2], users[3]},
			"Pair":   {users[6], users[7]},
		},
		"garbage-cap": {
			"G1": users[:half],
			"G2": users[half:],
			"G3": movies[:2],
		},
	}
	if i := garbageCapStep(t, movieLens(t).Prov, core.SeedSteps(priors["garbage-cap"])); i < 0 || i >= len(priors["garbage-cap"])-1 {
		t.Fatalf("garbage-cap seed: the cap trips at step %d, want one before the last of %d", i, len(priors["garbage-cap"]))
	}

	for name, prior := range priors {
		for _, row := range []struct {
			workers int
			sampled bool
		}{{1, false}, {4, false}, {1, true}} {
			t.Run(fmt.Sprintf("%s/workers=%d/sampled=%v", name, row.workers, row.sampled), func(t *testing.T) {
				var cps []core.Checkpoint
				extend := func(byApply bool) *core.Summary {
					w, cfg := replayConfig(t, row.workers, row.sampled)
					if !byApply {
						cfg.CheckpointSink = func(cp core.Checkpoint) error {
							cps = append(cps, cp)
							return nil
						}
					}
					s, err := core.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if byApply {
						core.ReplayByApply(s)
					}
					sum, err := s.Extend(context.Background(), w.Prov, prior)
					if err != nil {
						t.Fatal(err)
					}
					// Every own merge but the last is counted when the next
					// step begins; replayed merges count in neither counter.
					own := len(sum.Steps) - sum.ExtendedFrom
					if st := cfg.Estimator.Stats(); own < 1 || st.MergePatches+st.MergeRecompiles != uint64(own-1) {
						t.Fatalf("%d patches + %d recompiles counted for %d own merges, want %d", st.MergePatches, st.MergeRecompiles, own, own-1)
					}
					return sum
				}
				want := extend(true)
				if got := extend(false); summaryDiff(got, want) != "" {
					t.Fatalf("plan replay diverged from Apply replay: %s", summaryDiff(got, want))
				}
				if want.ExtendedFrom != len(core.SeedSteps(prior)) {
					t.Fatalf("ExtendedFrom = %d, want %d", want.ExtendedFrom, len(core.SeedSteps(prior)))
				}
				checkResumes(t, cps, want, row.workers, row.sampled)
			})
		}
	}

	t.Run("resume-plain", func(t *testing.T) {
		var cps []core.Checkpoint
		w, cfg := replayConfig(t, 1, false)
		cfg.CheckpointSink = func(cp core.Checkpoint) error {
			cps = append(cps, cp)
			return nil
		}
		s, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.Summarize(w.Prov)
		if err != nil {
			t.Fatal(err)
		}
		checkResumes(t, cps, want, 1, false)
	})

	t.Run("ddp", func(t *testing.T) {
		dw := ddpWorkload(t)
		s, err := core.New(core.Config{Policy: dw.Policy, Estimator: dw.Estimator(datasets.CancelSingleAttribute), WDist: 0.5, WSize: 0.5, MaxSteps: 4})
		if err != nil {
			t.Fatal(err)
		}
		base, err := s.Summarize(dw.Prov)
		if err != nil {
			t.Fatal(err)
		}
		prior := core.GroupsFromSteps(base.Steps)
		if len(prior) == 0 {
			t.Fatal("DDP base run merged nothing")
		}
		extend := func(byApply bool) *core.Summary {
			w := ddpWorkload(t)
			s, err := core.New(core.Config{Policy: w.Policy, Estimator: w.Estimator(datasets.CancelSingleAttribute), WDist: 0.5, WSize: 0.5, MaxSteps: 8})
			if err != nil {
				t.Fatal(err)
			}
			if byApply {
				core.ReplayByApply(s)
			}
			sum, err := s.Extend(context.Background(), w.Prov, prior)
			if err != nil {
				t.Fatal(err)
			}
			return sum
		}
		if got, want := extend(false), extend(true); summaryDiff(got, want) != "" {
			t.Fatalf("DDP replay diverged from Apply replay: %s", summaryDiff(got, want))
		}
	})
}

// checkResumes resumes from every checkpoint in cps, each in a fresh
// workload and summarizer (replayConfig), once through the plan replay
// and once through the Apply replay, and requires both to equal want,
// the uninterrupted run.
func checkResumes(t *testing.T, cps []core.Checkpoint, want *core.Summary, workers int, sampled bool) {
	t.Helper()
	if len(cps) == 0 {
		t.Fatal("the run emitted no checkpoints")
	}
	for _, cp := range cps {
		for _, byApply := range []bool{false, true} {
			w, cfg := replayConfig(t, workers, sampled)
			s, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if byApply {
				core.ReplayByApply(s)
			}
			got, err := s.Resume(context.Background(), w.Prov, &cp)
			if err != nil {
				t.Fatalf("resume at step %d (by Apply %v): %v", cp.Step, byApply, err)
			}
			if d := summaryDiff(got, want); d != "" {
				t.Fatalf("resume at step %d (by Apply %v) diverged from the uninterrupted run: %s", cp.Step, byApply, d)
			}
		}
	}
}

// TestGroupEquivalentReplayMatchesApply holds the Prop. 4.2.1 pre-step,
// which commits each class of equivalent annotations through the run's
// plan (distance.Run.Replay), to the Apply oracle (core.ReplayByApply)
// under Cancel Single Attribute, where users with one attribute profile
// are equivalent: the pre-step alone (no scored step) and a run that
// goes on scoring on the plan the replay left must both equal the
// oracle's summaries, at Parallelism 1 and 4.
func TestGroupEquivalentReplayMatchesApply(t *testing.T) {
	for _, workers := range matrixWorkers {
		for _, steps := range []int{-1, 4} {
			run := func(with ...func(*core.Summarizer)) *core.Summary {
				t.Helper()
				w := movieLens(t)
				est := w.Estimator(datasets.CancelSingleAttribute)
				est.Parallelism = workers
				cfg := core.Config{Policy: w.Policy, Estimator: est, WDist: 0.7, WSize: 0.3, MaxSteps: steps}
				if steps < 0 {
					cfg.MaxSteps, cfg.TargetSize = 0, w.Prov.Size()
				}
				s, err := core.New(cfg)
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
				return sum
			}
			got, want := run(), run(core.ReplayByApply)
			if d := summaryDiff(got, want); d != "" {
				t.Fatalf("workers=%d steps=%d: replayed pre-step differs from Apply: %s", workers, steps, d)
			}
			merged := 0
			for _, ms := range got.Groups {
				if len(ms) > 1 {
					merged++
				}
			}
			if steps < 0 && merged == 0 {
				t.Fatalf("workers=%d: the pre-step merged no class; groups %v", workers, got.Groups)
			}
		}
	}
}

// ddpReplayConfig is the DDP configuration of TestDDPMergePatchMatchesApply
// on a fresh workload: enumeration, or sampling with candidate capping,
// so both random streams ride through the checkpoints.
func ddpReplayConfig(t *testing.T, workers int, sampled bool) (*datasets.Workload, core.Config) {
	t.Helper()
	w := ddpWorkload(t)
	est := w.Estimator(datasets.CancelSingleAttribute)
	est.Parallelism = workers
	cfg := core.Config{Policy: w.Policy, Estimator: est, WDist: 0.5, WSize: 0.5, MaxSteps: 8}
	if sampled {
		est.Samples = 40
		est.RandSrc = randx.NewSource(23)
		cfg.CandidateCap = 20
		cfg.RandSrc = randx.NewSource(35)
	}
	return w, cfg
}

// TestDDPMergePatchMatchesApply holds a DDP run that patches its block
// plan at every merge (ddp.Plan.ApplyMerge through
// distance.Run.CommitMerge and Replay) to the run that commits and
// replays every merge by Apply (core.ApplyEveryMerge): Summarize, an
// Extend seeded from a prior summary, and a Resume from every
// checkpoint of both must produce the same summaries — the trace with
// its sizes and float bits, the expression, the mapping and the groups
// — at Parallelism 1 and 4, in enumeration and in sampling mode. The
// patched runs must patch every own merge but the last and fall back on
// none.
func TestDDPMergePatchMatchesApply(t *testing.T) {
	prior := ddpPrior(t)
	for _, workers := range matrixWorkers {
		for _, sampled := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/sampled=%v", workers, sampled), func(t *testing.T) {
				for _, seeded := range []bool{false, true} {
					var cps []core.Checkpoint
					run := func(byApply bool, cp *core.Checkpoint) *core.Summary {
						t.Helper()
						w, cfg := ddpReplayConfig(t, workers, sampled)
						if !byApply && cp == nil {
							cfg.CheckpointSink = func(c core.Checkpoint) error {
								cps = append(cps, c)
								return nil
							}
						}
						s, err := core.New(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if byApply {
							core.ApplyEveryMerge(s)
						}
						var sum *core.Summary
						switch {
						case cp != nil:
							sum, err = s.Resume(context.Background(), w.Prov, cp)
						case seeded:
							sum, err = s.Extend(context.Background(), w.Prov, prior)
						default:
							sum, err = s.Summarize(w.Prov)
						}
						if err != nil {
							t.Fatal(err)
						}
						st := cfg.Estimator.Stats()
						own := len(sum.Steps) - sum.ExtendedFrom
						switch {
						case byApply && st.MergePatches+st.MergeRecompiles != 0:
							t.Fatalf("the Apply run counted %d patches and %d recompiles", st.MergePatches, st.MergeRecompiles)
						case !byApply && cp == nil && (st.MergeRecompiles != 0 || st.MergePatches != uint64(own-1)):
							t.Fatalf("%d patches and %d recompiles for %d own merges, want %d patches", st.MergePatches, st.MergeRecompiles, own, own-1)
						}
						return sum
					}
					want := run(true, nil)
					got := run(false, nil)
					if d := summaryDiff(got, want); d != "" {
						t.Fatalf("seeded=%v: the patched run diverged from the Apply run: %s", seeded, d)
					}
					if len(got.Steps)-got.ExtendedFrom < 3 {
						t.Fatalf("seeded=%v: only %d own merges", seeded, len(got.Steps)-got.ExtendedFrom)
					}
					if len(cps) == 0 {
						t.Fatalf("seeded=%v: the run emitted no checkpoints", seeded)
					}
					for _, cp := range cps {
						for _, byApply := range []bool{false, true} {
							if d := summaryDiff(run(byApply, &cp), want); d != "" {
								t.Fatalf("seeded=%v: resume at step %d (by Apply %v) diverged: %s", seeded, cp.Step, byApply, d)
							}
						}
					}
				}
			})
		}
	}
}
