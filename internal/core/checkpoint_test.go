// External test package: like the determinism matrix tests, the
// checkpoint tests run real seeded workloads from internal/datasets.
package core_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/distance"
	"repro/internal/randx"
)

// scoringRow is one row of the checkpoint and warm-start matrices. The
// row names predate the single scoring engine and are kept: "seq" rows
// score on one worker, "delta" rows on four, and "batch" rows take
// MovieLens with a negative constant (negMovieLens), which the
// estimator cannot plan: every run on it, fresh, resumed or extended,
// must be refused with a *distance.PlanError. sampled additionally
// turns on Monte-Carlo sampling and candidate capping, so both random
// streams are exercised.
type scoringRow struct {
	name    string
	workers int
	refused bool
	sampled bool
}

var scoringRows = []scoringRow{
	{name: "seq", workers: 1},
	{name: "batch", workers: 1, refused: true},
	{name: "delta", workers: 4},
	{name: "seq-sampled", workers: 1, sampled: true},
	{name: "batch-sampled", workers: 1, refused: true, sampled: true},
	{name: "delta-sampled", workers: 4, sampled: true},
}

// checkRefused fails unless err is the estimator's refusal of the input.
func checkRefused(t *testing.T, err error) {
	t.Helper()
	var pe *distance.PlanError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *distance.PlanError", err)
	}
}

// checkpointConfig builds a fresh workload + summarizer config for one
// matrix row, as a new process resuming from a checkpoint would.
func checkpointConfig(t *testing.T, row scoringRow) (*datasets.Workload, core.Config) {
	t.Helper()
	w := movieLens(t)
	if row.refused {
		w = negMovieLens(t)
	}
	est := w.Estimator(datasets.CancelSingleAnnotation)
	est.Parallelism = row.workers
	cfg := core.Config{
		Policy:    w.Policy,
		Estimator: est,
		WDist:     0.7,
		WSize:     0.3,
		MaxSteps:  6,
	}
	if row.sampled {
		est.Samples = 8
		est.RandSrc = randx.NewSource(21)
		cfg.CandidateCap = 40
		cfg.RandSrc = randx.NewSource(33)
	}
	return w, cfg
}

// TestResumeDeterminismMatrix is the acceptance criterion for the
// checkpoint layer: for each row (one scoring worker, four), a run
// checkpointed after every step and resumed from each snapshot — in a
// fresh workload, config and summarizer, as after a process restart —
// produces a byte-identical summary to the uninterrupted run. A refused
// row's input is refused fresh and when resuming each snapshot of the
// matching plannable run, after its trace replays, and nothing is
// journaled.
func TestResumeDeterminismMatrix(t *testing.T) {
	for _, tc := range scoringRows {
		t.Run(tc.name, func(t *testing.T) {
			// Uninterrupted run, collecting a checkpoint after every step.
			var cps []core.Checkpoint
			plain := tc
			plain.refused = false
			w, cfg := checkpointConfig(t, plain)
			cfg.CheckpointEvery = 1
			cfg.CheckpointSink = func(cp core.Checkpoint) error {
				cps = append(cps, cp)
				return nil
			}
			s, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sum, err := s.Summarize(w.Prov)
			if err != nil {
				t.Fatal(err)
			}
			want := mlSummaryKey(t, sum)
			journaled := 0
			sink := func(core.Checkpoint) error {
				journaled++
				return nil
			}
			if tc.refused {
				w2, cfg2 := checkpointConfig(t, tc)
				cfg2.CheckpointSink = sink
				s2, err := core.New(cfg2)
				if err != nil {
					t.Fatal(err)
				}
				_, err = s2.Summarize(w2.Prov)
				checkRefused(t, err)
			}
			if len(cps) < 3 {
				t.Fatalf("only %d checkpoints emitted", len(cps))
			}
			if cps[0].Step != 0 {
				t.Fatalf("first checkpoint at step %d, want 0 (pre-first-merge snapshot)", cps[0].Step)
			}
			if st := cfg.Estimator.Stats(); st.DeltaCalls == 0 {
				t.Fatal("the run made no delta calls")
			}

			for _, cp := range cps {
				cp := cp
				t.Run(fmt.Sprintf("resume-at-%d", cp.Step), func(t *testing.T) {
					w2, cfg2 := checkpointConfig(t, tc)
					cfg2.CheckpointSink = sink
					s2, err := core.New(cfg2)
					if err != nil {
						t.Fatal(err)
					}
					sum2, err := s2.Resume(context.Background(), w2.Prov, &cp)
					if tc.refused {
						checkRefused(t, err)
						if journaled != 0 {
							t.Fatalf("a refused run journaled %d checkpoints", journaled)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if got := mlSummaryKey(t, sum2); got != want {
						t.Fatalf("resume at step %d diverged:\n%s\n--- want ---\n%s", cp.Step, got, want)
					}
				})
			}
		})
	}
}

// TestCheckpointRunMatchesPlain pins that turning checkpointing on does
// not perturb the run itself (the sink only observes).
func TestCheckpointRunMatchesPlain(t *testing.T) {
	w, cfg := checkpointConfig(t, scoringRow{sampled: true})
	s, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Summarize(w.Prov)
	if err != nil {
		t.Fatal(err)
	}
	want := mlSummaryKey(t, sum)

	w2, cfg2 := checkpointConfig(t, scoringRow{sampled: true})
	cfg2.CheckpointEvery = 2
	cfg2.CheckpointSink = func(core.Checkpoint) error { return nil }
	s2, err := core.New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	sum2, err := s2.Summarize(w2.Prov)
	if err != nil {
		t.Fatal(err)
	}
	if got := mlSummaryKey(t, sum2); got != want {
		t.Fatalf("checkpointed run diverged from plain run:\n%s\n--- want ---\n%s", got, want)
	}
}

// TestSummarizeContextCancel pins the step-boundary cancellation
// contract: a canceled context stops the run and surfaces
// context.Canceled.
func TestSummarizeContextCancel(t *testing.T) {
	w, cfg := checkpointConfig(t, scoringRow{})
	ctx, cancel := context.WithCancel(context.Background())
	steps := 0
	cfg.StepObserver = func(core.StepEvent) {
		steps++
		if steps == 2 {
			cancel()
		}
	}
	s, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SummarizeContext(ctx, w.Prov); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if steps != 2 {
		t.Fatalf("run continued for %d steps after cancellation at 2", steps)
	}

	// An already-expired deadline surfaces DeadlineExceeded before any step.
	w2, cfg2 := checkpointConfig(t, scoringRow{})
	dctx, dcancel := context.WithTimeout(context.Background(), -1)
	defer dcancel()
	s2, err := core.New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.SummarizeContext(dctx, w2.Prov); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestCheckpointSinkErrorAborts pins that a failing sink aborts the run
// (persistence failures must not be silently dropped).
func TestCheckpointSinkErrorAborts(t *testing.T) {
	w, cfg := checkpointConfig(t, scoringRow{})
	sinkErr := errors.New("disk full")
	calls := 0
	cfg.CheckpointSink = func(cp core.Checkpoint) error {
		calls++
		if cp.Step >= 1 {
			return sinkErr
		}
		return nil
	}
	s, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Summarize(w.Prov); !errors.Is(err, sinkErr) {
		t.Fatalf("err = %v, want wrapped sink error", err)
	}
	if calls != 2 {
		t.Fatalf("sink called %d times, want 2 (step 0 ok, step 1 fails)", calls)
	}
}

// TestCheckpointRNGValidation pins the configuration errors that protect
// resume determinism: checkpointing a run whose RNG position cannot be
// captured is rejected up front, and resuming with mismatched RNG
// configuration is rejected at restore time.
func TestCheckpointRNGValidation(t *testing.T) {
	w, cfg := checkpointConfig(t, scoringRow{sampled: true})
	cfg.RandSrc = nil
	cfg.Rand = nil
	cfg.CandidateCap = 10
	cfg.CheckpointEvery = 1
	cfg.CheckpointSink = func(core.Checkpoint) error { return nil }
	// CandidateCap without Rand fails on the pre-existing check; give it
	// an unsnapshotable Rand instead.
	r, _ := randx.New(5)
	cfg.Rand = r
	if _, err := core.New(cfg); err == nil {
		t.Fatal("checkpointing with an unsnapshotable candidate RNG must be rejected")
	}

	_, cfg2 := checkpointConfig(t, scoringRow{sampled: true})
	cfg2.Estimator.RandSrc = nil
	cfg2.CheckpointEvery = 1
	cfg2.CheckpointSink = func(core.Checkpoint) error { return nil }
	if _, err := core.New(cfg2); err == nil {
		t.Fatal("checkpointing with an unsnapshotable estimator RNG must be rejected")
	}

	// A checkpoint from a non-sampled run cannot resume a sampled config.
	var cps []core.Checkpoint
	_, cfg3 := checkpointConfig(t, scoringRow{})
	cfg3.CheckpointEvery = 1
	cfg3.CheckpointSink = func(cp core.Checkpoint) error { cps = append(cps, cp); return nil }
	s, err := core.New(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Summarize(w.Prov); err != nil {
		t.Fatal(err)
	}
	w4, cfg4 := checkpointConfig(t, scoringRow{sampled: true})
	s4, err := core.New(cfg4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s4.Resume(context.Background(), w4.Prov, &cps[len(cps)-1]); err == nil {
		t.Fatal("resuming a sampled config from an RNG-less checkpoint must fail")
	}
}
