package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/provenance"
)

// stepAllocBudget bounds the mean allocations of one Algorithm 1 step
// after a MovieLens run's first (TestStepAllocBudget). A step allocates
// what its winner commits — the next expression's tensors, the patched
// plan's rows, the summary annotation's name and the cumulative mapping
// — plus the probes its free list cannot cover. It measured 152 (Go
// 1.24, linux/amd64); the budget leaves a third of headroom.
const stepAllocBudget = 200

// ddpStepAllocBudget bounds the mean allocations of one Algorithm 1
// step after a DDP run's first (TestDDPStepAllocBudget). A step
// allocates what its winner commits — the patched plan's next
// expression, the survivors' renamed executions and keys, the summary
// annotation's name and the cumulative mapping — plus the cohort's
// block-plan probes, which are built afresh every step. It measured 162
// (Go 1.24, linux/amd64); the budget leaves a fifth of headroom.
const ddpStepAllocBudget = 200

// TestStepAllocBudget holds a run's steady-state step to its allocation
// budget: the run recycles its probes and carries its step tables, so a
// step after the first allocates little beyond what its merge commits.
func TestStepAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the program's under the race detector")
	}
	w := movieLens(t)
	allocs := stepAllocs(t, w.Prov, core.Config{
		Policy: w.Policy, Estimator: w.Estimator(datasets.CancelSingleAnnotation),
		WDist: 0.7, WSize: 0.3,
	}, 8)
	if allocs > stepAllocBudget {
		t.Fatalf("a step allocates %.0f times, budget %d", allocs, stepAllocBudget)
	}
}

// TestDDPStepAllocBudget is TestStepAllocBudget on the DDP workload of
// the determinism matrix: the run patches its block plan at every
// commit and carries its truth table, so a step after the first
// compiles nothing and rebuilds no table.
func TestDDPStepAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the program's under the race detector")
	}
	w := ddpWorkload(t)
	allocs := stepAllocs(t, w.Prov, core.Config{
		Policy: w.Policy, Estimator: w.Estimator(datasets.CancelSingleAttribute),
		WDist: 0.5, WSize: 0.5,
	}, 6)
	if allocs > ddpStepAllocBudget {
		t.Fatalf("a DDP step allocates %.0f times, budget %d", allocs, ddpStepAllocBudget)
	}
}

// stepAllocs summarizes p0 under cfg and returns the mean allocations of
// the runs steps after the first. The run steps in its own goroutine,
// which the step observer parks between steps, and
// testing.AllocsPerRun counts the allocations of each step it lets
// through (one warm-up step, then runs measured ones).
func stepAllocs(t *testing.T, p0 provenance.Expression, cfg core.Config, runs int) float64 {
	t.Helper()
	// quit releases the run's goroutine, which then finishes unparked,
	// when the test ends early.
	done, resume, quit := make(chan struct{}), make(chan struct{}), make(chan struct{})
	defer close(quit)
	cfg.StepObserver = func(core.StepEvent) {
		select {
		case done <- struct{}{}:
		case <-quit:
			return
		}
		select {
		case <-resume:
		case <-quit:
		}
	}
	s, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	finished := make(chan error, 1)
	go func() {
		_, err := s.Summarize(p0)
		close(done)
		finished <- err
	}()
	stopped := false
	step := func() {
		if stopped {
			return
		}
		resume <- struct{}{}
		_, open := <-done
		stopped = !open
	}
	if _, open := <-done; !open {
		t.Fatal("the run stopped before its first step")
	}
	allocs := testing.AllocsPerRun(runs, step)
	if stopped {
		t.Fatal("the run stopped before the measured steps ended")
	}
	for !stopped {
		step()
	}
	if err := <-finished; err != nil {
		t.Fatal(err)
	}
	t.Logf("%.0f allocations per step", allocs)
	return allocs
}
