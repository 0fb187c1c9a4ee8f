package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
)

// stepAllocBudget bounds the mean allocations of one Algorithm 1 step
// after a MovieLens run's first (TestStepAllocBudget). A step allocates
// what its winner commits — the next expression's tensors, the patched
// plan's rows, the summary annotation's name and the cumulative mapping
// — plus the probes its free list cannot cover. It measured 152 (Go
// 1.24, linux/amd64); the budget leaves a third of headroom.
const stepAllocBudget = 200

// TestStepAllocBudget holds a run's steady-state step to its allocation
// budget: the run recycles its probes and carries its step tables, so a
// step after the first allocates little beyond what its merge commits.
// The run steps in its own goroutine, which the step observer parks
// between steps, and testing.AllocsPerRun counts the allocations of
// each step it lets through.
func TestStepAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the program's under the race detector")
	}
	w := movieLens(t)
	// quit releases the run's goroutine, which then finishes unparked,
	// when the test ends early.
	done, resume, quit := make(chan struct{}), make(chan struct{}), make(chan struct{})
	defer close(quit)
	s, err := core.New(core.Config{
		Policy: w.Policy, Estimator: w.Estimator(datasets.CancelSingleAnnotation),
		WDist: 0.7, WSize: 0.3,
		StepObserver: func(core.StepEvent) {
			select {
			case done <- struct{}{}:
			case <-quit:
				return
			}
			select {
			case <-resume:
			case <-quit:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	finished := make(chan error, 1)
	go func() {
		_, err := s.Summarize(w.Prov)
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
	allocs := testing.AllocsPerRun(8, step)
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
	if allocs > stepAllocBudget {
		t.Fatalf("a step allocates %.0f times, budget %d", allocs, stepAllocBudget)
	}
}
