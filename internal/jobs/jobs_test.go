package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// blockingTask returns a task that signals when started and blocks until
// released or its context ends (returning the context error).
func blockingTask(started chan<- string, release <-chan struct{}, id string) Task {
	return func(ctx context.Context) (any, error) {
		if started != nil {
			started <- id
		}
		select {
		case <-release:
			return "ok:" + id, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func waitState(t *testing.T, j *Job, want State) Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("job %s did not finish: %v", j.ID, err)
	}
	if st.State != want {
		t.Fatalf("job %s state = %v, want %v (err %v)", j.ID, st.State, want, st.Err)
	}
	return st
}

// TestQueueFullBackpressure pins the backpressure contract: with one
// worker busy and the queue at capacity, the next submission fails fast
// with ErrQueueFull, and a freed slot accepts again.
func TestQueueFullBackpressure(t *testing.T) {
	m := New(Config{Workers: 1, Queue: 2})
	defer m.Shutdown(context.Background())

	started := make(chan string, 8)
	release := make(chan struct{})
	running, err := m.Submit("running", 0, blockingTask(started, release, "running"))
	if err != nil {
		t.Fatal(err)
	}
	<-started // the worker is now occupied

	for _, id := range []string{"q1", "q2"} {
		if _, err := m.Submit(id, 0, blockingTask(nil, release, id)); err != nil {
			t.Fatalf("submit %s: %v", id, err)
		}
	}
	if _, err := m.Submit("overflow", 0, blockingTask(nil, release, "overflow")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if _, err := m.Get("overflow"); !errors.Is(err, ErrNotFound) {
		t.Fatal("rejected submission must not be registered")
	}

	// Draining one queued job frees a slot.
	close(release)
	waitState(t, running, Done)
	q1, _ := m.Get("q1")
	waitState(t, q1, Done)
	if _, err := m.Submit("after", 0, blockingTask(nil, release, "after")); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
}

// TestCancelRunningReleasesWorker pins that canceling a running job ends
// it as Canceled with cause ErrCanceled and the worker picks up the next
// job.
func TestCancelRunningReleasesWorker(t *testing.T) {
	m := New(Config{Workers: 1, Queue: 4})
	defer m.Shutdown(context.Background())

	started := make(chan string, 8)
	release := make(chan struct{})
	j1, err := m.Submit("j1", 0, blockingTask(started, nil, "j1"))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	j2, err := m.Submit("j2", 0, blockingTask(started, release, "j2"))
	if err != nil {
		t.Fatal(err)
	}

	if err := m.Cancel("j1"); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, j1, Canceled)
	if !errors.Is(st.Cause, ErrCanceled) {
		t.Fatalf("cause = %v, want ErrCanceled", st.Cause)
	}
	// The worker moved on to j2.
	if got := <-started; got != "j2" {
		t.Fatalf("worker started %q next, want j2", got)
	}
	close(release)
	waitState(t, j2, Done)
}

// TestCancelQueued pins that a queued job cancels without ever running.
func TestCancelQueued(t *testing.T) {
	m := New(Config{Workers: 1, Queue: 4})
	defer m.Shutdown(context.Background())

	started := make(chan string, 8)
	release := make(chan struct{})
	defer close(release)
	if _, err := m.Submit("busy", 0, blockingTask(started, release, "busy")); err != nil {
		t.Fatal(err)
	}
	<-started

	ran := false
	queued, err := m.Submit("queued", 0, func(ctx context.Context) (any, error) {
		ran = true
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel("queued"); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, queued, Canceled)
	if st.StartedAt != (time.Time{}) || ran {
		t.Fatal("canceled queued job must never start")
	}
}

// TestDeadlineFails pins that a per-job deadline ends the job as Failed
// with cause DeadlineExceeded.
func TestDeadlineFails(t *testing.T) {
	m := New(Config{Workers: 1, Queue: 4})
	defer m.Shutdown(context.Background())

	j, err := m.Submit("slow", 10*time.Millisecond, func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, j, Failed)
	if !errors.Is(st.Err, context.DeadlineExceeded) || !errors.Is(st.Cause, context.DeadlineExceeded) {
		t.Fatalf("err = %v, cause = %v; want DeadlineExceeded", st.Err, st.Cause)
	}
}

// TestTaskFailure pins that a task's own error yields Failed with no
// context cause.
func TestTaskFailure(t *testing.T) {
	m := New(Config{Workers: 1, Queue: 4})
	defer m.Shutdown(context.Background())

	boom := errors.New("boom")
	j, err := m.Submit("bad", 0, func(ctx context.Context) (any, error) { return nil, boom })
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, j, Failed)
	if !errors.Is(st.Err, boom) || st.Cause != nil {
		t.Fatalf("err = %v, cause = %v; want boom, nil", st.Err, st.Cause)
	}
}

// TestTerminalHookRunsBeforeWaitersWake pins the order the server's
// quota release depends on: a job's terminal OnTransition hook runs
// before its Done channel closes, both when its task finishes and when
// it is canceled while queued, so no waiter sees the job finished while
// the hook still holds what the job held.
func TestTerminalHookRunsBeforeWaitersWake(t *testing.T) {
	var mu sync.Mutex
	early := map[string]bool{}
	m := New(Config{Workers: 1, Queue: 4, OnTransition: func(tr Transition) {
		if !tr.To.Terminal() {
			return
		}
		select {
		case <-tr.Job.Done():
			mu.Lock()
			early[tr.Job.ID] = true
			mu.Unlock()
		default:
		}
	}})
	defer m.Shutdown(context.Background())

	release := make(chan struct{})
	started := make(chan string, 1)
	finished, err := m.Submit("finished", 0, blockingTask(started, release, "finished"))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	canceled, err := m.Submit("canceled", 0, blockingTask(nil, nil, "canceled"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(canceled.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	waitState(t, finished, Done)
	waitState(t, canceled, Canceled)
	mu.Lock()
	defer mu.Unlock()
	for id := range early {
		t.Errorf("job %s: Done closed before its terminal hook ran", id)
	}
}

// TestShutdownInterruptsRunningKeepsQueued pins the crash-safe shutdown
// contract: running jobs are interrupted with cause ErrShutdown (so the
// server knows not to journal them as terminal), queued jobs never
// transition at all, and new submissions are refused.
func TestShutdownInterruptsRunningKeepsQueued(t *testing.T) {
	var mu sync.Mutex
	transitions := make(map[string][]State)
	m := New(Config{Workers: 1, Queue: 4, OnTransition: func(tr Transition) {
		mu.Lock()
		transitions[tr.Job.ID] = append(transitions[tr.Job.ID], tr.To)
		mu.Unlock()
	}})

	started := make(chan string, 8)
	running, err := m.Submit("running", 0, blockingTask(started, nil, "running"))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := m.Submit("queued", 0, blockingTask(nil, nil, "queued"))
	if err != nil {
		t.Fatal(err)
	}

	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, running, Failed)
	if !errors.Is(st.Cause, ErrShutdown) {
		t.Fatalf("cause = %v, want ErrShutdown", st.Cause)
	}
	if st := queued.Status(); st.State != Queued {
		t.Fatalf("queued job state = %v, want still Queued", st.State)
	}
	if _, err := m.Submit("late", 0, blockingTask(nil, nil, "late")); !errors.Is(err, ErrShutdown) {
		t.Fatalf("err = %v, want ErrShutdown", err)
	}

	mu.Lock()
	defer mu.Unlock()
	wantRunning := []State{Queued, Running, Failed}
	if got := transitions["running"]; len(got) != 3 || got[0] != wantRunning[0] || got[1] != wantRunning[1] || got[2] != wantRunning[2] {
		t.Fatalf("running transitions = %v, want %v", got, wantRunning)
	}
	if got := transitions["queued"]; len(got) != 1 || got[0] != Queued {
		t.Fatalf("queued transitions = %v, want [Queued] only", got)
	}
}

// TestDuplicateID pins that a live id cannot be reused but a terminal
// one can.
func TestDuplicateID(t *testing.T) {
	m := New(Config{Workers: 1, Queue: 4})
	defer m.Shutdown(context.Background())

	j, err := m.Submit("x", 0, func(ctx context.Context) (any, error) { return 42, nil })
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, Done)
	if st := j.Status(); st.Result != 42 {
		t.Fatalf("result = %v, want 42", st.Result)
	}
	if _, err := m.Submit("x", 0, func(ctx context.Context) (any, error) { return nil, nil }); err != nil {
		t.Fatalf("terminal id must be reusable: %v", err)
	}

	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	if _, err := m.Submit("live", 0, blockingTask(started, release, "live")); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Submit("live", 0, func(ctx context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
}

// TestParallelWorkers pins that Workers > 1 actually runs jobs
// concurrently.
func TestParallelWorkers(t *testing.T) {
	m := New(Config{Workers: 3, Queue: 8})
	defer m.Shutdown(context.Background())

	started := make(chan string, 8)
	release := make(chan struct{})
	var js []*Job
	for _, id := range []string{"a", "b", "c"} {
		j, err := m.Submit(id, 0, blockingTask(started, release, id))
		if err != nil {
			t.Fatal(err)
		}
		js = append(js, j)
	}
	for i := 0; i < 3; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of 3 jobs started concurrently", i)
		}
	}
	close(release)
	for _, j := range js {
		waitState(t, j, Done)
	}
}

// TestCoalescedSubmissionsShareOneRun pins the singleflight contract: N
// submissions under one dedup key run the task exactly once and every
// waiter sees the shared result.
func TestCoalescedSubmissionsShareOneRun(t *testing.T) {
	m := New(Config{Workers: 2, Queue: 8})
	defer m.Shutdown(context.Background())

	started := make(chan string, 8)
	release := make(chan struct{})
	var runs int32
	task := func(ctx context.Context) (any, error) {
		atomic.AddInt32(&runs, 1)
		return blockingTask(started, release, "k")(ctx)
	}

	first, coalesced, err := m.SubmitCoalesced("j1", "key", 0, task)
	if err != nil || coalesced {
		t.Fatalf("first submission: job=%v coalesced=%v err=%v", first, coalesced, err)
	}
	<-started

	var dupes []*Job
	for i := 0; i < 3; i++ {
		j, coalesced, err := m.SubmitCoalesced("ignored", "key", 0, task)
		if err != nil || !coalesced || j != first {
			t.Fatalf("dupe %d: job=%p coalesced=%v err=%v, want %p true nil", i, j, coalesced, err, first)
		}
		dupes = append(dupes, j)
	}
	if n := first.Waiters(); n != 4 {
		t.Fatalf("waiters = %d, want 4", n)
	}

	close(release)
	for _, j := range append(dupes, first) {
		st := waitState(t, j, Done)
		if st.Result != "ok:k" {
			t.Fatalf("result = %v", st.Result)
		}
	}
	if got := atomic.LoadInt32(&runs); got != 1 {
		t.Fatalf("task ran %d times, want 1", got)
	}

	// After the job is terminal the key is retired: a new submission under
	// it starts a fresh job.
	release2 := make(chan struct{})
	close(release2)
	fresh, coalesced, err := m.SubmitCoalesced("j2", "key", 0, blockingTask(nil, release2, "k2"))
	if err != nil || coalesced {
		t.Fatalf("post-terminal submission: coalesced=%v err=%v", coalesced, err)
	}
	if fresh == first {
		t.Fatal("post-terminal submission must not reuse the finished job")
	}
	waitState(t, fresh, Done)
}

// TestLeaveKeepsCoalescedWaiters pins the cancel semantics of shared
// jobs: the first waiter leaving must not kill the computation the
// others are waiting on; the last one leaving cancels it.
func TestLeaveKeepsCoalescedWaiters(t *testing.T) {
	m := New(Config{Workers: 1, Queue: 8})
	defer m.Shutdown(context.Background())

	started := make(chan string, 8)
	release := make(chan struct{})
	j, _, err := m.SubmitCoalesced("j1", "key", 0, blockingTask(started, release, "k"))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, coalesced, _ := m.SubmitCoalesced("x", "key", 0, nil); !coalesced {
		t.Fatal("second submission should coalesce")
	}

	remaining, err := m.Leave("j1")
	if err != nil || remaining != 1 {
		t.Fatalf("first Leave: remaining=%d err=%v, want 1 nil", remaining, err)
	}
	select {
	case <-j.Done():
		t.Fatal("job must keep running while a waiter remains")
	case <-time.After(50 * time.Millisecond):
	}

	remaining, err = m.Leave("j1")
	if err != nil || remaining != 0 {
		t.Fatalf("last Leave: remaining=%d err=%v, want 0 nil", remaining, err)
	}
	st := waitState(t, j, Canceled)
	if !errors.Is(st.Cause, ErrCanceled) {
		t.Fatalf("cause = %v, want ErrCanceled", st.Cause)
	}
}

// TestLeaveQueuedCoalesced pins Leave on a job that never started: the
// last leaver cancels it in place and it never runs.
func TestLeaveQueuedCoalesced(t *testing.T) {
	m := New(Config{Workers: 1, Queue: 8})
	defer m.Shutdown(context.Background())

	started := make(chan string, 8)
	release := make(chan struct{})
	defer close(release)
	if _, err := m.Submit("busy", 0, blockingTask(started, release, "busy")); err != nil {
		t.Fatal(err)
	}
	<-started

	j, _, err := m.SubmitCoalesced("j1", "key", 0, blockingTask(nil, nil, "never"))
	if err != nil {
		t.Fatal(err)
	}
	if remaining, err := m.Leave("j1"); err != nil || remaining != 0 {
		t.Fatalf("Leave: remaining=%d err=%v", remaining, err)
	}
	st := waitState(t, j, Canceled)
	if st.StartedAt != (time.Time{}) {
		t.Fatal("canceled queued job must never start")
	}
	// Its key is free again.
	if _, coalesced, err := m.SubmitCoalesced("j2", "key", 0, blockingTask(nil, nil, "n2")); err != nil || coalesced {
		t.Fatalf("key not retired: coalesced=%v err=%v", coalesced, err)
	}
}

// TestCoalescedRace hammers concurrent identical submissions to verify
// exactly-one-run under contention.
func TestCoalescedRace(t *testing.T) {
	m := New(Config{Workers: 4, Queue: 64})
	defer m.Shutdown(context.Background())

	var runs int32
	release := make(chan struct{})
	task := func(ctx context.Context) (any, error) {
		atomic.AddInt32(&runs, 1)
		select {
		case <-release:
			return "ok", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	const n = 32
	jobsCh := make(chan *Job, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, _, err := m.SubmitCoalesced(fmt.Sprintf("j%d", i), "key", 0, task)
			if err != nil {
				t.Error(err)
				return
			}
			jobsCh <- j
		}(i)
	}
	wg.Wait()
	close(release)
	close(jobsCh)
	for j := range jobsCh {
		waitState(t, j, Done)
	}
	if got := atomic.LoadInt32(&runs); got != 1 {
		t.Fatalf("task ran %d times, want 1", got)
	}
}

// TestQueueFullRollbackNoOrphanedCoalesce pins the SubmitTraced
// rollback ordering: a submission rejected for a full queue must never
// become discoverable under its dedup key, even transiently. Before the
// fix the job was registered in m.jobs/m.keyed first and rolled back
// after the failed queue send, so a concurrent SubmitCoalesced could
// join the doomed job inside that window and wait forever on a job no
// worker would ever run. The test saturates the queue, then hammers one
// dedup key from several goroutines (yielding so the race window gets
// scheduled even on GOMAXPROCS=1): every submission must be rejected
// with ErrQueueFull, so any coalesced join is a join onto a doomed
// registration — it must still be tracked by the manager and must
// terminate once the backlog drains.
func TestQueueFullRollbackNoOrphanedCoalesce(t *testing.T) {
	m := New(Config{Workers: 1, Queue: 1})
	defer m.Shutdown(context.Background())

	started := make(chan string, 1)
	release := make(chan struct{})
	if _, err := m.Submit("running", 0, blockingTask(started, release, "running")); err != nil {
		t.Fatal(err)
	}
	<-started // worker occupied
	if _, err := m.Submit("queued", 0, blockingTask(nil, release, "queued")); err != nil {
		t.Fatal(err)
	}
	// The queue is now saturated and stays saturated: nothing drains
	// until release closes, so every further submission must be
	// rejected — atomically, without a visible registration window.

	var (
		mu     sync.Mutex
		joined []*Job
		nJoins atomic.Int64
		stop   = make(chan struct{})
		wg     sync.WaitGroup
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				j, coalesced, err := m.SubmitCoalesced(fmt.Sprintf("b%d-%d", w, i), "k", 0, blockingTask(nil, release, "b"))
				if err != nil {
					if !errors.Is(err, ErrQueueFull) {
						t.Errorf("spinner %d: err = %v, want ErrQueueFull", w, err)
					}
					continue
				}
				if !coalesced {
					t.Errorf("spinner %d created a fresh job on a saturated queue", w)
					continue
				}
				if nJoins.Add(1) <= 16 {
					mu.Lock()
					joined = append(joined, j)
					mu.Unlock()
				}
			}
		}(w)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for i := 0; nJoins.Load() == 0 && time.Now().Before(deadline); i++ {
		if _, _, err := m.SubmitTraced(fmt.Sprintf("a%d", i), "k", "", 0, blockingTask(nil, release, "a")); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("traced submission %d on a full queue: err = %v, want ErrQueueFull", i, err)
		}
		if i%8 == 0 {
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()

	// Joining a live keyed job is only legal if that job is real:
	// tracked by the manager and destined to run.
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, j := range joined {
		if _, err := m.Get(j.ID); err != nil {
			t.Fatalf("coalesced onto untracked job %s: %v", j.ID, err)
		}
		if _, err := j.Wait(ctx); err != nil {
			t.Fatalf("coalesced job %s never terminated: %v", j.ID, err)
		}
	}
}
