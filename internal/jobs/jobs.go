// Package jobs is a bounded-queue worker pool for asynchronous
// summarization. Submissions beyond the queue capacity are rejected
// with ErrQueueFull (the server maps this to 429) rather than blocking
// or growing without bound. Every job runs under its own context, so it
// can be canceled individually, expire on a per-job deadline, or be
// interrupted collectively on shutdown — and the three are
// distinguishable by the context cause, which is what lets the server
// journal a user cancelation as terminal while leaving a
// shutdown-interrupted job requeueable after restart.
//
// The queue has two priority lanes. Interactive submissions (the
// latency-sensitive request path) and bulk submissions (batch work that
// tolerates waiting) park in separate bounded backlogs, and workers
// drain them with a weighted preference: an idle worker always takes
// interactive work first, so queued bulk jobs never delay an
// interactive one, but every BulkEvery-th dequeue offers the bulk lane
// first so a sustained interactive stream cannot starve bulk work
// forever.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// State is a job's lifecycle position.
type State int

const (
	Queued State = iota
	Running
	Done
	Failed
	Canceled
)

// String returns the persisted spelling of the state (shared with
// internal/store's job records).
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Canceled:
		return "canceled"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Canceled }

// Lane is a submission's priority class.
type Lane int

const (
	// LaneInteractive is the latency-sensitive lane: workers prefer it.
	LaneInteractive Lane = iota
	// LaneBulk is the batch lane: drained only when the interactive lane
	// is empty, except for the periodic anti-starvation pick.
	LaneBulk
)

// String returns the lane's metric/journal label.
func (l Lane) String() string {
	if l == LaneBulk {
		return "bulk"
	}
	return "interactive"
}

// ParseLane is String's inverse; unknown spellings fall back to
// interactive (the safe default for records written before lanes
// existed).
func ParseLane(s string) Lane {
	if s == "bulk" {
		return LaneBulk
	}
	return LaneInteractive
}

var (
	// ErrQueueFull rejects a submission when the queue is at capacity.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrShutdown is the cancel cause of jobs interrupted by Shutdown.
	// Jobs ending with this cause were not canceled by anyone's choice;
	// the server leaves them un-journaled so they requeue on restart.
	ErrShutdown = errors.New("jobs: manager shutting down")
	// ErrCanceled is the cancel cause of an explicit Cancel call.
	ErrCanceled = errors.New("jobs: job canceled")
	// ErrNotFound is returned for unknown job ids.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrDuplicate rejects a submission reusing a live job id.
	ErrDuplicate = errors.New("jobs: duplicate job id")
)

// Task is the unit of work. It must honor ctx: cancellation, deadline
// and shutdown all arrive through it. The returned value is kept as the
// job's result.
type Task func(ctx context.Context) (any, error)

// Transition reports one state change. Hooks must not call back into
// the Manager or the Job (the job's lock is held); they are invoked in
// transition order for any single job.
type Transition struct {
	Job   *Job
	From  State
	To    State
	Err   error // terminal error, if any
	Cause error // context cause that produced it (ErrCanceled, ErrShutdown, context.DeadlineExceeded), nil otherwise
	// Latency is the queued→terminal duration, set on terminal transitions.
	Latency time.Duration
}

// Config configures a Manager.
type Config struct {
	// Workers is the number of concurrent jobs (default 1).
	Workers int
	// Queue is the interactive-lane backlog capacity beyond running jobs
	// (default 16).
	Queue int
	// BulkQueue is the bulk-lane backlog capacity (default: Queue). Bulk
	// work tolerates waiting, so it typically gets the deeper backlog.
	BulkQueue int
	// BulkEvery makes every BulkEvery-th dequeue per worker offer the
	// bulk lane first, so a sustained interactive stream cannot starve
	// bulk work forever (default 4; values < 2 keep the default).
	BulkEvery int
	// OnTransition, when set, observes every state change — the server
	// uses it to journal job records and update metrics. A terminal
	// transition's hook returns before the job's Done channel closes.
	OnTransition func(Transition)
}

// Manager owns the two-lane queue and the worker pool.
type Manager struct {
	cfg    Config
	lanes  [2]chan *Job // indexed by Lane
	base   context.Context
	cancel context.CancelCauseFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	keyed    map[string]*Job // live job per dedup key (singleflight)
	shutdown bool
}

// Job is one submitted task. All exported methods are safe for
// concurrent use.
type Job struct {
	ID string

	m       *Manager
	key     string // dedup key, "" when not coalescible
	trace   string // opaque trace context (W3C traceparent), "" when untraced
	lane    Lane
	task    Task
	timeout time.Duration
	done    chan struct{}
	// enqueued is closed once Submit has observed the Queued transition;
	// workers wait on it so per-job transitions stay ordered.
	enqueued chan struct{}

	mu        sync.Mutex
	state     State
	waiters   int // submissions coalesced onto this job (>= 1)
	err       error
	cause     error
	result    any
	cancel    context.CancelCauseFunc // set while running
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// New starts a Manager with cfg.Workers workers.
func New(cfg Config) *Manager {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 16
	}
	if cfg.BulkQueue <= 0 {
		cfg.BulkQueue = cfg.Queue
	}
	if cfg.BulkEvery < 2 {
		cfg.BulkEvery = 4
	}
	base, cancel := context.WithCancelCause(context.Background())
	m := &Manager{
		cfg:    cfg,
		base:   base,
		cancel: cancel,
		jobs:   make(map[string]*Job),
		keyed:  make(map[string]*Job),
	}
	m.lanes[LaneInteractive] = make(chan *Job, cfg.Queue)
	m.lanes[LaneBulk] = make(chan *Job, cfg.BulkQueue)
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Submit enqueues a task under id. A zero timeout means no per-job
// deadline. Returns ErrQueueFull when the backlog is at capacity,
// ErrShutdown after Shutdown, and ErrDuplicate if id names a live job.
func (m *Manager) Submit(id string, timeout time.Duration, task Task) (*Job, error) {
	j, _, err := m.SubmitCoalesced(id, "", timeout, task)
	return j, err
}

// SubmitCoalesced is Submit with singleflight deduplication: when key
// is non-empty and names a live job, no new job is created — the live
// job gains a waiter and is returned with coalesced=true (id, timeout
// and task are ignored). Otherwise a fresh job is enqueued under id
// with one waiter. Waiters abandon the shared job via Leave; it is
// canceled only when the last one leaves.
func (m *Manager) SubmitCoalesced(id, key string, timeout time.Duration, task Task) (*Job, bool, error) {
	return m.SubmitTraced(id, key, "", timeout, task)
}

// SubmitTraced is SubmitCoalesced carrying an opaque trace context (a
// W3C traceparent value) that the worker injects into the task's
// context — retrievable there via TraceFromContext — so a job executes
// under the trace of the request that submitted it, across queueing and
// even across a restart when the trace is persisted with the job
// record. Coalesced submissions keep the live job's original trace;
// callers can read it back with Trace. The job queues on the
// interactive lane; use SubmitLane for bulk work.
func (m *Manager) SubmitTraced(id, key, trace string, timeout time.Duration, task Task) (*Job, bool, error) {
	return m.SubmitLane(id, key, trace, LaneInteractive, timeout, task)
}

// SubmitLane is SubmitTraced with an explicit priority lane. Each lane
// has its own backlog capacity; ErrQueueFull reports the submitted
// lane's backlog being at capacity (the other lane may still have
// room). A coalesced submission joins the live job wherever it is
// queued — the live job keeps its original lane.
func (m *Manager) SubmitLane(id, key, trace string, lane Lane, timeout time.Duration, task Task) (*Job, bool, error) {
	if lane != LaneBulk {
		lane = LaneInteractive
	}
	j := &Job{
		ID: id, m: m, key: key, trace: trace, lane: lane, task: task, timeout: timeout,
		done: make(chan struct{}), enqueued: make(chan struct{}),
		state: Queued, waiters: 1, submitted: time.Now(),
	}
	m.mu.Lock()
	if m.shutdown {
		m.mu.Unlock()
		return nil, false, ErrShutdown
	}
	if key != "" {
		if prev, ok := m.keyed[key]; ok && prev.addWaiter() {
			m.mu.Unlock()
			return prev, true, nil
		}
	}
	if prev, ok := m.jobs[id]; ok && !prev.Status().State.Terminal() {
		m.mu.Unlock()
		return nil, false, fmt.Errorf("%w: %s", ErrDuplicate, id)
	}
	// Reserve the lane's queue slot before the job becomes discoverable.
	// The send cannot block (default branch), and ordering it before the
	// map registration closes a rollback race: were the job published
	// first and then rolled back on a full queue, a concurrent
	// SubmitCoalesced could join it via m.keyed in the window and wait
	// forever on a job no worker will ever run. The worker parks on
	// j.enqueued, so taking the slot under m.mu does not let the job
	// start early.
	select {
	case m.lanes[lane] <- j:
	default:
		m.mu.Unlock()
		return nil, false, ErrQueueFull
	}
	m.jobs[id] = j
	if key != "" {
		m.keyed[key] = j
	}
	m.mu.Unlock()

	m.observe(Transition{Job: j, From: Queued, To: Queued})
	close(j.enqueued)
	return j, false, nil
}

// addWaiter joins a coalesced submission onto the job, failing if the
// job is already terminal (its result may predate the caller's
// submission; the caller should start a fresh job).
func (j *Job) addWaiter() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.waiters++
	return true
}

// Waiters reports how many submissions are coalesced onto the job.
func (j *Job) Waiters() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.waiters
}

// Leave detaches one waiter from a job, returning how many remain. The
// job itself is canceled only when the last waiter leaves — one
// client's cancelation must not kill a computation other clients are
// still waiting on.
func (m *Manager) Leave(id string) (int, error) {
	j, err := m.Get(id)
	if err != nil {
		return 0, err
	}
	j.mu.Lock()
	if j.waiters > 0 {
		j.waiters--
	}
	remaining := j.waiters
	j.mu.Unlock()
	if remaining > 0 {
		return remaining, nil
	}
	return 0, m.Cancel(id)
}

// dropKey retires j's singleflight registration once it is terminal,
// so later identical submissions start a fresh job (typically after a
// cache check).
func (m *Manager) dropKey(j *Job) {
	if j.key == "" {
		return
	}
	m.mu.Lock()
	if m.keyed[j.key] == j {
		delete(m.keyed, j.key)
	}
	m.mu.Unlock()
}

// Get returns a job by id.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return j, nil
}

// Cancel cancels a job: a queued job becomes Canceled immediately (the
// worker skips it), a running job has its context canceled with cause
// ErrCanceled and reaches Canceled when its task returns. Canceling a
// terminal job is a no-op.
func (m *Manager) Cancel(id string) error {
	j, err := m.Get(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	switch j.state {
	case Queued:
		j.finish(Canceled, ErrCanceled, ErrCanceled)
		tr := j.transition(Queued, Canceled)
		j.mu.Unlock()
		m.dropKey(j)
		m.observe(tr)
		close(j.done)
	case Running:
		cancel := j.cancel
		j.mu.Unlock()
		cancel(ErrCanceled)
	default:
		j.mu.Unlock()
	}
	return nil
}

// Shutdown stops accepting submissions, interrupts running jobs with
// cause ErrShutdown, and waits (up to ctx) for workers to drain. Queued
// jobs are left queued: with a persistent store behind the server they
// requeue on the next startup.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.shutdown = true
	m.mu.Unlock()
	m.cancel(ErrShutdown)

	doneCh := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(doneCh)
	}()
	select {
	case <-doneCh:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobs: shutdown: %w", ctx.Err())
	}
}

// QueueDepth reports the current backlog length across both lanes
// (excluding running jobs).
func (m *Manager) QueueDepth() int {
	return len(m.lanes[LaneInteractive]) + len(m.lanes[LaneBulk])
}

// LaneDepth reports one lane's current backlog length.
func (m *Manager) LaneDepth(lane Lane) int {
	if lane != LaneBulk {
		lane = LaneInteractive
	}
	return len(m.lanes[lane])
}

func (m *Manager) observe(tr Transition) {
	if m.cfg.OnTransition != nil {
		m.cfg.OnTransition(tr)
	}
}

func (m *Manager) worker() {
	defer m.wg.Done()
	picks := 0
	for {
		// Prefer exit over draining the backlog: queued jobs survive
		// shutdown un-run (and, journaled as queued, requeue on restart).
		select {
		case <-m.base.Done():
			return
		default:
		}
		picks++
		j := m.dequeue(picks)
		if j == nil {
			return
		}
		m.run(j)
	}
}

// dequeue takes the next job with a weighted lane preference: the
// preferred lane is drained first whenever it has work, and the
// blocking select below only gets a say when it is empty at the moment
// of the pick. Interactive is preferred on all but every BulkEvery-th
// pick, when bulk goes first — the anti-starvation valve. Returns nil
// on shutdown.
func (m *Manager) dequeue(pick int) *Job {
	preferred, other := m.lanes[LaneInteractive], m.lanes[LaneBulk]
	if pick%m.cfg.BulkEvery == 0 {
		preferred, other = other, preferred
	}
	select {
	case j := <-preferred:
		return j
	default:
	}
	select {
	case <-m.base.Done():
		return nil
	case j := <-preferred:
		return j
	case j := <-other:
		return j
	}
}

func (m *Manager) run(j *Job) {
	<-j.enqueued
	ctx, cancel := context.WithCancelCause(m.base)
	defer cancel(nil)
	if j.trace != "" {
		ctx = ContextWithTrace(ctx, j.trace)
	}
	if j.timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, j.timeout)
		defer tcancel()
	}

	j.mu.Lock()
	if j.state != Queued { // canceled while queued
		j.mu.Unlock()
		return
	}
	j.state = Running
	j.started = time.Now()
	j.cancel = cancel
	tr := j.transition(Queued, Running)
	j.mu.Unlock()
	m.observe(tr)

	result, err := j.task(ctx)

	cause := context.Cause(ctx)
	var to State
	switch {
	case err == nil:
		to, cause = Done, nil
	case errors.Is(err, ErrCanceled) || errors.Is(cause, ErrCanceled):
		to = Canceled
	default:
		// Deadline, shutdown, or a failure of the task's own. The cause
		// is only meaningful when the context interruption is what the
		// task tripped on.
		to = Failed
		if !isContextErr(err) {
			cause = nil
		}
	}

	j.mu.Lock()
	j.result = result
	j.finish(to, err, cause)
	tr = j.transition(Running, to)
	j.mu.Unlock()
	// Retire the singleflight key before announcing the terminal state:
	// once observers (which publish results to caches) have run, a new
	// identical submission must start fresh rather than attach to a
	// finished job.
	m.dropKey(j)
	m.observe(tr)
	// Wake the waiters only now: the hooks release what the job held (the
	// server's tenant job slot), and a waiter that answers its client
	// before the release would let the client's next request be refused.
	close(j.done)
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// finish records the terminal fields; callers hold j.mu, and close
// j.done once the terminal transition's hooks have run.
func (j *Job) finish(to State, err, cause error) {
	j.state = to
	if to != Done {
		j.err = err
	}
	j.cause = cause
	j.finished = time.Now()
}

// transition builds the hook payload; callers hold j.mu.
func (j *Job) transition(from, to State) Transition {
	tr := Transition{Job: j, From: from, To: to, Err: j.err, Cause: j.cause}
	if to.Terminal() {
		tr.Latency = j.finished.Sub(j.submitted)
	}
	return tr
}

// Status is a point-in-time snapshot of a job.
type Status struct {
	ID     string
	State  State
	Err    error
	Cause  error
	Result any

	SubmittedAt time.Time
	StartedAt   time.Time // zero until Running
	FinishedAt  time.Time // zero until terminal
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID: j.ID, State: j.state, Err: j.err, Cause: j.cause, Result: j.result,
		SubmittedAt: j.submitted, StartedAt: j.started, FinishedAt: j.finished,
	}
}

// Trace returns the opaque trace context the job was submitted with
// ("" when untraced). Immutable after submission, so no lock is needed.
func (j *Job) Trace() string { return j.trace }

// Lane returns the priority lane the job was submitted on. Immutable
// after submission, so no lock is needed.
func (j *Job) Lane() Lane { return j.lane }

// traceKey carries a job's trace context into its task.
type traceKey struct{}

// ContextWithTrace returns ctx carrying an opaque trace context string.
func ContextWithTrace(ctx context.Context, trace string) context.Context {
	return context.WithValue(ctx, traceKey{}, trace)
}

// TraceFromContext returns the trace context injected by the worker
// ("" when the job was submitted untraced).
func TraceFromContext(ctx context.Context) string {
	s, _ := ctx.Value(traceKey{}).(string)
	return s
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job is terminal or ctx is done; it returns the
// terminal status, or ctx's error if the wait itself was cut short.
func (j *Job) Wait(ctx context.Context) (Status, error) {
	select {
	case <-j.done:
		return j.Status(), nil
	case <-ctx.Done():
		return j.Status(), ctx.Err()
	}
}
