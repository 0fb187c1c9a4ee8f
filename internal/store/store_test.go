package store

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/provenance"
)

func sessionRec(id string) *codec.SessionRecord {
	return &codec.SessionRecord{
		ID: id,
		Prov: provenance.NewAgg(provenance.AggSum,
			provenance.Tensor{Prov: provenance.V("a"), Value: 1, Count: 1, Group: "g"}),
		Universe: []codec.UniverseEntry{{Ann: "a", Table: "t"}},
	}
}

func jobRec(id, sessionID, state string) *codec.JobRecord {
	return &codec.JobRecord{
		ID: id, SessionID: sessionID, State: state,
		Params: codec.JobParams{WDist: 0.5, WSize: 0.5, Steps: 3},
	}
}

func checkpointRec(jobID string, step int) *codec.CheckpointRecord {
	steps := make([]core.Step, step)
	for i := range steps {
		steps[i] = core.Step{
			A: "a", B: "b",
			Members: []provenance.Annotation{"a", "b"},
			New:     "ab", Dist: 0.1,
		}
	}
	return &codec.CheckpointRecord{
		JobID:      jobID,
		Checkpoint: &core.Checkpoint{Step: step, Steps: steps, InitDist: 0.05},
	}
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestReopenRestoresState pins the core durability contract: everything
// appended before a clean close is replayed on reopen, with last-write-
// wins per key and first-append ordering.
func TestReopenRestoresState(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for _, err := range []error{
		s.PutSession(sessionRec("s1")),
		s.PutSession(sessionRec("s2")),
		s.PutJob(jobRec("j1", "s1", JobStateQueued)),
		s.PutJob(jobRec("j2", "s2", JobStateQueued)),
		s.PutJob(jobRec("j1", "s1", JobStateRunning)),
		s.PutCheckpoint(checkpointRec("j1", 1)),
		s.PutCheckpoint(checkpointRec("j1", 2)),
		s.PutSummary(&codec.SummaryRecord{SessionID: "s2", Dist: 0.3, StopReason: "max-steps"}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	st := s2.State()
	if len(st.Sessions) != 2 || st.Sessions[0].ID != "s1" || st.Sessions[1].ID != "s2" {
		t.Fatalf("sessions = %+v", st.Sessions)
	}
	if len(st.Jobs) != 2 || st.Jobs[0].ID != "j1" || st.Jobs[0].State != JobStateRunning || st.Jobs[1].ID != "j2" {
		t.Fatalf("jobs = %+v", st.Jobs)
	}
	cp, ok := st.Checkpoints["j1"]
	if !ok || cp.Checkpoint.Step != 2 {
		t.Fatalf("checkpoint = %+v, want latest (step 2)", cp)
	}
	if sum, ok := st.Summaries["s2"]; !ok || sum.Dist != 0.3 {
		t.Fatalf("summary = %+v", st.Summaries)
	}
}

// TestDropSessionCascades pins that evicting a session drops its
// summary, jobs and checkpoints on replay.
func TestDropSessionCascades(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for _, err := range []error{
		s.PutSession(sessionRec("s1")),
		s.PutSession(sessionRec("s2")),
		s.PutJob(jobRec("j1", "s1", JobStateRunning)),
		s.PutCheckpoint(checkpointRec("j1", 1)),
		s.PutSummary(&codec.SummaryRecord{SessionID: "s1", Dist: 0.1}),
		s.DropSession("s1"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	st := mustOpen(t, dir, Options{}).State()
	if len(st.Sessions) != 1 || st.Sessions[0].ID != "s2" {
		t.Fatalf("sessions = %+v", st.Sessions)
	}
	if len(st.Jobs) != 0 || len(st.Checkpoints) != 0 || len(st.Summaries) != 0 {
		t.Fatalf("drop did not cascade: %+v %+v %+v", st.Jobs, st.Checkpoints, st.Summaries)
	}
}

// TestTerminalJobDropsCheckpoint pins that a terminal state transition
// retires the job's checkpoint.
func TestTerminalJobDropsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for _, err := range []error{
		s.PutSession(sessionRec("s1")),
		s.PutJob(jobRec("j1", "s1", JobStateRunning)),
		s.PutCheckpoint(checkpointRec("j1", 1)),
		s.PutJob(jobRec("j1", "s1", JobStateDone)),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := s.State(); len(st.Checkpoints) != 0 {
		t.Fatalf("checkpoints = %+v, want none after terminal state", st.Checkpoints)
	}
	s.Close()
	if st := mustOpen(t, dir, Options{}).State(); len(st.Checkpoints) != 0 {
		t.Fatalf("replayed checkpoints = %+v, want none", st.Checkpoints)
	}
}

// TestCacheEntryLifecycle pins the summary-cache persistence contract:
// entries replay in first-append order with last-write-wins per key,
// drops remove single entries, a flush clears everything, and entries
// survive compaction.
func TestCacheEntryLifecycle(t *testing.T) {
	entry := func(key string, dist float64) *codec.CacheEntryRecord {
		return &codec.CacheEntryRecord{
			Key: key, Class: "cancel-single",
			Steps: []codec.StepRecord{{
				Members: []string{"a", "b"}, New: "ab", Dist: dist, Size: 2,
			}},
			Dist: dist, StopReason: "max-steps", CreatedMS: 100,
		}
	}

	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for _, err := range []error{
		s.PutCacheEntry(entry("k1", 0.1)),
		s.PutCacheEntry(entry("k2", 0.2)),
		s.PutCacheEntry(entry("k3", 0.3)),
		s.PutCacheEntry(entry("k1", 0.15)), // refresh keeps first-append order
		s.DropCacheEntry("k2"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2 := mustOpen(t, dir, Options{})
	st := s2.State()
	if len(st.CacheEntries) != 2 || st.CacheEntries[0].Key != "k1" || st.CacheEntries[1].Key != "k3" {
		t.Fatalf("cache entries = %+v, want k1 then k3", st.CacheEntries)
	}
	if st.CacheEntries[0].Dist != 0.15 {
		t.Fatalf("k1 dist = %v, want refreshed 0.15", st.CacheEntries[0].Dist)
	}

	// Entries survive compaction.
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := mustOpen(t, dir, Options{})
	if st := s3.State(); len(st.CacheEntries) != 2 {
		t.Fatalf("post-compact cache entries = %+v", st.CacheEntries)
	}

	// A flush clears everything, durably.
	if err := s3.FlushCache(); err != nil {
		t.Fatal(err)
	}
	s3.Close()
	if st := mustOpen(t, dir, Options{}).State(); len(st.CacheEntries) != 0 {
		t.Fatalf("post-flush cache entries = %+v, want none", st.CacheEntries)
	}
}

// TestTornTailTruncated simulates a crash mid-append: garbage (or a
// partial frame) at the end of the log is discarded on open, the file is
// truncated back to the last whole record, and appends continue cleanly.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.PutSession(sessionRec("s1")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutJob(jobRec("j1", "s1", JobStateQueued)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	logPath := filepath.Join(dir, "wal.log")
	whole, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Append half of another record's worth of garbage.
	torn := append(append([]byte(nil), whole...), []byte{0, 0, 0, 99, 1, 2, 3, 4, 5}...)
	if err := os.WriteFile(logPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	var obs recordingObserver
	s2 := mustOpen(t, dir, Options{Observer: &obs})
	if got := obs.truncated(); got != int64(len(torn)-len(whole)) {
		t.Fatalf("truncated %d bytes, want %d", got, len(torn)-len(whole))
	}
	st := s2.State()
	if len(st.Sessions) != 1 || len(st.Jobs) != 1 {
		t.Fatalf("state after torn tail: %+v %+v", st.Sessions, st.Jobs)
	}
	// The file is back at a frame boundary: a fresh append replays fine.
	if err := s2.PutJob(jobRec("j2", "s1", JobStateQueued)); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if st := mustOpen(t, dir, Options{}).State(); len(st.Jobs) != 2 {
		t.Fatalf("jobs after torn-tail recovery = %+v", st.Jobs)
	}
}

// TestCompact pins that compaction preserves state, moves it into the
// snapshot, and empties the log.
func TestCompact(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for _, err := range []error{
		s.PutSession(sessionRec("s1")),
		s.PutJob(jobRec("j1", "s1", JobStateRunning)),
		s.PutCheckpoint(checkpointRec("j1", 1)),
		s.PutCheckpoint(checkpointRec("j1", 2)),
		s.PutCheckpoint(checkpointRec("j1", 3)),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil || fi.Size() != 0 {
		t.Fatalf("log after compact: %v, size %d", err, fi.Size())
	}
	// Appends after compaction land in the (now empty) log.
	if err := s.PutJob(jobRec("j1", "s1", JobStateDone)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	st := mustOpen(t, dir, Options{}).State()
	if len(st.Sessions) != 1 || len(st.Jobs) != 1 || st.Jobs[0].State != JobStateDone {
		t.Fatalf("state after compact+reopen: %+v %+v", st.Sessions, st.Jobs)
	}
	if len(st.Checkpoints) != 0 {
		t.Fatalf("terminal job kept checkpoint: %+v", st.Checkpoints)
	}
}

// TestCorruptSnapshotRejected pins that a snapshot with trailing garbage
// is an error (snapshots are written atomically; garbage means real
// corruption, not a torn append).
func TestCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.PutSession(sessionRec("s1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	snapPath := filepath.Join(dir, "snapshot.log")
	f, err := os.OpenFile(snapPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("garbage"))
	f.Close()

	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corrupt snapshot must fail open")
	}
}

// TestConcurrentAppends pins that appends are safe under concurrency and
// all land in the log.
func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{NoSync: true})
	if err := s.PutSession(sessionRec("s1")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := string(rune('a' + i))
			for k := 0; k < 25; k++ {
				if err := s.PutCheckpoint(checkpointRec("j"+id, k+1)); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	s.Close()

	st := mustOpen(t, dir, Options{}).State()
	if len(st.Checkpoints) != 8 {
		t.Fatalf("got %d checkpoints, want 8", len(st.Checkpoints))
	}
	for id, cp := range st.Checkpoints {
		if cp.Checkpoint.Step != 25 {
			t.Fatalf("job %s latest checkpoint step = %d, want 25", id, cp.Checkpoint.Step)
		}
	}
}

type recordingObserver struct {
	mu         sync.Mutex
	appended   int
	syncs      int
	truncBytes int64
}

func (o *recordingObserver) Appended(n int) {
	o.mu.Lock()
	o.appended += n
	o.mu.Unlock()
}
func (o *recordingObserver) Synced(time.Duration) {
	o.mu.Lock()
	o.syncs++
	o.mu.Unlock()
}
func (o *recordingObserver) Truncated(n int64) {
	o.mu.Lock()
	o.truncBytes += n
	o.mu.Unlock()
}
func (o *recordingObserver) truncated() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.truncBytes
}

// TestAppendFailStop pins the store's failure contract: a record whose
// write fails is not applied, every later append fails too (no frame
// lands after a torn one), and a reopen replays exactly the
// acknowledged records.
func TestAppendFailStop(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutSession(sessionRec("s1")); err != nil {
		t.Fatal(err)
	}
	// A read-only handle on the log makes the next write fail.
	good := s.log
	ro, err := os.Open(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	s.log = ro
	if err := s.PutSession(sessionRec("s2")); err == nil {
		t.Fatal("append through a read-only log succeeded")
	}
	if got := len(s.State().Sessions); got != 1 {
		t.Fatalf("failed append was applied: %d sessions in memory, want 1", got)
	}
	s.log = good
	ro.Close()
	if err := s.PutSession(sessionRec("s3")); err == nil {
		t.Fatal("append after a failed write succeeded; want the store poisoned")
	}
	if err := s.Compact(); err == nil {
		t.Fatal("Compact after a failed write succeeded; want the store poisoned")
	}
	if got := len(s.State().Sessions); got != 1 {
		t.Fatalf("%d sessions in memory after the refused append, want 1", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, dir, Options{})
	st := re.State()
	if len(st.Sessions) != 1 || st.Sessions[0].ID != "s1" {
		ids := make([]string, len(st.Sessions))
		for i, rec := range st.Sessions {
			ids[i] = rec.ID
		}
		t.Fatalf("reopen replayed sessions %v, want exactly the acknowledged [s1]", ids)
	}
}
