// Package store persists server state — sessions, summaries, jobs, job
// checkpoints and summary-cache entries — to an append-only log plus
// snapshot file, both in the CRC-framed record format of
// internal/codec. Opening a store
// replays the snapshot and then the log, truncating any torn tail left
// by a crash, so a restarted prox-server resumes with every session and
// every queued or mid-run job intact.
//
// Durability model: every append is a single framed record written to
// the log and (by default) fsynced before Append returns. Compact
// rewrites the current state as a fresh snapshot and truncates the log;
// it runs on demand (startup, graceful shutdown) rather than on a
// background timer so tests and operators control when it happens.
package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/codec"
)

const (
	logName      = "wal.log"
	snapshotName = "snapshot.log"
)

// Terminal job states: once a job record with one of these states is
// appended, the job will not run again and its checkpoint is dropped.
const (
	JobStateQueued   = "queued"
	JobStateRunning  = "running"
	JobStateDone     = "done"
	JobStateFailed   = "failed"
	JobStateCanceled = "canceled"
)

// TerminalJobState reports whether a persisted job state is final.
func TerminalJobState(state string) bool {
	switch state {
	case JobStateDone, JobStateFailed, JobStateCanceled:
		return true
	}
	return false
}

// Observer receives storage-level events for metrics; all methods may be
// called concurrently and must not block.
type Observer interface {
	// Appended reports one record written to the log, with its framed size.
	Appended(bytes int)
	// Synced reports one fsync of the log or snapshot and how long the
	// kernel took to acknowledge it — the tail-latency floor of every
	// durable append.
	Synced(d time.Duration)
	// Truncated reports bytes of torn tail discarded during open.
	Truncated(bytes int64)
}

// Options configure a store.
type Options struct {
	// NoSync disables the per-append fsync. Throughput over durability:
	// a crash may lose the most recent appends, never corrupt the log.
	NoSync bool
	// Observer, when set, receives append/sync/truncate events.
	Observer Observer
}

// Store is a durable record log. All methods are safe for concurrent
// use.
type Store struct {
	mu   sync.Mutex
	dir  string
	opts Options
	log  *os.File
	seq  uint64
	// failed is the write or fsync error that poisoned the store: every
	// later append and Compact returns it, so no frame ever lands after
	// a torn one.
	failed error

	sessions     map[string]*codec.SessionRecord
	sessionOrder []string
	ingests      map[string][]*codec.IngestRecord // per session, append order
	summaries    map[string]*codec.SummaryRecord
	versions     map[string][]*codec.SummaryVersionRecord // per session, version order
	jobs         map[string]*codec.JobRecord
	jobOrder     []string
	checkpoints  map[string]*codec.CheckpointRecord
	cacheEntries map[string]*codec.CacheEntryRecord
	cacheOrder   []string
}

// State is the replayed contents of a store at open time. Slices are in
// first-append order (sessions in creation order, jobs in submit
// order); the server uses this ordering to rebuild its eviction queue
// and requeue interrupted jobs fairly.
type State struct {
	Sessions     []*codec.SessionRecord
	Ingests      map[string][]*codec.IngestRecord         // by session id, append order
	Summaries    map[string]*codec.SummaryRecord          // by session id
	Versions     map[string][]*codec.SummaryVersionRecord // by session id, version order
	Jobs         []*codec.JobRecord                       // latest record per job
	Checkpoints  map[string]*codec.CheckpointRecord       // latest per job id
	CacheEntries []*codec.CacheEntryRecord                // latest record per key
}

// Open replays dir's snapshot and log, truncates any torn log tail, and
// returns the store ready for appends.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:          dir,
		opts:         opts,
		sessions:     make(map[string]*codec.SessionRecord),
		ingests:      make(map[string][]*codec.IngestRecord),
		summaries:    make(map[string]*codec.SummaryRecord),
		versions:     make(map[string][]*codec.SummaryVersionRecord),
		jobs:         make(map[string]*codec.JobRecord),
		checkpoints:  make(map[string]*codec.CheckpointRecord),
		cacheEntries: make(map[string]*codec.CacheEntryRecord),
	}

	if err := s.replayFile(filepath.Join(dir, snapshotName), false); err != nil {
		return nil, err
	}

	logPath := filepath.Join(dir, logName)
	if err := s.replayFile(logPath, true); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.log = f
	return s, nil
}

// replayFile replays one record file into the in-memory state. Missing
// files are fine (fresh store). For the log (truncate=true) a torn tail
// is cut off so subsequent appends start at a frame boundary; for the
// snapshot — written atomically via rename — trailing garbage means the
// file is corrupt and is reported as an error.
func (s *Store) replayFile(path string, truncate bool) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()

	valid, err := codec.ReplayRecords(f, func(rec *codec.Record) error {
		if rec.Seq >= s.seq {
			s.seq = rec.Seq + 1
		}
		s.apply(rec)
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: replaying %s: %w", filepath.Base(path), err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if valid == size {
		return nil
	}
	if !truncate {
		return fmt.Errorf("store: snapshot %s corrupt: %d bytes of trailing garbage", filepath.Base(path), size-valid)
	}
	if err := os.Truncate(path, valid); err != nil {
		return fmt.Errorf("store: truncating torn tail of %s: %w", filepath.Base(path), err)
	}
	if s.opts.Observer != nil {
		s.opts.Observer.Truncated(size - valid)
	}
	return nil
}

// apply folds one record into the in-memory state. Last write wins;
// ordering slices remember first-append order.
func (s *Store) apply(rec *codec.Record) {
	switch {
	case rec.Session != nil:
		id := rec.Session.ID
		if _, ok := s.sessions[id]; !ok {
			s.sessionOrder = append(s.sessionOrder, id)
		}
		s.sessions[id] = rec.Session
	case rec.SessionDrop != nil:
		id := rec.SessionDrop.ID
		if _, ok := s.sessions[id]; ok {
			delete(s.sessions, id)
			s.sessionOrder = removeString(s.sessionOrder, id)
		}
		delete(s.ingests, id)
		delete(s.summaries, id)
		delete(s.versions, id)
		for jobID, job := range s.jobs {
			if job.SessionID == id {
				delete(s.jobs, jobID)
				delete(s.checkpoints, jobID)
				s.jobOrder = removeString(s.jobOrder, jobID)
			}
		}
	case rec.Ingest != nil:
		id := rec.Ingest.SessionID
		s.ingests[id] = append(s.ingests[id], rec.Ingest)
	case rec.Summary != nil:
		s.summaries[rec.Summary.SessionID] = rec.Summary
	case rec.SummaryVersion != nil:
		// Versions are dense and 1-based per session; a re-put of the
		// same version number (compaction replay) replaces it.
		id := rec.SummaryVersion.SessionID
		chain := s.versions[id]
		if n := rec.SummaryVersion.Version; n >= 1 && n <= len(chain) {
			chain[n-1] = rec.SummaryVersion
		} else {
			chain = append(chain, rec.SummaryVersion)
		}
		s.versions[id] = chain
	case rec.Job != nil:
		id := rec.Job.ID
		if _, ok := s.jobs[id]; !ok {
			s.jobOrder = append(s.jobOrder, id)
		}
		s.jobs[id] = rec.Job
		if TerminalJobState(rec.Job.State) {
			delete(s.checkpoints, id)
		}
	case rec.Checkpoint != nil:
		s.checkpoints[rec.Checkpoint.JobID] = rec.Checkpoint
	case rec.CacheEntry != nil:
		key := rec.CacheEntry.Key
		if _, ok := s.cacheEntries[key]; !ok {
			s.cacheOrder = append(s.cacheOrder, key)
		}
		s.cacheEntries[key] = rec.CacheEntry
	case rec.CacheDrop != nil:
		key := rec.CacheDrop.Key
		if _, ok := s.cacheEntries[key]; ok {
			delete(s.cacheEntries, key)
			s.cacheOrder = removeString(s.cacheOrder, key)
		}
	case rec.CacheFlush != nil:
		s.cacheEntries = make(map[string]*codec.CacheEntryRecord)
		s.cacheOrder = nil
	}
}

func removeString(list []string, v string) []string {
	for i, s := range list {
		if s == v {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// State snapshots the replayed state for the server's startup pass.
func (s *Store) State() *State {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &State{
		Ingests:     make(map[string][]*codec.IngestRecord, len(s.ingests)),
		Summaries:   make(map[string]*codec.SummaryRecord, len(s.summaries)),
		Versions:    make(map[string][]*codec.SummaryVersionRecord, len(s.versions)),
		Checkpoints: make(map[string]*codec.CheckpointRecord, len(s.checkpoints)),
	}
	for _, id := range s.sessionOrder {
		st.Sessions = append(st.Sessions, s.sessions[id])
	}
	for id, ing := range s.ingests {
		st.Ingests[id] = append([]*codec.IngestRecord(nil), ing...)
	}
	for id, sum := range s.summaries {
		st.Summaries[id] = sum
	}
	for id, chain := range s.versions {
		st.Versions[id] = append([]*codec.SummaryVersionRecord(nil), chain...)
	}
	for _, id := range s.jobOrder {
		st.Jobs = append(st.Jobs, s.jobs[id])
	}
	for id, cp := range s.checkpoints {
		st.Checkpoints[id] = cp
	}
	for _, key := range s.cacheOrder {
		st.CacheEntries = append(st.CacheEntries, s.cacheEntries[key])
	}
	return st
}

// append journals one variant, (unless NoSync) fsyncs it, and only then
// applies it to the in-memory state: an error means the record was
// neither applied nor acknowledged. A write or fsync error poisons the
// store (see failed).
func (s *Store) append(rec *codec.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return fmt.Errorf("store: log failed earlier: %w", s.failed)
	}
	rec.Seq = s.seq
	payload, err := codec.EncodeRecord(rec)
	if err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	n, err := codec.AppendFrame(s.log, payload)
	if err != nil {
		s.failed = fmt.Errorf("store: append: %w", err)
		return s.failed
	}
	if s.opts.Observer != nil {
		s.opts.Observer.Appended(n)
	}
	if !s.opts.NoSync {
		if err := s.sync("store: fsync"); err != nil {
			s.failed = err
			return err
		}
	}
	s.seq++
	s.apply(rec)
	return nil
}

// sync fsyncs the log, timing the call for the observer. Callers hold
// s.mu.
func (s *Store) sync(errPrefix string) error {
	start := time.Now()
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("%s: %w", errPrefix, err)
	}
	if s.opts.Observer != nil {
		s.opts.Observer.Synced(time.Since(start))
	}
	return nil
}

// PutSession journals a session's provenance expression and universe.
func (s *Store) PutSession(rec *codec.SessionRecord) error {
	return s.append(&codec.Record{Session: rec})
}

// DropSession journals a session eviction; the session's summary, jobs
// and checkpoints are dropped with it.
func (s *Store) DropSession(id string) error {
	return s.append(&codec.Record{SessionDrop: &codec.SessionDropRecord{ID: id}})
}

// PutIngest journals one streaming ingest batch appended to a session.
func (s *Store) PutIngest(rec *codec.IngestRecord) error {
	return s.append(&codec.Record{Ingest: rec})
}

// PutSummary journals a session's completed summarization.
func (s *Store) PutSummary(rec *codec.SummaryRecord) error {
	return s.append(&codec.Record{Summary: rec})
}

// PutSummaryVersion journals one entry of a session's summary version
// chain.
func (s *Store) PutSummaryVersion(rec *codec.SummaryVersionRecord) error {
	return s.append(&codec.Record{SummaryVersion: rec})
}

// PutJob journals a job state transition. A terminal state drops the
// job's checkpoint.
func (s *Store) PutJob(rec *codec.JobRecord) error {
	return s.append(&codec.Record{Job: rec})
}

// PutCheckpoint journals a job's latest resumable snapshot, replacing
// any earlier one on replay.
func (s *Store) PutCheckpoint(rec *codec.CheckpointRecord) error {
	return s.append(&codec.Record{Checkpoint: rec})
}

// PutCacheEntry journals one summary-cache entry under its content
// address; re-putting a key replaces its entry on replay.
func (s *Store) PutCacheEntry(rec *codec.CacheEntryRecord) error {
	return s.append(&codec.Record{CacheEntry: rec})
}

// DropCacheEntry journals a single cache eviction.
func (s *Store) DropCacheEntry(key string) error {
	return s.append(&codec.Record{CacheDrop: &codec.CacheDropRecord{Key: key}})
}

// FlushCache journals the removal of every cache entry.
func (s *Store) FlushCache() error {
	return s.append(&codec.Record{CacheFlush: &codec.CacheFlushRecord{}})
}

// Compact rewrites the current state as a fresh snapshot (atomically,
// via rename) and truncates the log. Log space held by superseded
// records — stale checkpoints especially — is reclaimed.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return fmt.Errorf("store: log failed earlier: %w", s.failed)
	}

	tmp, err := os.CreateTemp(s.dir, snapshotName+".tmp*")
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	defer os.Remove(tmp.Name())

	write := func(rec *codec.Record) error {
		rec.Seq = s.seq
		s.seq++
		_, err := codec.AppendRecord(tmp, rec)
		return err
	}
	for _, id := range s.sessionOrder {
		if err := write(&codec.Record{Session: s.sessions[id]}); err != nil {
			return fmt.Errorf("store: compact: %w", err)
		}
		for _, ing := range s.ingests[id] {
			if err := write(&codec.Record{Ingest: ing}); err != nil {
				return fmt.Errorf("store: compact: %w", err)
			}
		}
		if sum, ok := s.summaries[id]; ok {
			if err := write(&codec.Record{Summary: sum}); err != nil {
				return fmt.Errorf("store: compact: %w", err)
			}
		}
		// Version chains precede the job records below: a requeued
		// extend job needs its parent version restored first.
		for _, v := range s.versions[id] {
			if err := write(&codec.Record{SummaryVersion: v}); err != nil {
				return fmt.Errorf("store: compact: %w", err)
			}
		}
	}
	for _, id := range s.jobOrder {
		if err := write(&codec.Record{Job: s.jobs[id]}); err != nil {
			return fmt.Errorf("store: compact: %w", err)
		}
		if cp, ok := s.checkpoints[id]; ok {
			if err := write(&codec.Record{Checkpoint: cp}); err != nil {
				return fmt.Errorf("store: compact: %w", err)
			}
		}
	}
	for _, key := range s.cacheOrder {
		if err := write(&codec.Record{CacheEntry: s.cacheEntries[key]}); err != nil {
			return fmt.Errorf("store: compact: %w", err)
		}
	}
	snapStart := time.Now()
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if s.opts.Observer != nil {
		s.opts.Observer.Synced(time.Since(snapStart))
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, snapshotName)); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := s.log.Truncate(0); err != nil {
		return fmt.Errorf("store: compact: truncating log: %w", err)
	}
	if !s.opts.NoSync {
		if err := s.sync("store: compact"); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes and closes the log. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	var err error
	if !s.opts.NoSync {
		err = s.log.Sync()
	}
	if cerr := s.log.Close(); err == nil {
		err = cerr
	}
	s.log = nil
	return err
}
