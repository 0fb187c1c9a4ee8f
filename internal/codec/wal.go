// wal.go defines the durable-state record types and their on-disk
// framing: the append-only log and snapshot files written by
// internal/store are streams of CRC-framed JSON records describing
// sessions, summarization jobs and their checkpoints. The framing is
// crash-tolerant by construction — a torn or corrupted tail (the
// partial record of an interrupted write) is detected by the length and
// CRC prefixes and discarded on replay, never surfaced as data.
package codec

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/core"
	"repro/internal/provenance"
)

// UniverseEntry is one persisted annotation registration (mirrors
// Universe.Add arguments), carried by session records so custom
// expressions keep their constraint attributes across restarts.
type UniverseEntry struct {
	Ann   string            `json:"ann"`
	Table string            `json:"table"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// SessionRecord persists one selection session: its aggregated
// provenance expression, the universe entries of its annotations, and
// the tenant that owns it (empty for sessions created without
// authentication).
type SessionRecord struct {
	ID       string
	Tenant   string
	Prov     *provenance.Agg
	Universe []UniverseEntry
}

type sessionRecordJSON struct {
	ID       string          `json:"id"`
	Tenant   string          `json:"tenant,omitempty"`
	Agg      *aggJSON        `json:"agg"`
	Universe []UniverseEntry `json:"universe,omitempty"`
}

// MarshalJSON encodes the expression through the tagged-union AST
// encoding shared with bundles.
func (r SessionRecord) MarshalJSON() ([]byte, error) {
	if r.Prov == nil {
		return nil, fmt.Errorf("codec: session record %q has no expression", r.ID)
	}
	agg, err := encodeAgg(r.Prov)
	if err != nil {
		return nil, err
	}
	return json.Marshal(sessionRecordJSON{ID: r.ID, Tenant: r.Tenant, Agg: agg, Universe: r.Universe})
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (r *SessionRecord) UnmarshalJSON(data []byte) error {
	var in sessionRecordJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if in.Agg == nil {
		return fmt.Errorf("codec: session record %q has no expression", in.ID)
	}
	agg, err := decodeAgg(in.Agg)
	if err != nil {
		return err
	}
	r.ID, r.Tenant, r.Prov, r.Universe = in.ID, in.Tenant, agg, in.Universe
	return nil
}

// SessionDropRecord marks a session as evicted.
type SessionDropRecord struct {
	ID string `json:"id"`
}

// IngestRecord persists one streaming ingest batch appended to a
// session: the added tensors (as an aggregated expression of the
// session's kind) and the universe entries of any new annotations.
// Replaying a session's ingest records in order over its base
// expression rebuilds the live expression after a crash.
type IngestRecord struct {
	SessionID string
	Added     *provenance.Agg
	Universe  []UniverseEntry
}

type ingestRecordJSON struct {
	SessionID string          `json:"sessionId"`
	Agg       *aggJSON        `json:"agg"`
	Universe  []UniverseEntry `json:"universe,omitempty"`
}

// MarshalJSON encodes the added tensors through the tagged-union AST
// encoding shared with bundles and session records.
func (r IngestRecord) MarshalJSON() ([]byte, error) {
	if r.Added == nil {
		return nil, fmt.Errorf("codec: ingest record for session %q has no tensors", r.SessionID)
	}
	agg, err := encodeAgg(r.Added)
	if err != nil {
		return nil, err
	}
	return json.Marshal(ingestRecordJSON{SessionID: r.SessionID, Agg: agg, Universe: r.Universe})
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (r *IngestRecord) UnmarshalJSON(data []byte) error {
	var in ingestRecordJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if in.Agg == nil {
		return fmt.Errorf("codec: ingest record for session %q has no tensors", in.SessionID)
	}
	agg, err := decodeAgg(in.Agg)
	if err != nil {
		return err
	}
	r.SessionID, r.Added, r.Universe = in.SessionID, agg, in.Universe
	return nil
}

// StepRecord is the serialized form of one merge step, shared by
// summary records and checkpoints.
type StepRecord struct {
	Members []string `json:"members"`
	New     string   `json:"new"`
	Score   float64  `json:"score"`
	Dist    float64  `json:"dist"`
	Size    int      `json:"size"`
}

// StepsFromCore converts a core merge trace to its serialized form.
func StepsFromCore(steps []core.Step) []StepRecord {
	out := make([]StepRecord, len(steps))
	for i, st := range steps {
		members := make([]string, len(st.Members))
		for j, m := range st.Members {
			members[j] = string(m)
		}
		out[i] = StepRecord{
			Members: members, New: string(st.New),
			Score: st.Score, Dist: st.Dist, Size: st.Size,
		}
	}
	return out
}

// StepsToCore is the inverse of StepsFromCore. Records with fewer than
// two members are rejected — they cannot have been produced by a merge.
func StepsToCore(recs []StepRecord) ([]core.Step, error) {
	out := make([]core.Step, len(recs))
	for i, rec := range recs {
		if len(rec.Members) < 2 {
			return nil, fmt.Errorf("codec: step %d has %d members, need at least 2", i+1, len(rec.Members))
		}
		members := make([]provenance.Annotation, len(rec.Members))
		for j, m := range rec.Members {
			members[j] = provenance.Annotation(m)
		}
		out[i] = core.Step{
			A: members[0], B: members[1], Members: members,
			New:   provenance.Annotation(rec.New),
			Score: rec.Score, Dist: rec.Dist, Size: rec.Size,
		}
	}
	return out, nil
}

// SummaryRecord persists a session's completed summarization: the merge
// trace (from which the summary expression and mapping are replayed,
// the Prop. 4.2.1 pre-step's merges first), the final distance and the
// stop reason.
type SummaryRecord struct {
	SessionID    string       `json:"sessionId"`
	Class        string       `json:"class"`
	Equivalences []StepRecord `json:"equivalences,omitempty"`
	Steps        []StepRecord `json:"steps"`
	Dist         float64      `json:"dist"`
	StopReason   string       `json:"stopReason"`
	// ExtendedFrom is the seeded-prefix length of Steps when the summary
	// came from a warm-started Extend run (core.Summary.ExtendedFrom);
	// 0 for from-scratch summaries.
	ExtendedFrom int `json:"extendedFrom,omitempty"`
}

// SummaryVersionRecord persists one entry of a session's summary
// version chain: version numbers are 1-based and dense per session,
// Parent is the version this one was extended from (0 for a
// from-scratch root), and the merge trace replays the version's
// summary exactly as a SummaryRecord's does.
type SummaryVersionRecord struct {
	SessionID    string       `json:"sessionId"`
	Version      int          `json:"version"`
	Parent       int          `json:"parent,omitempty"`
	Class        string       `json:"class"`
	Equivalences []StepRecord `json:"equivalences,omitempty"`
	Steps        []StepRecord `json:"steps"`
	ExtendedFrom int          `json:"extendedFrom,omitempty"`
	Dist         float64      `json:"dist"`
	StopReason   string       `json:"stopReason"`
	CreatedMS    int64        `json:"createdMs,omitempty"`
}

// JobParams are the summarization parameters a job was submitted with —
// enough to rebuild the exact core.Config after a restart.
type JobParams struct {
	WDist      float64 `json:"wDist"`
	WSize      float64 `json:"wSize"`
	TargetDist float64 `json:"targetDist"`
	TargetSize int     `json:"targetSize"`
	Steps      int     `json:"steps"`
	Class      string  `json:"class"`
	TimeoutMS  int64   `json:"timeoutMs,omitempty"`
	// ExtendFromVersion, when > 0, makes the job a warm-started Extend of
	// the session's given summary version (1-based) instead of a
	// from-scratch summarize.
	ExtendFromVersion int `json:"extendFromVersion,omitempty"`
}

// JobRecord persists a job's latest state transition. Replay keeps the
// last record per job id; jobs whose final state is "queued" or
// "running" are requeued on startup (from their latest checkpoint, if
// any).
type JobRecord struct {
	ID          string    `json:"id"`
	SessionID   string    `json:"sessionId"`
	State       string    `json:"state"`
	Error       string    `json:"error,omitempty"`
	Params      JobParams `json:"params"`
	SubmittedMS int64     `json:"submittedMs,omitempty"`
	// Trace is the opaque trace context (W3C traceparent) of the
	// request that submitted the job, so a requeued job resumes under
	// its original trace id.
	Trace string `json:"trace,omitempty"`
	// Tenant owns the job (empty without authentication); a requeued
	// job re-reserves the tenant's concurrent-job quota slot.
	Tenant string `json:"tenant,omitempty"`
	// Lane is the priority lane ("interactive" or "bulk") the job was
	// submitted on; a requeued job keeps its lane. Empty records from
	// before lanes existed requeue as interactive.
	Lane string `json:"lane,omitempty"`
}

// CheckpointRecord persists the latest resumable snapshot of a running
// job.
type CheckpointRecord struct {
	JobID      string
	Checkpoint *core.Checkpoint
}

type checkpointRecordJSON struct {
	JobID        string       `json:"jobId"`
	Step         int          `json:"step"`
	Steps        []StepRecord `json:"steps"`
	InitDist     float64      `json:"initDist"`
	RandState    *uint64      `json:"randState,omitempty"`
	EstRandState *uint64      `json:"estRandState,omitempty"`
	TraceParent  string       `json:"traceParent,omitempty"`
	ExtendFrom   int          `json:"extendFrom,omitempty"`
}

// MarshalJSON flattens the core checkpoint into the record.
func (r CheckpointRecord) MarshalJSON() ([]byte, error) {
	if r.Checkpoint == nil {
		return nil, fmt.Errorf("codec: checkpoint record for job %q has no checkpoint", r.JobID)
	}
	return json.Marshal(checkpointRecordJSON{
		JobID:        r.JobID,
		Step:         r.Checkpoint.Step,
		Steps:        StepsFromCore(r.Checkpoint.Steps),
		InitDist:     r.Checkpoint.InitDist,
		RandState:    r.Checkpoint.RandState,
		EstRandState: r.Checkpoint.EstRandState,
		TraceParent:  r.Checkpoint.TraceParent,
		ExtendFrom:   r.Checkpoint.ExtendFrom,
	})
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (r *CheckpointRecord) UnmarshalJSON(data []byte) error {
	var in checkpointRecordJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	steps, err := StepsToCore(in.Steps)
	if err != nil {
		return err
	}
	if in.Step != len(steps) {
		return fmt.Errorf("codec: checkpoint for job %q claims step %d but carries %d steps", in.JobID, in.Step, len(steps))
	}
	if in.ExtendFrom < 0 || in.ExtendFrom > len(steps) {
		return fmt.Errorf("codec: checkpoint for job %q claims extendFrom %d with %d steps", in.JobID, in.ExtendFrom, len(steps))
	}
	r.JobID = in.JobID
	r.Checkpoint = &core.Checkpoint{
		Step:         in.Step,
		Steps:        steps,
		InitDist:     in.InitDist,
		RandState:    in.RandState,
		EstRandState: in.EstRandState,
		TraceParent:  in.TraceParent,
		ExtendFrom:   in.ExtendFrom,
	}
	return nil
}

// CacheEntryRecord persists one summary-cache entry: the content
// address it is stored under (hex of the 32-byte cache key) and the
// merge trace needed to rebuild the summary on a hit, the Prop. 4.2.1
// pre-step's merges first. Replay keeps the last record per key, so
// re-putting a key refreshes its entry.
type CacheEntryRecord struct {
	Key          string       `json:"key"`
	Class        string       `json:"class"`
	Equivalences []StepRecord `json:"equivalences,omitempty"`
	Steps        []StepRecord `json:"steps"`
	Dist         float64      `json:"dist"`
	StopReason   string       `json:"stopReason"`
	CreatedMS    int64        `json:"createdMs"`
	// Tenant is the id of the tenant whose run published the entry
	// (first-writer attribution for the cache-bytes quota); empty in
	// single-tenant mode.
	Tenant string `json:"tenant,omitempty"`
	// Prefix is the hex warm-start address the entry is registered under
	// (summarycache.Cache.PutWithPrefix), so a restored entry can still
	// seed a warm start; empty for entries journaled without one.
	Prefix string `json:"prefix,omitempty"`
}

// CacheDropRecord removes a single cache entry (LRU or TTL eviction) so
// replay does not resurrect it.
type CacheDropRecord struct {
	Key string `json:"key"`
}

// CacheFlushRecord removes every cache entry journaled before it — the
// durable form of the admin flush endpoint.
type CacheFlushRecord struct{}

// Record is the tagged union of durable-state records; exactly one
// variant must be set.
type Record struct {
	// Seq is the writer's record sequence number, for debugging and
	// ordering checks; replay does not require it to be contiguous.
	Seq uint64 `json:"seq"`

	Session        *SessionRecord        `json:"session,omitempty"`
	SessionDrop    *SessionDropRecord    `json:"sessionDrop,omitempty"`
	Ingest         *IngestRecord         `json:"ingest,omitempty"`
	Summary        *SummaryRecord        `json:"summary,omitempty"`
	SummaryVersion *SummaryVersionRecord `json:"summaryVersion,omitempty"`
	Job            *JobRecord            `json:"job,omitempty"`
	Checkpoint     *CheckpointRecord     `json:"checkpoint,omitempty"`
	CacheEntry     *CacheEntryRecord     `json:"cacheEntry,omitempty"`
	CacheDrop      *CacheDropRecord      `json:"cacheDrop,omitempty"`
	CacheFlush     *CacheFlushRecord     `json:"cacheFlush,omitempty"`
}

func (r *Record) variants() int {
	n := 0
	if r.Session != nil {
		n++
	}
	if r.SessionDrop != nil {
		n++
	}
	if r.Ingest != nil {
		n++
	}
	if r.Summary != nil {
		n++
	}
	if r.SummaryVersion != nil {
		n++
	}
	if r.Job != nil {
		n++
	}
	if r.Checkpoint != nil {
		n++
	}
	if r.CacheEntry != nil {
		n++
	}
	if r.CacheDrop != nil {
		n++
	}
	if r.CacheFlush != nil {
		n++
	}
	return n
}

// EncodeRecord serializes a record, enforcing the exactly-one-variant
// invariant.
func EncodeRecord(r *Record) ([]byte, error) {
	if n := r.variants(); n != 1 {
		return nil, fmt.Errorf("codec: record must set exactly one variant, got %d", n)
	}
	return json.Marshal(r)
}

// DecodeRecord is the inverse of EncodeRecord.
func DecodeRecord(data []byte) (*Record, error) {
	var r Record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	if n := r.variants(); n != 1 {
		return nil, fmt.Errorf("codec: record must set exactly one variant, got %d", n)
	}
	return &r, nil
}

// Frame layout: a fixed header of payload length (uint32, big endian)
// and payload CRC-32 (IEEE), followed by the payload bytes. A write cut
// short anywhere inside a frame is detected on replay: a short header,
// a short payload, an absurd length, or a CRC mismatch all terminate
// the replay at the last whole valid record.
const (
	frameHeaderLen = 8
	// MaxFrameLen bounds a single record, so a corrupted length prefix
	// cannot drive a giant allocation during replay.
	MaxFrameLen = 16 << 20
)

var crcTable = crc32.MakeTable(crc32.IEEE)

// AppendFrame writes one framed payload and returns the number of bytes
// written.
func AppendFrame(w io.Writer, payload []byte) (int, error) {
	if len(payload) > MaxFrameLen {
		return 0, fmt.Errorf("codec: frame payload %d bytes exceeds limit %d", len(payload), MaxFrameLen)
	}
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	if n, err := w.Write(hdr[:]); err != nil {
		return n, err
	}
	n, err := w.Write(payload)
	return frameHeaderLen + n, err
}

// AppendRecord encodes and frames one record.
func AppendRecord(w io.Writer, rec *Record) (int, error) {
	payload, err := EncodeRecord(rec)
	if err != nil {
		return 0, err
	}
	return AppendFrame(w, payload)
}

// ReplayFrames reads framed payloads from r, calling fn for each whole,
// CRC-valid payload. It returns the number of bytes consumed by valid
// frames: a torn or corrupted tail (short header, short payload, CRC
// mismatch, over-limit length) ends the replay silently at the last
// valid frame, so callers can truncate the file to valid and keep
// appending. An error from fn aborts the replay and is returned.
func ReplayFrames(r io.Reader, fn func(payload []byte) error) (valid int64, err error) {
	for {
		var hdr [frameHeaderLen]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return valid, nil // EOF or torn header: discard
		}
		n := binary.BigEndian.Uint32(hdr[0:4])
		sum := binary.BigEndian.Uint32(hdr[4:8])
		if n > MaxFrameLen {
			return valid, nil // corrupted length: discard tail
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return valid, nil // torn payload: discard
		}
		if crc32.Checksum(payload, crcTable) != sum {
			return valid, nil // corrupted payload: discard tail
		}
		if err := fn(payload); err != nil {
			return valid, err
		}
		valid += int64(frameHeaderLen) + int64(n)
	}
}

// ReplayRecords replays framed Records. Tail corruption is discarded
// like ReplayFrames; a CRC-valid frame that fails to decode is real
// corruption (or a version skew) and is returned as an error.
func ReplayRecords(r io.Reader, fn func(*Record) error) (valid int64, err error) {
	return ReplayFrames(r, func(payload []byte) error {
		rec, err := DecodeRecord(payload)
		if err != nil {
			return err
		}
		return fn(rec)
	})
}
