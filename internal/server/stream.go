// stream.go wires streaming provenance into the server: the ingest
// endpoint appending tensors to a session (journaled for crash replay),
// the extend endpoint warm-starting Algorithm 1 from a prior summary
// version, the per-session summary version chain with its listing and
// structural-diff endpoints, and the warm-start plumbing shared with
// the summary cache (seed construction, seed fingerprints, the
// session-lineage prefix address).
package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/parse"
	"repro/internal/provenance"
	"repro/internal/stream"
	"repro/internal/summarycache"
)

// ingestRequest appends provenance to an existing session: tensors in
// the paper's notation (parsed under the session's aggregation kind)
// plus universe entries for any new annotations, in the same shape as
// the custom-expression endpoint.
type ingestRequest struct {
	SessionID  string `json:"sessionId"`
	Expression string `json:"expression"`
	Universe   []struct {
		Ann   string            `json:"ann"`
		Table string            `json:"table"`
		Attrs map[string]string `json:"attrs"`
	} `json:"universe"`
}

type ingestResponse struct {
	SessionID    string `json:"sessionId"`
	Provenance   string `json:"provenance"`
	Size         int    `json:"size"`
	Tensors      int    `json:"tensors"`
	AddedTensors int    `json:"addedTensors"`
	// PlanPatched is true when the batch was folded into the compiled
	// evaluation plan in place (Plan.ApplyAppend) rather than forcing a
	// recompile.
	PlanPatched bool `json:"planPatched"`
}

// handleIngest implements POST /api/ingest: parse the batch, register
// its annotations, fold it into the session's streaming state, and
// journal one ingest record so a restarted server replays the append.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req ingestRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	sess, ok := s.sessionFor(r.Context(), req.SessionID)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown session %q", req.SessionID)
		return
	}
	start := time.Now()

	s.mu.Lock()
	kind := sess.prov.Agg.Kind
	s.mu.Unlock()
	added, err := parse.Agg(kind, req.Expression)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(added.Tensors) == 0 {
		writeErr(w, http.StatusBadRequest, "ingest batch has no tensors")
		return
	}
	entries := make([]codec.UniverseEntry, 0, len(req.Universe))
	for _, a := range req.Universe {
		s.workload.Universe.Add(provenance.Annotation(a.Ann), a.Table, provenance.Attrs(a.Attrs))
		entries = append(entries, codec.UniverseEntry{Ann: a.Ann, Table: a.Table, Attrs: a.Attrs})
	}

	// Append under the server lock so the session's expression snapshot
	// and its streaming state advance together: two concurrent ingests
	// must not publish their snapshots out of order. The batch sizes this
	// server sees keep the held-lock plan patch cheap.
	s.mu.Lock()
	if sess.stream == nil {
		sess.stream = stream.NewSession(sess.prov)
	}
	next, patched, err := sess.stream.Append(added.Tensors)
	if err != nil {
		s.mu.Unlock()
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	sess.prov = next
	s.mu.Unlock()

	s.recordIngest(len(added.Tensors), patched)
	if s.st != nil {
		if err := s.st.PutIngest(&codec.IngestRecord{SessionID: sess.id, Added: added, Universe: entries}); err != nil {
			s.log.Error("journaling ingest failed", "session", sess.id, "err", err)
		}
	}
	s.tracer.AddSpan(r.Context(), "stream.ingest", start, time.Now(),
		obs.KV("session", sess.id), obs.KV("tensors", len(added.Tensors)),
		obs.KV("patched", patched))
	s.logFor(r.Context()).Info("ingested",
		"session", sess.id, "tensors", len(added.Tensors), "patched", patched,
		"size", next.Size())

	writeJSON(w, http.StatusOK, ingestResponse{
		SessionID:    sess.id,
		Provenance:   next.String(),
		Size:         next.Size(),
		Tensors:      len(next.Tensors),
		AddedTensors: len(added.Tensors),
		PlanPatched:  patched,
	})
}

// recordIngest folds one ingest batch (live or replayed from the store)
// into the stream metrics.
func (s *Server) recordIngest(tensors int, patched bool) {
	s.met.streamIngests.Inc()
	s.met.streamTensors.Add(float64(tensors))
	if patched {
		s.met.streamPatches.Inc()
	} else {
		s.met.streamRecompiles.Inc()
	}
}

// extendRequest is a summarize request that warm-starts from a prior
// summary version of the session instead of running from scratch.
type extendRequest struct {
	summarizeRequest
	// FromVersion picks the seed version (1-based); 0 means the latest.
	// A session with no versions yet falls back to a from-scratch run,
	// which Extend matches bit-for-bit by construction.
	FromVersion int `json:"fromVersion"`
}

// handleExtend implements POST /api/extend as submit-and-wait, exactly
// like /api/summarize but seeded: the job replays the chosen version's
// partition as already-merged groups and searches only for the merges
// the extended expression still needs. The resulting summary becomes a
// new version whose parent is the seed version.
func (s *Server) handleExtend(w http.ResponseWriter, r *http.Request) {
	var req extendRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	sess, ok := s.sessionFor(r.Context(), req.SessionID)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown session %q", req.SessionID)
		return
	}
	s.mu.Lock()
	n := req.FromVersion
	if n == 0 {
		n = len(sess.versions)
	}
	bad := n < 0 || n > len(sess.versions)
	s.mu.Unlock()
	if bad {
		writeErr(w, http.StatusBadRequest, "session %s has no version %d", sess.id, req.FromVersion)
		return
	}

	out, status, err := s.submitSummarize(r.Context(), &req.summarizeRequest, n, jobs.LaneInteractive)
	if err != nil {
		writeReject(w, status, err)
		return
	}
	if out.cacheState != "" {
		w.Header().Set("X-Prox-Cache", out.cacheState)
	}
	if out.cached != nil {
		resp := s.summaryResponse(out.cached)
		resp.Cached = true
		writeJSON(w, http.StatusOK, resp)
		return
	}
	st, err := out.job.Wait(r.Context())
	if err != nil {
		_, _ = s.jm.Leave(out.job.ID)
		writeErr(w, http.StatusServiceUnavailable, "request ended before summarization finished: %v", err)
		return
	}
	s.writeJobOutcome(w, st)
}

// seedForVersion rebuilds the warm-start partition of sess's version n
// (1-based) from the version's merge trace (versionGroups).
func (s *Server) seedForVersion(sess *session, n int) (provenance.Groups, error) {
	s.mu.Lock()
	if n < 1 || n > len(sess.versions) {
		s.mu.Unlock()
		return nil, fmt.Errorf("session %s has no version %d", sess.id, n)
	}
	rec := sess.versions[n-1]
	s.mu.Unlock()
	groups, err := versionGroups(rec)
	if err != nil {
		return nil, fmt.Errorf("session %s version %d: %w", sess.id, n, err)
	}
	return groups, nil
}

// seedFingerprint hashes the canonical seed trace of a warm-start
// partition. It joins the cache key of seeded runs: a seeded and an
// unseeded run over the same expression produce different summaries
// (the seed prefix rides along), so they must not share an address.
func seedFingerprint(seed provenance.Groups) [32]byte {
	h := sha256.New()
	var n [8]byte
	ws := func(s string) {
		binary.BigEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	for _, st := range core.SeedSteps(seed) {
		ws(string(st.New))
		binary.BigEndian.PutUint64(n[:], uint64(len(st.Members)))
		h.Write(n[:])
		for _, m := range st.Members {
			ws(string(m))
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// warmPrefixFor is the warm-start address of one (session, parameters)
// lineage: unlike the exact cache key it excludes the expression and
// estimator fingerprints (which change with every ingest) and the seed
// version, so every summary the session publishes under the same
// parameters lands on one prefix — and a later request whose exact key
// misses because the expression grew finds the freshest of them.
func (s *Server) warmPrefixFor(sess *session, params codec.JobParams) summarycache.Key {
	cfg := fmt.Sprintf("%b|%b|%b|%d|%d|%s",
		params.WDist, params.WSize, params.TargetDist, params.TargetSize, params.Steps, params.Class)
	return summarycache.KeyFrom([]byte("warm/v1"), []byte(sess.id), []byte(cfg), s.policyFP[:])
}

// versionForEntry maps a warm cache entry back to the session version
// it was published for, by trace equality (latest match wins); 0 when
// no version matches, in which case the entry is not used as a seed.
func (s *Server) versionForEntry(sess *session, entry *codec.CacheEntryRecord) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(sess.versions) - 1; i >= 0; i-- {
		if traceEqual(sess.versions[i].Steps, entry.Steps) {
			return i + 1
		}
	}
	return 0
}

// traceEqual compares two merge traces structurally (groups and
// members; scores and distances ride along but cannot disagree when
// the structure agrees).
func traceEqual(a, b []codec.StepRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].New != b[i].New || len(a[i].Members) != len(b[i].Members) {
			return false
		}
		for j := range a[i].Members {
			if a[i].Members[j] != b[i].Members[j] {
				return false
			}
		}
	}
	return true
}

// appendVersion extends the primary session's version chain with a
// completed run's summary. Coalesced waiters receive the summary but
// no version: the chain records the session's own computation lineage.
// Cache hits append no version either — a replayed trace is some
// earlier version's summary, not a new computation.
func (s *Server) appendVersion(meta *jobMeta, sum *core.Summary) {
	s.mu.Lock()
	sess, ok := s.sessions[meta.sessionID]
	if !ok {
		s.mu.Unlock()
		return
	}
	rec := &codec.SummaryVersionRecord{
		SessionID:    sess.id,
		Version:      len(sess.versions) + 1,
		Parent:       meta.params.ExtendFromVersion,
		Class:        meta.params.Class,
		Equivalences: codec.StepsFromCore(sum.Equivalences),
		Steps:        codec.StepsFromCore(sum.Steps),
		ExtendedFrom: sum.ExtendedFrom,
		Dist:         sum.Dist,
		StopReason:   sum.StopReason,
		CreatedMS:    time.Now().UnixMilli(),
	}
	sess.versions = append(sess.versions, rec)
	s.mu.Unlock()
	s.met.versions.Inc()
	if s.st != nil {
		if err := s.st.PutSummaryVersion(rec); err != nil {
			s.log.Error("journaling summary version failed",
				"session", rec.SessionID, "version", rec.Version, "err", err)
		}
	}
}

// versionInfo is the API view of one summary version.
type versionInfo struct {
	ID           string              `json:"id"` // "{sessionId}.{version}"
	Version      int                 `json:"version"`
	Parent       int                 `json:"parent,omitempty"`
	Class        string              `json:"class"`
	Steps        int                 `json:"steps"`
	ExtendedFrom int                 `json:"extendedFrom,omitempty"`
	Dist         float64             `json:"dist"`
	StopReason   string              `json:"stopReason"`
	CreatedAt    string              `json:"createdAt,omitempty"`
	Groups       map[string][]string `json:"groups"`
}

type versionsResponse struct {
	SessionID string        `json:"sessionId"`
	Versions  []versionInfo `json:"versions"`
}

// handleVersions implements GET /api/sessions/{id}/versions: the
// session's summary version chain, oldest first.
func (s *Server) handleVersions(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess, ok := s.sessionFor(r.Context(), id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	s.mu.Lock()
	recs := append([]*codec.SummaryVersionRecord(nil), sess.versions...)
	s.mu.Unlock()

	resp := versionsResponse{SessionID: id, Versions: []versionInfo{}}
	for _, rec := range recs {
		info := versionInfo{
			ID:           versionID(id, rec.Version),
			Version:      rec.Version,
			Parent:       rec.Parent,
			Class:        rec.Class,
			Steps:        len(rec.Steps),
			ExtendedFrom: rec.ExtendedFrom,
			Dist:         rec.Dist,
			StopReason:   rec.StopReason,
			Groups:       map[string][]string{},
		}
		if rec.CreatedMS > 0 {
			info.CreatedAt = time.UnixMilli(rec.CreatedMS).UTC().Format(time.RFC3339Nano)
		}
		for name, members := range groupsOfRecord(rec) {
			ms := make([]string, len(members))
			for i, m := range members {
				ms[i] = string(m)
			}
			info.Groups[string(name)] = ms
		}
		resp.Versions = append(resp.Versions, info)
	}
	writeJSON(w, http.StatusOK, resp)
}

// versionID renders the canonical "{sessionId}.{version}" form used by
// the diff endpoint.
func versionID(sessionID string, n int) string {
	return sessionID + "." + strconv.Itoa(n)
}

// parseVersionID is the inverse of versionID.
func parseVersionID(id string) (string, int, error) {
	i := strings.LastIndex(id, ".")
	if i <= 0 {
		return "", 0, fmt.Errorf("bad version id %q (want sessionId.version)", id)
	}
	n, err := strconv.Atoi(id[i+1:])
	if err != nil || n < 1 {
		return "", 0, fmt.Errorf("bad version id %q (want sessionId.version)", id)
	}
	return id[:i], n, nil
}

// groupsOfRecord is versionGroups for the API views.
func groupsOfRecord(rec *codec.SummaryVersionRecord) provenance.Groups {
	groups, err := versionGroups(rec)
	if err != nil {
		// Records are validated on write and on WAL replay; an
		// unreplayable trace here means in-memory corruption.
		return provenance.Groups{}
	}
	return groups
}

// versionGroups composes a version's trace, the Prop. 4.2.1 pre-step's
// merges first, into its non-singleton partition.
func versionGroups(rec *codec.SummaryVersionRecord) (provenance.Groups, error) {
	eqs, err := codec.StepsToCore(rec.Equivalences)
	if err != nil {
		return nil, err
	}
	steps, err := codec.StepsToCore(rec.Steps)
	if err != nil {
		return nil, err
	}
	return core.GroupsFromSteps(append(eqs, steps...)), nil
}

// diffGroup is one entry of a structural version diff.
type diffGroup struct {
	Group   string   `json:"group"`
	Members []string `json:"members,omitempty"`
	// From lists the earlier version's groups feeding a merged group.
	From []string `json:"from,omitempty"`
	// Into lists where a split group's members went: later-version group
	// names, plus bare annotations for members that fell back to
	// singletons.
	Into []string `json:"into,omitempty"`
}

type versionDiffResponse struct {
	A         string      `json:"a"`
	B         string      `json:"b"`
	Added     []diffGroup `json:"added,omitempty"`
	Merged    []diffGroup `json:"merged,omitempty"`
	Split     []diffGroup `json:"split,omitempty"`
	Unchanged []string    `json:"unchanged,omitempty"`
}

// handleVersionDiff implements GET /api/versions/{a}/diff/{b}: the
// structural difference between two summary versions of one session.
// A b-group is "added" when none of its members belonged to an a-group
// (new or previously-singleton annotations), "merged" when it covers
// one or more a-groups it is not identical to, and "unchanged" when its
// membership equals a single a-group's. An a-group is "split" when its
// members land in more than one place in b.
func (s *Server) handleVersionDiff(w http.ResponseWriter, r *http.Request) {
	aSess, aN, err := parseVersionID(r.PathValue("a"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	bSess, bN, err := parseVersionID(r.PathValue("b"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if aSess != bSess {
		writeErr(w, http.StatusBadRequest,
			"versions %s and %s belong to different sessions", r.PathValue("a"), r.PathValue("b"))
		return
	}
	sess, ok := s.sessionFor(r.Context(), aSess)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown session %q", aSess)
		return
	}
	s.mu.Lock()
	bad := aN > len(sess.versions) || bN > len(sess.versions)
	var aRec, bRec *codec.SummaryVersionRecord
	if !bad {
		aRec, bRec = sess.versions[aN-1], sess.versions[bN-1]
	}
	s.mu.Unlock()
	if bad {
		writeErr(w, http.StatusNotFound, "session %s has %d versions", aSess, len(sess.versions))
		return
	}

	resp := diffVersions(versionID(aSess, aN), versionID(bSess, bN),
		groupsOfRecord(aRec), groupsOfRecord(bRec))
	writeJSON(w, http.StatusOK, resp)
}

// diffVersions computes the structural diff between two partitions.
func diffVersions(aID, bID string, a, b provenance.Groups) versionDiffResponse {
	resp := versionDiffResponse{A: aID, B: bID}

	memberToA := make(map[provenance.Annotation]provenance.Annotation)
	for name, members := range a {
		for _, m := range members {
			memberToA[m] = name
		}
	}
	memberToB := make(map[provenance.Annotation]provenance.Annotation)
	for name, members := range b {
		for _, m := range members {
			memberToB[m] = name
		}
	}

	for _, bName := range sortedGroupNames(b) {
		members := b[bName]
		var parents []string
		seen := map[provenance.Annotation]bool{}
		for _, m := range members {
			if p, ok := memberToA[m]; ok && !seen[p] {
				seen[p] = true
				parents = append(parents, string(p))
			}
		}
		sort.Strings(parents)
		switch {
		case len(parents) == 0:
			resp.Added = append(resp.Added, diffGroup{Group: string(bName), Members: annStrings(members)})
		case len(parents) == 1 && sameMembers(a[provenance.Annotation(parents[0])], members):
			resp.Unchanged = append(resp.Unchanged, string(bName))
		default:
			resp.Merged = append(resp.Merged, diffGroup{Group: string(bName), Members: annStrings(members), From: parents})
		}
	}

	for _, aName := range sortedGroupNames(a) {
		dests := map[string]bool{}
		for _, m := range a[aName] {
			if g, ok := memberToB[m]; ok {
				dests[string(g)] = true
			} else {
				dests[string(m)] = true // fell back to a singleton
			}
		}
		if len(dests) >= 2 {
			into := make([]string, 0, len(dests))
			for d := range dests {
				into = append(into, d)
			}
			sort.Strings(into)
			resp.Split = append(resp.Split, diffGroup{Group: string(aName), Into: into})
		}
	}
	return resp
}

func sortedGroupNames(g provenance.Groups) []provenance.Annotation {
	names := make([]provenance.Annotation, 0, len(g))
	for name := range g {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	return names
}

func annStrings(anns []provenance.Annotation) []string {
	out := make([]string, len(anns))
	for i, a := range anns {
		out[i] = string(a)
	}
	return out
}

// sameMembers reports whether two sorted member lists are equal.
func sameMembers(a, b []provenance.Annotation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
