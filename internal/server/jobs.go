// jobs.go wires the durable async job engine into the server: job
// submission and lifecycle endpoints, the summarization task run by the
// worker pool, journaling of job state and checkpoints through the
// store, and the startup pass that replays persisted sessions and
// requeues jobs a previous process left queued or running.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/distance"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/summarycache"
)

// jobMeta is the server-side context of a job: which session it
// belongs to and the parameters to journal (and to rebuild the task
// from after a restart). Coalesced duplicate submissions register
// their sessions in attached; the terminal transition fans the result
// out to them and unpins each.
type jobMeta struct {
	sessionID   string
	params      codec.JobParams
	submittedMS int64
	// tenant owns the job's concurrent-job quota slot ("" when
	// anonymous); the terminal transition releases it.
	tenant string
	// attached are the sessions of coalesced submissions (possibly
	// repeating the primary session); each is pinned until the job ends.
	attached []*session
	// finished flips when the terminal transition has been processed;
	// a coalesced submission attaching after that must self-serve from
	// the job's result instead of waiting for a fan-out that already ran.
	// Guarded by s.mu, like attached.
	finished bool
}

func classKind(class string) datasets.ClassKind {
	if class == "attribute" {
		return datasets.CancelSingleAttribute
	}
	return datasets.CancelSingleAnnotation
}

// summarizeOutcome is what a summarize submission resolved to: a
// cached summary served without running anything, or a job — fresh
// (cacheState "miss") or shared with identical in-flight submissions
// (cacheState "inflight"). cacheState is "" when caching is disabled.
type summarizeOutcome struct {
	sess       *session
	params     codec.JobParams
	job        *jobs.Job
	cached     *core.Summary
	cacheState string
}

// submitSummarize validates a summarize request and resolves it
// against the summary cache: a hit replays the cached trace, a miss
// enqueues a job under the request's content address so identical
// concurrent submissions coalesce onto it. extendFrom > 0 makes the
// run a warm-started Extend seeded from that summary version; for a
// from-scratch request whose exact key misses, the cache's warm-start
// index is probed and a matching prior version of the session becomes
// the seed (cacheState "warm"). The request's trace context (from ctx)
// rides along with the job so worker-side spans land in the
// submitter's trace. The returned int is the HTTP status for the
// error, if any.
func (s *Server) submitSummarize(ctx context.Context, req *summarizeRequest, extendFrom int, lane jobs.Lane) (*summarizeOutcome, int, error) {
	sess, ok := s.sessionFor(ctx, req.SessionID)
	if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("unknown session %q", req.SessionID)
	}
	if req.WDist == 0 && req.WSize == 0 {
		req.WDist, req.WSize = 0.5, 0.5
	}
	params := codec.JobParams{
		WDist:             req.WDist,
		WSize:             req.WSize,
		TargetDist:        req.TargetDist,
		TargetSize:        req.TargetSize,
		Steps:             req.Steps,
		Class:             req.ValuationClass,
		TimeoutMS:         req.TimeoutMS,
		ExtendFromVersion: extendFrom,
	}
	out := &summarizeOutcome{sess: sess, params: params}

	var seed provenance.Groups
	if extendFrom > 0 {
		var err error
		seed, err = s.seedForVersion(sess, extendFrom)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
	}

	var key *summarycache.Key
	if s.cache != nil {
		k, est := s.cacheKeyFor(sess, params, seed)
		key = &k
		if entry, ok := s.cache.Get(k); ok {
			sum, err := s.serveFromCache(sess, est, entry)
			if err == nil {
				out.cached, out.cacheState = sum, "hit"
				return out, 0, nil
			}
			// A trace that no longer replays (e.g. the session's expression
			// changed out from under a stale entry) is dropped and recomputed.
			// Drop bypasses OnEvict, so the publisher's byte attribution is
			// released here, at the cache's accounted size.
			s.log.Error("cached summary replay failed; recomputing", "key", entry.Key, "err", err)
			if size, ok := s.cache.Drop(k); ok {
				s.releaseCacheQuota(entry.Tenant, size)
			}
			if s.st != nil {
				if derr := s.st.DropCacheEntry(entry.Key); derr != nil {
					s.log.Error("journaling cache drop failed", "key", entry.Key, "err", derr)
				}
			}
		}
		// The exact address missed. A from-scratch request can still
		// warm-start: the prefix index remembers the summaries this session
		// published under the same parameters before its expression grew by
		// ingest; the freshest one that maps back to a version becomes the
		// seed of an Extend run.
		if seed == nil {
			if entry, ok := s.cache.GetWarm(s.warmPrefixFor(sess, params)); ok {
				if v := s.versionForEntry(sess, entry); v > 0 {
					if warmSeed, err := s.seedForVersion(sess, v); err == nil && len(warmSeed) > 0 {
						params.ExtendFromVersion = v
						out.params = params
						seed = warmSeed
						k2, est2 := s.cacheKeyFor(sess, params, seed)
						key = &k2
						out.cacheState = "warm"
						s.met.cacheWarmHits.Inc()
						s.log.Info("warm-starting summarize from prior version",
							"session", sess.id, "version", v)
						if entry2, ok := s.cache.Get(k2); ok {
							// The seeded run itself has already been computed.
							if sum, err := s.serveFromCache(sess, est2, entry2); err == nil {
								out.cached, out.cacheState = sum, "hit"
								return out, 0, nil
							}
							if size, ok := s.cache.Drop(k2); ok {
								s.releaseCacheQuota(entry2.Tenant, size)
							}
							if s.st != nil {
								if derr := s.st.DropCacheEntry(entry2.Key); derr != nil {
									s.log.Error("journaling cache drop failed", "key", entry2.Key, "err", derr)
								}
							}
						}
					}
				}
			}
		}
		s.updateCacheGauges()
	}

	// Admission control and the tenant's concurrent-job quota gate the
	// enqueue: both run after the cache lookups (a cached summary costs
	// nothing and should never be shed) and before any queue slot or
	// worker is claimed.
	t := tenantFrom(ctx)
	if err := s.admitJob(t, s.estimateJobCost(s.provOf(sess), params.Class)); err != nil {
		return nil, http.StatusTooManyRequests, err
	}
	if err := s.acquireJobQuota(t); err != nil {
		return nil, http.StatusTooManyRequests, err
	}

	trace := ""
	if sc := obs.SpanContextFromContext(ctx); sc.Valid() {
		trace = sc.Traceparent()
	}
	job, coalesced, err := s.submitJob(sess, "", trace, tenantID(t), lane, params, nil, key, seed)
	if err != nil {
		s.releaseJobQuota(tenantID(t))
		switch {
		case errors.Is(err, jobs.ErrQueueFull):
			capacity := s.queueSize
			if lane == jobs.LaneBulk && s.bulkQueueSize > 0 {
				capacity = s.bulkQueueSize
			}
			return nil, http.StatusTooManyRequests,
				s.reject(t, rejectQueueFull, time.Second, "%s job queue full (capacity %d): retry later", lane, capacity)
		case errors.Is(err, jobs.ErrShutdown):
			return nil, http.StatusServiceUnavailable, err
		default:
			return nil, http.StatusBadRequest, err
		}
	}
	if coalesced {
		// The submission rides on an existing job, which already holds its
		// own submitter's quota slot; this waiter occupies no worker.
		s.releaseJobQuota(tenantID(t))
	}
	out.job = job
	now := time.Now()
	if coalesced {
		// This submission rides on another request's job. Cross-link the
		// traces: mark the request span with the leader's job, and drop a
		// waiter marker into the leader's trace so its tree shows every
		// party sharing the run.
		if span := obs.SpanFromContext(ctx); span != nil {
			span.SetAttr("coalescedInto", job.ID)
		}
		if lsc, perr := obs.ParseTraceparent(job.Trace()); perr == nil {
			attrs := []obs.Attr{obs.KV("job", job.ID)}
			if trace != "" {
				attrs = append(attrs, obs.KV("waiterTrace", traceIDOf(trace)))
			}
			s.tracer.AddSpanUnder(lsc, "job.coalesced-waiter", now, now, attrs...)
		}
	} else {
		s.tracer.AddSpan(ctx, "job.enqueue", now, now, obs.KV("job", job.ID), obs.KV("lane", lane.String()))
	}
	if s.cache != nil {
		switch {
		case coalesced:
			out.cacheState = "inflight"
			s.met.cacheCoalesced.Inc()
		case out.cacheState == "": // not warm-started
			out.cacheState = "miss"
			s.met.cacheMisses.Inc()
		}
	}
	if len(seed) > 0 && !coalesced {
		s.met.streamExtends.Inc()
	}
	return out, 0, nil
}

// submitJob enqueues one summarization job for sess, pinning the
// session against eviction for the job's lifetime. An empty id draws a
// fresh one; a resumed job passes its persisted id and latest
// checkpoint. trace is the submitter's opaque W3C traceparent ("" when
// untraced); it is carried by the job and journaled with it, so the
// worker's spans — and a post-restart resume's spans — join the
// original trace. A non-nil cache key makes the submission
// coalescible: when an identical job is already in flight, no new job
// starts — the session attaches to the running one (coalesced=true)
// and receives its summary when it completes. A non-empty seed makes
// the run a warm-started Extend from that partition (ignored when a
// checkpoint is resumed — the checkpoint's trace already carries the
// seed prefix).
func (s *Server) submitJob(sess *session, id, trace, tenantID string, lane jobs.Lane, params codec.JobParams, cp *core.Checkpoint, key *summarycache.Key, seed provenance.Groups) (*jobs.Job, bool, error) {
	s.mu.Lock()
	if id == "" {
		s.jobSeq++
		id = "j" + strconv.Itoa(s.jobSeq)
	}
	meta := &jobMeta{
		sessionID:   sess.id,
		params:      params,
		submittedMS: time.Now().UnixMilli(),
		tenant:      tenantID,
	}
	s.jobMeta[id] = meta
	sess.active++
	// Snapshot the expression under the lock: a concurrent ingest swaps
	// sess.prov, and the job must run on the expression its cache key was
	// computed from.
	prov := sess.prov
	s.mu.Unlock()

	dedupKey := ""
	if key != nil {
		dedupKey = "c:" + key.String()
	}
	job, coalesced, err := s.jm.SubmitLane(id, dedupKey, trace, lane, time.Duration(params.TimeoutMS)*time.Millisecond, s.summarizeTask(sess, prov, id, lane, params, cp, key, seed))
	if err != nil {
		s.mu.Lock()
		delete(s.jobMeta, id)
		sess.active--
		s.mu.Unlock()
		return nil, false, err
	}
	if coalesced {
		// The fresh id never became a job; this submission rides on
		// job.ID instead. Attach the session so the shared job's terminal
		// transition publishes to it and unpins it — unless that
		// transition has already run, in which case serve directly.
		s.mu.Lock()
		delete(s.jobMeta, id)
		shared := s.jobMeta[job.ID]
		if shared != nil && !shared.finished {
			shared.attached = append(shared.attached, sess)
			s.mu.Unlock()
		} else {
			sess.active--
			s.mu.Unlock()
			if st := job.Status(); st.State == jobs.Done {
				if sum, ok := st.Result.(*core.Summary); ok {
					s.mu.Lock()
					sess.summary = sum
					sess.class = classKind(params.Class)
					s.mu.Unlock()
				}
			}
		}
	}
	return job, coalesced, nil
}

// summarizeTask builds the worker-pool task for one job: construct the
// summarizer (with a checkpoint sink when a store is attached), run —
// resuming from cp if the job was interrupted before a restart, or
// warm-starting from seed when one is given — and publish the summary
// on the session and (with a key) in the summary cache. The cache
// publish happens before the job goes terminal, so a submission never
// observes a finished job it cannot coalesce onto without also finding
// the entry it would have computed. prov is the expression snapshot the
// submission keyed on; the task must not read sess.prov, which a
// concurrent ingest may have advanced.
func (s *Server) summarizeTask(sess *session, prov *provenance.Agg, jobID string, lane jobs.Lane, params codec.JobParams, cp *core.Checkpoint, key *summarycache.Key, seed provenance.Groups) jobs.Task {
	return func(ctx context.Context) (any, error) {
		// Rejoin the submitter's trace: the job carries the original
		// traceparent (or, after a restart, the pre-kill run's job span),
		// so spans from this worker — and from a crash-resumed successor —
		// all land under one trace ID.
		tp := jobs.TraceFromContext(ctx)
		if sc, perr := obs.ParseTraceparent(tp); perr == nil {
			ctx = obs.ContextWithSpanContext(ctx, sc)
		}
		name := "job.run"
		switch {
		case cp != nil:
			name = "job.resume"
		case len(seed) > 0:
			name = "job.extend"
		}
		ctx, span := s.tracer.StartSpan(ctx, name,
			obs.KV("job", jobID), obs.KV("session", sess.id), obs.KV("lane", lane.String()))
		defer span.End()
		jlog := s.log.With("job", jobID)
		if span != nil {
			jlog = jlog.With("trace", span.TraceID().String())
			if cp != nil {
				span.SetAttr("fromStep", cp.Step)
			}
			if params.ExtendFromVersion > 0 {
				span.SetAttr("extendFrom", params.ExtendFromVersion)
			}
		}

		kind := classKind(params.Class)
		est := s.estimatorFor(prov, kind)
		stepStart := time.Now()
		cfg := core.Config{
			Policy:     s.workload.Policy,
			Estimator:  est,
			WDist:      params.WDist,
			WSize:      params.WSize,
			TargetSize: params.TargetSize,
			TargetDist: params.TargetDist,
			MaxSteps:   params.Steps,
			// Checkpoints persist the job span's context (not the original
			// request's) so a resume's spans nest under the run they
			// continue, while still sharing the request's trace ID.
			TraceParent: tp,
			StepObserver: func(ev core.StepEvent) {
				now := time.Now()
				s.tracer.AddSpan(ctx, "merge-step", stepStart, now,
					obs.KV("step", ev.Step), obs.KV("new", ev.New),
					obs.KV("candidates", ev.Candidates), obs.KV("deltaSkips", ev.DeltaSkips),
					obs.KV("score", ev.Score), obs.KV("dist", ev.RDist), obs.KV("size", ev.Size))
				stepStart = now
			},
		}
		if span != nil {
			cfg.TraceParent = span.Context().Traceparent()
		}
		if s.st != nil {
			cfg.CheckpointEvery = s.checkpointEvery
			cfg.CheckpointSink = func(c core.Checkpoint) error {
				cpStart := time.Now()
				if err := s.st.PutCheckpoint(&codec.CheckpointRecord{JobID: jobID, Checkpoint: &c}); err != nil {
					return err
				}
				s.met.checkpoints.Inc()
				s.tracer.AddSpan(ctx, "checkpoint", cpStart, time.Now(), obs.KV("step", c.Step))
				return nil
			}
		}
		summarizer, err := core.New(cfg)
		if err != nil {
			span.SetAttr("error", err)
			return nil, err
		}
		var sum *core.Summary
		if cp == nil && len(seed) > 0 {
			sum, err = summarizer.Extend(ctx, prov, seed)
		} else {
			sum, err = summarizer.Resume(ctx, prov, cp)
		}
		if err != nil {
			span.SetAttr("error", err)
			return nil, err
		}
		span.SetAttr("steps", len(sum.Steps))
		span.SetAttr("stop", sum.StopReason)
		s.mu.Lock()
		sess.summary = sum
		sess.class = kind
		s.mu.Unlock()
		if s.cache != nil && key != nil {
			s.publishToCache(sess, *key, params, sum)
		}
		s.recordSummarize(sum, est)
		jlog.Info("summarized",
			"session", sess.id, "job", jobID, "steps", len(sum.Steps), "stop", sum.StopReason,
			"size", sum.Expr.Size(), "dist", sum.Dist, "dur", sum.Elapsed)
		return sum, nil
	}
}

// onJobTransition is the jobs.Manager hook: it keeps the queue/running
// gauges and latency histogram current, unpins sessions when their jobs
// end, and journals state transitions. One deliberate gap: a job
// interrupted by shutdown (cause ErrShutdown) is NOT journaled as
// terminal — its last persisted state stays queued/running, which is
// exactly what makes the next startup requeue it from its latest
// checkpoint.
func (s *Server) onJobTransition(tr jobs.Transition) {
	id := tr.Job.ID
	var fanout []*session
	s.mu.Lock()
	meta := s.jobMeta[id]
	if tr.To.Terminal() {
		if meta != nil {
			meta.finished = true
			if sess, ok := s.sessions[meta.sessionID]; ok {
				sess.active--
			}
			for _, as := range meta.attached {
				as.active--
			}
			fanout = meta.attached
		}
	}
	s.mu.Unlock()

	// Fan the shared result out to coalesced waiters' sessions.
	if tr.To == jobs.Done && len(fanout) > 0 && meta != nil {
		if sum, ok := tr.Job.Status().Result.(*core.Summary); ok {
			kind := classKind(meta.params.Class)
			s.mu.Lock()
			for _, as := range fanout {
				as.summary = sum
				as.class = kind
			}
			s.mu.Unlock()
		}
	}

	// Every completed run appends a version to the primary session's
	// chain (with or without a store; the chain drives /api/extend).
	if tr.To == jobs.Done && meta != nil {
		if sum, ok := tr.Job.Status().Result.(*core.Summary); ok {
			s.appendVersion(meta, sum)
		}
	}

	lane := tr.Job.Lane().String()
	switch {
	case tr.From == jobs.Queued && tr.To == jobs.Queued:
		s.met.jobsQueued[lane].Inc()
	case tr.From == jobs.Queued && tr.To == jobs.Running:
		s.met.jobsQueued[lane].Dec()
		s.met.jobsRunning[lane].Inc()
	case tr.From == jobs.Queued && tr.To.Terminal():
		s.met.jobsQueued[lane].Dec()
	case tr.From == jobs.Running && tr.To.Terminal():
		s.met.jobsRunning[lane].Dec()
	}
	if tr.To.Terminal() && meta != nil {
		s.releaseJobQuota(meta.tenant)
	}
	if tr.To.Terminal() {
		trace := tr.Job.Trace()
		if tid := traceIDOf(trace); tid != "" {
			s.met.jobDur.ObserveExemplar(tr.Latency.Seconds(), tid)
		} else {
			s.met.jobDur.Observe(tr.Latency.Seconds())
		}
		if c, ok := s.met.jobsFinished[tr.To.String()]; ok {
			c.Inc()
		}
		// SLO and flight recorder: shutdown interruptions are requeues,
		// not failures, so they count neither as bad events nor as
		// capture triggers.
		genuineFailure := tr.To == jobs.Failed && !errors.Is(tr.Cause, jobs.ErrShutdown)
		s.sloJob.Observe(tr.Latency, genuineFailure)
		if genuineFailure {
			var tid obs.TraceID
			if sc, perr := obs.ParseTraceparent(trace); perr == nil {
				tid = sc.TraceID
			}
			if dir, ferr := s.fr.Capture("job-failure", tid); ferr != nil {
				s.log.Error("flight capture failed", "job", id, "err", ferr)
			} else if dir != "" {
				s.log.Info("flight bundle captured", "job", id, "dir", dir)
			}
		}
	}

	if s.st == nil || meta == nil {
		return
	}
	if tr.To.Terminal() && errors.Is(tr.Cause, jobs.ErrShutdown) {
		s.log.Info("job interrupted by shutdown; leaving requeueable", "job", id)
		return
	}
	if tr.To == jobs.Done {
		if sum, ok := tr.Job.Status().Result.(*core.Summary); ok {
			// One summary record per distinct session sharing the job: the
			// primary submitter plus any coalesced waiters.
			sessionIDs := []string{meta.sessionID}
			seen := map[string]bool{meta.sessionID: true}
			for _, as := range fanout {
				if !seen[as.id] {
					seen[as.id] = true
					sessionIDs = append(sessionIDs, as.id)
				}
			}
			for _, sid := range sessionIDs {
				rec := &codec.SummaryRecord{
					SessionID:    sid,
					Class:        meta.params.Class,
					Equivalences: codec.StepsFromCore(sum.Equivalences),
					Steps:        codec.StepsFromCore(sum.Steps),
					Dist:         sum.Dist,
					StopReason:   sum.StopReason,
					ExtendedFrom: sum.ExtendedFrom,
				}
				if err := s.st.PutSummary(rec); err != nil {
					s.log.Error("journaling summary failed", "job", id, "session", sid, "err", err)
				}
			}
		}
	}
	rec := &codec.JobRecord{
		ID:          id,
		SessionID:   meta.sessionID,
		State:       tr.To.String(),
		Params:      meta.params,
		SubmittedMS: meta.submittedMS,
		Trace:       tr.Job.Trace(),
		Tenant:      meta.tenant,
		Lane:        lane,
	}
	if tr.Err != nil {
		rec.Error = tr.Err.Error()
	}
	if err := s.st.PutJob(rec); err != nil {
		s.log.Error("journaling job state failed", "job", id, "state", rec.State, "err", err)
	}
}

// jobResponse is the API view of a job.
type jobResponse struct {
	ID          string             `json:"id"`
	SessionID   string             `json:"sessionId,omitempty"`
	State       string             `json:"state"`
	Error       string             `json:"error,omitempty"`
	SubmittedAt string             `json:"submittedAt,omitempty"`
	StartedAt   string             `json:"startedAt,omitempty"`
	FinishedAt  string             `json:"finishedAt,omitempty"`
	Result      *summarizeResponse `json:"result,omitempty"`
	// Trace is the hex trace ID the job's spans are recorded under
	// (look it up via GET /api/traces/{id}); empty for untraced jobs.
	Trace string `json:"trace,omitempty"`
	// Cached marks a submission answered from the summary cache without
	// running a job.
	Cached bool `json:"cached,omitempty"`
}

func rfc3339OrEmpty(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

func (s *Server) jobResponseFor(job *jobs.Job) jobResponse {
	st := job.Status()
	s.mu.Lock()
	meta := s.jobMeta[st.ID]
	s.mu.Unlock()
	resp := jobResponse{
		ID:          st.ID,
		State:       st.State.String(),
		SubmittedAt: rfc3339OrEmpty(st.SubmittedAt),
		StartedAt:   rfc3339OrEmpty(st.StartedAt),
		FinishedAt:  rfc3339OrEmpty(st.FinishedAt),
		Trace:       traceIDOf(job.Trace()),
	}
	if meta != nil {
		resp.SessionID = meta.sessionID
	}
	if st.Err != nil {
		resp.Error = st.Err.Error()
	}
	if st.State == jobs.Done {
		if sum, ok := st.Result.(*core.Summary); ok {
			r := s.summaryResponse(sum)
			resp.Result = &r
		}
	}
	return resp
}

// handleJobSubmit implements POST /api/jobs: enqueue a summarization and
// return immediately with the job id. A cache hit synthesizes an
// already-done job carrying the cached result; a submission identical
// to an in-flight job returns that job's id (the duplicate attaches to
// it rather than queueing a second run).
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req summarizeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	out, status, err := s.submitSummarize(r.Context(), &req, 0, jobs.LaneBulk)
	if err != nil {
		writeReject(w, status, err)
		return
	}
	if out.cacheState != "" {
		w.Header().Set("X-Prox-Cache", out.cacheState)
	}
	if out.cached != nil {
		writeJSON(w, http.StatusOK, s.cachedJobResponse(out))
		return
	}
	writeJSON(w, http.StatusAccepted, s.jobResponseFor(out.job))
}

// cachedJobResponse registers a synthetic, already-done job for a
// cache hit, so the async API keeps its invariant that every accepted
// submission has a pollable job id.
func (s *Server) cachedJobResponse(out *summarizeOutcome) jobResponse {
	now := time.Now()
	s.mu.Lock()
	s.jobSeq++
	id := "j" + strconv.Itoa(s.jobSeq)
	rec := &codec.JobRecord{
		ID:          id,
		SessionID:   out.sess.id,
		State:       store.JobStateDone,
		Params:      out.params,
		SubmittedMS: now.UnixMilli(),
		Tenant:      out.sess.tenant,
	}
	s.finished[id] = rec
	s.mu.Unlock()
	if s.st != nil {
		if err := s.st.PutJob(rec); err != nil {
			s.log.Error("journaling cached job failed", "job", id, "err", err)
		}
	}
	sr := s.summaryResponse(out.cached)
	sr.Cached = true
	return jobResponse{
		ID:          id,
		SessionID:   out.sess.id,
		State:       store.JobStateDone,
		SubmittedAt: rfc3339OrEmpty(now),
		FinishedAt:  rfc3339OrEmpty(now),
		Result:      &sr,
		Cached:      true,
	}
}

// jobNotFound renders the exact 404 an unknown job id produces, so a
// cross-tenant probe cannot distinguish "not yours" from "not there".
func jobNotFound(w http.ResponseWriter, id string) {
	writeErr(w, http.StatusNotFound, "%v", fmt.Errorf("%w: %s", jobs.ErrNotFound, id))
}

// handleJobGet implements GET /api/jobs/{id}. Jobs that finished before
// a restart are answered from their journaled record. Ownership mirrors
// sessionFor: another tenant's job is indistinguishable from a missing
// one.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t := tenantFrom(r.Context())
	job, err := s.jm.Get(id)
	if err != nil {
		s.mu.Lock()
		rec := s.finished[id]
		s.mu.Unlock()
		if rec == nil || !ownsJob(t, rec.Tenant) {
			jobNotFound(w, id)
			return
		}
		writeJSON(w, http.StatusOK, jobResponse{
			ID: rec.ID, SessionID: rec.SessionID, State: rec.State, Error: rec.Error,
			SubmittedAt: rfc3339OrEmpty(time.UnixMilli(rec.SubmittedMS)),
			Trace:       traceIDOf(rec.Trace),
		})
		return
	}
	s.mu.Lock()
	meta := s.jobMeta[id]
	s.mu.Unlock()
	if meta != nil && !ownsJob(t, meta.tenant) {
		jobNotFound(w, id)
		return
	}
	writeJSON(w, http.StatusOK, s.jobResponseFor(job))
}

// handleJobCancel implements POST /api/jobs/{id}/cancel. Cancelation
// is per-waiter: on a job shared by coalesced identical submissions,
// each cancel detaches one waiter, and only the last one actually
// cancels the computation.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Ownership is checked before Leave: detaching a waiter (let alone
	// canceling the run) must not be possible against another tenant's
	// job, and the refusal must look exactly like an unknown id.
	s.mu.Lock()
	meta := s.jobMeta[id]
	s.mu.Unlock()
	if meta != nil && !ownsJob(tenantFrom(r.Context()), meta.tenant) {
		jobNotFound(w, id)
		return
	}
	if _, err := s.jm.Leave(id); err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	job, err := s.jm.Get(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, s.jobResponseFor(job))
}

// writeJobOutcome renders a terminal job status for submit-and-wait.
func (s *Server) writeJobOutcome(w http.ResponseWriter, st jobs.Status) {
	switch st.State {
	case jobs.Done:
		if sum, ok := st.Result.(*core.Summary); ok {
			writeJSON(w, http.StatusOK, s.summaryResponse(sum))
			return
		}
		writeErr(w, http.StatusInternalServerError, "job %s finished without a summary", st.ID)
	case jobs.Canceled:
		writeErr(w, http.StatusConflict, "job %s was canceled", st.ID)
	default:
		status := http.StatusInternalServerError
		if errors.Is(st.Cause, context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
		}
		writeErr(w, status, "job %s failed: %v", st.ID, st.Err)
	}
}

// restoreFromStore replays the store's state into the server: sessions
// (with their custom universe entries, replayed ingest batches,
// summary version chains and completed summaries) come back under
// their original ids, and jobs whose last journaled state is queued or
// running are resubmitted, resuming from their latest checkpoint.
func (s *Server) restoreFromStore() error {
	state := s.st.State()
	for _, rec := range state.Sessions {
		for _, e := range rec.Universe {
			s.workload.Universe.Add(provenance.Annotation(e.Ann), e.Table, provenance.Attrs(e.Attrs))
		}
		sess := &session{id: rec.ID, prov: rec.Prov, universe: rec.Universe, tenant: rec.Tenant}
		// Re-occupy the owner's session quota; ForceAcquire because a
		// restart must never fail to restore journaled state over a
		// since-shrunk quota.
		if s.tenants != nil && rec.Tenant != "" {
			if t, ok := s.tenants.Get(rec.Tenant); ok {
				t.ForceAcquireSession()
			}
		}
		// Replay the session's ingest log in append order: the same
		// Append calls the live server made rebuild the same expression
		// snapshots and plan state.
		for _, ing := range state.Ingests[rec.ID] {
			for _, e := range ing.Universe {
				s.workload.Universe.Add(provenance.Annotation(e.Ann), e.Table, provenance.Attrs(e.Attrs))
			}
			if sess.stream == nil {
				sess.stream = stream.NewSession(sess.prov)
			}
			next, patched, err := sess.stream.Append(ing.Added.Tensors)
			if err != nil {
				return fmt.Errorf("server: replaying ingest for session %s: %w", rec.ID, err)
			}
			sess.prov = next
			s.recordIngest(len(ing.Added.Tensors), patched)
		}
		// Version chains come back before jobs are requeued below: a
		// requeued extend job rebuilds its seed from its parent version.
		sess.versions = append([]*codec.SummaryVersionRecord(nil), state.Versions[rec.ID]...)
		if sumRec, ok := state.Summaries[rec.ID]; ok {
			sum, err := s.rebuildSummary(sess, new(distance.Estimator), sumRec)
			if err != nil {
				return fmt.Errorf("server: restoring session %s summary: %w", rec.ID, err)
			}
			sess.summary = sum
			sess.class = classKind(sumRec.Class)
		}
		s.sessions[rec.ID] = sess
		s.order = append(s.order, rec.ID)
		if n, err := strconv.Atoi(rec.ID); err == nil && n > s.nextID {
			s.nextID = n
		}
	}
	s.met.sessions.Set(float64(len(s.sessions)))

	// Warm-start the summary cache from its journaled entries (in
	// first-append order, so replayed LRU displacement keeps the most
	// recently journaled entries when bounds shrank across the restart),
	// each under its journaled warm-start prefix when it has one.
	if s.cache != nil {
		for _, rec := range state.CacheEntries {
			k, err := summarycache.ParseKey(rec.Key)
			if err != nil {
				s.log.Error("dropping unparseable cache key from store", "key", rec.Key, "err", err)
				continue
			}
			var ok bool
			if prefix, perr := summarycache.ParseKey(rec.Prefix); rec.Prefix != "" && perr == nil {
				ok = s.cache.PutWithPrefix(k, prefix, rec)
			} else {
				ok = s.cache.Put(k, rec)
			}
			if !ok {
				s.met.cacheRejected.Inc()
				s.log.Warn("cache rejected journaled entry on restore", "key", rec.Key)
			} else if s.tenants != nil && rec.Tenant != "" {
				// Journaled entries come back regardless of what the
				// quota says today (mirrors ForceAcquireJob/Session);
				// eviction returns the bytes through onCacheEvict.
				if t, ok := s.tenants.Get(rec.Tenant); ok {
					t.ForceAcquireCacheBytes(cacheRecSize(rec))
				}
			}
		}
		s.updateCacheGauges()
	}

	var requeue []*codec.JobRecord
	for _, rec := range state.Jobs {
		if n, err := strconv.Atoi(strings.TrimPrefix(rec.ID, "j")); err == nil && n > s.jobSeq {
			s.jobSeq = n
		}
		if store.TerminalJobState(rec.State) {
			s.finished[rec.ID] = rec
			continue
		}
		requeue = append(requeue, rec)
	}
	for _, rec := range requeue {
		sess, ok := s.sessions[rec.SessionID]
		if !ok {
			s.log.Error("interrupted job references unknown session; dropping", "job", rec.ID, "session", rec.SessionID)
			continue
		}
		var cp *core.Checkpoint
		if cpRec, ok := state.Checkpoints[rec.ID]; ok {
			cp = cpRec.Checkpoint
		}
		step := 0
		if cp != nil {
			step = cp.Step
		}
		var seed provenance.Groups
		if rec.Params.ExtendFromVersion > 0 {
			var err error
			seed, err = s.seedForVersion(sess, rec.Params.ExtendFromVersion)
			if err != nil {
				s.log.Error("interrupted extend job references unknown version; dropping",
					"job", rec.ID, "session", rec.SessionID, "version", rec.Params.ExtendFromVersion, "err", err)
				continue
			}
		}
		var key *summarycache.Key
		if s.cache != nil {
			k, _ := s.cacheKeyFor(sess, rec.Params, seed)
			key = &k
		}
		// Resume under the interrupted run's trace: prefer the
		// checkpoint's traceparent (the pre-kill job span, so resume
		// spans nest under it) and fall back to the traceparent journaled
		// at submission.
		trace := rec.Trace
		if cp != nil && cp.TraceParent != "" {
			trace = cp.TraceParent
		}
		// Requeued jobs force-acquire their owner's quota slot: a restart
		// must not drop journaled work because the tenant is at its limit.
		if s.tenants != nil && rec.Tenant != "" {
			if t, ok := s.tenants.Get(rec.Tenant); ok {
				t.ForceAcquireJob()
			}
		}
		job, coalesced, err := s.submitJob(sess, rec.ID, trace, rec.Tenant, jobs.ParseLane(rec.Lane), rec.Params, cp, key, seed)
		if err != nil {
			s.releaseJobQuota(rec.Tenant)
			return fmt.Errorf("server: requeueing interrupted job %s: %w", rec.ID, err)
		}
		if coalesced {
			// Two interrupted jobs with the same content address: this one
			// rides on the first's run. Retire its journaled record so it is
			// not requeued forever, and hand back the quota slot it never used.
			s.releaseJobQuota(rec.Tenant)
			done := &codec.JobRecord{
				ID:          rec.ID,
				SessionID:   rec.SessionID,
				State:       store.JobStateCanceled,
				Error:       "coalesced into " + job.ID,
				Params:      rec.Params,
				SubmittedMS: rec.SubmittedMS,
			}
			s.finished[rec.ID] = done
			if err := s.st.PutJob(done); err != nil {
				s.log.Error("journaling coalesced requeue failed", "job", rec.ID, "err", err)
			}
			s.log.Info("requeued job coalesced onto identical in-flight job", "job", rec.ID, "into", job.ID)
			continue
		}
		s.log.Info("requeued interrupted job", "job", rec.ID, "session", rec.SessionID, "fromStep", step)
	}
	return nil
}

// rebuildSummary reconstructs a core.Summary from its journaled merge
// trace by replaying the trace over the session's provenance
// (core.ReplayTrace) on a run begun on est; a replay reads no valuation
// class, so any estimator serves.
func (s *Server) rebuildSummary(sess *session, est *distance.Estimator, rec *codec.SummaryRecord) (*core.Summary, error) {
	eqs, err := codec.StepsToCore(rec.Equivalences)
	if err != nil {
		return nil, err
	}
	steps, err := codec.StepsToCore(rec.Steps)
	if err != nil {
		return nil, err
	}
	expr, cum := core.ReplayTrace(est.Begin(sess.prov), s.workload.Universe, sess.prov, provenance.NewMapping(), eqs, steps)
	return &core.Summary{
		Original:     sess.prov,
		Expr:         expr,
		Mapping:      cum,
		Groups:       provenance.GroupsOf(sess.prov.Annotations(), cum),
		Equivalences: eqs,
		Steps:        steps,
		Dist:         rec.Dist,
		StopReason:   rec.StopReason,
	}, nil
}

// storeObserver adapts store events to the metrics registry.
type storeObserver struct {
	appends   *obs.Counter
	bytes     *obs.Counter
	fsyncs    *obs.Counter
	fsyncDur  *obs.Histogram
	truncated *obs.Counter
}

// fsyncBuckets spans the fsync latency range from page-cache-absorbed
// (~50µs) to a seriously stalled disk (1s).
var fsyncBuckets = []float64{0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1}

// NewStoreObserver returns a store.Observer publishing append/fsync/
// truncation counters and the fsync latency histogram to reg (pass the
// same registry as WithRegistry so everything lands on one /metrics
// page).
func NewStoreObserver(reg *obs.Registry) store.Observer {
	return &storeObserver{
		appends:   reg.Counter("prox_store_appends_total", "Records appended to the durability log.", nil),
		bytes:     reg.Counter("prox_store_append_bytes_total", "Framed bytes appended to the durability log.", nil),
		fsyncs:    reg.Counter("prox_store_fsyncs_total", "fsync calls issued by the durability store.", nil),
		fsyncDur:  reg.Histogram("prox_store_fsync_seconds", "Latency of fsync calls issued by the durability store.", fsyncBuckets, nil),
		truncated: reg.Counter("prox_store_truncated_bytes_total", "Torn-tail bytes discarded when opening the log.", nil),
	}
}

func (o *storeObserver) Appended(n int) {
	o.appends.Inc()
	o.bytes.Add(float64(n))
}
func (o *storeObserver) Synced(d time.Duration) {
	o.fsyncs.Inc()
	o.fsyncDur.Observe(d.Seconds())
}
func (o *storeObserver) Truncated(n int64) { o.truncated.Add(float64(n)) }
