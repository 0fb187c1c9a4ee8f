package server

import (
	"context"
	"net/http"
	"time"

	"repro/internal/obs"
)

// metrics holds the server's metric handles, registered once at startup
// so the request path never touches the registry lock.
type metrics struct {
	inFlight   *obs.Gauge
	sessions   *obs.Gauge
	evictions  *obs.Counter
	summarizes *obs.Histogram
	steps      *obs.Counter

	// job engine instrumentation, by priority lane.
	jobsQueued   map[string]*obs.Gauge // by lane
	jobsRunning  map[string]*obs.Gauge // by lane
	queueDepth   map[string]*obs.Gauge // by lane, sampled at scrape
	jobDur       *obs.Histogram
	jobsFinished map[string]*obs.Counter // by terminal state
	checkpoints  *obs.Counter

	// traffic-hardening instrumentation: 429 causes and admission
	// control (see rejectError; per-tenant series live in tenantMetrics).
	rejected map[string]*obs.Counter // by rejection cause
	authFail *obs.Counter

	// summary-cache instrumentation.
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheWarmHits  *obs.Counter
	cacheEvictions *obs.Counter
	cacheRejected  *obs.Counter
	cacheCoalesced *obs.Counter
	cacheBytes     *obs.Gauge
	cacheEntries   *obs.Gauge

	// streaming ingest and versioning instrumentation.
	streamIngests    *obs.Counter
	streamTensors    *obs.Counter
	streamPatches    *obs.Counter
	streamRecompiles *obs.Counter
	streamExtends    *obs.Counter
	versions         *obs.Counter

	// estimator instrumentation, accumulated from per-request estimators
	// after each summarization (see recordSummarize).
	estEvals     *obs.Counter
	estHits      *obs.Counter
	estMisses    *obs.Counter
	estResets    *obs.Counter
	estSamples   *obs.Counter
	estDistCalls *obs.Counter
	estDistSecs  *obs.Counter

	estDeltaCalls   *obs.Counter
	estDeltaCands   *obs.Counter
	estDeltaSecs    *obs.Counter
	estDeltaSkips   *obs.Counter
	estDeltaSubtree *obs.Counter
	estDeltaFull    *obs.Counter

	estMergePatches    *obs.Counter
	estMergeRecompiles *obs.Counter
	estProbesCarried   *obs.Counter
	estProbesBuilt     *obs.Counter
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		inFlight:   reg.Gauge("prox_http_in_flight_requests", "HTTP requests currently being served.", nil),
		sessions:   reg.Gauge("prox_sessions", "Selection sessions held in memory.", nil),
		evictions:  reg.Counter("prox_sessions_evicted_total", "Sessions evicted by the oldest-first cap.", nil),
		summarizes: reg.Histogram("prox_summarize_duration_seconds", "Wall time of full summarization runs.", nil, nil),
		steps:      reg.Counter("prox_summarize_steps_total", "Merge steps committed by Algorithm 1.", nil),

		jobsQueued: map[string]*obs.Gauge{
			"interactive": reg.Gauge("prox_jobs_queued", "Summarization jobs waiting in the queue.", obs.Labels{"lane": "interactive"}),
			"bulk":        reg.Gauge("prox_jobs_queued", "Summarization jobs waiting in the queue.", obs.Labels{"lane": "bulk"}),
		},
		jobsRunning: map[string]*obs.Gauge{
			"interactive": reg.Gauge("prox_jobs_running", "Summarization jobs currently running on workers.", obs.Labels{"lane": "interactive"}),
			"bulk":        reg.Gauge("prox_jobs_running", "Summarization jobs currently running on workers.", obs.Labels{"lane": "bulk"}),
		},
		queueDepth: map[string]*obs.Gauge{
			"interactive": reg.Gauge("prox_jobs_queue_depth", "Jobs sitting in the manager's queue channels, sampled at scrape time.", obs.Labels{"lane": "interactive"}),
			"bulk":        reg.Gauge("prox_jobs_queue_depth", "Jobs sitting in the manager's queue channels, sampled at scrape time.", obs.Labels{"lane": "bulk"}),
		},
		jobDur: reg.Histogram("prox_job_duration_seconds", "Submit-to-terminal latency of summarization jobs.", nil, nil),

		rejected: map[string]*obs.Counter{
			rejectQueueFull:     reg.Counter("prox_http_rejected_total", "Requests rejected with 429, by cause.", obs.Labels{"cause": rejectQueueFull}),
			rejectRateLimit:     reg.Counter("prox_http_rejected_total", "Requests rejected with 429, by cause.", obs.Labels{"cause": rejectRateLimit}),
			rejectQuotaJobs:     reg.Counter("prox_http_rejected_total", "Requests rejected with 429, by cause.", obs.Labels{"cause": rejectQuotaJobs}),
			rejectQuotaSessions: reg.Counter("prox_http_rejected_total", "Requests rejected with 429, by cause.", obs.Labels{"cause": rejectQuotaSessions}),
			rejectCost:          reg.Counter("prox_http_rejected_total", "Requests rejected with 429, by cause.", obs.Labels{"cause": rejectCost}),
		},
		authFail: reg.Counter("prox_auth_failures_total", "Requests refused for a missing or unknown API key.", nil),
		jobsFinished: map[string]*obs.Counter{
			"done":     reg.Counter("prox_jobs_finished_total", "Jobs reaching a terminal state.", obs.Labels{"state": "done"}),
			"failed":   reg.Counter("prox_jobs_finished_total", "Jobs reaching a terminal state.", obs.Labels{"state": "failed"}),
			"canceled": reg.Counter("prox_jobs_finished_total", "Jobs reaching a terminal state.", obs.Labels{"state": "canceled"}),
		},
		checkpoints: reg.Counter("prox_checkpoints_total", "Job checkpoints journaled to the store.", nil),

		cacheHits:      reg.Counter("prox_cache_hits_total", "Summarize requests served from the summary cache.", nil),
		cacheMisses:    reg.Counter("prox_cache_misses_total", "Summarize requests that missed the summary cache.", nil),
		cacheWarmHits:  reg.Counter("prox_cache_warm_hits_total", "Exact-miss summarize requests warm-started from a prior version found in the cache's prefix index.", nil),
		cacheEvictions: reg.Counter("prox_cache_evictions_total", "Summary-cache entries displaced by the LRU/TTL bounds.", nil),
		cacheRejected:  reg.Counter("prox_cache_rejected_total", "Summary-cache puts rejected (oversized entry or marshal failure).", nil),
		cacheCoalesced: reg.Counter("prox_cache_inflight_coalesced_total", "Submissions coalesced onto an in-flight identical job.", nil),
		cacheBytes:     reg.Gauge("prox_cache_bytes", "Bytes held by the summary cache.", nil),
		cacheEntries:   reg.Gauge("prox_cache_entries", "Entries held by the summary cache.", nil),

		streamIngests:    reg.Counter("prox_stream_ingests_total", "Ingest batches appended to streaming sessions.", nil),
		streamTensors:    reg.Counter("prox_stream_ingest_tensors_total", "Tensors appended by ingest batches.", nil),
		streamPatches:    reg.Counter("prox_stream_plan_patches_total", "Ingest batches folded into the compiled evaluation plan in place (Plan.ApplyAppend).", nil),
		streamRecompiles: reg.Counter("prox_stream_plan_recompiles_total", "Ingest batches that forced a full evaluation-plan recompile.", nil),
		streamExtends:    reg.Counter("prox_stream_extends_total", "Warm-started Extend jobs submitted (explicit /api/extend or cache warm-starts).", nil),
		versions:         reg.Counter("prox_summary_versions_total", "Summary versions appended to session chains.", nil),

		estEvals:     reg.Counter("prox_estimator_evaluations_total", "VAL-FUNC summands evaluated by the distance estimator.", nil),
		estHits:      reg.Counter("prox_estimator_cache_hits_total", "Original-expression evaluation cache hits.", nil),
		estMisses:    reg.Counter("prox_estimator_cache_misses_total", "Original-expression evaluation cache misses.", nil),
		estResets:    reg.Counter("prox_estimator_cache_resets_total", "Original-expression evaluation cache resets.", nil),
		estSamples:   reg.Counter("prox_estimator_samples_total", "Monte-Carlo valuation draws.", nil),
		estDistCalls: reg.Counter("prox_estimator_distance_calls_total", "Estimator Distance invocations.", nil),
		estDistSecs:  reg.Counter("prox_estimator_distance_seconds_total", "Total wall time inside estimator Distance calls.", nil),

		estDeltaCalls:   reg.Counter("prox_estimator_delta_calls_total", "Estimator DistanceDelta invocations (incremental cohort sweeps).", nil),
		estDeltaCands:   reg.Counter("prox_estimator_delta_candidates_total", "Candidates scored by DistanceDelta sweeps.", nil),
		estDeltaSecs:    reg.Counter("prox_estimator_delta_seconds_total", "Total wall time inside DistanceDelta sweeps.", nil),
		estDeltaSkips:   reg.Counter("prox_estimator_delta_skips_total", "Candidate-valuation pairs short-circuited by the truth-delta check (base VAL-FUNC value reused).", nil),
		estDeltaSubtree: reg.Counter("prox_estimator_delta_subtree_evals_total", "Expression nodes recomputed by dirty-subtree candidate evaluations.", nil),
		estDeltaFull:    reg.Counter("prox_estimator_delta_full_evals_total", "Candidate-valuation pairs that needed a candidate evaluation (not short-circuited).", nil),

		estMergePatches:    reg.Counter("prox_estimator_merge_patches_total", "Committed merges whose cached evaluation plan was patched in place (Plan.ApplyMerge).", nil),
		estMergeRecompiles: reg.Counter("prox_estimator_merge_recompiles_total", "Committed merges that forced a plan recompile on the next step (patch refused or disabled).", nil),
		estProbesCarried:   reg.Counter("prox_estimator_probes_carried_total", "Delta candidates whose compiled probe was carried over from the previous merge step.", nil),
		estProbesBuilt:     reg.Counter("prox_estimator_probes_built_total", "Delta candidates whose compiled probe was built afresh.", nil),
	}
}

// statusRecorder captures the response status code for labeling.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// statusClass folds a status code into its Prometheus-friendly class
// label ("2xx", "4xx", ...), keeping series cardinality bounded.
func statusClass(code int) string {
	switch {
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	case code >= 200:
		return "2xx"
	}
	return "1xx"
}

// instrument wraps a handler with the observability middleware: per-route
// request counting by status class, a per-route latency histogram, the
// in-flight gauge, distributed tracing, the optional per-route latency
// SLO, and a debug-level request log line. The route label is the
// registered pattern, not the raw URL, so cardinality stays fixed; all
// series are pre-registered here so the request path never takes the
// registry lock.
//
// Tracing: an incoming W3C `traceparent` header joins the caller's
// trace; otherwise a fresh trace is rooted. The request span wraps the
// handler, the trace ID is echoed in `X-Prox-Trace`, attached to the
// latency histogram as an exemplar, and stamped on the request-scoped
// logger carried in the context (see Server.logFor).
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.reg.Histogram("prox_http_request_duration_seconds",
		"HTTP request latency by route.", nil, obs.Labels{"route": route})
	byClass := map[string]*obs.Counter{}
	for _, class := range []string{"1xx", "2xx", "3xx", "4xx", "5xx"} {
		byClass[class] = s.reg.Counter("prox_http_requests_total",
			"HTTP requests by route and status class.",
			obs.Labels{"route": route, "code": class})
	}
	slo := s.sloForRoute(route)
	return func(w http.ResponseWriter, r *http.Request) {
		s.met.inFlight.Inc()
		defer s.met.inFlight.Dec()
		ctx := r.Context()
		if sc, err := obs.ParseTraceparent(r.Header.Get("traceparent")); err == nil {
			ctx = obs.ContextWithSpanContext(ctx, sc)
		}
		ctx, span := s.tracer.StartSpan(ctx, "http "+route,
			obs.KV("route", route), obs.KV("method", r.Method))
		log := s.log
		traceID := ""
		if span != nil {
			traceID = span.TraceID().String()
			w.Header().Set("X-Prox-Trace", traceID)
			log = log.With("trace", traceID, "span", span.Context().SpanID.String())
			ctx = context.WithValue(ctx, reqLogKey{}, log)
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(rec, r.WithContext(ctx))
		elapsed := time.Since(start)
		span.SetAttr("status", rec.status)
		span.End()
		byClass[statusClass(rec.status)].Inc()
		if traceID != "" {
			hist.ObserveExemplar(elapsed.Seconds(), traceID)
		} else {
			hist.Observe(elapsed.Seconds())
		}
		slo.Observe(elapsed, rec.status >= 500)
		log.Debug("request",
			"route", route, "method", r.Method, "status", rec.status, "dur", elapsed)
	}
}
