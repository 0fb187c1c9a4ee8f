// Package server implements the PROX system of Ch. 7: a web application
// exposing the three services of Fig. 7.1 over REST —
//
//   - a selection service restricting the provenance to user-chosen
//     movies (by title, or by genre and year),
//   - a summarization service running Algorithm 1 on the selection with
//     user-chosen parameters (weights, bounds, steps, aggregation,
//     valuation class), and
//   - an evaluator (provisioning) service applying user-chosen truth
//     valuations to the original or summarized provenance and reporting
//     the aggregated results with evaluation times,
//
// plus an embedded single-page web UI with the paper's three views
// (selection, summarization, summary). The Java/Spring/AngularJS/Tomcat
// stack of the paper is replaced by net/http (see DESIGN.md).
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/distance"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/parse"
	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/summarycache"
	"repro/internal/tenant"
	"repro/internal/valuation"
)

// DefaultMaxSessions caps in-memory sessions when no explicit cap is
// configured; the oldest idle session is evicted when the cap is
// exceeded.
const DefaultMaxSessions = 1024

// Server is the PROX application server. It serves a single MovieLens
// workload (the paper's demo dataset) and keeps per-selection sessions in
// memory, bounded by an oldest-idle-first eviction cap. Summarization
// runs asynchronously on a bounded worker pool; with a store attached,
// sessions, jobs and checkpoints are journaled so a restarted server
// resumes interrupted work.
type Server struct {
	workload        *datasets.Workload
	reg             *obs.Registry
	log             *obs.Logger
	met             *metrics
	maxSessions     int
	workers         int
	queueSize       int
	bulkQueueSize   int
	bulkEvery       int
	checkpointEvery int
	st              *store.Store
	jm              *jobs.Manager

	// Multi-tenant traffic hardening: nil tenants means single-tenant
	// mode (no auth, no quotas). admissionMaxCost is the server-wide
	// cost budget for admission control (0 disables; per-tenant
	// MaxCostPerJob overrides it).
	tenants          *tenant.Registry
	tmet             map[string]*tenantMetrics
	admissionMaxCost float64

	// Tracing, SLOs and post-mortem capture.
	tracer  *obs.Tracer
	fr      *obs.FlightRecorder
	runtime *obs.RuntimeCollector
	// httpSLO/jobSLO are latency thresholds (0 disables); sloObjective
	// is the target good fraction shared by every SLO.
	httpSLO      time.Duration
	jobSLO       time.Duration
	sloObjective float64
	sloJob       *obs.SLO
	sloMu        sync.Mutex
	sloAll       []*obs.SLO // every SLO, refreshed on each /metrics scrape

	// Summary cache: content-addressed LRU of completed merge traces,
	// keyed by (expression, config, policy, annotation metadata)
	// fingerprints. nil when disabled via WithCache(0, ...).
	cache        *summarycache.Cache
	cacheEntries int
	cacheBytes   int64
	cacheTTL     time.Duration
	// cacheSweep is the period of the background TTL sweeper (0 picks
	// TTL/2 when a TTL is set; sweeping is off without one). The sweeper
	// goroutine stops on Shutdown via sweepStop/sweepDone.
	cacheSweep time.Duration
	sweepStop  chan struct{}
	sweepDone  chan struct{}
	policyFP   [32]byte

	mu       sync.Mutex
	sessions map[string]*session
	order    []string // session ids in creation order, for eviction
	nextID   int
	jobSeq   int
	jobMeta  map[string]*jobMeta
	// finished holds the journaled records of jobs that reached a
	// terminal state before a restart, so GET /api/jobs/{id} keeps
	// answering for them.
	finished map[string]*codec.JobRecord
}

// session is one selection of provenance being summarized and explored.
type session struct {
	id      string
	prov    *provenance.Agg
	summary *core.Summary
	class   datasets.ClassKind
	// universe carries the custom annotations registered by this session
	// (for persistence; selections over the workload leave it empty).
	universe []codec.UniverseEntry
	// stream holds the session's streaming ingest state (expression
	// snapshots plus the incrementally patched evaluation plan); nil
	// until the first POST /api/ingest.
	stream *stream.Session
	// versions is the session's summary version chain, oldest first
	// (1-based version numbers; see appendVersion).
	versions []*codec.SummaryVersionRecord
	// active counts this session's queued+running jobs; a session with
	// active > 0 is pinned and never evicted.
	active int
	// tenant is the owning tenant's id ("" in single-tenant mode or for
	// sessions restored from a pre-tenancy journal).
	tenant string
}

// Option configures a Server.
type Option func(*Server)

// WithRegistry uses the given metrics registry instead of a private one
// (so the caller can expose it alongside other instrumentation).
func WithRegistry(r *obs.Registry) Option { return func(s *Server) { s.reg = r } }

// WithLogger routes the server's structured logs to l (default: discard).
func WithLogger(l *obs.Logger) Option { return func(s *Server) { s.log = l } }

// WithMaxSessions caps in-memory sessions; when a new session would
// exceed the cap the oldest idle session is evicted. n <= 0 keeps the
// default.
func WithMaxSessions(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxSessions = n
		}
	}
}

// WithWorkers sets the summarization worker-pool size (default 2).
func WithWorkers(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.workers = n
		}
	}
}

// WithQueueSize sets the job backlog capacity; submissions beyond it are
// rejected with 429 (default 32).
func WithQueueSize(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.queueSize = n
		}
	}
}

// WithBulkQueueSize sets the bulk lane's backlog capacity (default:
// same as the interactive queue size). Bulk submissions beyond it are
// rejected with 429 without touching the interactive lane.
func WithBulkQueueSize(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.bulkQueueSize = n
		}
	}
}

// WithBulkEvery sets the anti-starvation valve of the two-lane queue:
// every n-th dequeue prefers the bulk lane even when interactive work
// is waiting (default 4; n < 2 keeps the default).
func WithBulkEvery(n int) Option {
	return func(s *Server) {
		if n > 1 {
			s.bulkEvery = n
		}
	}
}

// WithTenants enables multi-tenant mode: every /api route requires an
// API key from the registry, and per-tenant rate limits and quotas are
// enforced. nil keeps single-tenant mode.
func WithTenants(reg *tenant.Registry) Option { return func(s *Server) { s.tenants = reg } }

// WithAdmissionMaxCost sets the server-wide admission-control budget:
// job submissions whose estimated cost (universe size x valuation
// count) exceeds it are shed with 429 before they occupy a queue slot.
// A tenant's MaxCostPerJob overrides it; 0 disables the check.
func WithAdmissionMaxCost(c float64) Option {
	return func(s *Server) {
		if c > 0 {
			s.admissionMaxCost = c
		}
	}
}

// WithCheckpointEvery snapshots running jobs every k merge steps
// (default 8; only effective with a store attached).
func WithCheckpointEvery(k int) Option {
	return func(s *Server) {
		if k > 0 {
			s.checkpointEvery = k
		}
	}
}

// WithTracer uses the given tracer instead of a private in-memory one.
// Pass a tracer with a Sink to journal spans across restarts (the
// prox-server binary does this under -trace-dir).
func WithTracer(t *obs.Tracer) Option { return func(s *Server) { s.tracer = t } }

// WithFlightRecorder attaches a flight recorder; the server captures a
// bundle (span tree, goroutine dump, optional CPU profile) on SLO
// breaches and job failures.
func WithFlightRecorder(fr *obs.FlightRecorder) Option { return func(s *Server) { s.fr = fr } }

// WithHTTPSLO enables a per-route latency SLO: requests slower than
// threshold (or failing with 5xx) count as bad events for that route's
// prox_slo_* series. threshold <= 0 disables.
func WithHTTPSLO(threshold time.Duration) Option {
	return func(s *Server) { s.httpSLO = threshold }
}

// WithSummarizeSLO enables a submit-to-terminal latency SLO for
// summarization jobs. threshold <= 0 disables.
func WithSummarizeSLO(threshold time.Duration) Option {
	return func(s *Server) { s.jobSLO = threshold }
}

// WithSLOObjective sets the target good fraction shared by every SLO
// (default 0.99). Values outside (0, 1) keep the default.
func WithSLOObjective(objective float64) Option {
	return func(s *Server) {
		if objective > 0 && objective < 1 {
			s.sloObjective = objective
		}
	}
}

// WithStore attaches a persistence store: sessions, summaries, job
// states, checkpoints and summary-cache entries are journaled to it,
// and its replayed state is restored — interrupted jobs requeued from
// their latest checkpoint, the cache warm-started — when the server
// starts.
func WithStore(st *store.Store) Option { return func(s *Server) { s.st = st } }

// WithCache bounds the summary cache: at most entries summaries,
// at most bytes of journaled trace data, each expiring ttl after
// creation (ttl <= 0 means no expiry). entries == 0 disables caching
// entirely; negative values keep the defaults (256 entries, 64 MiB,
// no expiry).
func WithCache(entries int, bytes int64, ttl time.Duration) Option {
	return func(s *Server) {
		if entries >= 0 {
			s.cacheEntries = entries
		}
		if bytes >= 0 {
			s.cacheBytes = bytes
		}
		if ttl >= 0 {
			s.cacheTTL = ttl
		}
	}
}

// WithCacheSweep sets the period of the background sweep that evicts
// TTL-expired cache entries eagerly (journaling the drops), instead of
// leaving them to lazy eviction on the next lookup. every <= 0 keeps
// the default of half the cache TTL; the sweeper only runs when a TTL
// is configured. Expired entries are also swept on every /metrics
// scrape so the prox_cache_* gauges never report dead entries.
func WithCacheSweep(every time.Duration) Option {
	return func(s *Server) {
		if every > 0 {
			s.cacheSweep = every
		}
	}
}

// New builds a PROX server over the given MovieLens workload. With a
// store attached it also replays persisted sessions and requeues
// interrupted jobs, which can fail if the store's contents do not match
// the workload.
func New(w *datasets.Workload, opts ...Option) (*Server, error) {
	s := &Server{
		workload:        w,
		sessions:        make(map[string]*session),
		maxSessions:     DefaultMaxSessions,
		workers:         2,
		queueSize:       32,
		checkpointEvery: 8,
		cacheEntries:    256,
		cacheBytes:      64 << 20,
		jobMeta:         make(map[string]*jobMeta),
		finished:        make(map[string]*codec.JobRecord),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	if s.log == nil {
		s.log = obs.Nop()
	}
	if s.tracer == nil {
		s.tracer = obs.NewTracer(obs.TracerConfig{})
	}
	if s.sloObjective == 0 {
		s.sloObjective = 0.99
	}
	s.runtime = obs.NewRuntimeCollector(s.reg)
	if s.jobSLO > 0 {
		s.sloJob = obs.NewSLO(s.reg, obs.SLOConfig{
			Name:      "summarize",
			Threshold: s.jobSLO,
			Objective: s.sloObjective,
			OnBreach:  s.onSLOBreach,
		})
		s.sloAll = append(s.sloAll, s.sloJob)
	}
	s.met = newMetrics(s.reg)
	s.tmet = make(map[string]*tenantMetrics)
	if s.tenants != nil {
		for _, t := range s.tenants.All() {
			s.tmet[t.ID()] = newTenantMetrics(s.reg, t.ID())
		}
	}
	s.policyFP = w.Policy.Fingerprint()
	if s.cacheEntries > 0 {
		s.cache = summarycache.New(summarycache.Config{
			MaxEntries: s.cacheEntries,
			MaxBytes:   s.cacheBytes,
			TTL:        s.cacheTTL,
			OnEvict:    s.onCacheEvict,
		})
	}
	s.jm = jobs.New(jobs.Config{
		Workers:      s.workers,
		Queue:        s.queueSize,
		BulkQueue:    s.bulkQueueSize,
		BulkEvery:    s.bulkEvery,
		OnTransition: s.onJobTransition,
	})
	if s.st != nil {
		if err := s.restoreFromStore(); err != nil {
			return nil, err
		}
	}
	if s.cache != nil && s.cacheTTL > 0 {
		if s.cacheSweep <= 0 {
			s.cacheSweep = s.cacheTTL / 2
		}
		if s.cacheSweep <= 0 {
			s.cacheSweep = time.Second
		}
		s.sweepStop = make(chan struct{})
		s.sweepDone = make(chan struct{})
		go s.sweepLoop()
	}
	return s, nil
}

// sweepLoop periodically evicts TTL-expired cache entries so their
// bytes are released (and their store records dropped, via OnEvict)
// without waiting for a lookup to trip over them.
func (s *Server) sweepLoop() {
	defer close(s.sweepDone)
	t := time.NewTicker(s.cacheSweep)
	defer t.Stop()
	for {
		select {
		case <-s.sweepStop:
			return
		case <-t.C:
			if n := s.cache.Sweep(); n > 0 {
				s.updateCacheGauges()
				s.log.Debug("cache sweep evicted expired entries", "entries", n)
			}
		}
	}
}

// Shutdown stops the worker pool, interrupting running jobs. With a
// store attached, interrupted and queued jobs keep their last journaled
// state (queued/running) and requeue from their latest checkpoint on the
// next start.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.sweepStop != nil {
		close(s.sweepStop)
		<-s.sweepDone
		s.sweepStop = nil
	}
	return s.jm.Shutdown(ctx)
}

// Metrics returns the server's metrics registry (for mounting /metrics
// elsewhere or registering additional process-level series).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Handler returns the HTTP handler serving the API, the web UI, and the
// Prometheus /metrics endpoint. Every route is wrapped in the
// observability middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// API routes require a tenant key (and pay the tenant's rate limit)
	// when a tenant registry is configured; the UI and /metrics stay
	// open — dashboards and scrapers are not tenant traffic.
	api := func(route string, h http.HandlerFunc) http.HandlerFunc {
		return s.instrument(route, s.withAuth(h))
	}
	mux.HandleFunc("GET /api/movies", api("/api/movies", s.handleMovies))
	mux.HandleFunc("POST /api/select", api("/api/select", s.handleSelect))
	mux.HandleFunc("POST /api/custom", api("/api/custom", s.handleCustom))
	mux.HandleFunc("POST /api/ingest", api("/api/ingest", s.handleIngest))
	mux.HandleFunc("POST /api/summarize", api("/api/summarize", s.handleSummarize))
	mux.HandleFunc("POST /api/extend", api("/api/extend", s.handleExtend))
	mux.HandleFunc("GET /api/sessions/{id}/versions", api("/api/sessions/{id}/versions", s.handleVersions))
	mux.HandleFunc("GET /api/versions/{a}/diff/{b}", api("/api/versions/{a}/diff/{b}", s.handleVersionDiff))
	mux.HandleFunc("POST /api/jobs", api("/api/jobs", s.handleJobSubmit))
	mux.HandleFunc("GET /api/jobs/{id}", api("/api/jobs/{id}", s.handleJobGet))
	mux.HandleFunc("POST /api/jobs/{id}/cancel", api("/api/jobs/{id}/cancel", s.handleJobCancel))
	mux.HandleFunc("POST /api/cache/flush", api("/api/cache/flush", s.handleCacheFlush))
	mux.HandleFunc("GET /api/step", api("/api/step", s.handleStep))
	mux.HandleFunc("POST /api/evaluate", api("/api/evaluate", s.handleEvaluate))
	mux.HandleFunc("GET /api/traces", api("/api/traces", s.handleTraces))
	mux.HandleFunc("GET /api/traces/{id}", api("/api/traces/{id}", s.handleTraceGet))
	metricsH := s.reg.Handler()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		s.scrape()
		metricsH.ServeHTTP(w, r)
	})
	mux.HandleFunc("GET /", s.instrument("/", s.handleUI))
	return mux
}

// scrape refreshes sampled series (runtime gauges, queue depth, SLO
// burn rates) immediately before a /metrics exposition.
func (s *Server) scrape() {
	s.runtime.Collect()
	for lane, g := range s.met.queueDepth {
		g.Set(float64(s.jm.LaneDepth(jobs.ParseLane(lane))))
	}
	s.scrapeTenants()
	if s.cache != nil {
		// Evict TTL-expired entries before exposing the cache gauges, so
		// prox_cache_entries/_bytes never report dead entries between
		// background sweeps.
		s.cache.Sweep()
		s.updateCacheGauges()
	}
	s.sloMu.Lock()
	slos := append([]*obs.SLO(nil), s.sloAll...)
	s.sloMu.Unlock()
	for _, slo := range slos {
		slo.Update()
	}
}

// sloForRoute builds the latency SLO for one route (nil when per-route
// SLOs are disabled). Called once per route when the handler is built.
func (s *Server) sloForRoute(route string) *obs.SLO {
	if s.httpSLO <= 0 {
		return nil
	}
	slo := obs.NewSLO(s.reg, obs.SLOConfig{
		Name:      "http:" + route,
		Threshold: s.httpSLO,
		Objective: s.sloObjective,
		OnBreach:  s.onSLOBreach,
	})
	s.sloMu.Lock()
	s.sloAll = append(s.sloAll, slo)
	s.sloMu.Unlock()
	return slo
}

// onSLOBreach logs a fast-burning SLO and captures a flight-recorder
// bundle (rate-limited by the recorder itself).
func (s *Server) onSLOBreach(name string, burn float64) {
	s.log.Error("slo breach", "slo", name, "burn5m", burn)
	if dir, err := s.fr.Capture("slo-breach-"+name, obs.TraceID{}); err != nil {
		s.log.Error("flight capture failed", "slo", name, "err", err)
	} else if dir != "" {
		s.log.Info("flight bundle captured", "slo", name, "dir", dir)
	}
}

// reqLogKey carries the request-scoped logger (annotated with trace and
// span IDs by the middleware) through context.
type reqLogKey struct{}

// logFor returns the request-scoped logger from ctx, falling back to the
// server logger.
func (s *Server) logFor(ctx context.Context) *obs.Logger {
	if l, ok := ctx.Value(reqLogKey{}).(*obs.Logger); ok && l != nil {
		return l
	}
	return s.log
}

// traceIDOf extracts the hex trace ID from an opaque traceparent string,
// or "" when absent/invalid.
func traceIDOf(traceparent string) string {
	sc, err := obs.ParseTraceparent(traceparent)
	if err != nil {
		return ""
	}
	return sc.TraceID.String()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// movieInfo describes one selectable movie.
type movieInfo struct {
	Title string `json:"title"`
	Year  string `json:"year"`
	Genre string `json:"genre"`
}

func (s *Server) movies() []movieInfo {
	u := s.workload.Universe
	var out []movieInfo
	for _, m := range u.InTable(datasets.MLMoviesTable) {
		out = append(out, movieInfo{
			Title: string(m),
			Year:  u.Attr(m, "year"),
			Genre: u.Attr(m, "genre"),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Title < out[j].Title })
	return out
}

// handleMovies lists the selectable movies.
func (s *Server) handleMovies(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.movies())
}

// selectRequest restricts provenance by explicit titles, or by genre and
// year (the two selection modes of the paper's UI).
type selectRequest struct {
	Titles []string `json:"titles"`
	Genres []string `json:"genres"`
	Year   string   `json:"year"`
	// Agg is the aggregation function ("MAX", "SUM", ...); default MAX.
	Agg string `json:"agg"`
}

type selectResponse struct {
	SessionID  string `json:"sessionId"`
	Provenance string `json:"provenance"`
	Size       int    `json:"size"`
	Tensors    int    `json:"tensors"`
}

// handleSelect implements the selection service.
func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	var req selectRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	kind := provenance.AggMax
	if req.Agg != "" {
		var err error
		kind, err = provenance.ParseAggKind(req.Agg)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
	}

	u := s.workload.Universe
	want := func(movie provenance.Annotation) bool {
		if len(req.Titles) > 0 {
			for _, t := range req.Titles {
				if string(movie) == t {
					return true
				}
			}
			return false
		}
		if len(req.Genres) > 0 || req.Year != "" {
			genreOK := len(req.Genres) == 0
			for _, g := range req.Genres {
				if u.Attr(movie, "genre") == g {
					genreOK = true
				}
			}
			yearOK := req.Year == "" || u.Attr(movie, "year") == req.Year
			return genreOK && yearOK
		}
		return true
	}

	full, ok := s.workload.Prov.(*provenance.Agg)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "workload is not an aggregated expression")
		return
	}
	var tensors []provenance.Tensor
	for _, t := range full.Tensors {
		if want(t.Group) {
			tensors = append(tensors, t)
		}
	}
	if len(tensors) == 0 {
		writeErr(w, http.StatusBadRequest, "selection matches no provenance")
		return
	}
	sel := provenance.NewAgg(kind, tensors...)
	t := tenantFrom(r.Context())
	if err := s.acquireSessionQuota(t); err != nil {
		writeReject(w, http.StatusTooManyRequests, err)
		return
	}
	id := s.addSession(&session{prov: sel, tenant: tenantID(t)})

	writeJSON(w, http.StatusOK, selectResponse{
		SessionID:  id,
		Provenance: sel.String(),
		Size:       sel.Size(),
		Tensors:    len(sel.Tensors),
	})
}

// tenantID is the owning id of a session created by t ("" when
// anonymous).
func tenantID(t *tenant.Tenant) string {
	if t == nil {
		return ""
	}
	return t.ID()
}

// addSession stores a new session, evicting the oldest *idle* sessions
// (no queued or running jobs) when the cap is exceeded, and keeps the
// session gauge current. When every session is pinned by an active job
// the cap is allowed to overflow — evicting a session out from under a
// running summarization would strand the job. With a store attached,
// the session and any evictions are journaled.
func (s *Server) addSession(sess *session) string {
	s.mu.Lock()
	s.nextID++
	id := strconv.Itoa(s.nextID)
	sess.id = id
	s.sessions[id] = sess
	s.order = append(s.order, id)
	evicted := s.evictIdleLocked()
	count := len(s.sessions)
	s.mu.Unlock()

	s.met.sessions.Set(float64(count))
	if s.st != nil {
		if err := s.st.PutSession(&codec.SessionRecord{ID: id, Prov: sess.prov, Universe: sess.universe, Tenant: sess.tenant}); err != nil {
			s.log.Error("journaling session failed", "session", id, "err", err)
		}
	}
	for _, old := range evicted {
		s.met.evictions.Inc()
		s.releaseSessionQuota(old.tenant)
		s.log.Info("session evicted", "session", old.id, "cap", s.maxSessions)
		if s.st != nil {
			if err := s.st.DropSession(old.id); err != nil {
				s.log.Error("journaling eviction failed", "session", old.id, "err", err)
			}
		}
	}
	return id
}

// evictIdleLocked evicts oldest-first among idle sessions until the cap
// is met (or only pinned sessions remain). Callers hold s.mu. The
// evicted sessions are returned so their tenants' quota slots can be
// released outside the lock.
func (s *Server) evictIdleLocked() []*session {
	var evicted []*session
	for len(s.sessions) > s.maxSessions {
		victim := -1
		for i, id := range s.order {
			if s.sessions[id].active == 0 {
				victim = i
				break
			}
		}
		if victim < 0 {
			break // every session pinned: allow overflow
		}
		id := s.order[victim]
		s.order = append(s.order[:victim], s.order[victim+1:]...)
		evicted = append(evicted, s.sessions[id])
		delete(s.sessions, id)
	}
	return evicted
}

// customRequest submits a hand-written provenance expression in the
// paper's notation, with per-annotation attributes for the constraints.
type customRequest struct {
	Expression string `json:"expression"`
	Agg        string `json:"agg"`
	Universe   []struct {
		Ann   string            `json:"ann"`
		Table string            `json:"table"`
		Attrs map[string]string `json:"attrs"`
	} `json:"universe"`
}

// handleCustom parses a user-provided expression and opens a session on
// it. Annotations listed in the request universe are registered in the
// server's universe so the merge policy and attribute valuations see
// them.
func (s *Server) handleCustom(w http.ResponseWriter, r *http.Request) {
	var req customRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	kind := provenance.AggMax
	if req.Agg != "" {
		var err error
		kind, err = provenance.ParseAggKind(req.Agg)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	expr, err := parse.Agg(kind, req.Expression)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(expr.Tensors) == 0 {
		writeErr(w, http.StatusBadRequest, "expression has no tensors")
		return
	}
	t := tenantFrom(r.Context())
	if err := s.acquireSessionQuota(t); err != nil {
		writeReject(w, http.StatusTooManyRequests, err)
		return
	}
	entries := make([]codec.UniverseEntry, 0, len(req.Universe))
	for _, a := range req.Universe {
		s.workload.Universe.Add(provenance.Annotation(a.Ann), a.Table, provenance.Attrs(a.Attrs))
		entries = append(entries, codec.UniverseEntry{Ann: a.Ann, Table: a.Table, Attrs: a.Attrs})
	}
	id := s.addSession(&session{prov: expr, universe: entries, tenant: tenantID(t)})

	writeJSON(w, http.StatusOK, selectResponse{
		SessionID:  id,
		Provenance: expr.String(),
		Size:       expr.Size(),
		Tensors:    len(expr.Tensors),
	})
}

func (s *Server) session(id string) (*session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

// summaryOf reads a session's summary under the server lock (job workers
// write it concurrently).
func (s *Server) summaryOf(sess *session) *core.Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sess.summary
}

// provOf snapshots a session's expression under the server lock (a
// concurrent ingest may swap it).
func (s *Server) provOf(sess *session) *provenance.Agg {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sess.prov
}

// summarizeRequest carries the Algorithm 1 parameters of the
// summarization view.
type summarizeRequest struct {
	SessionID  string  `json:"sessionId"`
	WDist      float64 `json:"wDist"`
	WSize      float64 `json:"wSize"`
	TargetDist float64 `json:"targetDist"`
	TargetSize int     `json:"targetSize"`
	Steps      int     `json:"steps"`
	// ValuationClass is "annotation" (Cancel Single Annotation) or
	// "attribute" (Cancel Single Attribute).
	ValuationClass string `json:"valuationClass"`
	// TimeoutMS bounds the job's run time; 0 means no deadline.
	TimeoutMS int64 `json:"timeoutMs"`
}

type stepInfo struct {
	A     string  `json:"a"`
	B     string  `json:"b"`
	New   string  `json:"new"`
	Dist  float64 `json:"dist"`
	Size  int     `json:"size"`
	Score float64 `json:"score"`
}

type groupInfo struct {
	Name    string            `json:"name"`
	Members []string          `json:"members"`
	Attrs   map[string]string `json:"attrs"`
	Table   string            `json:"table"`
}

type summarizeResponse struct {
	Expression string      `json:"expression"`
	Size       int         `json:"size"`
	Dist       float64     `json:"dist"`
	StopReason string      `json:"stopReason"`
	Steps      []stepInfo  `json:"steps"`
	Groups     []groupInfo `json:"groups"`
	ElapsedMS  float64     `json:"elapsedMs"`
	// Cached is true when the summary was replayed from the summary
	// cache instead of running Algorithm 1.
	Cached bool `json:"cached,omitempty"`
}

// handleSummarize implements the summarization service as
// submit-and-wait over the job engine: the request's summarization runs
// as a job on the worker pool (subject to the same queue bound) and the
// handler blocks until it finishes. Identical requests are served from
// the summary cache (X-Prox-Cache: hit) or coalesced onto an in-flight
// identical job (X-Prox-Cache: inflight). The wait is tied to
// r.Context(), so a client that disconnects leaves the job — which may
// have other waiters — and cancels it only when it was the last waiter.
func (s *Server) handleSummarize(w http.ResponseWriter, r *http.Request) {
	var req summarizeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	out, status, err := s.submitSummarize(r.Context(), &req, 0, jobs.LaneInteractive)
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

// summaryResponse renders a finished summary for the API.
func (s *Server) summaryResponse(sum *core.Summary) summarizeResponse {
	resp := summarizeResponse{
		Expression: sum.Expr.String(),
		Size:       sum.Expr.Size(),
		Dist:       sum.Dist,
		StopReason: sum.StopReason,
		ElapsedMS:  float64(sum.Elapsed.Microseconds()) / 1000,
	}
	for _, st := range sum.Steps {
		resp.Steps = append(resp.Steps, stepInfo{
			A: string(st.A), B: string(st.B), New: string(st.New),
			Dist: st.Dist, Size: st.Size, Score: st.Score,
		})
	}
	u := s.workload.Universe
	var names []provenance.Annotation
	for name := range sum.Groups {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	for _, name := range names {
		members := sum.Groups[name]
		if len(members) < 2 {
			continue
		}
		gi := groupInfo{Name: string(name), Attrs: map[string]string{}, Table: u.Table(name)}
		for _, m := range members {
			gi.Members = append(gi.Members, string(m))
		}
		for k, v := range u.AttrsOf(name) {
			gi.Attrs[k] = v
		}
		resp.Groups = append(resp.Groups, gi)
	}
	return resp
}

// recordSummarize folds one summarization run and its estimator's
// instrumentation into the server metrics. Estimators are per-request, so
// their counters are whole-run deltas.
func (s *Server) recordSummarize(sum *core.Summary, est *distance.Estimator) {
	s.met.summarizes.Observe(sum.Elapsed.Seconds())
	s.met.steps.Add(float64(len(sum.Steps)))
	st := est.Stats()
	s.met.estEvals.Add(float64(st.Evaluations))
	s.met.estHits.Add(float64(st.CacheHits))
	s.met.estMisses.Add(float64(st.CacheMisses))
	s.met.estResets.Add(float64(st.CacheResets))
	s.met.estSamples.Add(float64(st.Samples))
	s.met.estDistCalls.Add(float64(st.DistanceCalls))
	s.met.estDistSecs.Add(st.DistanceTime.Seconds())
	s.met.estDeltaCalls.Add(float64(st.DeltaCalls))
	s.met.estDeltaCands.Add(float64(st.DeltaCandidates))
	s.met.estDeltaSecs.Add(st.DeltaTime.Seconds())
	s.met.estDeltaSkips.Add(float64(st.DeltaSkips))
	s.met.estDeltaSubtree.Add(float64(st.DeltaSubtreeEvals))
	s.met.estDeltaFull.Add(float64(st.DeltaFullEvals))
	s.met.estMergePatches.Add(float64(st.MergePatches))
	s.met.estMergeRecompiles.Add(float64(st.MergeRecompiles))
	s.met.estProbesCarried.Add(float64(st.ProbesCarried))
	s.met.estProbesBuilt.Add(float64(st.ProbesBuilt))
}

// estimatorFor builds the estimator over the selection's annotations,
// normalizing distances by the selection's own maximal error rather than
// the full workload's.
func (s *Server) estimatorFor(p *provenance.Agg, kind datasets.ClassKind) *distance.Estimator {
	anns := p.Annotations()
	var class valuation.Class
	if kind == datasets.CancelSingleAttribute {
		class = valuation.NewCancelSingleAttribute(s.workload.Universe, anns, s.workload.AttrNames...)
	} else {
		class = valuation.NewCancelSingleAnnotation(anns)
	}
	est := s.workload.Estimator(kind)
	est.Class = class
	if vec, ok := p.Eval(provenance.AllTrue).(provenance.Vector); ok {
		total := 0.0
		for _, v := range vec {
			total += v * v
		}
		if total > 0 {
			est.MaxError = math.Sqrt(total)
		}
	}
	return est
}

// stepResponse is one snapshot of the algorithm's progress: the summary
// expression after the first N merge steps (the UI's left/right arrows,
// Sec. 7.2 "observe the algorithm in action step by step").
type stepResponse struct {
	Step       int     `json:"step"`
	Steps      int     `json:"steps"`
	Expression string  `json:"expression"`
	Size       int     `json:"size"`
	Dist       float64 `json:"dist"`
	Merged     string  `json:"merged,omitempty"`
}

// handleStep replays the stored summary's merge trace up to step n
// (0 ≤ n ≤ len(steps); 0 is the original selection) and returns the
// intermediate expression.
func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessionFor(r.Context(), r.URL.Query().Get("sessionId"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown session %q", r.URL.Query().Get("sessionId"))
		return
	}
	summary := s.summaryOf(sess)
	if summary == nil {
		writeErr(w, http.StatusBadRequest, "no summary yet: call /api/summarize first")
		return
	}
	n, err := strconv.Atoi(r.URL.Query().Get("n"))
	if err != nil || n < 0 || n > len(summary.Steps) {
		writeErr(w, http.StatusBadRequest, "step n must be in [0, %d]", len(summary.Steps))
		return
	}

	var expr provenance.Expression = sess.prov
	for _, st := range summary.Steps[:n] {
		expr = expr.Apply(provenance.MergeMapping(st.New, st.Members...))
	}
	resp := stepResponse{
		Step:       n,
		Steps:      len(summary.Steps),
		Expression: expr.String(),
		Size:       expr.Size(),
	}
	if n > 0 {
		st := summary.Steps[n-1]
		resp.Dist = st.Dist
		resp.Merged = fmt.Sprintf("%v -> %s", st.Members, st.New)
	}
	writeJSON(w, http.StatusOK, resp)
}

// evaluateRequest applies a provisioning valuation: annotations and/or
// attribute=value pairs assigned false; Target selects the expression to
// evaluate ("original" or "summary").
type evaluateRequest struct {
	SessionID        string   `json:"sessionId"`
	FalseAnnotations []string `json:"falseAnnotations"`
	FalseAttributes  []string `json:"falseAttributes"` // "gender=M" form
	Target           string   `json:"target"`
}

type evaluateResponse struct {
	Results map[string]float64 `json:"results"`
	TimeNS  int64              `json:"timeNs"`
}

// handleEvaluate implements the provisioning service.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req evaluateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	sess, ok := s.sessionFor(r.Context(), req.SessionID)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown session %q", req.SessionID)
		return
	}

	assign := make(map[provenance.Annotation]bool)
	for _, a := range req.FalseAnnotations {
		assign[provenance.Annotation(a)] = false
	}
	u := s.workload.Universe
	for _, pair := range req.FalseAttributes {
		name, value, found := strings.Cut(pair, "=")
		if !found {
			writeErr(w, http.StatusBadRequest, "bad attribute pair %q (want name=value)", pair)
			return
		}
		for _, a := range u.Annotations() {
			if u.Attr(a, name) == value {
				assign[a] = false
			}
		}
	}
	val := provenance.MapValuation{Assign: assign, Default: true, Label: "ui"}

	var expr provenance.Expression = sess.prov
	var use provenance.Valuation = val
	if req.Target == "summary" {
		summary := s.summaryOf(sess)
		if summary == nil {
			writeErr(w, http.StatusBadRequest, "no summary yet: call /api/summarize first")
			return
		}
		expr = summary.Expr
		use = provenance.ExtendValuation(val, summary.Groups, provenance.CombineOr)
	}

	start := time.Now()
	res := expr.Eval(use)
	elapsed := time.Since(start)

	vec, ok := res.(provenance.Vector)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "unexpected result type")
		return
	}
	out := evaluateResponse{Results: map[string]float64{}, TimeNS: elapsed.Nanoseconds()}
	for k, v := range vec {
		out.Results[string(k)] = v
	}
	writeJSON(w, http.StatusOK, out)
}

// handleUI serves the embedded single-page UI.
func (s *Server) handleUI(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(uiHTML))
}
