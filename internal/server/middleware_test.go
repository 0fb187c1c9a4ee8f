package server

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/obs"
)

func obsServer(t *testing.T, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	cfg := datasets.DefaultMovieLensConfig()
	cfg.Users, cfg.Movies = 10, 5
	w := datasets.MovieLens(cfg, rand.New(rand.NewSource(5)))
	s, err := New(w, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestMiddlewareRouteAndStatusLabels asserts requests are counted under
// their route pattern and status class, and latency histograms exist per
// route.
func TestMiddlewareRouteAndStatusLabels(t *testing.T) {
	_, ts := obsServer(t)

	// one 2xx on /api/movies
	res, err := http.Get(ts.URL + "/api/movies")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	// one 4xx on /api/select (empty selection of a bogus title)
	post(t, ts.URL+"/api/select", selectRequest{Titles: []string{"NoSuchMovie"}}, nil)
	// one 4xx on /api/summarize (unknown session)
	post(t, ts.URL+"/api/summarize", summarizeRequest{SessionID: "404"}, nil)

	out := scrape(t, ts)
	for _, want := range []string{
		`prox_http_requests_total{code="2xx",route="/api/movies"} 1`,
		`prox_http_requests_total{code="4xx",route="/api/select"} 1`,
		`prox_http_requests_total{code="4xx",route="/api/summarize"} 1`,
		`prox_http_request_duration_seconds_count{route="/api/movies"} 1`,
		`prox_http_in_flight_requests 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics lack %q:\n%s", want, out)
		}
	}
}

// TestMetricsEndToEnd drives a full select+summarize flow and asserts the
// ISSUE's acceptance series appear: request histograms, the session
// gauge, and estimator cache counters with hits > 0 (the cache works).
func TestMetricsEndToEnd(t *testing.T) {
	_, ts := obsServer(t)
	var sel selectResponse
	post(t, ts.URL+"/api/select", selectRequest{}, &sel)
	var sum summarizeResponse
	res := post(t, ts.URL+"/api/summarize", summarizeRequest{
		SessionID: sel.SessionID, WDist: 0.5, WSize: 0.5, Steps: 3,
		ValuationClass: "annotation",
	}, &sum)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("summarize status = %d", res.StatusCode)
	}

	out := scrape(t, ts)
	for _, want := range []string{
		"prox_sessions 1",
		`prox_http_requests_total{code="2xx",route="/api/summarize"} 1`,
		"prox_summarize_duration_seconds_count 1",
		"prox_estimator_distance_calls_total",
		"prox_estimator_cache_misses_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics lack %q:\n%s", want, out)
		}
	}
	hits := metricValue(t, out, "prox_estimator_cache_hits_total")
	if hits <= 0 {
		t.Fatalf("estimator cache hits = %g, want > 0 after a multi-step summarize", hits)
	}
	if calls := metricValue(t, out, "prox_estimator_delta_calls_total"); calls <= 0 {
		t.Fatalf("delta calls = %g, want > 0 (delta scoring is the default path)", calls)
	}
	if skips := metricValue(t, out, "prox_estimator_delta_skips_total"); skips <= 0 {
		t.Fatalf("delta skips = %g, want > 0 (truth-delta short-circuit must fire on MovieLens)", skips)
	}
	carried := metricValue(t, out, "prox_estimator_probes_carried_total")
	built := metricValue(t, out, "prox_estimator_probes_built_total")
	if carried <= 0 || carried+built != metricValue(t, out, "prox_estimator_delta_candidates_total") {
		t.Fatalf("probes carried %g + built %g, want carried > 0 and the sum equal to the delta candidates", carried, built)
	}
	steps := metricValue(t, out, "prox_summarize_steps_total")
	if int(steps) != len(sum.Steps) {
		t.Fatalf("steps counter = %g, summary has %d steps", steps, len(sum.Steps))
	}
}

// metricValue extracts an unlabeled sample value from an exposition.
func metricValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		var v float64
		if n, _ := fmt.Sscanf(line, name+" %g", &v); n == 1 {
			return v
		}
	}
	t.Fatalf("metric %s not found in exposition:\n%s", name, exposition)
	return 0
}

// TestSessionCapEviction asserts the oldest session is evicted once the
// cap is exceeded, newer sessions survive, and the gauge tracks the live
// count.
func TestSessionCapEviction(t *testing.T) {
	var logBuf strings.Builder
	logger := obs.NewLogger(&syncWriter{w: &logBuf}, obs.LevelInfo)
	_, ts := obsServer(t, WithMaxSessions(2), WithLogger(logger))

	var ids []string
	for i := 0; i < 3; i++ {
		var sel selectResponse
		res := post(t, ts.URL+"/api/select", selectRequest{}, &sel)
		if res.StatusCode != http.StatusOK {
			t.Fatalf("select %d status = %d", i, res.StatusCode)
		}
		ids = append(ids, sel.SessionID)
	}

	// oldest session is gone
	res := post(t, ts.URL+"/api/evaluate", evaluateRequest{SessionID: ids[0], Target: "original"}, nil)
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session status = %d, want 404", res.StatusCode)
	}
	// newer sessions survive
	for _, id := range ids[1:] {
		res := post(t, ts.URL+"/api/evaluate", evaluateRequest{SessionID: id, Target: "original"}, nil)
		if res.StatusCode != http.StatusOK {
			t.Fatalf("live session %s status = %d", id, res.StatusCode)
		}
	}

	out := scrape(t, ts)
	for _, want := range []string{"prox_sessions 2", "prox_sessions_evicted_total 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics lack %q:\n%s", want, out)
		}
	}
	if !strings.Contains(logBuf.String(), "session evicted") {
		t.Fatalf("eviction not logged: %q", logBuf.String())
	}
}

// syncWriter makes a strings.Builder safe to share between the server's
// logger goroutines and the test's final read.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestConcurrentRequests hammers instrumented routes from many
// goroutines; run under -race this demonstrates the registry is safe
// under concurrent instrumentation (ISSUE acceptance criterion).
func TestConcurrentRequests(t *testing.T) {
	_, ts := obsServer(t, WithMaxSessions(4))
	const workers, iters = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := http.Get(ts.URL + "/api/movies")
				if err == nil {
					res.Body.Close()
				}
				res, err = http.Post(ts.URL+"/api/select", "application/json", strings.NewReader("{}"))
				if err == nil {
					res.Body.Close()
				}
			}
		}()
	}
	wg.Wait()

	out := scrape(t, ts)
	if !strings.Contains(out, fmt.Sprintf(`prox_http_requests_total{code="2xx",route="/api/movies"} %d`, workers*iters)) {
		t.Fatalf("movies request count off:\n%s", out)
	}
	if !strings.Contains(out, "prox_sessions 4") {
		t.Fatalf("session gauge should sit at the cap:\n%s", out)
	}
}
