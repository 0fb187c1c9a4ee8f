package server

import (
	"bufio"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/store"
)

// customUniverse is the request shape of custom/ingest universe entries.
type customUniverse = []struct {
	Ann   string            `json:"ann"`
	Table string            `json:"table"`
	Attrs map[string]string `json:"attrs"`
}

// streamSession builds a small custom session (Example 3.2.3 shape:
// three users over one movie, U1/U3 sharing gender M) ready for
// streaming ingest.
func streamSession(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	req := customRequest{
		Expression: "U1 (x) (3,1)@MP (+) U2 (x) (5,1)@MP (+) U3 (x) (3,1)@MP",
		Agg:        "MAX",
	}
	req.Universe = customUniverse{
		{Ann: "U1", Table: "users", Attrs: map[string]string{"gender": "M"}},
		{Ann: "U2", Table: "users", Attrs: map[string]string{"gender": "F"}},
		{Ann: "U3", Table: "users", Attrs: map[string]string{"gender": "M"}},
		{Ann: "MP", Table: "movies", Attrs: map[string]string{"genre": "drama"}},
	}
	var sel selectResponse
	res := post(t, ts.URL+"/api/custom", req, &sel)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("custom status = %d", res.StatusCode)
	}
	return sel.SessionID
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if out != nil {
		if err := json.NewDecoder(res.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return res
}

// TestStreamIngestExtendFlow is the end-to-end acceptance test for the
// streaming subsystem: ingest grows the session's expression in place,
// every completed run appends a summary version, /api/extend
// warm-starts from the chosen version, the version diff reports the
// structural change, and a plain re-summarize after another ingest is
// warm-started automatically from the cache's prefix index.
func TestStreamIngestExtendFlow(t *testing.T) {
	_, ts := testServer(t)
	id := streamSession(t, ts)
	params := summarizeRequest{
		SessionID: id, WDist: 1, Steps: 2, ValuationClass: "annotation",
	}

	// v1: from-scratch summarize merging the distance-0 pair (U1, U3).
	var sum summarizeResponse
	res := post(t, ts.URL+"/api/summarize", params, &sum)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("summarize status = %d", res.StatusCode)
	}

	var vs versionsResponse
	getJSON(t, ts.URL+"/api/sessions/"+id+"/versions", &vs)
	if len(vs.Versions) != 1 {
		t.Fatalf("versions after first run = %d, want 1", len(vs.Versions))
	}
	v1 := vs.Versions[0]
	if v1.Version != 1 || v1.Parent != 0 || v1.ExtendedFrom != 0 {
		t.Fatalf("v1 = %+v, want root version", v1)
	}
	group := ""
	for name, members := range v1.Groups {
		if len(members) == 2 {
			group = name
		}
	}
	if group == "" {
		t.Fatalf("v1 groups = %v, want the (U1,U3) merge", v1.Groups)
	}

	// Ingest a new rating by a new user sharing U1/U3's gender.
	ing := ingestRequest{SessionID: id, Expression: "U4 (x) (2,1)@MP"}
	ing.Universe = customUniverse{
		{Ann: "U4", Table: "users", Attrs: map[string]string{"gender": "M"}},
	}
	var ingRes ingestResponse
	res = post(t, ts.URL+"/api/ingest", ing, &ingRes)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", res.StatusCode)
	}
	if ingRes.AddedTensors != 1 || ingRes.Tensors != 4 {
		t.Fatalf("ingest = %+v, want 1 added / 4 total tensors", ingRes)
	}
	if !ingRes.PlanPatched {
		t.Fatal("plain append batch did not patch the plan in place")
	}
	if !strings.Contains(ingRes.Provenance, "U4") {
		t.Fatalf("grown provenance lacks the ingested user: %s", ingRes.Provenance)
	}

	// v2: explicit extend from the latest version.
	ext := extendRequest{summarizeRequest: params}
	var extSum summarizeResponse
	res = post(t, ts.URL+"/api/extend", ext, &extSum)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("extend status = %d", res.StatusCode)
	}
	if extSum.Cached {
		t.Fatal("first extend cannot be served from cache")
	}

	getJSON(t, ts.URL+"/api/sessions/"+id+"/versions", &vs)
	if len(vs.Versions) != 2 {
		t.Fatalf("versions after extend = %d, want 2", len(vs.Versions))
	}
	v2 := vs.Versions[1]
	if v2.Version != 2 || v2.Parent != 1 {
		t.Fatalf("v2 = %+v, want parent 1", v2)
	}
	if v2.ExtendedFrom == 0 {
		t.Fatal("extend run reports no seeded prefix")
	}
	if len(v2.Groups[group]) != 3 {
		t.Fatalf("v2 group %s = %v, want U4 folded in", group, v2.Groups[group])
	}

	// Structural diff v1 -> v2: the seeded group grew, so it reports as
	// merged-from-itself; nothing was split or added from nowhere.
	var diff versionDiffResponse
	res = getJSON(t, ts.URL+"/api/versions/"+id+".1/diff/"+id+".2", &diff)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("diff status = %d", res.StatusCode)
	}
	if len(diff.Merged) != 1 || diff.Merged[0].Group != group {
		t.Fatalf("diff.Merged = %+v, want the grown group %s", diff.Merged, group)
	}
	if len(diff.Merged[0].From) != 1 || diff.Merged[0].From[0] != group {
		t.Fatalf("diff.Merged[0].From = %v, want [%s]", diff.Merged[0].From, group)
	}
	if len(diff.Split) != 0 || len(diff.Added) != 0 {
		t.Fatalf("diff = %+v, want no splits or additions", diff)
	}

	// Diff error paths.
	if res := getJSON(t, ts.URL+"/api/versions/"+id+".1/diff/other.2", nil); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("cross-session diff status = %d", res.StatusCode)
	}
	if res := getJSON(t, ts.URL+"/api/versions/"+id+".1/diff/"+id+".9", nil); res.StatusCode != http.StatusNotFound {
		t.Fatalf("out-of-range diff status = %d", res.StatusCode)
	}

	// Another ingest, then a PLAIN summarize: the exact cache key misses
	// (the expression grew), but the prefix index finds v2's entry and
	// the run is warm-started automatically.
	ing2 := ingestRequest{SessionID: id, Expression: "U5 (x) (4,1)@MP"}
	ing2.Universe = customUniverse{
		{Ann: "U5", Table: "users", Attrs: map[string]string{"gender": "M"}},
	}
	res = post(t, ts.URL+"/api/ingest", ing2, nil)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("second ingest status = %d", res.StatusCode)
	}
	var warmSum summarizeResponse
	res = post(t, ts.URL+"/api/summarize", params, &warmSum)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("warm summarize status = %d", res.StatusCode)
	}
	if got := res.Header.Get("X-Prox-Cache"); got != "warm" {
		t.Fatalf("X-Prox-Cache = %q, want warm", got)
	}
	getJSON(t, ts.URL+"/api/sessions/"+id+"/versions", &vs)
	if len(vs.Versions) != 3 {
		t.Fatalf("versions after warm run = %d, want 3", len(vs.Versions))
	}
	v3 := vs.Versions[2]
	if v3.Parent != 2 || v3.ExtendedFrom == 0 {
		t.Fatalf("v3 = %+v, want a warm-started child of v2", v3)
	}
	if len(v3.Groups[group]) != 4 {
		t.Fatalf("v3 group %s = %v, want U5 folded in", group, v3.Groups[group])
	}
}

// TestWarmStartSurvivesRestart: a summary journaled before a restart
// keeps its warm-start prefix, so after the restart a session that grows
// by ingest is re-summarized from it — X-Prox-Cache: warm, and the new
// version is a warm-started child of v1 — instead of from scratch.
func TestWarmStartSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := jobsServer(t, jobsWorkload(), WithStore(st1))
	id := streamSession(t, ts1)
	params := summarizeRequest{SessionID: id, WDist: 1, Steps: 2, ValuationClass: "annotation"}
	if res := post(t, ts1.URL+"/api/summarize", params, nil); res.StatusCode != http.StatusOK {
		t.Fatalf("summarize status = %d", res.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	_, ts2 := jobsServer(t, jobsWorkload(), WithStore(st2))
	ing := ingestRequest{SessionID: id, Expression: "U4 (x) (2,1)@MP"}
	ing.Universe = customUniverse{{Ann: "U4", Table: "users", Attrs: map[string]string{"gender": "M"}}}
	if res := post(t, ts2.URL+"/api/ingest", ing, nil); res.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", res.StatusCode)
	}
	res := post(t, ts2.URL+"/api/summarize", params, nil)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("restarted summarize status = %d", res.StatusCode)
	}
	if got := res.Header.Get("X-Prox-Cache"); got != "warm" {
		t.Fatalf("X-Prox-Cache after restart and ingest = %q, want warm", got)
	}
	var vs versionsResponse
	getJSON(t, ts2.URL+"/api/sessions/"+id+"/versions", &vs)
	if n := len(vs.Versions); n != 2 || vs.Versions[1].Parent != 1 || vs.Versions[1].ExtendedFrom == 0 {
		t.Fatalf("versions after restart = %+v, want v2 a warm-started child of v1", vs.Versions)
	}
}

// TestIngestErrors pins the ingest endpoint's validation.
func TestIngestErrors(t *testing.T) {
	_, ts := testServer(t)
	id := streamSession(t, ts)

	if res := post(t, ts.URL+"/api/ingest", ingestRequest{SessionID: "nope", Expression: "U1 (x) 3"}, nil); res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session status = %d", res.StatusCode)
	}
	if res := post(t, ts.URL+"/api/ingest", ingestRequest{SessionID: id, Expression: "((("}, nil); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad expression status = %d", res.StatusCode)
	}
	if res := post(t, ts.URL+"/api/ingest", ingestRequest{SessionID: id, Expression: ""}, nil); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status = %d", res.StatusCode)
	}
}

// TestExtendErrors pins the extend endpoint's validation.
func TestExtendErrors(t *testing.T) {
	_, ts := testServer(t)
	id := streamSession(t, ts)

	bad := extendRequest{summarizeRequest: summarizeRequest{
		SessionID: id, WDist: 1, Steps: 1, ValuationClass: "annotation",
	}}
	bad.FromVersion = 3
	if res := post(t, ts.URL+"/api/extend", bad, nil); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing version status = %d", res.StatusCode)
	}

	// FromVersion 0 on a version-less session falls back to a
	// from-scratch run (bit-identical to Summarize by construction).
	ok := extendRequest{summarizeRequest: summarizeRequest{
		SessionID: id, WDist: 1, Steps: 1, ValuationClass: "annotation",
	}}
	var sum summarizeResponse
	if res := post(t, ts.URL+"/api/extend", ok, &sum); res.StatusCode != http.StatusOK {
		t.Fatalf("extend-from-nothing status = %d", res.StatusCode)
	}
	if len(sum.Steps) == 0 {
		t.Fatal("extend-from-nothing produced no merges")
	}
}

// scrapeMetrics fetches the full /metrics exposition.
func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var b strings.Builder
	sc := bufio.NewScanner(res.Body)
	for sc.Scan() {
		b.WriteString(sc.Text())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestCacheSweepGaugesDrop is the regression test for the eager TTL
// sweep: the prox_cache_* gauges must fall back to zero once cached
// entries expire, without any cache lookup in between.
func TestCacheSweepGaugesDrop(t *testing.T) {
	cfg := datasets.DefaultMovieLensConfig()
	cfg.Users, cfg.Movies = 10, 5
	w := datasets.MovieLens(cfg, rand.New(rand.NewSource(5)))
	s, err := New(w,
		WithCache(16, 1<<20, 60*time.Millisecond),
		WithCacheSweep(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var sel selectResponse
	post(t, ts.URL+"/api/select", selectRequest{}, &sel)
	res := post(t, ts.URL+"/api/summarize", summarizeRequest{
		SessionID: sel.SessionID, WDist: 0.5, WSize: 0.5, Steps: 3,
		ValuationClass: "annotation",
	}, nil)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("summarize status = %d", res.StatusCode)
	}

	if got := metricValue(t, scrapeMetrics(t, ts), "prox_cache_entries"); got != 1 {
		t.Fatalf("prox_cache_entries = %g after a run, want 1", got)
	}

	// Past the TTL the sweeper (and the scrape-time sweep) must have
	// dropped the entry and its bytes.
	deadline := time.Now().Add(2 * time.Second)
	for {
		time.Sleep(80 * time.Millisecond)
		if metricValue(t, scrapeMetrics(t, ts), "prox_cache_entries") == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("prox_cache_entries never dropped after TTL expiry")
		}
	}
	if got := metricValue(t, scrapeMetrics(t, ts), "prox_cache_bytes"); got != 0 {
		t.Fatalf("prox_cache_bytes = %g after expiry, want 0", got)
	}
}
