package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// metricOr is metricValue without the must-exist requirement, for
// polling loops that may scrape before any request touched a counter.
func metricOr(body, name string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, false
			}
			return v, true
		}
	}
	return 0, false
}

// cacheSummarizeReq is the canonical request reused across cache tests;
// identical parameters are what makes requests share a content address.
func cacheSummarizeReq(sid string) summarizeRequest {
	return summarizeRequest{
		SessionID: sid, WDist: 0.5, WSize: 0.5, Steps: 3, ValuationClass: "annotation",
	}
}

// TestSummarizeCacheHit asserts the tentpole criterion: a repeated
// identical /api/summarize is served from the cache — X-Prox-Cache: hit,
// cached flag set, byte-identical summary — and Algorithm 1 does not run
// again (the merge-step counter is unchanged).
func TestSummarizeCacheHit(t *testing.T) {
	_, ts := jobsServer(t, jobsWorkload())
	sid := selectAll(t, ts)

	var first summarizeResponse
	res := post(t, ts.URL+"/api/summarize", cacheSummarizeReq(sid), &first)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("first summarize status = %d", res.StatusCode)
	}
	if got := res.Header.Get("X-Prox-Cache"); got != "miss" {
		t.Fatalf("first X-Prox-Cache = %q, want miss", got)
	}
	if first.Cached {
		t.Fatal("first run marked cached")
	}

	before := metricValue(t, scrape(t, ts), "prox_summarize_steps_total")

	var second summarizeResponse
	res = post(t, ts.URL+"/api/summarize", cacheSummarizeReq(sid), &second)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("second summarize status = %d", res.StatusCode)
	}
	if got := res.Header.Get("X-Prox-Cache"); got != "hit" {
		t.Fatalf("second X-Prox-Cache = %q, want hit", got)
	}
	if !second.Cached {
		t.Fatal("cache hit not marked cached")
	}
	second.Cached = false
	second.ElapsedMS = first.ElapsedMS // replay does not re-time the run
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached summary diverges:\nfirst:  %+v\nsecond: %+v", first, second)
	}

	out := scrape(t, ts)
	if after := metricValue(t, out, "prox_summarize_steps_total"); after != before {
		t.Fatalf("merge steps ran on a cache hit: %v -> %v", before, after)
	}
	if hits := metricValue(t, out, "prox_cache_hits_total"); hits != 1 {
		t.Fatalf("prox_cache_hits_total = %v, want 1", hits)
	}

	// A parameter change is a different content address: miss, not hit.
	req := cacheSummarizeReq(sid)
	req.Steps = 2
	var third summarizeResponse
	res = post(t, ts.URL+"/api/summarize", req, &third)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("third summarize status = %d", res.StatusCode)
	}
	if got := res.Header.Get("X-Prox-Cache"); got != "miss" {
		t.Fatalf("changed params X-Prox-Cache = %q, want miss", got)
	}
}

// TestConcurrentIdenticalSummarizeRunsOnce holds the single worker
// busy, fires N identical synchronous summarize requests, and asserts
// they coalesce onto one job: the summarizer runs exactly once and every
// waiter still receives the full summary.
func TestConcurrentIdenticalSummarizeRunsOnce(t *testing.T) {
	const waiters = 4
	s, ts := jobsServer(t, jobsWorkload(), WithWorkers(1))
	sid := selectAll(t, ts)
	release := occupyWorker(t, s, "blocker")

	var wg sync.WaitGroup
	results := make([]summarizeResponse, waiters)
	states := make([]string, waiters)
	codes := make([]int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res := post(t, ts.URL+"/api/summarize", cacheSummarizeReq(sid), &results[i])
			codes[i] = res.StatusCode
			states[i] = res.Header.Get("X-Prox-Cache")
		}(i)
	}

	// Wait until all four submissions registered (one miss, three
	// coalesced onto its queued job), then let the worker go.
	deadline := time.Now().Add(10 * time.Second)
	for {
		out := scrape(t, ts)
		misses, _ := metricOr(out, "prox_cache_misses_total")
		coalesced, _ := metricOr(out, "prox_cache_inflight_coalesced_total")
		if misses == 1 && coalesced == waiters-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submissions never coalesced: misses=%v coalesced=%v", misses, coalesced)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(release)
	wg.Wait()

	inflight := 0
	for i := 0; i < waiters; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("waiter %d status = %d", i, codes[i])
		}
		if states[i] == "inflight" {
			inflight++
		}
		if results[i].Expression == "" || len(results[i].Steps) == 0 {
			t.Fatalf("waiter %d got empty summary: %+v", i, results[i])
		}
		if results[i].Expression != results[0].Expression {
			t.Fatalf("waiter %d summary diverges", i)
		}
	}
	if inflight != waiters-1 {
		t.Fatalf("inflight waiters = %d, want %d", inflight, waiters-1)
	}

	out := scrape(t, ts)
	if steps := metricValue(t, out, "prox_summarize_steps_total"); steps != float64(len(results[0].Steps)) {
		t.Fatalf("prox_summarize_steps_total = %v, want %d (one run)", steps, len(results[0].Steps))
	}
}

// TestJobsCoalesceAndCacheHit drives the async endpoint through all
// three cache states: a miss queues a job, an identical submission
// attaches to it (same job id, no second run), and after completion a
// third submission is answered as a synthetic done job with the cached
// result.
func TestJobsCoalesceAndCacheHit(t *testing.T) {
	s, ts := jobsServer(t, jobsWorkload(), WithWorkers(1))
	sid := selectAll(t, ts)
	release := occupyWorker(t, s, "blocker")

	var miss jobResponse
	res := post(t, ts.URL+"/api/jobs", cacheSummarizeReq(sid), &miss)
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", res.StatusCode)
	}
	if got := res.Header.Get("X-Prox-Cache"); got != "miss" {
		t.Fatalf("first submit X-Prox-Cache = %q, want miss", got)
	}

	var dup jobResponse
	res = post(t, ts.URL+"/api/jobs", cacheSummarizeReq(sid), &dup)
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("duplicate submit status = %d, want 202", res.StatusCode)
	}
	if got := res.Header.Get("X-Prox-Cache"); got != "inflight" {
		t.Fatalf("duplicate X-Prox-Cache = %q, want inflight", got)
	}
	if dup.ID != miss.ID {
		t.Fatalf("duplicate got job %s, want in-flight %s", dup.ID, miss.ID)
	}

	close(release)
	final := pollJob(t, ts, miss.ID)
	if final.State != store.JobStateDone || final.Result == nil {
		t.Fatalf("shared job = %+v", final)
	}

	var hit jobResponse
	res = post(t, ts.URL+"/api/jobs", cacheSummarizeReq(sid), &hit)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("cached submit status = %d, want 200", res.StatusCode)
	}
	if got := res.Header.Get("X-Prox-Cache"); got != "hit" {
		t.Fatalf("cached submit X-Prox-Cache = %q, want hit", got)
	}
	if !hit.Cached || hit.State != store.JobStateDone || hit.Result == nil || !hit.Result.Cached {
		t.Fatalf("cached submit = %+v", hit)
	}
	if hit.ID == miss.ID {
		t.Fatal("synthetic cached job reused the live job id")
	}
	if hit.Result.Expression != final.Result.Expression {
		t.Fatalf("cached result diverges from run: %s != %s", hit.Result.Expression, final.Result.Expression)
	}
	// The synthetic job stays pollable.
	got := pollJob(t, ts, hit.ID)
	if got.State != store.JobStateDone {
		t.Fatalf("synthetic job state = %s", got.State)
	}
}

// TestCacheFlushEndpoint asserts POST /api/cache/flush empties the
// cache (the next identical request recomputes) and reports the count,
// and that a cache-disabled server rejects the flush and tags nothing.
func TestCacheFlushEndpoint(t *testing.T) {
	_, ts := jobsServer(t, jobsWorkload())
	sid := selectAll(t, ts)

	if res := post(t, ts.URL+"/api/summarize", cacheSummarizeReq(sid), nil); res.StatusCode != http.StatusOK {
		t.Fatalf("summarize status = %d", res.StatusCode)
	}
	var flushed map[string]int
	if res := post(t, ts.URL+"/api/cache/flush", struct{}{}, &flushed); res.StatusCode != http.StatusOK {
		t.Fatalf("flush status = %d", res.StatusCode)
	}
	if flushed["flushed"] != 1 {
		t.Fatalf("flushed = %v, want 1", flushed)
	}
	res := post(t, ts.URL+"/api/summarize", cacheSummarizeReq(sid), nil)
	if got := res.Header.Get("X-Prox-Cache"); got != "miss" {
		t.Fatalf("post-flush X-Prox-Cache = %q, want miss", got)
	}

	// Disabled cache: no header, flush rejected.
	_, tsOff := jobsServer(t, jobsWorkload(), WithCache(0, -1, -1))
	sidOff := selectAll(t, tsOff)
	res = post(t, tsOff.URL+"/api/summarize", cacheSummarizeReq(sidOff), nil)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("no-cache summarize status = %d", res.StatusCode)
	}
	if got := res.Header.Get("X-Prox-Cache"); got != "" {
		t.Fatalf("no-cache X-Prox-Cache = %q, want empty", got)
	}
	if res := post(t, tsOff.URL+"/api/cache/flush", struct{}{}, nil); res.StatusCode != http.StatusConflict {
		t.Fatalf("no-cache flush status = %d, want 409", res.StatusCode)
	}
}

// TestCacheWarmStartAcrossRestart asserts persistence: entries journaled
// through the store are replayed into the cache on startup, so a
// restarted server answers an identical request with a hit and zero
// merge steps run.
func TestCacheWarmStartAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := jobsServer(t, jobsWorkload(), WithStore(st1))
	sid := selectAll(t, ts1)
	var base summarizeResponse
	if res := post(t, ts1.URL+"/api/summarize", cacheSummarizeReq(sid), &base); res.StatusCode != http.StatusOK {
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

	var warm summarizeResponse
	res := post(t, ts2.URL+"/api/summarize", cacheSummarizeReq(sid), &warm)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("restarted summarize status = %d", res.StatusCode)
	}
	if got := res.Header.Get("X-Prox-Cache"); got != "hit" {
		t.Fatalf("restarted X-Prox-Cache = %q, want hit (warm start)", got)
	}
	if !warm.Cached {
		t.Fatal("warm-start summary not marked cached")
	}
	if warm.Expression != base.Expression || !reflect.DeepEqual(warm.Steps, base.Steps) {
		t.Fatalf("warm-start summary diverges:\nwas: %s\nnow: %s", base.Expression, warm.Expression)
	}
	// The groups keep the attributes their names were registered with.
	if !reflect.DeepEqual(warm.Groups, base.Groups) {
		t.Fatalf("warm-start groups diverge:\nwas: %+v\nnow: %+v", base.Groups, warm.Groups)
	}
	out := scrape(t, ts2)
	if steps := metricValue(t, out, "prox_summarize_steps_total"); steps != 0 {
		t.Fatalf("restarted server ran %v merge steps, want 0", steps)
	}

	// The flush is journaled too: a third server starts cold.
	if res := post(t, ts2.URL+"/api/cache/flush", struct{}{}, nil); res.StatusCode != http.StatusOK {
		t.Fatalf("flush status = %d", res.StatusCode)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st3.Close() })
	s3, err := New(jobsWorkload(), WithStore(st3))
	if err != nil {
		t.Fatal(err)
	}
	if n := s3.cache.Len(); n != 0 {
		t.Fatalf("cache after journaled flush = %d entries, want 0", n)
	}
}

// BenchmarkServerSummarizeCacheHit measures the full HTTP round trip of
// a summarize request answered from the cache (trace replay, no run).
func BenchmarkServerSummarizeCacheHit(b *testing.B) {
	s, ts := benchServer(b)
	sid := benchSelect(b, ts)
	benchSummarize(b, ts, sid) // prime
	if s.cache.Len() != 1 {
		b.Fatalf("cache not primed: %d entries", s.cache.Len())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSummarize(b, ts, sid)
	}
	b.StopTimer()
	if st := s.cache.Stats(); st.Hits < uint64(b.N) {
		b.Fatalf("hits = %d, want >= %d", st.Hits, b.N)
	}
}

// BenchmarkServerSummarizeCacheMiss measures the same round trip when
// every request recomputes (the cache is flushed between iterations),
// i.e. the work a hit saves.
func BenchmarkServerSummarizeCacheMiss(b *testing.B) {
	s, ts := benchServer(b)
	sid := benchSelect(b, ts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSummarize(b, ts, sid)
		b.StopTimer()
		s.cache.Flush()
		b.StartTimer()
	}
}

func benchServer(b *testing.B) (*Server, *httptest.Server) {
	b.Helper()
	s, err := New(jobsWorkload())
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	return s, ts
}

func benchSelect(b *testing.B, ts *httptest.Server) string {
	b.Helper()
	var sel selectResponse
	res, err := http.Post(ts.URL+"/api/select", "application/json", strings.NewReader("{}"))
	if err != nil {
		b.Fatal(err)
	}
	defer res.Body.Close()
	if err := json.NewDecoder(res.Body).Decode(&sel); err != nil {
		b.Fatal(err)
	}
	return sel.SessionID
}

func benchSummarize(b *testing.B, ts *httptest.Server, sid string) {
	b.Helper()
	body := `{"sessionId":"` + sid + `","wDist":0.5,"wSize":0.5,"steps":3,"valuationClass":"annotation"}`
	res, err := http.Post(ts.URL+"/api/summarize", "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		b.Fatalf("summarize status = %d", res.StatusCode)
	}
}

// TestCacheRejectedPutNotJournaled pins the rejection path end to end:
// when the summary cache refuses an entry (here: MaxBytes smaller than
// any entry), the server must count it on prox_cache_rejected_total and
// must NOT journal the entry to the store — journaling it would grow
// the WAL with records the cache never held and resurrect them into
// replay on every restart. Before the fix Put dropped the entry
// silently and the server journaled it anyway.
func TestCacheRejectedPutNotJournaled(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := jobsServer(t, jobsWorkload(), WithStore(st), WithCache(8, 1, 0))
	sid := selectAll(t, ts)

	var resp summarizeResponse
	if res := post(t, ts.URL+"/api/summarize", cacheSummarizeReq(sid), &resp); res.StatusCode != http.StatusOK {
		t.Fatalf("summarize status = %d", res.StatusCode)
	}
	out := scrape(t, ts)
	if got := metricValue(t, out, "prox_cache_rejected_total"); got != 1 {
		t.Fatalf("prox_cache_rejected_total = %v, want 1", got)
	}
	if n := s.cache.Len(); n != 0 {
		t.Fatalf("cache holds %d entries after a rejected put", n)
	}
	if entries := st.State().CacheEntries; len(entries) != 0 {
		t.Fatalf("rejected put was journaled: %+v", entries)
	}

	// A second identical request misses (nothing was cached) and is
	// rejected again — still without touching the journal.
	if res := post(t, ts.URL+"/api/summarize", cacheSummarizeReq(sid), &resp); res.StatusCode != http.StatusOK {
		t.Fatalf("second summarize status = %d", res.StatusCode)
	}
	out = scrape(t, ts)
	if got := metricValue(t, out, "prox_cache_rejected_total"); got != 2 {
		t.Fatalf("prox_cache_rejected_total after second run = %v, want 2", got)
	}
	if entries := st.State().CacheEntries; len(entries) != 0 {
		t.Fatalf("second rejected put was journaled: %+v", entries)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
