package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/store"
)

const clientTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
const clientTraceID = "4bf92f3577b34da6a3ce929d0e0e4736"

var hexTraceID = regexp.MustCompile(`^[0-9a-f]{32}$`)

// doTraced issues a request with an optional traceparent header and
// returns the response with its body decoded into out (when non-nil and
// the status matches wantStatus).
func doTraced(t *testing.T, method, url, traceparent string, body, out any) *http.Response {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if out != nil {
		if err := json.NewDecoder(res.Body).Decode(out); err != nil {
			t.Fatalf("decode %s %s: %v", method, url, err)
		}
	}
	return res
}

func TestMiddlewareTracePropagation(t *testing.T) {
	_, ts := testServer(t)

	// A valid incoming traceparent joins the caller's trace: the response
	// echoes the caller's trace ID.
	res := doTraced(t, "GET", ts.URL+"/api/movies", clientTraceparent, nil, nil)
	if got := res.Header.Get("X-Prox-Trace"); got != clientTraceID {
		t.Fatalf("X-Prox-Trace = %q, want %q", got, clientTraceID)
	}

	// Garbage traceparent: rejected, a fresh trace is rooted instead.
	res = doTraced(t, "GET", ts.URL+"/api/movies", "00-zzzz-bad-junk", nil, nil)
	got := res.Header.Get("X-Prox-Trace")
	if !hexTraceID.MatchString(got) {
		t.Fatalf("garbage traceparent: X-Prox-Trace = %q, want fresh 32-hex id", got)
	}

	// Absent traceparent: fresh trace per request, distinct each time.
	a := doTraced(t, "GET", ts.URL+"/api/movies", "", nil, nil).Header.Get("X-Prox-Trace")
	b := doTraced(t, "GET", ts.URL+"/api/movies", "", nil, nil).Header.Get("X-Prox-Trace")
	if !hexTraceID.MatchString(a) || !hexTraceID.MatchString(b) {
		t.Fatalf("absent traceparent: X-Prox-Trace = %q / %q, want 32-hex ids", a, b)
	}
	if a == b {
		t.Fatalf("two untraced requests share trace id %s", a)
	}
}

// traceTree is the client view of GET /api/traces/{id}.
type traceTree struct {
	ID      string       `json:"id"`
	Spans   int          `json:"spans"`
	Dropped int          `json:"dropped"`
	Roots   []*traceNode `json:"roots"`
}

type traceNode struct {
	Name     string            `json:"name"`
	Span     string            `json:"span"`
	Parent   string            `json:"parent"`
	DurUS    int64             `json:"durUs"`
	Attrs    map[string]string `json:"attrs"`
	Children []*traceNode      `json:"children"`
}

// flatten collects every node of the tree in depth-first order.
func flatten(nodes []*traceNode) []*traceNode {
	var out []*traceNode
	for _, n := range nodes {
		out = append(out, n)
		out = append(out, flatten(n.Children)...)
	}
	return out
}

func TestTraceEndpoints(t *testing.T) {
	_, ts := testServer(t)

	doTraced(t, "GET", ts.URL+"/api/movies", clientTraceparent, nil, nil)

	var list struct {
		Traces []obs.TraceSummary `json:"traces"`
	}
	doTraced(t, "GET", ts.URL+"/api/traces", "", nil, &list)
	found := false
	for _, tr := range list.Traces {
		if tr.ID == clientTraceID {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace %s missing from /api/traces (%d listed)", clientTraceID, len(list.Traces))
	}

	var tree traceTree
	res := doTraced(t, "GET", ts.URL+"/api/traces/"+clientTraceID, "", nil, &tree)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("trace get status = %d", res.StatusCode)
	}
	var names []string
	for _, n := range flatten(tree.Roots) {
		names = append(names, n.Name)
	}
	if len(names) != 1 || names[0] != "http /api/movies" {
		t.Fatalf("trace spans = %v, want [http /api/movies]", names)
	}
	sp := tree.Roots[0]
	if sp.Attrs["route"] != "/api/movies" || sp.Attrs["status"] != "200" {
		t.Fatalf("request span attrs = %v", sp.Attrs)
	}
	if sp.DurUS < 0 {
		t.Fatalf("request span still active: durUs = %d", sp.DurUS)
	}

	if res := doTraced(t, "GET", ts.URL+"/api/traces/not-hex", "", nil, nil); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad trace id status = %d, want 400", res.StatusCode)
	}
	unknown := strings.Repeat("ab", 16)
	if res := doTraced(t, "GET", ts.URL+"/api/traces/"+unknown, "", nil, nil); res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace status = %d, want 404", res.StatusCode)
	}
}

// waitForJournal polls the span journal until every want substring
// appears in a line that also carries the client trace ID.
func waitForJournal(t *testing.T, path string, want ...string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		data, _ := os.ReadFile(path)
		missing := false
		for _, w := range want {
			ok := false
			for _, line := range strings.Split(string(data), "\n") {
				if strings.Contains(line, w) && strings.Contains(line, clientTraceID) {
					ok = true
					break
				}
			}
			if !ok {
				missing = true
				break
			}
		}
		if !missing {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("span journal never recorded %v under trace %s", want, clientTraceID)
}

// TestJobTraceContiguityAcrossRestart is the end-to-end tracing check:
// one client-supplied trace ID survives a 429-rejected submission, the
// accepted resubmission, the job's merge steps and checkpoints, a
// server shutdown mid-run, and the resumed run on a second server over
// the same store and span journal — ending as a single trace whose tree
// spans both processes.
func TestJobTraceContiguityAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	spanPath := filepath.Join(dir, "spans.jsonl")
	dataDir := filepath.Join(dir, "data")

	sink1, err := os.OpenFile(spanPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	tr1 := obs.NewTracer(obs.TracerConfig{MaxTraces: 8192, Sink: sink1})
	st1, err := store.Open(dataDir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	// A workload big enough that the target job runs for a while — it
	// must still be mid-run when the first server shuts down.
	bigWorkload := func() *datasets.Workload {
		cfg := datasets.DefaultMovieLensConfig()
		cfg.Users, cfg.Movies = 48, 10
		return datasets.MovieLens(cfg, rand.New(rand.NewSource(5)))
	}
	s1, ts1 := jobsServer(t, bigWorkload(),
		WithStore(st1), WithWorkers(1), WithQueueSize(1), WithCheckpointEvery(1), WithTracer(tr1))
	sid := selectAll(t, ts1)

	// Occupy the single worker and the single bulk-lane slot with jobs
	// that park until released, so the queue /api/jobs submits into is
	// deterministically full.
	release := make(chan struct{})
	if _, err := s1.jm.Submit("block-worker", 0, blockTask(release)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.jm.SubmitLane("block-queue", "", "", jobs.LaneBulk, 0, blockTask(release)); err != nil {
		t.Fatal(err)
	}

	// The traced submission bounces off the full queue with 429 — that
	// rejected request is part of the client's trace too.
	target := summarizeRequest{SessionID: sid, WDist: 0.5, WSize: 0.5, Steps: 16, ValuationClass: "annotation"}
	if res := doTraced(t, "POST", ts1.URL+"/api/jobs", clientTraceparent, target, nil); res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full-queue submit status = %d, want 429", res.StatusCode)
	}

	// Release the blockers and retry under the same traceparent.
	close(release)
	var jr jobResponse
	retry := func() bool {
		res := doTraced(t, "POST", ts1.URL+"/api/jobs", clientTraceparent, target, &jr)
		return res.StatusCode == http.StatusAccepted
	}
	deadline := time.Now().Add(10 * time.Second)
	for !retry() {
		if time.Now().After(deadline) {
			t.Fatal("resubmission never accepted after canceling blockers")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if jr.Trace != clientTraceID {
		t.Fatalf("accepted job trace = %q, want %q", jr.Trace, clientTraceID)
	}

	// Wait until the job has committed at least one merge step and one
	// checkpoint under the client's trace, then shut down mid-run.
	waitForJournal(t, spanPath, `"name":"merge-step"`, `"name":"checkpoint"`)
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sink1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh tracer replaying the span journal, fresh server
	// over the same store. The interrupted job requeues from its latest
	// checkpoint and must finish under the original trace ID.
	sink2, err := os.OpenFile(spanPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink2.Close() })
	tr2 := obs.NewTracer(obs.TracerConfig{MaxTraces: 8192, Sink: sink2})
	jf, err := os.Open(spanPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr2.LoadJSONL(jf); err != nil {
		t.Fatal(err)
	}
	jf.Close()
	st2, err := store.Open(dataDir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	_, ts2 := jobsServer(t, bigWorkload(), WithStore(st2), WithCheckpointEvery(1), WithTracer(tr2))

	final := pollJob(t, ts2, jr.ID)
	if final.State != store.JobStateDone {
		t.Fatalf("resumed job state = %s (err %q), want done", final.State, final.Error)
	}
	if final.Trace != clientTraceID {
		t.Fatalf("resumed job trace = %q, want %q", final.Trace, clientTraceID)
	}

	// One trace, spanning both processes: requests (including the 429),
	// enqueue, the pre-kill run with its merge steps and checkpoints, and
	// the post-kill resume with its own merge steps.
	var tree traceTree
	if res := doTraced(t, "GET", ts2.URL+"/api/traces/"+clientTraceID, "", nil, &tree); res.StatusCode != http.StatusOK {
		t.Fatalf("trace get status = %d", res.StatusCode)
	}
	all := flatten(tree.Roots)
	count := map[string]int{}
	saw429 := false
	for _, n := range all {
		count[n.Name]++
		if n.Name == "http /api/jobs" && n.Attrs["status"] == "429" {
			saw429 = true
		}
	}
	for _, want := range []string{"http /api/jobs", "job.enqueue", "job.run", "merge-step", "checkpoint", "job.resume"} {
		if count[want] == 0 {
			t.Fatalf("trace tree missing %q spans; have %v", want, count)
		}
	}
	if count["http /api/jobs"] < 2 {
		t.Fatalf("want both the 429 and the accepted submit in the trace, have %d http /api/jobs spans", count["http /api/jobs"])
	}
	if !saw429 {
		t.Fatal("429-rejected submission span missing from the trace")
	}
	// merge-step spans from before AND after the kill: the resume picked
	// up at the checkpoint, so total steps recorded exceeds the resumed
	// run's own count.
	if len(final.Result.Steps) == 0 || count["merge-step"] <= len(final.Result.Steps)-1 {
		t.Logf("merge-step spans: %d, final steps: %d", count["merge-step"], len(final.Result.Steps))
	}

	// The terminal transition attached the trace ID to the job-duration
	// histogram as an exemplar.
	mdl := time.Now().Add(10 * time.Second)
	for {
		res, err := http.Get(ts2.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(res.Body)
		res.Body.Close()
		if strings.Contains(string(body), `trace_id="`+clientTraceID+`"`) {
			break
		}
		if time.Now().After(mdl) {
			t.Fatalf("no exemplar with trace_id=%s in /metrics", clientTraceID)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSLOBreachWritesFlightBundle induces an HTTP SLO breach (1ns
// threshold: every request is a bad event) and asserts the flight
// recorder lands a bundle on disk. Bundles are published by renaming a
// filled hidden directory into place, so every visible bundle directory
// must already hold all of its files the first time it is seen.
func TestSLOBreachWritesFlightBundle(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(obs.TracerConfig{})
	fr, err := obs.NewFlightRecorder(reg, obs.FlightRecorderConfig{Dir: dir, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	w := jobsWorkload()
	s, err := New(w,
		WithRegistry(reg),
		WithTracer(tracer),
		WithHTTPSLO(time.Nanosecond),
		WithFlightRecorder(fr))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	doTraced(t, "GET", ts.URL+"/api/movies", "", nil, nil)

	deadline := time.Now().Add(10 * time.Second)
	for {
		entries, _ := os.ReadDir(dir)
		found := false
		for _, e := range entries {
			if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
				continue // in-progress captures are hidden
			}
			for _, f := range []string{"meta.json", "goroutines.txt", "trace.json"} {
				if _, err := os.Stat(filepath.Join(dir, e.Name(), f)); err != nil {
					t.Fatalf("visible bundle %s missing %s: %v", e.Name(), f, err)
				}
			}
			found = found || strings.Contains(e.Name(), "slo-breach")
		}
		if found {
			if v := reg.Counter("prox_flight_write_errors_total", "", nil).Value(); v != 0 {
				t.Fatalf("prox_flight_write_errors_total = %g, want 0", v)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no flight bundle appeared after SLO breach")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
