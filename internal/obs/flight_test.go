package obs

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFlightRecorderCapture(t *testing.T) {
	dir := t.TempDir()
	tr := NewTracer(TracerConfig{})
	_, sp := tr.StartSpan(context.Background(), "doomed-request")
	sp.End()

	now := time.Unix(1_700_000_000, 0)
	r := NewRegistry()
	fr, err := NewFlightRecorder(r, FlightRecorderConfig{
		Dir:    dir,
		Tracer: tr,
		Clock:  func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}

	bundle, err := fr.Capture("slo-breach:http:/api/summarize", sp.TraceID())
	if err != nil {
		t.Fatal(err)
	}
	if bundle == "" {
		t.Fatal("first capture was rate-limited")
	}
	if base := filepath.Base(bundle); strings.ContainsAny(base, "/:") {
		t.Fatalf("bundle dir %q not filesystem-safe", base)
	}

	var meta flightMeta
	raw, err := os.ReadFile(filepath.Join(bundle, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Reason != "slo-breach:http:/api/summarize" || meta.Trace != sp.TraceID().String() {
		t.Fatalf("meta = %+v", meta)
	}

	g, err := os.ReadFile(filepath.Join(bundle, "goroutines.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(g), "goroutine") {
		t.Fatalf("goroutine dump looks empty: %q", string(g[:min(len(g), 80)]))
	}

	traceRaw, err := os.ReadFile(filepath.Join(bundle, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(traceRaw), "doomed-request") {
		t.Fatalf("trace.json lacks span tree: %s", traceRaw)
	}

	// Within MinInterval a second capture is suppressed.
	if again, err := fr.Capture("job-failure", TraceID{}); err != nil || again != "" {
		t.Fatalf("rate limit: got %q, %v", again, err)
	}
	// After the interval it is allowed again, and a zero trace id
	// captures the full trace listing.
	now = now.Add(time.Minute)
	again, err := fr.Capture("job-failure", TraceID{})
	if err != nil || again == "" {
		t.Fatalf("second capture: %q, %v", again, err)
	}
	if v := r.Counter("prox_flight_captures_total", "", nil).Value(); v != 2 {
		t.Fatalf("captures counter = %g, want 2", v)
	}

	var nilFR *FlightRecorder
	if d, err := nilFR.Capture("x", TraceID{}); d != "" || err != nil {
		t.Fatal("nil recorder captured")
	}
}

// TestFlightBundlesPublishAtomically pins the rename contract: while
// captures are written, a concurrent reader of Dir must never see a
// visible bundle directory that lacks one of its files, and no hidden
// in-progress directory may survive a capture.
func TestFlightBundlesPublishAtomically(t *testing.T) {
	dir := t.TempDir()
	tr := NewTracer(TracerConfig{})
	_, sp := tr.StartSpan(context.Background(), "request")
	sp.End()
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	fr, err := NewFlightRecorder(NewRegistry(), FlightRecorderConfig{
		Dir:    dir,
		Tracer: tr,
		Clock: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			now = now.Add(time.Hour) // never rate-limited
			return now
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const captures = 40
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < captures; i++ {
			id := sp.TraceID()
			if i%2 == 1 {
				id = TraceID{}
			}
			if _, err := fr.Capture("storm", id); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	check := func() (visible int) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), ".") {
				continue
			}
			visible++
			for _, f := range []string{"meta.json", "goroutines.txt", "trace.json"} {
				if _, err := os.Stat(filepath.Join(dir, e.Name(), f)); err != nil {
					t.Fatalf("visible bundle %s missing %s: %v", e.Name(), f, err)
				}
			}
		}
		return visible
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			check()
		}
	}
	if n := check(); n != captures {
		t.Fatalf("%d bundles published, want %d", n, captures)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != captures {
		t.Fatalf("%d entries in Dir, want %d (a temporary directory survived)", len(entries), captures)
	}
}

// TestFlightRecorderWriteErrorPublishesNothing: a capture whose bundle
// cannot be written returns the error, publishes nothing, and counts
// the failure in prox_flight_write_errors_total.
func TestFlightRecorderWriteErrorPublishesNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "flight")
	r := NewRegistry()
	fr, err := NewFlightRecorder(r, FlightRecorderConfig{Dir: dir, Tracer: NewTracer(TracerConfig{})})
	if err != nil {
		t.Fatal(err)
	}
	// Replace the bundle directory with a regular file: every write
	// below it fails, whatever the process's privileges.
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := fr.Capture("job-failure", TraceID{}); err == nil || got != "" {
		t.Fatalf("Capture = %q, %v; want an error and no bundle", got, err)
	}
	if v := r.Counter("prox_flight_write_errors_total", "", nil).Value(); v != 1 {
		t.Fatalf("prox_flight_write_errors_total = %g, want 1", v)
	}
	if v := r.Counter("prox_flight_captures_total", "", nil).Value(); v != 0 {
		t.Fatalf("prox_flight_captures_total = %g, want 0", v)
	}
}
