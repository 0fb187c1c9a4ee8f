package obs

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
	h := sc.Traceparent()
	if len(h) != 55 || !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("traceparent %q not canonical", h)
	}
	got, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("reparse %q: %v", h, err)
	}
	if got != sc {
		t.Fatalf("round trip: got %+v, want %+v", got, sc)
	}
	// Unsampled flags come back unsampled.
	sc.Sampled = false
	got, err = ParseTraceparent(sc.Traceparent())
	if err != nil || got.Sampled {
		t.Fatalf("unsampled round trip: %+v, %v", got, err)
	}
}

func TestParseTraceparentAcceptsFutureVersion(t *testing.T) {
	// A higher version may carry extra fields after the flags.
	h := "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra-stuff"
	sc, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("future version: %v", err)
	}
	if sc.TraceID.String() != "4bf92f3577b34da6a3ce929d0e0e4736" || !sc.Sampled {
		t.Fatalf("future version parsed wrong: %+v", sc)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"short":            "00-abc",
		"bad separators":   "00_4bf92f3577b34da6a3ce929d0e0e4736_00f067aa0ba902b7_01",
		"uppercase hex":    "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		"non-hex trace id": "00-4bf92f3577b34da6a3ce929d0e0e473z-00f067aa0ba902b7-01",
		"non-hex span id":  "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902bz-01",
		"non-hex flags":    "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz",
		"version ff":       "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"zero trace id":    "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"zero span id":     "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"v00 extra field":  "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-x",
		"trailing garbage": "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x",
		"garbage":          "not a traceparent at all, definitely not one",
	}
	for name, h := range cases {
		if _, err := ParseTraceparent(h); err == nil {
			t.Errorf("%s: ParseTraceparent(%q) accepted, want error", name, h)
		}
	}
}

func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	f.Add("cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-more")
	f.Add("ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("")
	f.Add("00-00000000000000000000000000000000-0000000000000000-00")
	f.Fuzz(func(t *testing.T, h string) {
		sc, err := ParseTraceparent(h)
		if err != nil {
			return
		}
		// Anything accepted must be valid and survive a canonical
		// re-render round trip.
		if !sc.Valid() {
			t.Fatalf("accepted invalid context %+v from %q", sc, h)
		}
		again, err := ParseTraceparent(sc.Traceparent())
		if err != nil {
			t.Fatalf("canonical form of %q rejected: %v", h, err)
		}
		if again != sc {
			t.Fatalf("round trip drift: %+v vs %+v", again, sc)
		}
	})
}

func TestStartSpanPropagation(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	ctx, root := tr.StartSpan(context.Background(), "root")
	if root.TraceID().IsZero() {
		t.Fatal("root span has zero trace id")
	}
	_, child := tr.StartSpan(ctx, "child")
	if child.TraceID() != root.TraceID() {
		t.Fatal("child did not join parent trace")
	}
	if child.Context().SpanID == root.Context().SpanID {
		t.Fatal("child reused parent span id")
	}
	child.End()
	root.End()

	// A remote parent (incoming traceparent) is continued.
	remote := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
	rctx := ContextWithSpanContext(context.Background(), remote)
	_, sp := tr.StartSpan(rctx, "server")
	if sp.TraceID() != remote.TraceID {
		t.Fatal("span did not continue remote trace")
	}
	sp.End()

	spans, _, ok := tr.Spans(remote.TraceID)
	if !ok || len(spans) != 1 || spans[0].Parent != remote.SpanID.String() {
		t.Fatalf("remote trace spans = %+v, ok=%v", spans, ok)
	}
}

func TestTracerEvictionAndSpanCap(t *testing.T) {
	tr := NewTracer(TracerConfig{MaxTraces: 2, MaxSpans: 3})
	var ids []TraceID
	for i := 0; i < 3; i++ {
		_, sp := tr.StartSpan(context.Background(), "op")
		ids = append(ids, sp.TraceID())
		sp.End()
	}
	if _, _, ok := tr.Spans(ids[0]); ok {
		t.Fatal("oldest trace not evicted")
	}
	if _, _, ok := tr.Spans(ids[2]); !ok {
		t.Fatal("newest trace missing")
	}

	ctx, root := tr.StartSpan(context.Background(), "root")
	for i := 0; i < 5; i++ {
		_, sp := tr.StartSpan(ctx, "leaf")
		sp.End()
	}
	root.End()
	spans, dropped, ok := tr.Spans(root.TraceID())
	if !ok || len(spans) != 3 || dropped != 3 {
		t.Fatalf("span cap: %d spans, %d dropped, ok=%v", len(spans), dropped, ok)
	}
}

func TestTracerJSONLRoundTrip(t *testing.T) {
	var journal bytes.Buffer
	tr := NewTracer(TracerConfig{Sink: &journal})
	ctx, root := tr.StartSpan(context.Background(), "request", KV("route", "/api/x"))
	tr.AddSpan(ctx, "step", time.Now(), time.Now().Add(3*time.Millisecond), KV("step", 1))
	root.SetAttr("status", 200)
	root.End()

	// Simulate a torn tail from a hard kill.
	journal.WriteString(`{"trace":"beef`)

	reloaded := NewTracer(TracerConfig{})
	n, err := reloaded.LoadJSONL(bytes.NewReader(journal.Bytes()))
	if err != nil || n != 2 {
		t.Fatalf("LoadJSONL = %d, %v; want 2, nil", n, err)
	}
	spans, _, ok := reloaded.Spans(root.TraceID())
	if !ok || len(spans) != 2 {
		t.Fatalf("reloaded spans = %+v, ok=%v", spans, ok)
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["request"].Attrs["route"] != "/api/x" || byName["request"].Attrs["status"] != "200" {
		t.Fatalf("request span attrs lost: %+v", byName["request"])
	}
	if byName["step"].Parent != root.Context().SpanID.String() {
		t.Fatalf("step span parent lost: %+v", byName["step"])
	}
	if byName["step"].DurUS < 2900 || byName["step"].DurUS > 3500 {
		t.Fatalf("step duration not preserved: %d", byName["step"].DurUS)
	}

	// The reloaded and live views agree on trace listings.
	traces := reloaded.Traces()
	if len(traces) != 1 || traces[0].ID != root.TraceID().String() || traces[0].Spans != 2 {
		t.Fatalf("traces = %+v", traces)
	}
}

func TestNilTracerAndSpanAreNoops(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.StartSpan(context.Background(), "x")
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	sp.SetAttr("k", "v")
	sp.End()
	if sp.TraceID() != (TraceID{}) || sp.Context().Valid() {
		t.Fatal("nil span has identity")
	}
	if tr.AddSpan(ctx, "y", time.Now(), time.Now()) != nil {
		t.Fatal("nil tracer recorded a span")
	}
	if tr.Traces() != nil {
		t.Fatal("nil tracer lists traces")
	}
	if n, err := tr.LoadJSONL(strings.NewReader("{}")); n != 0 || err != nil {
		t.Fatal("nil tracer loaded spans")
	}
}
