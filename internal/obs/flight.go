package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"
)

// FlightRecorderConfig configures post-mortem capture bundles.
type FlightRecorderConfig struct {
	// Dir is where capture bundles are written (one subdirectory per
	// capture). Required.
	Dir string
	// Tracer, when non-nil, supplies span trees for captures.
	Tracer *Tracer
	// Log receives capture notices; defaults to Nop.
	Log *Logger
	// CPUProfile, when > 0, additionally records a CPU profile of that
	// duration (asynchronously) into the bundle.
	CPUProfile time.Duration
	// MinInterval rate-limits captures. Default 30s.
	MinInterval time.Duration
	// Clock overrides time.Now, for tests.
	Clock func() time.Time
}

// FlightRecorder captures a post-mortem bundle — span tree, goroutine
// dump, optional CPU profile — when something goes wrong (SLO breach,
// job failure). Captures are rate-limited so a failure storm produces
// one bundle, not thousands. A nil *FlightRecorder is a valid no-op.
type FlightRecorder struct {
	cfg         FlightRecorderConfig
	captures    *Counter
	writeErrors *Counter

	mu   sync.Mutex
	last time.Time
	seq  int
}

// NewFlightRecorder creates cfg.Dir and returns the recorder.
func NewFlightRecorder(reg *Registry, cfg FlightRecorderConfig) (*FlightRecorder, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("obs: flight recorder needs a directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: flight recorder dir: %w", err)
	}
	if cfg.Log == nil {
		cfg.Log = Nop()
	}
	if cfg.MinInterval <= 0 {
		cfg.MinInterval = 30 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &FlightRecorder{
		cfg:         cfg,
		captures:    reg.Counter("prox_flight_captures_total", "Flight-recorder bundles written.", nil),
		writeErrors: reg.Counter("prox_flight_write_errors_total", "Flight-recorder writes that failed; a failed capture publishes no bundle.", nil),
	}, nil
}

// flightMeta is the meta.json of a capture bundle.
type flightMeta struct {
	Reason     string    `json:"reason"`
	Trace      string    `json:"trace,omitempty"`
	CapturedAt time.Time `json:"capturedAt"`
	CPUProfile bool      `json:"cpuProfile,omitempty"`
}

// Capture writes a bundle for reason (annotated with trace when
// non-zero) and returns its directory. Rate-limited captures return
// ("", nil). The bundle holds meta.json, goroutines.txt, trace.json
// (the span tree, or all retained traces when no trace id is given)
// when a Tracer is configured, and optionally cpu.pprof, completed
// asynchronously.
//
// A bundle is published atomically: it is filled in a hidden temporary
// directory under Dir (".capture-*") and renamed into place, so a
// bundle directory that is visible under its final name always holds
// every file above except the asynchronous CPU profile, which appears
// later by a rename of its own. A failed write is counted in
// prox_flight_write_errors_total, the temporary directory is removed,
// and the error is returned: nothing is published.
func (f *FlightRecorder) Capture(reason string, trace TraceID) (string, error) {
	if f == nil {
		return "", nil
	}
	now := f.cfg.Clock()
	f.mu.Lock()
	if !f.last.IsZero() && now.Sub(f.last) < f.cfg.MinInterval {
		f.mu.Unlock()
		return "", nil
	}
	f.last = now
	f.seq++
	seq := f.seq
	f.mu.Unlock()

	meta := flightMeta{Reason: reason, CapturedAt: now, CPUProfile: f.cfg.CPUProfile > 0}
	if !trace.IsZero() {
		meta.Trace = trace.String()
	}
	tmp, err := os.MkdirTemp(f.cfg.Dir, ".capture-*")
	if err != nil {
		f.writeErrors.Inc()
		return "", err
	}
	dir := filepath.Join(f.cfg.Dir, fmt.Sprintf("%s-%03d-%s",
		now.UTC().Format("20060102T150405"), seq, sanitizeReason(reason)))
	// MkdirTemp creates the directory private; published bundles keep
	// the permissions bundles have always had.
	err = os.Chmod(tmp, 0o755)
	if err == nil {
		err = f.fill(tmp, meta, trace)
	}
	if err == nil {
		err = os.Rename(tmp, dir)
	}
	if err != nil {
		f.writeErrors.Inc()
		_ = os.RemoveAll(tmp)
		return "", err
	}

	if f.cfg.CPUProfile > 0 {
		go f.cpuProfile(dir)
	}

	f.captures.Inc()
	f.cfg.Log.Warn("flight recorder capture", "reason", reason, "dir", dir, "trace", meta.Trace)
	return dir, nil
}

// fill writes the synchronous bundle files into dir.
func (f *FlightRecorder) fill(dir string, meta flightMeta, trace TraceID) error {
	if err := writeJSON(filepath.Join(dir, "meta.json"), meta); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(dir, "goroutines.txt"), func(w io.Writer) error {
		return pprof.Lookup("goroutine").WriteTo(w, 2)
	}); err != nil {
		return err
	}
	t := f.cfg.Tracer
	if t == nil {
		return nil
	}
	if trace.IsZero() {
		return writeJSON(filepath.Join(dir, "trace.json"), map[string]any{
			"traces": t.Traces(),
		})
	}
	// An evicted (or never recorded) trace still gets a trace.json, so
	// every bundle has the same files.
	spans, dropped, ok := t.Spans(trace)
	return writeJSON(filepath.Join(dir, "trace.json"), map[string]any{
		"id": trace.String(), "found": ok, "dropped": dropped, "spans": spans,
	})
}

// cpuProfile records a CPU profile into dir, through a temporary file
// renamed into place, so a visible cpu.pprof is always complete. Errors
// (e.g. another profile already running) are logged and dropped — the
// rest of the bundle is already published.
func (f *FlightRecorder) cpuProfile(dir string) {
	tmp := filepath.Join(dir, ".cpu.pprof.tmp")
	out, err := os.Create(tmp)
	if err != nil {
		f.writeErrors.Inc()
		return
	}
	if err := pprof.StartCPUProfile(out); err != nil {
		f.cfg.Log.Debug("flight recorder cpu profile unavailable", "err", err)
		_ = out.Close()
		_ = os.Remove(tmp)
		return
	}
	time.Sleep(f.cfg.CPUProfile)
	pprof.StopCPUProfile()
	if err := out.Close(); err == nil {
		err = os.Rename(tmp, filepath.Join(dir, "cpu.pprof"))
	}
	if err != nil {
		f.writeErrors.Inc()
		_ = os.Remove(tmp)
	}
}

// writeFile creates path, fills it with write and closes it, returning
// the first error.
func writeFile(path string, write func(io.Writer) error) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(out); err != nil {
		_ = out.Close()
		return err
	}
	return out.Close()
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// sanitizeReason maps a capture reason to a filesystem-safe directory
// component.
func sanitizeReason(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s) && len(out) < 48; i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "capture"
	}
	return string(out)
}
