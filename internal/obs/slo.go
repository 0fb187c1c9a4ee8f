package obs

import (
	"sync"
	"time"
)

// SLO burn-rate windows: the short window drives breach alerts (fast
// burn), the long window shows sustained budget consumption.
const (
	sloShortWindow = 5 * time.Minute
	sloLongWindow  = time.Hour
	sloRingSize    = int(sloLongWindow / time.Second)
)

// SLOConfig describes one latency service-level objective: an event is
// good when it succeeds within Threshold; the Objective is the target
// good fraction (0.99 = 1% error budget).
type SLOConfig struct {
	// Name labels the prox_slo_* series, e.g. "http:/api/summarize".
	Name string
	// Threshold is the per-event latency objective. Required.
	Threshold time.Duration
	// Objective is the target good fraction in (0,1). Default 0.99.
	Objective float64
	// BreachBurn is the short-window burn rate at or above which
	// OnBreach fires. Default 2 (consuming error budget at twice the
	// sustainable rate).
	BreachBurn float64
	// BreachEvery rate-limits OnBreach. Default 1 minute.
	BreachEvery time.Duration
	// OnBreach, when non-nil, is called (on its own goroutine) when the
	// short-window burn rate reaches BreachBurn.
	OnBreach func(name string, burn float64)
	// Clock overrides time.Now, for tests.
	Clock func() time.Time
}

// SLO tracks good/bad events against a latency objective and exposes
// burn-rate gauges over 5m and 1h sliding windows (1-second buckets).
// The burn rate is (bad fraction) / (error budget): 1.0 means the error
// budget is being consumed exactly as fast as the objective allows.
type SLO struct {
	cfg   SLOConfig
	good  *Counter
	bad   *Counter
	short *Gauge
	long  *Gauge

	mu         sync.Mutex
	ring       [sloRingSize]sloBucket
	lastBreach time.Time
}

type sloBucket struct {
	sec       int64 // unix second this bucket currently holds
	good, bad uint64
}

// NewSLO registers the prox_slo_* series for cfg and returns the
// tracker. A nil *SLO is a valid no-op receiver.
func NewSLO(reg *Registry, cfg SLOConfig) *SLO {
	if cfg.Objective <= 0 || cfg.Objective >= 1 {
		cfg.Objective = 0.99
	}
	if cfg.BreachBurn <= 0 {
		cfg.BreachBurn = 2
	}
	if cfg.BreachEvery <= 0 {
		cfg.BreachEvery = time.Minute
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	s := &SLO{
		cfg:   cfg,
		good:  reg.Counter("prox_slo_good_total", "Events meeting their SLO threshold.", Labels{"slo": cfg.Name}),
		bad:   reg.Counter("prox_slo_bad_total", "Events missing their SLO threshold or failing.", Labels{"slo": cfg.Name}),
		short: reg.Gauge("prox_slo_burn_rate", "Error-budget burn rate over a sliding window (1.0 = sustainable).", Labels{"slo": cfg.Name, "window": "5m"}),
		long:  reg.Gauge("prox_slo_burn_rate", "Error-budget burn rate over a sliding window (1.0 = sustainable).", Labels{"slo": cfg.Name, "window": "1h"}),
	}
	reg.Gauge("prox_slo_objective", "Configured SLO objective (target good fraction).", Labels{"slo": cfg.Name}).Set(cfg.Objective)
	reg.Gauge("prox_slo_threshold_seconds", "Configured SLO latency threshold.", Labels{"slo": cfg.Name}).Set(cfg.Threshold.Seconds())
	return s
}

// Observe records one event: good when failed is false and the latency
// is within the threshold. Updates counters and burn gauges, and fires
// OnBreach (rate-limited) when the short-window burn crosses the
// configured threshold.
func (s *SLO) Observe(latency time.Duration, failed bool) {
	if s == nil {
		return
	}
	good := !failed && latency <= s.cfg.Threshold
	now := s.cfg.Clock()
	sec := now.Unix()

	s.mu.Lock()
	b := &s.ring[int(sec%int64(sloRingSize))]
	if b.sec != sec {
		*b = sloBucket{sec: sec}
	}
	if good {
		b.good++
	} else {
		b.bad++
	}
	shortBurn, longBurn := s.burnLocked(sec)
	breach := !good && shortBurn >= s.cfg.BreachBurn &&
		(s.lastBreach.IsZero() || now.Sub(s.lastBreach) >= s.cfg.BreachEvery)
	if breach {
		s.lastBreach = now
	}
	// The burn gauges must be set while s.mu is still held: two Observe
	// calls that compute burns A then B (in lock order) could otherwise
	// publish B before A, leaving a stale value on the gauge until the
	// next event. The counters can stay outside — they are monotonic
	// atomics, so publication order cannot regress them.
	s.short.Set(shortBurn)
	s.long.Set(longBurn)
	s.mu.Unlock()

	if good {
		s.good.Inc()
	} else {
		s.bad.Inc()
	}
	if breach && s.cfg.OnBreach != nil {
		go s.cfg.OnBreach(s.cfg.Name, shortBurn)
	}
}

// Update recomputes the burn gauges without recording an event, so
// scrapes see burn decay during quiet periods.
func (s *SLO) Update() {
	if s == nil {
		return
	}
	sec := s.cfg.Clock().Unix()
	s.mu.Lock()
	shortBurn, longBurn := s.burnLocked(sec)
	// Set under the lock for the same reason as Observe: compute-then-
	// publish must be atomic or a concurrent caller can overwrite a
	// fresher burn with a staler one.
	s.short.Set(shortBurn)
	s.long.Set(longBurn)
	s.mu.Unlock()
}

// Name returns the configured SLO name.
func (s *SLO) Name() string {
	if s == nil {
		return ""
	}
	return s.cfg.Name
}

// burnLocked computes the short- and long-window burn rates at unix
// second now. Caller holds s.mu.
func (s *SLO) burnLocked(now int64) (shortBurn, longBurn float64) {
	shortCut := now - int64(sloShortWindow/time.Second)
	longCut := now - int64(sloLongWindow/time.Second)
	var sg, sb, lg, lb uint64
	for i := range s.ring {
		b := &s.ring[i]
		if b.sec <= longCut || b.sec > now {
			continue
		}
		lg += b.good
		lb += b.bad
		if b.sec > shortCut {
			sg += b.good
			sb += b.bad
		}
	}
	budget := 1 - s.cfg.Objective
	return burnRate(sg, sb, budget), burnRate(lg, lb, budget)
}

func burnRate(good, bad uint64, budget float64) float64 {
	total := good + bad
	if total == 0 || budget <= 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / budget
}
