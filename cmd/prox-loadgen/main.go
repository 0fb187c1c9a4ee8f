// Command prox-loadgen replays a configurable mixed workload against a
// live prox-server and reports per-route latency percentiles, throttle
// and shed counts, and SLO attainment as JSON. It is the load half of
// the CI smoke gate (scripts/load_smoke.sh): the gate boots a server,
// runs this generator, and fails the build when a route's p99 or shed
// rate breaches its configured SLO.
//
// The generator is open-loop: arrivals are a Poisson process at -rate
// requests/second, drawn regardless of how fast the server answers, so
// a slow server accumulates outstanding requests instead of quietly
// slowing the offered load (closed-loop generators hide congestion
// collapse; open-loop ones expose it).
//
// Usage:
//
//	prox-loadgen -config load.json [-target http://127.0.0.1:8080]
//	             [-duration 10s] [-rate 50] [-report out.json] [-seed 1]
//
// The config file shapes the traffic:
//
//	{
//	  "tenants":       [{"id": "alice", "key": "alice-key", "weight": 3}],
//	  "mix":           {"summarize": 0.5, "bulk": 0.2, "ingest": 0.2, "extend": 0.1},
//	  "cacheHitRatio": 0.5,
//	  "slo": {
//	    "/api/summarize": {"p99Ms": 500, "maxShedRate": 0.05, "minRequests": 20}
//	  }
//	}
//
// tenants may be empty (anonymous single-tenant mode). mix weights are
// relative; routes with zero weight are never exercised. cacheHitRatio
// is the fraction of summarize requests that repeat earlier parameters
// (and should therefore hit the server's summary cache); the rest use
// unique parameters and force full runs. Each SLO entry applies once
// the route has minRequests samples: the measured p99 must stay at or
// under p99Ms and the shed rate (429s per request) at or under
// maxShedRate.
//
// Exit codes: 0 — ran and attained every SLO; 1 — an SLO was breached;
// 2 — configuration or setup error (unreachable server, bad config).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// tenantConfig is one traffic source: its API key and its relative
// share of the generated requests.
type tenantConfig struct {
	ID     string  `json:"id"`
	Key    string  `json:"key"`
	Weight float64 `json:"weight"`
}

// routeSLO is a client-side objective checked after the run.
type routeSLO struct {
	P99Ms       float64 `json:"p99Ms"`
	MaxShedRate float64 `json:"maxShedRate"`
	MinRequests int     `json:"minRequests"`
}

// config is the workload shape loaded from -config.
type config struct {
	Tenants       []tenantConfig     `json:"tenants"`
	Mix           map[string]float64 `json:"mix"`
	CacheHitRatio float64            `json:"cacheHitRatio"`
	// Steps fixes the merge-step budget of every summarize/bulk/extend
	// request; 0 picks small per-request budgets (1-4 steps). Large
	// values make each request expensive — useful for flood scenarios.
	Steps int                 `json:"steps"`
	SLO   map[string]routeSLO `json:"slo"`
}

// The operations of the mix and the routes they exercise.
const (
	opSummarize = "summarize" // POST /api/summarize (interactive lane)
	opBulk      = "bulk"      // POST /api/jobs (bulk lane, fire-and-forget)
	opIngest    = "ingest"    // POST /api/ingest (streaming append)
	opExtend    = "extend"    // POST /api/extend (warm-started run)
)

var opRoutes = map[string]string{
	opSummarize: "/api/summarize",
	opBulk:      "/api/jobs",
	opIngest:    "/api/ingest",
	opExtend:    "/api/extend",
}

func (c *config) validate() error {
	total := 0.0
	for op, w := range c.Mix {
		if _, ok := opRoutes[op]; !ok {
			return fmt.Errorf("mix: unknown operation %q (want summarize|bulk|ingest|extend)", op)
		}
		if w < 0 {
			return fmt.Errorf("mix: %s weight must be non-negative, got %v", op, w)
		}
		total += w
	}
	if total <= 0 {
		return fmt.Errorf("mix: weights sum to %v, need a positive total", total)
	}
	if c.CacheHitRatio < 0 || c.CacheHitRatio > 1 {
		return fmt.Errorf("cacheHitRatio must be in [0, 1], got %v", c.CacheHitRatio)
	}
	if c.Steps < 0 {
		return fmt.Errorf("steps must be non-negative, got %d", c.Steps)
	}
	for i, t := range c.Tenants {
		if t.Weight < 0 {
			return fmt.Errorf("tenants[%d]: weight must be non-negative", i)
		}
	}
	return nil
}

// sample is one completed request.
type sample struct {
	route     string
	tenant    string
	latency   time.Duration
	status    int
	cause     string // 429 body cause, "" otherwise
	transport bool   // transport-level failure (no HTTP status)
}

// routeReport is the per-route section of the JSON report.
type routeReport struct {
	Requests  int     `json:"requests"`
	OK        int     `json:"ok"`
	Errors    int     `json:"errors"` // 5xx and transport failures
	Client4xx int     `json:"client4xx"`
	Throttled int     `json:"throttled"` // 429 rate-limit/quota
	Shed      int     `json:"shed"`      // 429 cost/queue-full
	P50Ms     float64 `json:"p50Ms"`
	P90Ms     float64 `json:"p90Ms"`
	P99Ms     float64 `json:"p99Ms"`
	ShedRate  float64 `json:"shedRate"`
	// SLO echo and verdict; omitted for routes without an objective.
	SLO         *routeSLO `json:"slo,omitempty"`
	SLOAttained *bool     `json:"sloAttained,omitempty"`
	SLOSkipped  string    `json:"sloSkipped,omitempty"` // why the SLO was not judged
}

// report is the run's JSON output.
type report struct {
	Target       string                  `json:"target"`
	DurationSec  float64                 `json:"durationSec"`
	OfferedRate  float64                 `json:"offeredRate"`
	AchievedRate float64                 `json:"achievedRate"`
	Requests     int                     `json:"requests"`
	Routes       map[string]*routeReport `json:"routes"`
	ByTenant     map[string]int          `json:"byTenant,omitempty"`
	SLOBreached  bool                    `json:"sloBreached"`
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "prox-loadgen: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	cfgPath := flag.String("config", "", "workload config JSON (required)")
	target := flag.String("target", "http://127.0.0.1:8080", "base URL of the prox-server under load")
	duration := flag.Duration("duration", 10*time.Second, "length of the load phase")
	rate := flag.Float64("rate", 50, "open-loop arrival rate, requests/second")
	reportPath := flag.String("report", "", "write the JSON report here (default: stdout)")
	seed := flag.Int64("seed", 1, "workload randomness seed")
	flag.Parse()

	if *cfgPath == "" {
		fatalf("-config is required")
	}
	if *rate <= 0 {
		fatalf("-rate must be positive, got %v", *rate)
	}
	raw, err := os.ReadFile(*cfgPath)
	if err != nil {
		fatalf("reading config: %v", err)
	}
	var cfg config
	if err := json.Unmarshal(raw, &cfg); err != nil {
		fatalf("parsing config: %v", err)
	}
	if err := cfg.validate(); err != nil {
		fatalf("config: %v", err)
	}

	g := newGenerator(&cfg, *target, *seed)
	if err := g.setup(); err != nil {
		fatalf("setup: %v", err)
	}
	rep := g.run(*duration, *rate)

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("marshaling report: %v", err)
	}
	out = append(out, '\n')
	if *reportPath != "" {
		if err := os.WriteFile(*reportPath, out, 0o644); err != nil {
			fatalf("writing report: %v", err)
		}
	} else {
		_, _ = os.Stdout.Write(out)
	}
	for route, rr := range rep.Routes {
		verdict := "no-slo"
		switch {
		case rr.SLOSkipped != "":
			verdict = "slo-skipped: " + rr.SLOSkipped
		case rr.SLOAttained != nil && *rr.SLOAttained:
			verdict = "slo-attained"
		case rr.SLOAttained != nil:
			verdict = "SLO-BREACHED"
		}
		fmt.Fprintf(os.Stderr, "prox-loadgen: %-16s n=%-5d p50=%.1fms p99=%.1fms shed=%d throttled=%d errs=%d %s\n",
			route, rr.Requests, rr.P50Ms, rr.P99Ms, rr.Shed, rr.Throttled, rr.Errors, verdict)
	}
	if rep.SLOBreached {
		os.Exit(1)
	}
}

// tenantState is one tenant's runtime state: its key, its session on
// the server, and the parameter counter that makes cache-missing
// summarize requests unique.
type tenantState struct {
	cfg     tenantConfig
	session string
	mu      sync.Mutex
	unique  int
}

type generator struct {
	cfg     *config
	target  string
	client  *http.Client
	tenants []*tenantState
	// cumulative weights for O(log n) weighted picks.
	tenantCum []float64
	ops       []string
	opCum     []float64
	rng       *rand.Rand
	rngMu     sync.Mutex

	samples   []sample
	samplesMu sync.Mutex
	ingestSeq int
}

func newGenerator(cfg *config, target string, seed int64) *generator {
	g := &generator{
		cfg:    cfg,
		target: target,
		client: &http.Client{Timeout: 60 * time.Second},
		rng:    rand.New(rand.NewSource(seed)),
	}
	tenants := cfg.Tenants
	if len(tenants) == 0 {
		// Anonymous single-tenant mode: one keyless source.
		tenants = []tenantConfig{{ID: "anonymous", Weight: 1}}
	}
	cum := 0.0
	for _, t := range tenants {
		w := t.Weight
		if w == 0 {
			w = 1
		}
		cum += w
		g.tenants = append(g.tenants, &tenantState{cfg: t})
		g.tenantCum = append(g.tenantCum, cum)
	}
	cum = 0.0
	for _, op := range []string{opSummarize, opBulk, opIngest, opExtend} {
		if w := cfg.Mix[op]; w > 0 {
			cum += w
			g.ops = append(g.ops, op)
			g.opCum = append(g.opCum, cum)
		}
	}
	return g
}

// pick draws an index from a cumulative weight table.
func (g *generator) pick(cum []float64) int {
	g.rngMu.Lock()
	x := g.rng.Float64() * cum[len(cum)-1]
	g.rngMu.Unlock()
	return sort.SearchFloat64s(cum, x)
}

// float64n draws a uniform float in [0,1) under the rng lock.
func (g *generator) float64n() float64 {
	g.rngMu.Lock()
	defer g.rngMu.Unlock()
	return g.rng.Float64()
}

// expDelay draws a Poisson inter-arrival gap for the given rate.
func (g *generator) expDelay(rate float64) time.Duration {
	g.rngMu.Lock()
	u := g.rng.Float64()
	g.rngMu.Unlock()
	return time.Duration(-math.Log(1-u) / rate * float64(time.Second))
}

// do issues one authenticated JSON POST and decodes a possible 429
// cause. out may be nil.
func (g *generator) do(t *tenantState, route string, body any, out any) sample {
	b, err := json.Marshal(body)
	if err != nil {
		return sample{route: route, tenant: t.cfg.ID, transport: true}
	}
	req, err := http.NewRequest(http.MethodPost, g.target+route, bytes.NewReader(b))
	if err != nil {
		return sample{route: route, tenant: t.cfg.ID, transport: true}
	}
	req.Header.Set("Content-Type", "application/json")
	if t.cfg.Key != "" {
		req.Header.Set("Authorization", "Bearer "+t.cfg.Key)
	}
	start := time.Now()
	res, err := g.client.Do(req)
	lat := time.Since(start)
	if err != nil {
		return sample{route: route, tenant: t.cfg.ID, latency: lat, transport: true}
	}
	defer res.Body.Close()
	s := sample{route: route, tenant: t.cfg.ID, latency: lat, status: res.StatusCode}
	if res.StatusCode == http.StatusTooManyRequests {
		var rej struct {
			Cause string `json:"cause"`
		}
		_ = json.NewDecoder(res.Body).Decode(&rej)
		s.cause = rej.Cause
		return s
	}
	if out != nil && res.StatusCode < 300 {
		_ = json.NewDecoder(res.Body).Decode(out)
	}
	return s
}

// setup opens one session per tenant; the load phase exercises them.
func (g *generator) setup() error {
	for _, t := range g.tenants {
		var sel struct {
			SessionID string `json:"sessionId"`
		}
		s := g.do(t, "/api/select", map[string]any{}, &sel)
		if s.transport {
			return fmt.Errorf("tenant %s: cannot reach %s", t.cfg.ID, g.target)
		}
		if s.status != http.StatusOK || sel.SessionID == "" {
			return fmt.Errorf("tenant %s: /api/select status %d", t.cfg.ID, s.status)
		}
		t.session = sel.SessionID
	}
	return nil
}

// summarizeBody builds the request parameters for one summarize/bulk/
// extend call: a cacheHitRatio draw repeats fixed parameters (eligible
// for the server's summary cache), the rest get a unique target
// distance so they always compute.
func (g *generator) summarizeBody(t *tenantState) map[string]any {
	body := map[string]any{
		"sessionId": t.session,
		"steps":     2,
	}
	if g.cfg.Steps > 0 {
		body["steps"] = g.cfg.Steps
	}
	if g.float64n() >= g.cfg.CacheHitRatio {
		t.mu.Lock()
		t.unique++
		n := t.unique
		t.mu.Unlock()
		// A unique-but-harmless parameter forces a distinct cache address.
		body["targetDist"] = 1e-9 * float64(n)
		if g.cfg.Steps == 0 {
			body["steps"] = 1 + n%4
		}
	}
	return body
}

// fire issues one operation for one tenant and records the sample.
func (g *generator) fire(op string, t *tenantState) {
	var s sample
	switch op {
	case opSummarize:
		s = g.do(t, "/api/summarize", g.summarizeBody(t), nil)
	case opBulk:
		s = g.do(t, "/api/jobs", g.summarizeBody(t), nil)
	case opExtend:
		body := g.summarizeBody(t)
		body["fromVersion"] = 0 // latest; falls back to from-scratch when none
		s = g.do(t, "/api/extend", body, nil)
	case opIngest:
		g.samplesMu.Lock()
		g.ingestSeq++
		n := g.ingestSeq
		g.samplesMu.Unlock()
		ann := fmt.Sprintf("LGu%d", n)
		grp := fmt.Sprintf("LGg%d", n)
		s = g.do(t, "/api/ingest", map[string]any{
			"sessionId":  t.session,
			"expression": fmt.Sprintf("%s (x) (1,1)@%s", ann, grp),
			"universe": []map[string]any{
				{"ann": ann, "table": "users", "attrs": map[string]string{"gender": "M"}},
				{"ann": grp, "table": "movies", "attrs": map[string]string{"genre": "load"}},
			},
		}, nil)
	}
	g.samplesMu.Lock()
	g.samples = append(g.samples, s)
	g.samplesMu.Unlock()
}

// run drives the open loop for d at the given arrival rate and builds
// the report.
func (g *generator) run(d time.Duration, rate float64) *report {
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	start := time.Now()
	for time.Now().Before(deadline) {
		time.Sleep(g.expDelay(rate))
		op := g.ops[g.pick(g.opCum)]
		t := g.tenants[g.pick(g.tenantCum)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.fire(op, t)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &report{
		Target:      g.target,
		DurationSec: elapsed.Seconds(),
		OfferedRate: rate,
		Routes:      map[string]*routeReport{},
		ByTenant:    map[string]int{},
	}
	latencies := map[string][]float64{}
	for i := range g.samples {
		s := &g.samples[i]
		rr := rep.Routes[s.route]
		if rr == nil {
			rr = &routeReport{}
			rep.Routes[s.route] = rr
		}
		rr.Requests++
		rep.Requests++
		rep.ByTenant[s.tenant]++
		ms := float64(s.latency.Microseconds()) / 1000
		switch {
		case s.transport || s.status >= 500:
			rr.Errors++
		case s.status == http.StatusTooManyRequests:
			// Shed work was refused to protect the server (admission
			// control, full queue); throttled work was refused to protect
			// other tenants (rate limit, quotas).
			if s.cause == "cost" || s.cause == "queue-full" {
				rr.Shed++
			} else {
				rr.Throttled++
			}
		case s.status >= 400:
			rr.Client4xx++
		default:
			rr.OK++
			// Only successful requests feed the latency percentiles;
			// rejections return in microseconds and would mask a slow
			// server if they counted.
			latencies[s.route] = append(latencies[s.route], ms)
		}
	}
	for route, rr := range rep.Routes {
		ls := latencies[route]
		sort.Float64s(ls)
		rr.P50Ms = percentile(ls, 0.50)
		rr.P90Ms = percentile(ls, 0.90)
		rr.P99Ms = percentile(ls, 0.99)
		if rr.Requests > 0 {
			rr.ShedRate = float64(rr.Shed) / float64(rr.Requests)
		}
		if slo, ok := g.cfg.SLO[route]; ok {
			s := slo
			rr.SLO = &s
			if rr.Requests < slo.MinRequests {
				rr.SLOSkipped = fmt.Sprintf("only %d of %d required samples", rr.Requests, slo.MinRequests)
				continue
			}
			attained := (slo.P99Ms <= 0 || rr.P99Ms <= slo.P99Ms) &&
				rr.ShedRate <= slo.MaxShedRate
			rr.SLOAttained = &attained
			if !attained {
				rep.SLOBreached = true
			}
		}
	}
	if elapsed > 0 {
		rep.AchievedRate = float64(rep.Requests) / elapsed.Seconds()
	}
	return rep
}

// percentile returns the p-quantile of a sorted slice (0 for empty —
// routes that never succeeded report their failure through the error
// counters, not a fake latency).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
