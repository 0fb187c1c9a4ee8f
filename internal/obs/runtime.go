package obs

import (
	"runtime"
	"sync"
)

// gcPauseBuckets cover GC stop-the-world pauses, which sit in the
// 10µs–10ms range on healthy heaps.
var gcPauseBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 100e-3,
}

// RuntimeCollector samples Go runtime health into prox_runtime_*
// series. Collect is meant to run on each /metrics scrape: gauges are
// overwritten, and GC pauses that occurred since the previous scrape
// are folded into the pause histogram exactly once.
type RuntimeCollector struct {
	goroutines *Gauge
	heapInuse  *Gauge
	heapAlloc  *Gauge
	gcPause    *Histogram

	mu        sync.Mutex
	lastNumGC uint32
}

// NewRuntimeCollector registers the runtime series on reg.
func NewRuntimeCollector(reg *Registry) *RuntimeCollector {
	return &RuntimeCollector{
		goroutines: reg.Gauge("prox_runtime_goroutines", "Current number of goroutines.", nil),
		heapInuse:  reg.Gauge("prox_runtime_heap_inuse_bytes", "Bytes in in-use heap spans.", nil),
		heapAlloc:  reg.Gauge("prox_runtime_heap_alloc_bytes", "Bytes of allocated heap objects.", nil),
		gcPause:    reg.Histogram("prox_runtime_gc_pause_seconds", "GC stop-the-world pause durations.", gcPauseBuckets, nil),
	}
}

// Collect samples the runtime. Safe for concurrent use; a nil collector
// is a no-op.
func (c *RuntimeCollector) Collect() {
	if c == nil {
		return
	}
	c.goroutines.Set(float64(runtime.NumGoroutine()))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.heapInuse.Set(float64(ms.HeapInuse))
	c.heapAlloc.Set(float64(ms.HeapAlloc))

	c.mu.Lock()
	defer c.mu.Unlock()
	// PauseNs is a circular buffer of the 256 most recent pauses; the
	// pause of GC cycle g (1-based) lives at PauseNs[(g+255)%256].
	// Replay only the cycles completed since the last scrape, skipping
	// any overwritten by a burst of more than 256 collections.
	for g := c.lastNumGC + 1; g <= ms.NumGC; g++ {
		if ms.NumGC-g >= 256 {
			continue
		}
		c.gcPause.Observe(float64(ms.PauseNs[(g+255)%256]) / 1e9)
	}
	c.lastNumGC = ms.NumGC
}
