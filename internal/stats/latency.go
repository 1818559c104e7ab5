package stats

import (
	"sort"
	"sync"
	"time"
)

// latencyRing is the bounded window behind LatencyWindow's
// percentiles. A fixed ring keeps Observe allocation-free in steady
// state and bounds the memory of a long-lived process; the
// percentiles describe the most recent latencyRing observations.
const latencyRing = 512

// DefaultLatencyBuckets are the histogram upper bounds (seconds) every
// LatencyWindow counts: sub-millisecond cache replays up through the
// multi-second simulations a scale-4 cell can cost.
var DefaultLatencyBuckets = [...]float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// LatencyWindow is one latency instrument: request counters, a
// bounded ring of recent latencies for exact percentiles, and a
// fixed-bucket histogram over DefaultLatencyBuckets. The percentiles
// are exact but describe only the recent window and do not merge
// across processes; the histogram buckets merge, so a scraper can
// derive rates and quantile estimates fleet-wide. It backs the serve
// endpoints' /metrics views and the sweep fabric's per-worker
// accounting: Observe is called once per request, Snapshot whenever
// the counters are reported. Safe for concurrent use.
type LatencyWindow struct {
	mu      sync.Mutex
	count   int64
	errs    int64
	lat     [latencyRing]time.Duration             // ring-indexed by count
	window  int                                    // valid entries in lat (saturates at latencyRing)
	next    int                                    // ring cursor
	buckets [len(DefaultLatencyBuckets) + 1]uint64 // per-bucket (non-cumulative); last is +Inf
	sum     float64                                // seconds
}

// Observe records one request's latency and whether it failed.
func (e *LatencyWindow) Observe(d time.Duration, failed bool) {
	s := d.Seconds()
	b := sort.SearchFloat64s(DefaultLatencyBuckets[:], s) // first bound >= s: le is inclusive
	e.mu.Lock()
	e.count++
	if failed {
		e.errs++
	}
	e.lat[e.next] = d
	e.next = (e.next + 1) % latencyRing
	if e.window < latencyRing {
		e.window++
	}
	e.buckets[b]++
	e.sum += s
	e.mu.Unlock()
}

// LatencySnapshot is one window's counters, percentiles and
// histogram.
//
// Bounded-ring semantics: Requests and Errors count every observation
// ever made, but the percentiles describe only the most recent
// `window` observations (at most the ring size, 512) — older samples
// have been overwritten. A consumer must read the percentiles against
// Window, not Requests: zero percentiles with Window == 0 mean "no
// data yet", while zero (or near-zero) percentiles with Window > 0
// mean the recent requests really were that fast (sub-millisecond
// latencies round toward 0.0 in the millisecond-denominated fields).
type LatencySnapshot struct {
	Requests int64 `json:"requests"`
	// Errors counts observations flagged as failed (for an HTTP
	// endpoint: requests answered with a 4xx/5xx status).
	Errors int64 `json:"errors"`
	// Window is how many observations the percentile fields actually
	// cover (0 until the first request; saturates at the ring size).
	Window   int     `json:"window"`
	P50Milli float64 `json:"p50_ms"`
	P90Milli float64 `json:"p90_ms"`
	P99Milli float64 `json:"p99_ms"`
	// Hist covers every observation; only the Prometheus view renders
	// it, so the JSON documents keep their shape.
	Hist HistogramSnapshot `json:"-"`
}

// HistogramSnapshot is one histogram's state in the Prometheus shape:
// cumulative counts per upper bound (the final implicit +Inf bucket
// equals Count), the sum of the observations and their count.
type HistogramSnapshot struct {
	Bounds     []float64
	Cumulative []uint64
	Sum        float64
	Count      uint64
}

// Snapshot reads the counters and histogram and computes the window
// percentiles.
func (e *LatencyWindow) Snapshot() LatencySnapshot {
	e.mu.Lock()
	m := LatencySnapshot{Requests: e.count, Errors: e.errs, Window: e.window}
	m.Hist = HistogramSnapshot{
		Bounds:     DefaultLatencyBuckets[:],
		Cumulative: make([]uint64, len(DefaultLatencyBuckets)),
		Sum:        e.sum,
		Count:      uint64(e.count),
	}
	var cum uint64
	for i := range m.Hist.Cumulative {
		cum += e.buckets[i]
		m.Hist.Cumulative[i] = cum
	}
	window := make([]time.Duration, e.window)
	copy(window, e.lat[:e.window])
	e.mu.Unlock()
	if len(window) == 0 {
		return m
	}
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	m.P50Milli = PercentileMilli(window, 50)
	m.P90Milli = PercentileMilli(window, 90)
	m.P99Milli = PercentileMilli(window, 99)
	return m
}

// PercentileMilli reads the p-th percentile (nearest rank) from
// ascending latencies, in milliseconds. sorted must not be empty.
func PercentileMilli(sorted []time.Duration, p int) float64 {
	idx := (p*len(sorted) + 99) / 100 // ceil(p/100 * n)
	if idx > 0 {
		idx--
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}
