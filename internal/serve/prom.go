package serve

import (
	"strings"
	"time"

	"watchdog/internal/stats"
)

// wantsProm decides the /metrics representation from the Accept
// header: an explicit ask for text/plain (or an OpenMetrics type) gets
// the Prometheus exposition. Everything else — including an absent
// header and curl's default */* — keeps the JSON document, so every
// pre-existing client sees byte-compatible output.
func wantsProm(accept string) bool {
	accept = strings.ToLower(accept)
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "openmetrics")
}

// renderProm renders one /metrics snapshot as a Prometheus
// text-exposition document. It reads nothing but m, so the JSON and
// Prometheus views of one scrape cannot disagree. The same snapshot
// always renders byte-identically: endpoints in a fixed order, tenants
// in sorted order, and PromWriter groups each family in first-use
// order.
func renderProm(m *Metrics) string {
	var p stats.PromWriter

	p.Gauge("watchdog_serve_uptime_seconds",
		"Seconds since the server started.",
		nil, time.Duration(m.UptimeNanos).Seconds())
	p.BoolGauge("watchdog_serve_draining",
		"1 while the server is draining (refusing new work), else 0.",
		nil, m.Draining)
	p.Gauge("watchdog_serve_inflight",
		"Computations currently executing (coalesced waiters excluded).",
		nil, float64(m.Inflight))
	p.Counter("watchdog_serve_coalesced_total",
		"Requests that joined an existing flight instead of computing.",
		nil, float64(m.Coalesced))
	for _, r := range []struct {
		reason string
		n      int64
	}{
		{"busy", m.RejectedBusy},
		{"draining", m.RejectedDraining},
		{"unauthorized", m.RejectedUnauthorized},
		{"limited", m.RejectedLimited},
	} {
		p.Counter("watchdog_serve_rejected_total",
			"Requests refused before reaching a flight, by reason.",
			[]stats.Label{{Name: "reason", Value: r.reason}}, float64(r.n))
	}
	p.Counter("watchdog_serve_timeouts_total",
		"Requests answered 504 (deadline expired mid-computation).",
		nil, float64(m.TimedOut))

	for _, name := range []string{"sim", "juliet"} {
		e := m.Endpoints[name]
		labels := []stats.Label{{Name: "endpoint", Value: name}}
		p.Counter("watchdog_serve_requests_total",
			"Requests served, by endpoint.",
			labels, float64(e.Requests))
		p.Counter("watchdog_serve_request_errors_total",
			"Requests answered with a 4xx/5xx status, by endpoint.",
			labels, float64(e.Errors))
		// The window percentiles are exact but describe only the most
		// recent observations (watchdog_serve_latency_window of them);
		// the histogram below is the mergeable view.
		p.Window("watchdog_serve_latency_window",
			"Observations covered by the window percentile gauges (bounded ring).",
			"Exact latency percentiles over the bounded recent-request window.",
			labels, e.Window,
			stats.Quantile{Label: "0.5", Milli: e.P50Milli},
			stats.Quantile{Label: "0.9", Milli: e.P90Milli},
			stats.Quantile{Label: "0.99", Milli: e.P99Milli})
		p.Histogram("watchdog_serve_request_duration_seconds",
			"Request latency distribution, by endpoint.",
			labels, e.Hist)
	}

	// Tenant rows render in sorted-name order (none on an idle server,
	// so back-to-back idle scrapes stay byte-identical).
	for _, name := range tenantNames(m.Tenants) {
		tm := m.Tenants[name]
		labels := []stats.Label{{Name: "tenant", Value: name}}
		p.Counter("watchdog_serve_tenant_requests_total",
			"Admission attempts on /v1/* endpoints, by tenant (refusals included).",
			labels, float64(tm.Requests))
		p.Counter("watchdog_serve_tenant_limited_total",
			"Token-bucket refusals (429), by tenant.",
			labels, float64(tm.Limited))
		p.Counter("watchdog_serve_tenant_quota_denied_total",
			"Daily-quota refusals (429), by tenant.",
			labels, float64(tm.QuotaDenied))
	}

	// Result store: the in-memory LRU and the optional disk layer.
	sm := m.Store
	p.Gauge("watchdog_serve_result_cache_entries",
		"Completed flight bodies retained in the in-memory LRU.",
		nil, float64(sm.CacheEntries))
	p.Counter("watchdog_serve_result_cache_hits_total",
		"Replays answered from the in-memory LRU.",
		nil, float64(sm.CacheHits))
	p.Counter("watchdog_serve_result_cache_evictions_total",
		"LRU entries dropped past the configured bound.",
		nil, float64(sm.CacheEvictions))
	p.Counter("watchdog_serve_store_hits_total",
		"Replays answered from the disk store (checksum-verified).",
		nil, float64(sm.DiskHits))
	p.Counter("watchdog_serve_store_writes_total",
		"Completed bodies persisted to the disk store.",
		nil, float64(sm.DiskWrites))
	p.Gauge("watchdog_serve_store_bytes",
		"Bytes of entries in the disk store.",
		nil, float64(sm.DiskBytes))
	p.Counter("watchdog_serve_store_evictions_total",
		"Disk entries evicted by the size budget.",
		nil, float64(sm.DiskEvictions))
	p.Counter("watchdog_serve_store_corrupt_evicted_total",
		"Disk entries that failed verification and were evicted, not served.",
		nil, float64(sm.CorruptEvicted))

	h := m.Harness
	p.Counter("watchdog_harness_sims_total",
		"Timed simulations executed by the shared runners.",
		nil, float64(h.Sims))
	p.Counter("watchdog_harness_profiles_total",
		"Profiling passes executed by the shared runners.",
		nil, float64(h.Profiles))
	p.Counter("watchdog_harness_cache_hits_total",
		"Simulations answered from the runners' once-caches.",
		nil, float64(h.CacheHits))
	p.Counter("watchdog_harness_busy_seconds_total",
		"Cumulative wall time spent inside simulations.",
		nil, time.Duration(h.BusyNanos).Seconds())
	p.Gauge("watchdog_harness_cache_hit_ratio",
		"Cache hits / (hits + sims) since start.",
		nil, h.CacheHitRatio)
	return p.String()
}
