package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"watchdog/internal/stats"
)

// getProm fetches /metrics with an Accept header asking for the
// Prometheus exposition.
func getProm(t *testing.T, base string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.String()
}

// promValue extracts one sample's value from an exposition document.
func promValue(t *testing.T, doc, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, sample+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, sample+" "), 64)
			if err != nil {
				t.Fatalf("unparseable sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("sample %q not in document:\n%s", sample, doc)
	return 0
}

// TestMetricsContentNegotiation: Accept: text/plain gets a Prometheus
// exposition; the default (curl's */*) keeps the JSON document with
// the schema stamp, so old clients are byte-compatible.
func TestMetricsContentNegotiation(t *testing.T) {
	_, ts := testServer(t, Config{})
	postJSON(t, ts.URL+"/v1/sim", SimRequest{Workload: "lbm", Config: "baseline"})
	postJSON(t, ts.URL+"/v1/sim", SimRequest{Workload: "nope", Config: "baseline"}) // a 400

	resp, doc := getProm(t, ts.URL)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("prom content type %q", ct)
	}
	for _, want := range []string{
		"# HELP watchdog_serve_requests_total ",
		"# TYPE watchdog_serve_requests_total counter",
		"# TYPE watchdog_serve_request_duration_seconds histogram",
		`watchdog_serve_request_duration_seconds_bucket{endpoint="sim",le="+Inf"} 2`,
		`watchdog_serve_request_duration_seconds_count{endpoint="sim"} 2`,
		"# TYPE watchdog_harness_sims_total counter",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("exposition missing %q:\n%s", want, doc)
		}
	}
	if got := promValue(t, doc, `watchdog_serve_requests_total{endpoint="sim"}`); got != 2 {
		t.Errorf("sim requests_total = %v, want 2", got)
	}
	if got := promValue(t, doc, `watchdog_serve_request_errors_total{endpoint="sim"}`); got != 1 {
		t.Errorf("sim request_errors_total = %v, want 1", got)
	}
	if got := promValue(t, doc, "watchdog_harness_sims_total"); got != 1 {
		t.Errorf("harness sims_total = %v, want 1", got)
	}
	// Headers appear exactly once even though two reasons share the
	// rejected family and two endpoints share each endpoint family.
	if n := strings.Count(doc, "# TYPE watchdog_serve_rejected_total counter"); n != 1 {
		t.Errorf("rejected_total TYPE emitted %d times", n)
	}
	if n := strings.Count(doc, "# TYPE watchdog_serve_requests_total counter"); n != 1 {
		t.Errorf("requests_total TYPE emitted %d times", n)
	}
	checkGrouped(t, doc)

	// Rendering twice with no traffic in between is byte-identical.
	_, doc2 := getProm(t, ts.URL)
	stripUptime := func(d string) string {
		var keep []string
		for _, l := range strings.Split(d, "\n") {
			if strings.HasPrefix(l, "watchdog_serve_uptime_seconds ") {
				continue
			}
			keep = append(keep, l)
		}
		return strings.Join(keep, "\n")
	}
	if stripUptime(doc) != stripUptime(doc2) {
		t.Error("two idle scrapes produced different documents")
	}

	// The JSON document is still the default, with the window field
	// describing the percentile ring.
	m := getMetrics(t, ts.URL)
	if m.Schema != Schema {
		t.Fatalf("JSON default lost: schema %q", m.Schema)
	}
	if got := m.Endpoints["sim"].Window; got != 2 {
		t.Errorf("sim endpoint window = %d, want 2", got)
	}
}

// TestRequestIDEcho: a valid inbound X-Request-ID is honored and
// echoed; an invalid one is replaced by a freshly minted id; absent
// means minted. Every /v1/* response carries the header.
func TestRequestIDEcho(t *testing.T) {
	_, ts := testServer(t, Config{})
	body := []byte(`{"workload":"lbm","config":"baseline"}`)

	do := func(inbound string) *http.Response {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sim", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if inbound != "" {
			req.Header.Set(RequestIDHeader, inbound)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if got := do("sweep-42.cell-7").Header.Get(RequestIDHeader); got != "sweep-42.cell-7" {
		t.Errorf("valid inbound id not echoed: got %q", got)
	}
	if got := do("bad id {spaces}").Header.Get(RequestIDHeader); got == "" || strings.ContainsAny(got, " {}") {
		t.Errorf("invalid inbound id handled badly: got %q", got)
	}
	if got := do(strings.Repeat("x", maxRequestIDLen+1)).Header.Get(RequestIDHeader); len(got) == 0 || len(got) > maxRequestIDLen {
		t.Errorf("oversized inbound id handled badly: got %q", got)
	}
	if got := do("").Header.Get(RequestIDHeader); got == "" {
		t.Error("no inbound id: response carries no minted id")
	}
}

// TestFlightRecorder: completed requests land in GET /debug/flights
// with their correlation id, flight key, status, and coalesced flag.
func TestFlightRecorder(t *testing.T) {
	_, ts := testServer(t, Config{FlightLogN: 8})
	body := []byte(`{"workload":"lbm","config":"baseline"}`)
	for i, id := range []string{"corr-a", "corr-b"} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sim", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(RequestIDHeader, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/debug/flights")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dump FlightDump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if dump.Schema != Schema || dump.Version != Version {
		t.Fatalf("dump stamp %q v%d", dump.Schema, dump.Version)
	}
	if len(dump.Flights) != 2 {
		t.Fatalf("recorded %d flights, want 2: %+v", len(dump.Flights), dump.Flights)
	}
	wantKey := "sim/lbm/baseline/1/exact/false"
	first, second := dump.Flights[0], dump.Flights[1]
	if first.RequestID != "corr-a" || second.RequestID != "corr-b" {
		t.Errorf("recorder order/ids wrong: %+v", dump.Flights)
	}
	if first.FlightKey != wantKey || second.FlightKey != wantKey {
		t.Errorf("flight keys: %q / %q, want %q", first.FlightKey, second.FlightKey, wantKey)
	}
	if first.Coalesced {
		t.Error("creator marked coalesced")
	}
	if !second.Coalesced {
		t.Error("replay not marked coalesced")
	}
	if first.Status != 200 || first.LatencyMilli <= 0 || first.UnixNanos <= 0 {
		t.Errorf("first record incomplete: %+v", first)
	}
}

// TestFlightRecorderRingWrap: the recorder is a bounded ring — with
// capacity 2, the third request evicts the first and records() stays
// oldest-first.
func TestFlightRecorderRingWrap(t *testing.T) {
	fl := newFlightLog(2)
	for _, id := range []string{"a", "b", "c"} {
		fl.add(FlightRecord{RequestID: id})
	}
	recs := fl.records()
	if len(recs) != 2 || recs[0].RequestID != "b" || recs[1].RequestID != "c" {
		t.Fatalf("ring after wrap: %+v", recs)
	}
}

// TestStructuredRequestLog: the server emits one slog JSON record per
// request with the correlation fields.
func TestStructuredRequestLog(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(lockedWriter{&mu, &buf}, nil))
	_, ts := testServer(t, Config{Logger: logger})

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sim",
		strings.NewReader(`{"workload":"lbm","config":"baseline"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(RequestIDHeader, "log-probe-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	var rec struct {
		Msg       string  `json:"msg"`
		Method    string  `json:"method"`
		Path      string  `json:"path"`
		RequestID string  `json:"request_id"`
		Flight    string  `json:"flight"`
		Coalesced bool    `json:"coalesced"`
		Status    int     `json:"status"`
		LatencyMS float64 `json:"latency_ms"`
	}
	line, _, _ := strings.Cut(out, "\n")
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("unparseable log line %q: %v", line, err)
	}
	if rec.Msg != "request" || rec.Method != "POST" || rec.Path != "/v1/sim" {
		t.Errorf("log record: %+v", rec)
	}
	if rec.RequestID != "log-probe-1" {
		t.Errorf("log request_id = %q", rec.RequestID)
	}
	if rec.Flight != "sim/lbm/baseline/1/exact/false" || rec.Status != 200 || rec.LatencyMS <= 0 {
		t.Errorf("log record incomplete: %+v", rec)
	}
}

// lockedWriter serializes handler writes so the test can read the
// buffer without racing the server goroutines.
type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// checkGrouped fails t unless every metric family in the exposition
// doc has exactly one HELP/TYPE pair, directly followed by all of its
// samples (a histogram family owning its _bucket/_sum/_count lines).
func checkGrouped(t *testing.T, doc string) {
	t.Helper()
	headed := make(map[string]bool)
	var fam, typ string
	for _, line := range strings.Split(strings.TrimSuffix(doc, "\n"), "\n") {
		switch f := strings.Fields(line); {
		case strings.HasPrefix(line, "# HELP "):
			fam, typ = f[2], ""
			if headed[fam] {
				t.Errorf("family %s headed twice", fam)
			}
			headed[fam] = true
		case strings.HasPrefix(line, "# TYPE "):
			if f[2] != fam || typ != "" {
				t.Errorf("TYPE line %q does not follow its HELP line", line)
			}
			typ = f[3]
		default:
			name := line[:strings.IndexAny(line, "{ ")]
			ok := name == fam && typ != "histogram"
			if typ == "histogram" {
				ok = name == fam+"_bucket" || name == fam+"_sum" || name == fam+"_count"
			}
			if !ok {
				t.Errorf("sample %q sits in family %s's group", line, fam)
			}
		}
	}
}

// TestPromRenderGolden pins the serve exposition byte-for-byte from a
// fixed snapshot: two endpoints with histograms, two tenants, the
// store and the harness. Every family appears once, its samples
// contiguous, even though the renderer loops by endpoint and tenant.
func TestPromRenderGolden(t *testing.T) {
	hist := func(cum []uint64, sum float64) stats.HistogramSnapshot {
		return stats.HistogramSnapshot{Bounds: stats.DefaultLatencyBuckets[:],
			Cumulative: cum, Sum: sum, Count: cum[len(cum)-1]}
	}
	m := &Metrics{
		UptimeNanos: 42_500_000_000,
		Inflight:    1, Coalesced: 7, TimedOut: 1,
		RejectedBusy: 2, RejectedDraining: 0, RejectedUnauthorized: 3, RejectedLimited: 4,
		Endpoints: map[string]EndpointMetrics{
			"sim": {Requests: 12, Errors: 2, Window: 12, P50Milli: 0.25, P90Milli: 40, P99Milli: 1500,
				Hist: hist([]uint64{6, 6, 6, 6, 6, 6, 9, 10, 10, 10, 10, 12, 12, 12, 12, 12}, 3.5)},
			"juliet": {Requests: 1, Window: 1, P50Milli: 80, P90Milli: 80, P99Milli: 80,
				Hist: hist([]uint64{0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 0.08)},
		},
		Tenants: map[string]TenantMetrics{
			"beta":  {Requests: 5, Limited: 4},
			"alpha": {Requests: 11, QuotaDenied: 1},
		},
		Store: StoreMetrics{CacheEntries: 3, CacheMax: 512, CacheHits: 6, CacheEvictions: 1,
			DiskHits: 1, DiskWrites: 3, DiskBytes: 4096, DiskEvictions: 1, CorruptEvicted: 1},
		Harness: HarnessMetrics{Sims: 3, Profiles: 2, CacheHits: 1, BusyNanos: 1_250_000_000,
			CacheHitRatio: 0.25},
	}
	got := renderProm(m)
	const want = `# HELP watchdog_serve_uptime_seconds Seconds since the server started.
# TYPE watchdog_serve_uptime_seconds gauge
watchdog_serve_uptime_seconds 42.5
# HELP watchdog_serve_draining 1 while the server is draining (refusing new work), else 0.
# TYPE watchdog_serve_draining gauge
watchdog_serve_draining 0
# HELP watchdog_serve_inflight Computations currently executing (coalesced waiters excluded).
# TYPE watchdog_serve_inflight gauge
watchdog_serve_inflight 1
# HELP watchdog_serve_coalesced_total Requests that joined an existing flight instead of computing.
# TYPE watchdog_serve_coalesced_total counter
watchdog_serve_coalesced_total 7
# HELP watchdog_serve_rejected_total Requests refused before reaching a flight, by reason.
# TYPE watchdog_serve_rejected_total counter
watchdog_serve_rejected_total{reason="busy"} 2
watchdog_serve_rejected_total{reason="draining"} 0
watchdog_serve_rejected_total{reason="unauthorized"} 3
watchdog_serve_rejected_total{reason="limited"} 4
# HELP watchdog_serve_timeouts_total Requests answered 504 (deadline expired mid-computation).
# TYPE watchdog_serve_timeouts_total counter
watchdog_serve_timeouts_total 1
# HELP watchdog_serve_requests_total Requests served, by endpoint.
# TYPE watchdog_serve_requests_total counter
watchdog_serve_requests_total{endpoint="sim"} 12
watchdog_serve_requests_total{endpoint="juliet"} 1
# HELP watchdog_serve_request_errors_total Requests answered with a 4xx/5xx status, by endpoint.
# TYPE watchdog_serve_request_errors_total counter
watchdog_serve_request_errors_total{endpoint="sim"} 2
watchdog_serve_request_errors_total{endpoint="juliet"} 0
# HELP watchdog_serve_latency_window Observations covered by the window percentile gauges (bounded ring).
# TYPE watchdog_serve_latency_window gauge
watchdog_serve_latency_window{endpoint="sim"} 12
watchdog_serve_latency_window{endpoint="juliet"} 1
# HELP watchdog_serve_latency_window_seconds Exact latency percentiles over the bounded recent-request window.
# TYPE watchdog_serve_latency_window_seconds gauge
watchdog_serve_latency_window_seconds{endpoint="sim",quantile="0.5"} 0.00025
watchdog_serve_latency_window_seconds{endpoint="sim",quantile="0.9"} 0.04
watchdog_serve_latency_window_seconds{endpoint="sim",quantile="0.99"} 1.5
watchdog_serve_latency_window_seconds{endpoint="juliet",quantile="0.5"} 0.08
watchdog_serve_latency_window_seconds{endpoint="juliet",quantile="0.9"} 0.08
watchdog_serve_latency_window_seconds{endpoint="juliet",quantile="0.99"} 0.08
# HELP watchdog_serve_request_duration_seconds Request latency distribution, by endpoint.
# TYPE watchdog_serve_request_duration_seconds histogram
watchdog_serve_request_duration_seconds_bucket{endpoint="sim",le="0.0005"} 6
watchdog_serve_request_duration_seconds_bucket{endpoint="sim",le="0.001"} 6
watchdog_serve_request_duration_seconds_bucket{endpoint="sim",le="0.0025"} 6
watchdog_serve_request_duration_seconds_bucket{endpoint="sim",le="0.005"} 6
watchdog_serve_request_duration_seconds_bucket{endpoint="sim",le="0.01"} 6
watchdog_serve_request_duration_seconds_bucket{endpoint="sim",le="0.025"} 6
watchdog_serve_request_duration_seconds_bucket{endpoint="sim",le="0.05"} 9
watchdog_serve_request_duration_seconds_bucket{endpoint="sim",le="0.1"} 10
watchdog_serve_request_duration_seconds_bucket{endpoint="sim",le="0.25"} 10
watchdog_serve_request_duration_seconds_bucket{endpoint="sim",le="0.5"} 10
watchdog_serve_request_duration_seconds_bucket{endpoint="sim",le="1"} 10
watchdog_serve_request_duration_seconds_bucket{endpoint="sim",le="2.5"} 12
watchdog_serve_request_duration_seconds_bucket{endpoint="sim",le="5"} 12
watchdog_serve_request_duration_seconds_bucket{endpoint="sim",le="10"} 12
watchdog_serve_request_duration_seconds_bucket{endpoint="sim",le="30"} 12
watchdog_serve_request_duration_seconds_bucket{endpoint="sim",le="60"} 12
watchdog_serve_request_duration_seconds_bucket{endpoint="sim",le="+Inf"} 12
watchdog_serve_request_duration_seconds_sum{endpoint="sim"} 3.5
watchdog_serve_request_duration_seconds_count{endpoint="sim"} 12
watchdog_serve_request_duration_seconds_bucket{endpoint="juliet",le="0.0005"} 0
watchdog_serve_request_duration_seconds_bucket{endpoint="juliet",le="0.001"} 0
watchdog_serve_request_duration_seconds_bucket{endpoint="juliet",le="0.0025"} 0
watchdog_serve_request_duration_seconds_bucket{endpoint="juliet",le="0.005"} 0
watchdog_serve_request_duration_seconds_bucket{endpoint="juliet",le="0.01"} 0
watchdog_serve_request_duration_seconds_bucket{endpoint="juliet",le="0.025"} 0
watchdog_serve_request_duration_seconds_bucket{endpoint="juliet",le="0.05"} 0
watchdog_serve_request_duration_seconds_bucket{endpoint="juliet",le="0.1"} 1
watchdog_serve_request_duration_seconds_bucket{endpoint="juliet",le="0.25"} 1
watchdog_serve_request_duration_seconds_bucket{endpoint="juliet",le="0.5"} 1
watchdog_serve_request_duration_seconds_bucket{endpoint="juliet",le="1"} 1
watchdog_serve_request_duration_seconds_bucket{endpoint="juliet",le="2.5"} 1
watchdog_serve_request_duration_seconds_bucket{endpoint="juliet",le="5"} 1
watchdog_serve_request_duration_seconds_bucket{endpoint="juliet",le="10"} 1
watchdog_serve_request_duration_seconds_bucket{endpoint="juliet",le="30"} 1
watchdog_serve_request_duration_seconds_bucket{endpoint="juliet",le="60"} 1
watchdog_serve_request_duration_seconds_bucket{endpoint="juliet",le="+Inf"} 1
watchdog_serve_request_duration_seconds_sum{endpoint="juliet"} 0.08
watchdog_serve_request_duration_seconds_count{endpoint="juliet"} 1
# HELP watchdog_serve_tenant_requests_total Admission attempts on /v1/* endpoints, by tenant (refusals included).
# TYPE watchdog_serve_tenant_requests_total counter
watchdog_serve_tenant_requests_total{tenant="alpha"} 11
watchdog_serve_tenant_requests_total{tenant="beta"} 5
# HELP watchdog_serve_tenant_limited_total Token-bucket refusals (429), by tenant.
# TYPE watchdog_serve_tenant_limited_total counter
watchdog_serve_tenant_limited_total{tenant="alpha"} 0
watchdog_serve_tenant_limited_total{tenant="beta"} 4
# HELP watchdog_serve_tenant_quota_denied_total Daily-quota refusals (429), by tenant.
# TYPE watchdog_serve_tenant_quota_denied_total counter
watchdog_serve_tenant_quota_denied_total{tenant="alpha"} 1
watchdog_serve_tenant_quota_denied_total{tenant="beta"} 0
# HELP watchdog_serve_result_cache_entries Completed flight bodies retained in the in-memory LRU.
# TYPE watchdog_serve_result_cache_entries gauge
watchdog_serve_result_cache_entries 3
# HELP watchdog_serve_result_cache_hits_total Replays answered from the in-memory LRU.
# TYPE watchdog_serve_result_cache_hits_total counter
watchdog_serve_result_cache_hits_total 6
# HELP watchdog_serve_result_cache_evictions_total LRU entries dropped past the configured bound.
# TYPE watchdog_serve_result_cache_evictions_total counter
watchdog_serve_result_cache_evictions_total 1
# HELP watchdog_serve_store_hits_total Replays answered from the disk store (checksum-verified).
# TYPE watchdog_serve_store_hits_total counter
watchdog_serve_store_hits_total 1
# HELP watchdog_serve_store_writes_total Completed bodies persisted to the disk store.
# TYPE watchdog_serve_store_writes_total counter
watchdog_serve_store_writes_total 3
# HELP watchdog_serve_store_bytes Bytes of entries in the disk store.
# TYPE watchdog_serve_store_bytes gauge
watchdog_serve_store_bytes 4096
# HELP watchdog_serve_store_evictions_total Disk entries evicted by the size budget.
# TYPE watchdog_serve_store_evictions_total counter
watchdog_serve_store_evictions_total 1
# HELP watchdog_serve_store_corrupt_evicted_total Disk entries that failed verification and were evicted, not served.
# TYPE watchdog_serve_store_corrupt_evicted_total counter
watchdog_serve_store_corrupt_evicted_total 1
# HELP watchdog_harness_sims_total Timed simulations executed by the shared runners.
# TYPE watchdog_harness_sims_total counter
watchdog_harness_sims_total 3
# HELP watchdog_harness_profiles_total Profiling passes executed by the shared runners.
# TYPE watchdog_harness_profiles_total counter
watchdog_harness_profiles_total 2
# HELP watchdog_harness_cache_hits_total Simulations answered from the runners' once-caches.
# TYPE watchdog_harness_cache_hits_total counter
watchdog_harness_cache_hits_total 1
# HELP watchdog_harness_busy_seconds_total Cumulative wall time spent inside simulations.
# TYPE watchdog_harness_busy_seconds_total counter
watchdog_harness_busy_seconds_total 1.25
# HELP watchdog_harness_cache_hit_ratio Cache hits / (hits + sims) since start.
# TYPE watchdog_harness_cache_hit_ratio gauge
watchdog_harness_cache_hit_ratio 0.25
`
	if got != want {
		t.Errorf("prom document mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	checkGrouped(t, got)
	if renderProm(m) != got {
		t.Error("one snapshot rendered twice differs")
	}
}

// TestMetricsViewsAgree: after mixed traffic — sim computations and a
// replay, a juliet run, a 400 and a 401, from two tenants — every JSON
// counter with a Prometheus sample reads the same value in both views
// of the idle server. (cache_max, disk_misses and the quota_used /
// quota_remaining tenant fields are JSON-only.)
func TestMetricsViewsAgree(t *testing.T) {
	_, ts := testServer(t, Config{Keys: map[string]string{"sk-a": "a", "sk-b": "b"}})
	sim := SimRequest{Workload: "lbm", Config: "baseline"}
	authedPost(t, ts.URL+"/v1/sim", "sk-a", sim)
	authedPost(t, ts.URL+"/v1/sim", "sk-b", sim) // replayed: coalesced
	authedPost(t, ts.URL+"/v1/sim", "sk-b", SimRequest{Workload: "nope", Config: "baseline"})
	authedPost(t, ts.URL+"/v1/juliet", "sk-a", JulietRequest{Policy: "watchdog"})
	authedPost(t, ts.URL+"/v1/sim", "", sim) // 401

	m := getMetrics(t, ts.URL)
	_, doc := getProm(t, ts.URL)
	checkGrouped(t, doc)
	if m.RejectedUnauthorized != 1 || m.Coalesced != 1 || m.Endpoints["sim"].Errors != 2 ||
		m.Endpoints["juliet"].Requests != 1 || m.Harness.Sims == 0 || len(m.Tenants) != 2 {
		t.Fatalf("traffic did not reach every counter: %+v", m)
	}

	want := map[string]float64{
		"watchdog_serve_inflight":                              float64(m.Inflight),
		"watchdog_serve_coalesced_total":                       float64(m.Coalesced),
		`watchdog_serve_rejected_total{reason="busy"}`:         float64(m.RejectedBusy),
		`watchdog_serve_rejected_total{reason="draining"}`:     float64(m.RejectedDraining),
		`watchdog_serve_rejected_total{reason="unauthorized"}`: float64(m.RejectedUnauthorized),
		`watchdog_serve_rejected_total{reason="limited"}`:      float64(m.RejectedLimited),
		"watchdog_serve_timeouts_total":                        float64(m.TimedOut),
		"watchdog_serve_result_cache_entries":                  float64(m.Store.CacheEntries),
		"watchdog_serve_result_cache_hits_total":               float64(m.Store.CacheHits),
		"watchdog_serve_result_cache_evictions_total":          float64(m.Store.CacheEvictions),
		"watchdog_serve_store_hits_total":                      float64(m.Store.DiskHits),
		"watchdog_serve_store_writes_total":                    float64(m.Store.DiskWrites),
		"watchdog_serve_store_bytes":                           float64(m.Store.DiskBytes),
		"watchdog_serve_store_evictions_total":                 float64(m.Store.DiskEvictions),
		"watchdog_serve_store_corrupt_evicted_total":           float64(m.Store.CorruptEvicted),
		"watchdog_harness_sims_total":                          float64(m.Harness.Sims),
		"watchdog_harness_profiles_total":                      float64(m.Harness.Profiles),
		"watchdog_harness_cache_hits_total":                    float64(m.Harness.CacheHits),
		"watchdog_harness_busy_seconds_total":                  time.Duration(m.Harness.BusyNanos).Seconds(),
		"watchdog_harness_cache_hit_ratio":                     m.Harness.CacheHitRatio,
	}
	if m.Draining {
		want["watchdog_serve_draining"] = 1
	} else {
		want["watchdog_serve_draining"] = 0
	}
	for name, e := range m.Endpoints {
		l := `{endpoint="` + name + `"}`
		want["watchdog_serve_requests_total"+l] = float64(e.Requests)
		want["watchdog_serve_request_errors_total"+l] = float64(e.Errors)
		want["watchdog_serve_request_duration_seconds_count"+l] = float64(e.Requests)
		want["watchdog_serve_latency_window"+l] = float64(e.Window)
		for q, milli := range map[string]float64{"0.5": e.P50Milli, "0.9": e.P90Milli, "0.99": e.P99Milli} {
			want[`watchdog_serve_latency_window_seconds{endpoint="`+name+`",quantile="`+q+`"}`] = milli / 1e3
		}
	}
	for name, tm := range m.Tenants {
		l := `{tenant="` + name + `"}`
		want["watchdog_serve_tenant_requests_total"+l] = float64(tm.Requests)
		want["watchdog_serve_tenant_limited_total"+l] = float64(tm.Limited)
		want["watchdog_serve_tenant_quota_denied_total"+l] = float64(tm.QuotaDenied)
	}
	for sample, v := range want {
		if got := promValue(t, doc, sample); got != v {
			t.Errorf("%s = %v in Prometheus, %v in JSON", sample, got, v)
		}
	}
}
