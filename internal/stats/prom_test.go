package stats

import (
	"strings"
	"testing"
)

// TestPromGolden pins the exposition document byte-for-byte: metric
// ordering follows first use, HELP/TYPE headers appear exactly once
// per family, and histogram series carry cumulative le buckets with a
// trailing +Inf.
func TestPromGolden(t *testing.T) {
	// 0.5ms, 5ms, 5ms and 2s observed under bounds 1ms/10ms/100ms.
	h := HistogramSnapshot{
		Bounds:     []float64{0.001, 0.01, 0.1},
		Cumulative: []uint64{1, 3, 3},
		Sum:        2.0105,
		Count:      4,
	}

	var p PromWriter
	p.Counter("watchdog_requests_total", "Requests served.", []Label{{"endpoint", "sim"}}, 42)
	p.Counter("watchdog_requests_total", "Requests served.", []Label{{"endpoint", "juliet"}}, 7)
	p.Gauge("watchdog_inflight", "Computations executing now.", nil, 3)
	p.Histogram("watchdog_request_duration_seconds", "Request latency.",
		[]Label{{"endpoint", "sim"}}, h)

	const want = `# HELP watchdog_requests_total Requests served.
# TYPE watchdog_requests_total counter
watchdog_requests_total{endpoint="sim"} 42
watchdog_requests_total{endpoint="juliet"} 7
# HELP watchdog_inflight Computations executing now.
# TYPE watchdog_inflight gauge
watchdog_inflight 3
# HELP watchdog_request_duration_seconds Request latency.
# TYPE watchdog_request_duration_seconds histogram
watchdog_request_duration_seconds_bucket{endpoint="sim",le="0.001"} 1
watchdog_request_duration_seconds_bucket{endpoint="sim",le="0.01"} 3
watchdog_request_duration_seconds_bucket{endpoint="sim",le="0.1"} 3
watchdog_request_duration_seconds_bucket{endpoint="sim",le="+Inf"} 4
watchdog_request_duration_seconds_sum{endpoint="sim"} 2.0105
watchdog_request_duration_seconds_count{endpoint="sim"} 4
`
	if got := p.String(); got != want {
		t.Errorf("prom document mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPromDeterministic: rendering the same state twice produces
// byte-identical documents (the stable-ordering contract a golden
// scrape test in CI relies on).
func TestPromDeterministic(t *testing.T) {
	render := func() string {
		var p PromWriter
		p.Gauge("a", "a.", nil, 1)
		p.Counter("b", "b.", []Label{{"x", "1"}, {"y", "2"}}, 2)
		p.Counter("b", "b.", []Label{{"x", "3"}, {"y", "4"}}, 3)
		return p.String()
	}
	if a, b := render(), render(); a != b {
		t.Errorf("nondeterministic render:\n%s\nvs\n%s", a, b)
	}
}

// TestPromEscaping: label values and help strings escape backslash,
// quote and newline so a scraper never sees a malformed line.
func TestPromEscaping(t *testing.T) {
	var p PromWriter
	p.Gauge("m", "line one\nline two with \\slash", []Label{
		{"path", `C:\dir`},
		{"quoted", `say "hi"`},
		{"multi", "a\nb"},
	}, 1)
	got := p.String()
	for _, want := range []string{
		`# HELP m line one\nline two with \\slash`,
		`path="C:\\dir"`,
		`quoted="say \"hi\""`,
		`multi="a\nb"`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("document missing %q:\n%s", want, got)
		}
	}
	if strings.Count(got, "\n") != 3 { // HELP + TYPE + one sample, no raw newlines leaked
		t.Errorf("raw newline leaked into the document:\n%q", got)
	}
}

// TestPromValueFormatting pins the special float renderings.
func TestPromValueFormatting(t *testing.T) {
	for v, want := range map[float64]string{
		0:      "0",
		1.5:    "1.5",
		0.0005: "0.0005",
		1e9:    "1e+09",
	} {
		if got := formatPromValue(v); got != want {
			t.Errorf("formatPromValue(%v) = %q, want %q", v, got, want)
		}
	}
}

// TestPromGroupsSplitFamilies: samples of one family added between
// other families' samples still render as one contiguous group under
// a single HELP/TYPE header, in the family's first-use position —
// including a histogram family's _bucket/_sum/_count lines.
func TestPromGroupsSplitFamilies(t *testing.T) {
	h := HistogramSnapshot{Bounds: []float64{1}, Cumulative: []uint64{1}, Sum: 0.5, Count: 1}
	var p PromWriter
	for _, ep := range []string{"sim", "juliet"} {
		labels := []Label{{"endpoint", ep}}
		p.Counter("req_total", "Requests.", labels, 1)
		p.Histogram("dur_seconds", "Latency.", labels, h)
		p.BoolGauge("up", "Up.", labels, ep == "sim")
	}
	p.Window("win", "Window.", "Window quantiles.", nil, 3,
		Quantile{"0.5", 2}, Quantile{"0.99", 40})

	const want = `# HELP req_total Requests.
# TYPE req_total counter
req_total{endpoint="sim"} 1
req_total{endpoint="juliet"} 1
# HELP dur_seconds Latency.
# TYPE dur_seconds histogram
dur_seconds_bucket{endpoint="sim",le="1"} 1
dur_seconds_bucket{endpoint="sim",le="+Inf"} 1
dur_seconds_sum{endpoint="sim"} 0.5
dur_seconds_count{endpoint="sim"} 1
dur_seconds_bucket{endpoint="juliet",le="1"} 1
dur_seconds_bucket{endpoint="juliet",le="+Inf"} 1
dur_seconds_sum{endpoint="juliet"} 0.5
dur_seconds_count{endpoint="juliet"} 1
# HELP up Up.
# TYPE up gauge
up{endpoint="sim"} 1
up{endpoint="juliet"} 0
# HELP win Window.
# TYPE win gauge
win 3
# HELP win_seconds Window quantiles.
# TYPE win_seconds gauge
win_seconds{quantile="0.5"} 0.002
win_seconds{quantile="0.99"} 0.04
`
	if got := p.String(); got != want {
		t.Errorf("prom document mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
