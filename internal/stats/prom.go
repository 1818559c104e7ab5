package stats

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file is the dependency-free Prometheus side of the stats
// package: a fixed-bucket latency Histogram alongside the
// LatencyWindow percentile ring, and PromWriter, a text-exposition
// renderer (`text/plain; version=0.0.4`) that any standard scraper
// understands. None of it touches the simulator hot path — it is fed
// by the serving/fabric layers, whose unit of work is an HTTP request,
// not a µop.

// DefaultLatencyBuckets are the histogram upper bounds (seconds) used
// for request latencies: sub-millisecond cache replays up through the
// multi-second simulations a scale-4 cell can cost.
var DefaultLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram is a fixed-bucket latency histogram in the Prometheus
// shape: cumulative bucket counts under each upper bound plus a sum
// and total count, so a scraper can derive rates and quantile
// estimates across processes (which the LatencyWindow's exact
// percentiles — correct but unmergeable — cannot). Safe for
// concurrent use.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // upper bounds in seconds, ascending
	counts []uint64  // per-bucket (non-cumulative); last entry is +Inf
	sum    float64
	count  uint64
}

// NewHistogram builds a histogram over the given ascending upper
// bounds in seconds (DefaultLatencyBuckets when none are given).
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("stats: histogram bounds not ascending: %v", bounds))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(h.bounds, s) // first bound >= s
	h.mu.Lock()
	h.counts[i]++
	h.sum += s
	h.count++
	h.mu.Unlock()
}

// HistogramSnapshot is one histogram's state: cumulative counts per
// bound (the final implicit +Inf bucket equals Count).
type HistogramSnapshot struct {
	Bounds     []float64
	Cumulative []uint64
	Sum        float64
	Count      uint64
}

// Snapshot reads the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Bounds:     h.bounds,
		Cumulative: make([]uint64, len(h.bounds)),
		Sum:        h.sum,
		Count:      h.count,
	}
	var cum uint64
	for i := range h.bounds {
		cum += h.counts[i]
		s.Cumulative[i] = cum
	}
	return s
}

// PromContentType is the Content-Type of a PromWriter document.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one Prometheus label pair; labels render in the order
// given, so a fixed caller order keeps documents byte-stable.
type Label struct{ Name, Value string }

// PromWriter accumulates a Prometheus text-exposition document
// (version 0.0.4). Metrics render in first-use order and HELP/TYPE
// headers are emitted exactly once per metric family, so rendering
// the same state twice produces byte-identical documents — which the
// golden test pins.
type PromWriter struct {
	b      strings.Builder
	headed map[string]bool
}

// header emits the HELP/TYPE preamble once per metric family.
func (p *PromWriter) header(name, help, typ string) {
	if p.headed == nil {
		p.headed = make(map[string]bool)
	}
	if p.headed[name] {
		return
	}
	p.headed[name] = true
	fmt.Fprintf(&p.b, "# HELP %s %s\n", name, escapeHelp(help))
	fmt.Fprintf(&p.b, "# TYPE %s %s\n", name, typ)
}

// sample emits one sample line.
func (p *PromWriter) sample(name string, labels []Label, v float64) {
	p.b.WriteString(name)
	if len(labels) > 0 {
		p.b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				p.b.WriteByte(',')
			}
			fmt.Fprintf(&p.b, `%s="%s"`, l.Name, escapeLabel(l.Value))
		}
		p.b.WriteByte('}')
	}
	p.b.WriteByte(' ')
	p.b.WriteString(formatPromValue(v))
	p.b.WriteByte('\n')
}

// Counter emits one counter sample (header on first use of name).
func (p *PromWriter) Counter(name, help string, labels []Label, v float64) {
	p.header(name, help, "counter")
	p.sample(name, labels, v)
}

// Gauge emits one gauge sample (header on first use of name).
func (p *PromWriter) Gauge(name, help string, labels []Label, v float64) {
	p.header(name, help, "gauge")
	p.sample(name, labels, v)
}

// Histogram emits one histogram series: the cumulative `_bucket`
// lines (with le labels, +Inf last), then `_sum` and `_count`.
func (p *PromWriter) Histogram(name, help string, labels []Label, s HistogramSnapshot) {
	p.header(name, help, "histogram")
	for i, bound := range s.Bounds {
		p.sample(name+"_bucket", append(append([]Label{}, labels...),
			Label{"le", formatPromValue(bound)}), float64(s.Cumulative[i]))
	}
	p.sample(name+"_bucket", append(append([]Label{}, labels...),
		Label{"le", "+Inf"}), float64(s.Count))
	p.sample(name+"_sum", labels, s.Sum)
	p.sample(name+"_count", labels, float64(s.Count))
}

// String returns the accumulated document.
func (p *PromWriter) String() string { return p.b.String() }

// formatPromValue renders a float the way Prometheus expects:
// shortest round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatPromValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP string per the text format: backslash and
// newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the text format: backslash,
// double quote and newline (the only escapes the exposition parser
// defines inside quoted label values).
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
