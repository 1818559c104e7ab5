package stats

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// This file is the dependency-free Prometheus side of the stats
// package: PromWriter, a text-exposition renderer
// (`text/plain; version=0.0.4`) that any standard scraper understands.
// None of it touches the simulator hot path — it is fed by the
// serving/fabric layers, whose unit of work is an HTTP request, not a
// µop.

// PromContentType is the Content-Type of a PromWriter document.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one Prometheus label pair; labels render in the order
// given, so a fixed caller order keeps documents byte-stable.
type Label struct{ Name, Value string }

// Quantile is one window percentile gauge: its quantile label and its
// value in milliseconds.
type Quantile struct {
	Label string
	Milli float64
}

// PromWriter accumulates a Prometheus text-exposition document
// (version 0.0.4). Samples are collected per metric family and each
// family is written once, in first-use order: its HELP/TYPE header,
// then all its samples in call order. Callers may therefore loop by
// entity (endpoint, tenant, worker) and still get the grouped document
// the format requires, and rendering the same state twice produces
// byte-identical documents — which the golden tests pin.
type PromWriter struct {
	families []*promFamily
	byName   map[string]*promFamily
}

// promFamily is one metric family: its header and its sample lines.
type promFamily struct {
	header  string
	samples strings.Builder
}

// family returns the sample buffer of the named family, creating the
// family (and its header) on first use.
func (p *PromWriter) family(name, help, typ string) *strings.Builder {
	f := p.byName[name]
	if f == nil {
		if p.byName == nil {
			p.byName = make(map[string]*promFamily)
		}
		f = &promFamily{header: fmt.Sprintf("# HELP %s %s\n# TYPE %s %s\n",
			name, escapeHelp(help), name, typ)}
		p.byName[name] = f
		p.families = append(p.families, f)
	}
	return &f.samples
}

// sample writes one sample line.
func sample(b *strings.Builder, name string, labels []Label, v float64) {
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, `%s="%s"`, l.Name, escapeLabel(l.Value))
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatPromValue(v))
	b.WriteByte('\n')
}

// withLabel returns labels plus one more, leaving labels untouched.
func withLabel(labels []Label, name, value string) []Label {
	return append(append([]Label{}, labels...), Label{name, value})
}

// Counter adds one counter sample to the named family.
func (p *PromWriter) Counter(name, help string, labels []Label, v float64) {
	sample(p.family(name, help, "counter"), name, labels, v)
}

// Gauge adds one gauge sample to the named family.
func (p *PromWriter) Gauge(name, help string, labels []Label, v float64) {
	sample(p.family(name, help, "gauge"), name, labels, v)
}

// BoolGauge adds one gauge sample reading 1 for true, 0 for false.
func (p *PromWriter) BoolGauge(name, help string, labels []Label, b bool) {
	v := 0.0
	if b {
		v = 1
	}
	p.Gauge(name, help, labels, v)
}

// Window adds a latency window's gauges: name counts the observations
// the percentiles cover, and name_seconds carries one sample per
// quantile in qs, in the order given.
func (p *PromWriter) Window(name, help, quantileHelp string, labels []Label, window int, qs ...Quantile) {
	p.Gauge(name, help, labels, float64(window))
	for _, q := range qs {
		p.Gauge(name+"_seconds", quantileHelp,
			withLabel(labels, "quantile", q.Label), q.Milli/1e3)
	}
}

// Histogram adds one histogram series to the named family: the
// cumulative `_bucket` lines (with le labels, +Inf last), then `_sum`
// and `_count`.
func (p *PromWriter) Histogram(name, help string, labels []Label, s HistogramSnapshot) {
	b := p.family(name, help, "histogram")
	for i, bound := range s.Bounds {
		sample(b, name+"_bucket", withLabel(labels, "le", formatPromValue(bound)),
			float64(s.Cumulative[i]))
	}
	sample(b, name+"_bucket", withLabel(labels, "le", "+Inf"), float64(s.Count))
	sample(b, name+"_sum", labels, s.Sum)
	sample(b, name+"_count", labels, float64(s.Count))
}

// String returns the document: each family's header and samples, in
// first-use order.
func (p *PromWriter) String() string {
	var b strings.Builder
	for _, f := range p.families {
		b.WriteString(f.header)
		b.WriteString(f.samples.String())
	}
	return b.String()
}

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
