package stats

import (
	"sync"
	"testing"
	"time"
)

// TestPercentileWindow pins the nearest-rank percentile math and the
// bounded-window behavior of LatencyWindow.
func TestPercentileWindow(t *testing.T) {
	var e LatencyWindow
	for i := 1; i <= 100; i++ {
		e.Observe(time.Duration(i)*time.Millisecond, i%10 == 0)
	}
	m := e.Snapshot()
	if m.Requests != 100 || m.Errors != 10 {
		t.Fatalf("counts: %+v", m)
	}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{m.P50Milli, 50}, {m.P90Milli, 90}, {m.P99Milli, 99}} {
		if tc.p != tc.want {
			t.Errorf("percentile %v, want %v (snapshot %+v)", tc.p, tc.want, m)
		}
	}
	// Overflow the ring: the window must slide, not grow.
	for i := 0; i < latencyRing+5; i++ {
		e.Observe(time.Millisecond, false)
	}
	m = e.Snapshot()
	if m.Requests != int64(100+latencyRing+5) {
		t.Fatalf("requests after overflow: %d", m.Requests)
	}
	if m.P99Milli != 1 {
		t.Errorf("p99 after the window slid: %v, want 1", m.P99Milli)
	}
}

// TestLatencyWindowEmpty: an empty window reports zero percentiles
// rather than indexing into garbage, and Window == 0 is the signal
// that distinguishes "no data" from "fast".
func TestLatencyWindowEmpty(t *testing.T) {
	var e LatencyWindow
	if m := e.Snapshot(); m.Requests != 0 || m.Errors != 0 || m.Window != 0 ||
		m.P50Milli != 0 || m.P90Milli != 0 || m.P99Milli != 0 ||
		m.Hist.Count != 0 || m.Hist.Sum != 0 || m.Hist.Cumulative[len(m.Hist.Cumulative)-1] != 0 {
		t.Fatalf("empty snapshot: %+v", m)
	}
	// A single sub-millisecond request: percentiles legitimately round
	// to ~0 ms, but Window proves data was observed.
	e.Observe(10*time.Microsecond, false)
	m := e.Snapshot()
	if m.Window != 1 || m.Requests != 1 {
		t.Fatalf("window after one observation: %+v", m)
	}
	if m.P99Milli >= 1 {
		t.Errorf("sub-millisecond request reported p99 %v ms", m.P99Milli)
	}
}

// TestLatencyWindowWraparound: past the ring size the percentiles
// must describe exactly the most recent latencyRing observations —
// the overwritten prefix must not leak in, and Window must saturate.
func TestLatencyWindowWraparound(t *testing.T) {
	var e LatencyWindow
	const total = latencyRing + 488 // 1000 observations, ~2x wrap of the tail
	for i := 1; i <= total; i++ {
		e.Observe(time.Duration(i)*time.Millisecond, false)
	}
	m := e.Snapshot()
	if m.Requests != total {
		t.Fatalf("requests = %d, want %d", m.Requests, total)
	}
	if m.Window != latencyRing {
		t.Fatalf("window = %d, want saturation at %d", m.Window, latencyRing)
	}
	// The live window is [total-latencyRing+1 .. total] ms; nearest-rank
	// percentile p over n sorted samples picks index ceil(p*n/100)-1.
	first := float64(total - latencyRing + 1)
	rank := func(p int) float64 {
		idx := (p*latencyRing + 99) / 100
		return first + float64(idx-1)
	}
	for _, tc := range []struct {
		name string
		got  float64
		want float64
	}{
		{"p50", m.P50Milli, rank(50)},
		{"p90", m.P90Milli, rank(90)},
		{"p99", m.P99Milli, rank(99)},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %v, want %v (window must cover only the last %d observations)",
				tc.name, tc.got, tc.want, latencyRing)
		}
	}
	if m.P50Milli < first {
		t.Errorf("p50 %v predates the live window start %v: overwritten samples leaked", m.P50Milli, first)
	}
}

// TestLatencyWindowConcurrent hammers Observe and Snapshot together
// under the race detector and checks the counters come out exact.
func TestLatencyWindowConcurrent(t *testing.T) {
	var e LatencyWindow
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				e.Observe(time.Duration(i+1)*time.Millisecond, i%5 == 0)
				if i%17 == 0 {
					s := e.Snapshot()
					if s.Window > latencyRing {
						t.Errorf("window %d exceeds the ring", s.Window)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	m := e.Snapshot()
	if m.Requests != workers*per {
		t.Errorf("requests = %d, want %d", m.Requests, workers*per)
	}
	if m.Errors != workers*per/5 {
		t.Errorf("errors = %d, want %d", m.Errors, workers*per/5)
	}
	if m.Window != latencyRing {
		t.Errorf("window = %d, want %d", m.Window, latencyRing)
	}
}

// TestHistogramBuckets pins the le boundary semantics of the window's
// histogram: an observation exactly on a bound lands in that bound's
// bucket (le is inclusive), one past every bound only in +Inf.
func TestHistogramBuckets(t *testing.T) {
	var e LatencyWindow
	e.Observe(time.Millisecond, false) // exactly le="0.001", bucket index 1
	s := e.Snapshot().Hist
	if len(s.Bounds) != len(DefaultLatencyBuckets) || s.Bounds[1] != 0.001 {
		t.Fatalf("bounds %v, want DefaultLatencyBuckets", s.Bounds)
	}
	if s.Cumulative[0] != 0 || s.Cumulative[1] != 1 || s.Count != 1 || s.Sum != 0.001 {
		t.Errorf("boundary observation bucketed wrong: %+v", s)
	}
	e.Observe(time.Hour, true) // past every bound: +Inf only
	s = e.Snapshot().Hist
	if last := s.Cumulative[len(s.Cumulative)-1]; last != 1 || s.Count != 2 {
		t.Errorf("overflow observation bucketed wrong: %+v", s)
	}
}

// TestHistogramConcurrent exercises the histogram side of the window
// under the race detector: every observation is counted once, in the
// histogram and the request counter alike.
func TestHistogramConcurrent(t *testing.T) {
	var e LatencyWindow
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				e.Observe(time.Duration(i)*time.Microsecond, false)
				_ = e.Snapshot()
			}
		}()
	}
	wg.Wait()
	s := e.Snapshot()
	if s.Hist.Count != 4000 || s.Requests != 4000 {
		t.Errorf("histogram count = %d, requests = %d, want 4000", s.Hist.Count, s.Requests)
	}
	// Every observation is under 1ms, so the 1ms bucket holds them all.
	if s.Hist.Cumulative[1] != 4000 {
		t.Errorf("le=0.001 bucket = %d, want 4000", s.Hist.Cumulative[1])
	}
}
