package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"watchdog/internal/report"
	"watchdog/internal/serve"
)

// TestSweepAgainstServe is the harness's end-to-end contract: a mixed
// stepped sweep against a real watchdog-serve instance produces a
// well-formed watchdog-load document with zero errors, and the
// document round-trips through the report file format into the
// trajectory comparator.
func TestSweepAgainstServe(t *testing.T) {
	ts := httptest.NewServer(serve.New(serve.Config{MaxWorkers: 4}).Handler())
	t.Cleanup(ts.Close)

	spec := Spec{
		Target:   ts.URL,
		Steps:    []int{1, 2},
		PerStep:  6,
		Mix:      report.LoadMix{SimPct: 50, JulietPct: 50},
		Seed:     7,
		Workload: "lbm",
		Config:   "baseline",
		Policy:   "watchdog",
	}
	lr, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Steps) != 2 {
		t.Fatalf("swept %d steps, want 2", len(lr.Steps))
	}
	if lr.Mix != spec.Mix || lr.Policy != "watchdog" {
		t.Errorf("record knobs: %+v", lr)
	}
	for i, s := range lr.Steps {
		if s.Offered != 6 || s.OK+s.RejectedBusy+s.Errors != s.Offered {
			t.Errorf("step %d accounting: %+v", i, s)
		}
		if s.Errors != 0 || s.ErrorRate != 0 {
			t.Errorf("step %d has errors: %+v", i, s)
		}
		if s.OK > 0 && (s.P50Milli <= 0 || s.P99Milli < s.P50Milli || s.ThroughputRPS <= 0) {
			t.Errorf("step %d latency/throughput: %+v", i, s)
		}
	}

	// Round-trip through the file format and into the trajectory.
	dir := t.TempDir()
	loadPath := filepath.Join(dir, "load.json")
	if err := report.WriteLoadFile(loadPath, lr); err != nil {
		t.Fatal(err)
	}
	back, err := report.ReadLoadFile(loadPath)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := report.AppendTrajectory(filepath.Join(dir, "trend.json"),
		report.LoadPoints("test", back)...)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Points) != 2 || tr.Points[0].Key != "load/sim50-juliet50/c1" {
		t.Fatalf("trajectory points: %+v", tr.Points)
	}
}

// TestDeterministicSequence: the same spec draws the same request
// kinds in the same order; a different seed draws a different
// sequence (with a mix that can differ).
func TestDeterministicSequence(t *testing.T) {
	spec, err := Spec{Target: "x", Mix: report.LoadMix{SimPct: 50, JulietPct: 50}, Seed: 1}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	a, err := spec.sequence(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := spec.sequence(0, 64)
	for i := range a {
		if a[i].path != b[i].path {
			t.Fatalf("same seed diverged at %d: %s vs %s", i, a[i].path, b[i].path)
		}
	}
	var sims, juliets int
	for _, r := range a {
		if r.path == "/v1/sim" {
			sims++
		} else {
			juliets++
		}
	}
	if sims == 0 || juliets == 0 {
		t.Errorf("50/50 mix drew %d sims / %d juliets over 64 requests", sims, juliets)
	}
}

// TestFidelityAndTagBitsWiring: the sim/juliet knobs land in the
// request bodies — the -load client-mode bugfix contract.
func TestFidelityAndTagBitsWiring(t *testing.T) {
	spec, err := Spec{
		Target: "x", Fidelity: "sampled", Policy: "xtag", TagBits: 4,
		Mix: report.LoadMix{SimPct: 50, JulietPct: 50},
	}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := spec.sequence(0, 32)
	if err != nil {
		t.Fatal(err)
	}
	var checkedSim, checkedJuliet bool
	for _, r := range seq {
		switch r.path {
		case "/v1/sim":
			if string(r.body) != `{"workload":"mcf","config":"conservative","scale":1,"fidelity":"sampled"}` {
				t.Fatalf("sim body lost the fidelity: %s", r.body)
			}
			checkedSim = true
		case "/v1/juliet":
			if string(r.body) != `{"policy":"xtag","tag_bits":4}` {
				t.Fatalf("juliet body lost the tag width: %s", r.body)
			}
			checkedJuliet = true
		}
	}
	if !checkedSim || !checkedJuliet {
		t.Fatal("mix drew no sims or no juliets")
	}
}

// TestSpecValidation: bad mixes and steps are rejected before any
// traffic is offered.
func TestSpecValidation(t *testing.T) {
	if _, err := Run(context.Background(), Spec{Target: "x", Mix: report.LoadMix{SimPct: 60, JulietPct: 60}}); err == nil {
		t.Error("mix summing to 120 accepted")
	}
	if _, err := Run(context.Background(), Spec{Target: "x", Steps: []int{0}}); err == nil {
		t.Error("zero concurrency accepted")
	}
}

// TestErrorsCounted: non-200 non-429 answers are errors; 429 is
// rejection, not error.
func TestErrorsCounted(t *testing.T) {
	var n int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n++
		switch n % 3 {
		case 0:
			w.WriteHeader(http.StatusOK)
		case 1:
			w.WriteHeader(http.StatusTooManyRequests)
		default:
			w.WriteHeader(http.StatusInternalServerError)
		}
	}))
	t.Cleanup(ts.Close)
	lr, err := Run(context.Background(), Spec{Target: ts.URL, Steps: []int{1}, PerStep: 9})
	if err != nil {
		t.Fatal(err)
	}
	s := lr.Steps[0]
	if s.OK != 3 || s.RejectedBusy != 3 || s.Errors != 3 {
		t.Fatalf("classification: %+v", s)
	}
	if s.ErrorRate < 0.32 || s.ErrorRate > 0.34 {
		t.Fatalf("error rate %v, want ~1/3", s.ErrorRate)
	}
}

// TestParseMixAndSteps covers the CLI syntax helpers.
func TestParseMixAndSteps(t *testing.T) {
	m, err := ParseMix("sim=90,juliet=10")
	if err != nil || m.SimPct != 90 || m.JulietPct != 10 {
		t.Errorf("ParseMix: %+v, %v", m, err)
	}
	if m, err := ParseMix(""); err != nil || m.SimPct != 100 {
		t.Errorf("empty mix: %+v, %v", m, err)
	}
	if _, err := ParseMix("cpu=50"); err == nil {
		t.Error("unknown mix kind accepted")
	}
	steps, err := ParseSteps("1, 2,8")
	if err != nil || len(steps) != 3 || steps[2] != 8 {
		t.Errorf("ParseSteps: %v, %v", steps, err)
	}
	if got, err := ParseSteps(""); err != nil || got != nil {
		t.Errorf("empty steps: %v, %v", got, err)
	}
	if _, err := ParseSteps("1,zero"); err == nil {
		t.Error("garbage step accepted")
	}
}

// TestPercentilesNearestRank pins the step percentiles for fixed
// latency sets: nearest rank over the sorted set, in milliseconds, so
// watchdog-load documents keep their numbers.
func TestPercentilesNearestRank(t *testing.T) {
	var desc []time.Duration
	for i := 200; i >= 1; i-- {
		desc = append(desc, time.Duration(i)*time.Millisecond)
	}
	for _, tc := range []struct {
		name     string
		lats     []time.Duration
		p50, p99 float64
	}{
		{"one", []time.Duration{1500 * time.Microsecond}, 1.5, 1.5},
		{"three", []time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond}, 2, 3},
		{"200 descending", desc, 100, 198},
	} {
		if p50, p99 := percentiles(tc.lats); p50 != tc.p50 || p99 != tc.p99 {
			t.Errorf("%s: p50 %v p99 %v, want %v and %v", tc.name, p50, p99, tc.p50, tc.p99)
		}
	}
}
