package report

import (
	"os"
	"path/filepath"
	"testing"
)

func sampleLoad() *LoadReport {
	return &LoadReport{
		Target: "http://w:1",
		Mix:    LoadMix{SimPct: 90, JulietPct: 10},
		Steps: []LoadStep{
			{Concurrency: 1, Offered: 10, OK: 10, ThroughputRPS: 50, P50Milli: 4, P99Milli: 9, WallNanos: 2e8},
			{Concurrency: 4, Offered: 40, OK: 36, RejectedBusy: 4, ThroughputRPS: 150, P50Milli: 6, P99Milli: 30, WallNanos: 2.4e8},
		},
	}
}

// TestLoadRoundTrip: the saturation document survives a write/read
// cycle with schema stamping and validation.
func TestLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "load.json")
	if err := WriteLoadFile(path, sampleLoad()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != LoadSchema || got.Version != Version {
		t.Fatalf("stamp %q v%d", got.Schema, got.Version)
	}
	if len(got.Steps) != 2 || got.Steps[1].RejectedBusy != 4 || got.Mix.SimPct != 90 {
		t.Fatalf("round trip lost data: %+v", got)
	}

	// A bench document is not a load document.
	benchPath := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteBenchFile(benchPath, &BenchReport{Exp: "fig7"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLoadFile(benchPath); err == nil {
		t.Error("ReadLoadFile accepted a bench document")
	}
}

// TestTrajectoryAppendAndRegress: the trend file appends across
// "runs", folds both document kinds, and the comparator flags each
// measure that moved past the threshold in its bad direction.
func TestTrajectoryAppendAndRegress(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trend.json")

	// Run 1: a bench point and the load sweep's points.
	b1 := &BenchReport{Exp: "fig7", Scale: 1, WallNanos: 1e9}
	pts := append([]TrajectoryPoint{BenchPoint("run1", b1)}, LoadPoints("run1", sampleLoad())...)
	if _, err := AppendTrajectory(path, pts...); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrajectoryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Points) != 3 {
		t.Fatalf("run 1 stored %d points, want 3", len(tr.Points))
	}
	if got := tr.Points[0].Key; got != "bench/fig7/scale1" {
		t.Errorf("bench key %q", got)
	}
	if got := tr.Points[1].Key; got != "load/sim90-juliet10/c1" {
		t.Errorf("load key %q", got)
	}
	// One run has nothing to compare against.
	if regs := tr.Regressed(5); len(regs) != 0 {
		t.Fatalf("single run regressed: %+v", regs)
	}

	// Run 2: the bench slowed 50%, step c1 lost half its throughput
	// and tripled p99, step c4 held steady.
	b2 := &BenchReport{Exp: "fig7", Scale: 1, WallNanos: 1.5e9}
	l2 := sampleLoad()
	l2.Steps[0].ThroughputRPS = 25
	l2.Steps[0].P99Milli = 27
	pts = append([]TrajectoryPoint{BenchPoint("run2", b2)}, LoadPoints("run2", l2)...)
	tr, err = AppendTrajectory(path, pts...)
	if err != nil {
		t.Fatal(err)
	}
	regs := tr.Regressed(10)
	byKeyMetric := make(map[string]TrajectoryRegression)
	for _, r := range regs {
		byKeyMetric[r.Key+"/"+r.Metric] = r
	}
	if r, ok := byKeyMetric["bench/fig7/scale1/wall_nanos"]; !ok || r.DeltaPct < 49 || r.DeltaPct > 51 {
		t.Errorf("bench wall regression missing/wrong: %+v (all: %+v)", r, regs)
	}
	if _, ok := byKeyMetric["load/sim90-juliet10/c1/throughput_rps"]; !ok {
		t.Errorf("c1 throughput regression missing: %+v", regs)
	}
	if _, ok := byKeyMetric["load/sim90-juliet10/c1/p99_ms"]; !ok {
		t.Errorf("c1 p99 regression missing: %+v", regs)
	}
	for km := range byKeyMetric {
		if km == "bench/fig7/scale1/wall_nanos" ||
			km == "load/sim90-juliet10/c1/throughput_rps" ||
			km == "load/sim90-juliet10/c1/p99_ms" {
			continue
		}
		t.Errorf("unexpected regression %s", km)
	}

	// A generous threshold silences everything.
	if regs := tr.Regressed(500); len(regs) != 0 {
		t.Errorf("threshold 500%% still flagged: %+v", regs)
	}

	// Regressed compares newest vs previous per key: a third run that
	// recovers clears the gate.
	l3 := sampleLoad()
	tr, err = AppendTrajectory(path, LoadPoints("run3", l3)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Regressed(10) {
		if r.Key == "load/sim90-juliet10/c1" {
			t.Errorf("recovered key still regressed: %+v", r)
		}
	}
}

// TestTrajectoryValidation: wrong-schema and corrupt files are
// rejected, and a missing file reads as os.IsNotExist.
func TestTrajectoryValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadTrajectoryFile(filepath.Join(dir, "absent.json")); !os.IsNotExist(err) {
		t.Errorf("absent file: err = %v, want IsNotExist", err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"nope","version":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrajectoryFile(bad); err == nil {
		t.Error("wrong schema accepted")
	}
	if _, err := AppendTrajectory(bad, TrajectoryPoint{Key: "k"}); err == nil {
		t.Error("AppendTrajectory overwrote a foreign file")
	}
}

// TestAppendTrendGatesAppendedKeys: a trend step stamps its points,
// reports the file's total, and returns only regressions on the keys
// it appended — another key's regressed pair in the same file is not
// this run's to report. A zero threshold appends without comparing.
func TestAppendTrendGatesAppendedKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trend.json")
	pt := func(key string, wall int64) TrajectoryPoint {
		return TrajectoryPoint{Key: key, WallNanos: wall}
	}
	if _, err := AppendTrajectory(path, pt("other", 1e9), pt("other", 3e9), pt("mine", 1e9)); err != nil {
		t.Fatal(err)
	}
	n, regs, err := AppendTrend(path, 10, pt("mine", 1e9))
	if err != nil || n != 4 || len(regs) != 0 {
		t.Fatalf("steady run: %d points, regressions %+v, err %v", n, regs, err)
	}
	n, regs, err = AppendTrend(path, 10, pt("mine", 2e9))
	if err != nil || n != 5 || len(regs) != 1 || regs[0].Key != "mine" || regs[0].Metric != "wall_nanos" {
		t.Fatalf("slowed run: %d points, regressions %+v, err %v", n, regs, err)
	}
	if n, regs, err = AppendTrend(path, 0, pt("mine", 9e9)); err != nil || n != 6 || regs != nil {
		t.Fatalf("append-only run: %d points, regressions %+v, err %v", n, regs, err)
	}
	tr, err := ReadTrajectoryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tr.Points[3:] {
		if p.UnixNanos <= 0 {
			t.Errorf("appended point not stamped: %+v", p)
		}
	}
}
