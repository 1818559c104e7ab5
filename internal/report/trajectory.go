package report

import (
	"fmt"
	"os"
	"time"
)

// Trajectory is the cross-run performance trend file: each tracked
// run (a CI job, a release, a local before/after) appends one point
// per measurement key, and the comparator diffs each key's newest
// point against the previous one. The file is the memory the
// wall-clock documents (BenchReport, LoadReport) individually lack —
// a single run says "this took 40s", the trajectory says "and last
// run it took 30s".
type Trajectory struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	// Points is append-only, in arrival order; points of the same Key
	// form that metric's time series.
	Points []TrajectoryPoint `json:"points"`
}

// TrajectoryPoint is one run's measurement under one key.
type TrajectoryPoint struct {
	// Key identifies what was measured — e.g. "bench/fig7/scale1" or
	// "load/sim90-juliet10/c8". Points are only ever compared within a
	// key, so the key must encode every knob that changes the workload.
	Key string `json:"key"`
	// Label names the run that produced the point (a CI run id, a git
	// SHA, "local").
	Label string `json:"label,omitempty"`
	// UnixNanos is when the point was recorded (stamped by the caller).
	UnixNanos int64 `json:"unix_nanos,omitempty"`

	// The tracked measures; zero values mean "not measured" and are
	// never compared. WallNanos and P99Milli regress upward,
	// ThroughputRPS regresses downward.
	WallNanos     int64   `json:"wall_nanos,omitempty"`
	ThroughputRPS float64 `json:"throughput_rps,omitempty"`
	P99Milli      float64 `json:"p99_ms,omitempty"`
	ErrorRate     float64 `json:"error_rate,omitempty"`
}

// BenchPoint folds a harness-timing document into one trajectory
// point keyed by its experiment shape.
func BenchPoint(label string, b *BenchReport) TrajectoryPoint {
	key := fmt.Sprintf("bench/%s/scale%d", b.Exp, b.Scale)
	if b.Fidelity != "" && b.Fidelity != "exact" {
		key += "/" + b.Fidelity
	}
	return TrajectoryPoint{Key: key, Label: label, WallNanos: b.WallNanos}
}

// LoadPoints folds a saturation document into one trajectory point
// per step, keyed by mix and concurrency.
func LoadPoints(label string, l *LoadReport) []TrajectoryPoint {
	base := fmt.Sprintf("load/sim%d-juliet%d", l.Mix.SimPct, l.Mix.JulietPct)
	if l.Fidelity != "" && l.Fidelity != "exact" {
		base += "/" + l.Fidelity
	}
	pts := make([]TrajectoryPoint, 0, len(l.Steps))
	for _, s := range l.Steps {
		pts = append(pts, TrajectoryPoint{
			Key:           fmt.Sprintf("%s/c%d", base, s.Concurrency),
			Label:         label,
			ThroughputRPS: s.ThroughputRPS,
			P99Milli:      s.P99Milli,
			ErrorRate:     s.ErrorRate,
		})
	}
	return pts
}

// AppendTrajectory loads the trend file at path (an absent file is an
// empty trajectory), appends the points, writes it back, and returns
// the updated trajectory.
func AppendTrajectory(path string, pts ...TrajectoryPoint) (*Trajectory, error) {
	t, err := ReadTrajectoryFile(path)
	if os.IsNotExist(err) {
		t, err = &Trajectory{}, nil
	}
	if err != nil {
		return nil, err
	}
	t.Points = append(t.Points, pts...)
	t.Schema = TrajectorySchema
	t.Version = Version
	if err := writeJSON(path, t); err != nil {
		return nil, err
	}
	return t, nil
}

// AppendTrend is one trend step of a tracked run: it stamps pts with
// the current time, appends them to the trend file at path, and
// returns the file's point count. With thresholdPct > 0 it also
// returns the regressions past that threshold on the keys this run
// appended — older pairs in a shared trend file are someone else's
// history.
func AppendTrend(path string, thresholdPct float64, pts ...TrajectoryPoint) (int, []TrajectoryRegression, error) {
	now := time.Now().UnixNano()
	appended := make(map[string]bool, len(pts))
	for i := range pts {
		pts[i].UnixNanos = now
		appended[pts[i].Key] = true
	}
	t, err := AppendTrajectory(path, pts...)
	if err != nil {
		return 0, nil, err
	}
	if thresholdPct <= 0 {
		return len(t.Points), nil, nil
	}
	var regs []TrajectoryRegression
	for _, r := range t.Regressed(thresholdPct) {
		if appended[r.Key] {
			regs = append(regs, r)
		}
	}
	return len(t.Points), regs, nil
}

// ReadTrajectoryFile loads and validates a trend file. A missing file
// returns the underlying os.IsNotExist error.
func ReadTrajectoryFile(path string) (*Trajectory, error) {
	var t Trajectory
	if err := readDocument(path, TrajectorySchema, &t); err != nil {
		return nil, err
	}
	return &t, nil
}

// TrajectoryRegression is one comparator finding: a key whose newest
// point moved the wrong way past the threshold against its previous
// point.
type TrajectoryRegression struct {
	Key    string  `json:"key"`
	Metric string  `json:"metric"` // "wall_nanos" | "throughput_rps" | "p99_ms"
	Prev   float64 `json:"prev"`
	Curr   float64 `json:"curr"`
	// DeltaPct is the signed percent change, oriented so positive is
	// always worse (slower, less throughput).
	DeltaPct float64 `json:"delta_pct"`
}

// Regressed compares, for every key with at least two points, the
// newest point against the one before it, and reports each measure
// that moved more than thresholdPct in the bad direction. Measures a
// point does not carry (zero values) are skipped, so mixed bench/load
// trajectories compare cleanly.
func (t *Trajectory) Regressed(thresholdPct float64) []TrajectoryRegression {
	last := make(map[string][2]*TrajectoryPoint) // [previous, newest]
	var keys []string
	for i := range t.Points {
		p := &t.Points[i]
		pair, seen := last[p.Key]
		if !seen {
			keys = append(keys, p.Key)
		}
		last[p.Key] = [2]*TrajectoryPoint{pair[1], p}
	}
	var out []TrajectoryRegression
	for _, key := range keys {
		pair := last[key]
		prev, curr := pair[0], pair[1]
		if prev == nil {
			continue
		}
		// Upward-bad measures.
		for _, m := range []struct {
			name       string
			prev, curr float64
		}{
			{"wall_nanos", float64(prev.WallNanos), float64(curr.WallNanos)},
			{"p99_ms", prev.P99Milli, curr.P99Milli},
		} {
			if m.prev <= 0 || m.curr <= 0 {
				continue
			}
			if delta := 100 * (m.curr - m.prev) / m.prev; delta > thresholdPct {
				out = append(out, TrajectoryRegression{
					Key: key, Metric: m.name, Prev: m.prev, Curr: m.curr, DeltaPct: delta,
				})
			}
		}
		// Downward-bad measure.
		if prev.ThroughputRPS > 0 && curr.ThroughputRPS > 0 {
			if delta := 100 * (prev.ThroughputRPS - curr.ThroughputRPS) / prev.ThroughputRPS; delta > thresholdPct {
				out = append(out, TrajectoryRegression{
					Key: key, Metric: "throughput_rps",
					Prev: prev.ThroughputRPS, Curr: curr.ThroughputRPS, DeltaPct: delta,
				})
			}
		}
	}
	return out
}
