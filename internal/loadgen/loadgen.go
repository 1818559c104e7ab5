// Package loadgen is the saturation harness behind `watchdog-serve
// -load`: a deterministic mixed-traffic generator that sweeps stepped
// concurrency levels against one watchdog-serve instance and reports
// the offered-load → throughput/latency/error curve as a versioned
// `watchdog-load` document (report.LoadReport).
//
// The traffic sequence is deterministic: a seeded PRNG draws each
// request's kind (sim or juliet) from the configured mix before any
// worker starts, so two sweeps with the same spec offer byte-identical
// request sequences — the measured latencies differ (they are wall
// clock), the offered work does not.
//
// Backpressure answers (429) are counted as rejected, not failed: a
// server deliberately shedding load at saturation is the mechanism
// working, and the curve's interesting shape is exactly where
// RejectedBusy starts climbing. Everything else non-200 is an error.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"watchdog/internal/report"
	"watchdog/internal/serve"
	"watchdog/internal/stats"
)

// Spec configures one saturation sweep. Zero values take defaults.
type Spec struct {
	// Target is the server's base URL (schemeless host:port accepted).
	Target string
	// Steps are the concurrency levels to sweep, in order (default
	// {1, 2, 4}).
	Steps []int
	// PerStep is how many requests each step offers (default 8 × the
	// step's concurrency).
	PerStep int
	// Mix is the traffic composition (defaults to 100% sim). Percents
	// must sum to 100.
	Mix report.LoadMix
	// Seed drives the deterministic kind sequence.
	Seed int64

	// Sim request template.
	Workload string // default "mcf"
	Config   string // default "conservative"
	Scale    int    // default 1
	Fidelity string // "" = exact
	Overhead bool

	// Juliet request template.
	Policy  string // default "watchdog"
	TagBits int

	// TimeoutMS is stamped on every request (0 = server default).
	TimeoutMS int64

	// APIKey, when set, rides every request as `Authorization: Bearer`
	// so saturation runs work against an authed gateway.
	APIKey string

	// Client overrides the HTTP client.
	Client *http.Client
}

func (s Spec) withDefaults() (Spec, error) {
	if !strings.Contains(s.Target, "://") {
		s.Target = "http://" + s.Target
	}
	if len(s.Steps) == 0 {
		s.Steps = []int{1, 2, 4}
	}
	for _, c := range s.Steps {
		if c < 1 {
			return s, fmt.Errorf("loadgen: concurrency step %d < 1", c)
		}
	}
	if s.Mix == (report.LoadMix{}) {
		s.Mix = report.LoadMix{SimPct: 100}
	}
	if s.Mix.SimPct < 0 || s.Mix.JulietPct < 0 || s.Mix.SimPct+s.Mix.JulietPct != 100 {
		return s, fmt.Errorf("loadgen: mix sim=%d%% juliet=%d%% must sum to 100", s.Mix.SimPct, s.Mix.JulietPct)
	}
	if s.Workload == "" {
		s.Workload = "mcf"
	}
	if s.Config == "" {
		s.Config = "conservative"
	}
	if s.Scale == 0 {
		s.Scale = 1
	}
	if s.Policy == "" {
		s.Policy = "watchdog"
	}
	if s.Client == nil {
		s.Client = &http.Client{}
	}
	return s, nil
}

// genReq is one precomputed request: where to send it and what.
type genReq struct {
	path string
	body []byte
}

// sequence precomputes one step's deterministic request list.
func (s Spec) sequence(step, n int) ([]genReq, error) {
	simBody, err := json.Marshal(&serve.SimRequest{
		Workload:  s.Workload,
		Config:    s.Config,
		Scale:     s.Scale,
		Fidelity:  s.Fidelity,
		Overhead:  s.Overhead,
		TimeoutMS: s.TimeoutMS,
	})
	if err != nil {
		return nil, err
	}
	julietBody, err := json.Marshal(&serve.JulietRequest{
		Policy:    s.Policy,
		TagBits:   s.TagBits,
		TimeoutMS: s.TimeoutMS,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.Seed + int64(step)))
	seq := make([]genReq, n)
	for i := range seq {
		if rng.Intn(100) < s.Mix.SimPct {
			seq[i] = genReq{path: "/v1/sim", body: simBody}
		} else {
			seq[i] = genReq{path: "/v1/juliet", body: julietBody}
		}
	}
	return seq, nil
}

// Run executes the sweep: each step offers its request sequence over
// its concurrency level, and the measurements land in one LoadReport
// (steps in sweep order). A canceled context aborts mid-sweep with
// the context error; completed steps are lost — a saturation record
// is only meaningful whole.
func Run(ctx context.Context, spec Spec) (*report.LoadReport, error) {
	spec, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}
	out := &report.LoadReport{
		Target:   spec.Target,
		Mix:      spec.Mix,
		Fidelity: spec.Fidelity,
		TagBits:  spec.TagBits,
	}
	if spec.Mix.JulietPct > 0 {
		out.Policy = spec.Policy
	}
	for stepIdx, conc := range spec.Steps {
		offered := spec.PerStep
		if offered <= 0 {
			offered = 8 * conc
		}
		seq, err := spec.sequence(stepIdx, offered)
		if err != nil {
			return nil, err
		}
		step, err := runStep(ctx, spec.Client, spec.Target, spec.APIKey, conc, seq)
		if err != nil {
			return nil, err
		}
		out.Steps = append(out.Steps, step)
	}
	return out, nil
}

// runStep fires one step's precomputed sequence over conc workers.
func runStep(ctx context.Context, client *http.Client, base, apiKey string, conc int, seq []genReq) (report.LoadStep, error) {
	step := report.LoadStep{Concurrency: conc, Offered: int64(len(seq))}
	var (
		mu   sync.Mutex
		lats []time.Duration
	)
	var ok, rejected, failed int64
	record := func(status int, lat time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case status == http.StatusOK:
			ok++
			lats = append(lats, lat)
		case status == http.StatusTooManyRequests:
			rejected++
		default:
			failed++
		}
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				start := time.Now()
				req, err := http.NewRequestWithContext(ctx, http.MethodPost,
					base+seq[i].path, bytes.NewReader(seq[i].body))
				if err != nil {
					record(-1, 0)
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				if apiKey != "" {
					req.Header.Set("Authorization", "Bearer "+apiKey)
				}
				resp, err := client.Do(req)
				if err != nil {
					record(-1, 0)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				record(resp.StatusCode, time.Since(start))
			}
		}()
	}
	start := time.Now()
	for i := range seq {
		select {
		case idx <- i:
		case <-ctx.Done():
			close(idx)
			wg.Wait()
			return step, ctx.Err()
		}
	}
	close(idx)
	wg.Wait()
	wall := time.Since(start)

	step.OK, step.RejectedBusy, step.Errors = ok, rejected, failed
	step.WallNanos = wall.Nanoseconds()
	if step.Offered > 0 {
		step.ErrorRate = float64(step.Errors) / float64(step.Offered)
	}
	if sec := wall.Seconds(); sec > 0 {
		step.ThroughputRPS = float64(ok) / sec
	}
	if len(lats) > 0 {
		step.P50Milli, step.P99Milli = percentiles(lats)
	}
	return step, nil
}

// percentiles sorts lats in place and reads their nearest-rank p50
// and p99 in milliseconds.
func percentiles(lats []time.Duration) (p50, p99 float64) {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return stats.PercentileMilli(lats, 50), stats.PercentileMilli(lats, 99)
}

// ParseMix parses a "sim=90,juliet=10" mix string. Omitted parts are
// zero; "sim=100" alone is valid.
func ParseMix(s string) (report.LoadMix, error) {
	var m report.LoadMix
	if strings.TrimSpace(s) == "" {
		return report.LoadMix{SimPct: 100}, nil
	}
	for _, part := range strings.Split(s, ",") {
		name, val, found := strings.Cut(strings.TrimSpace(part), "=")
		if !found {
			return m, fmt.Errorf("mix part %q: want name=percent", part)
		}
		var pct int
		if _, err := fmt.Sscanf(val, "%d", &pct); err != nil {
			return m, fmt.Errorf("mix part %q: %w", part, err)
		}
		switch name {
		case "sim":
			m.SimPct = pct
		case "juliet":
			m.JulietPct = pct
		default:
			return m, fmt.Errorf("mix part %q: unknown kind (sim|juliet)", part)
		}
	}
	return m, nil
}

// ParseSteps parses a "1,2,4,8" concurrency-step list.
func ParseSteps(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var steps []int
	for _, part := range strings.Split(s, ",") {
		var c int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &c); err != nil {
			return nil, fmt.Errorf("steps part %q: %w", part, err)
		}
		if c < 1 {
			return nil, fmt.Errorf("steps part %q: concurrency must be >= 1", part)
		}
		steps = append(steps, c)
	}
	return steps, nil
}
