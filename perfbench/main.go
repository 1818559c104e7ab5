// Command perfbench is the repository benchmark: it measures what a
// user of watchdog waits on — regenerating Figure 7 through the
// experiments runner, and fetching cells from the simulation service —
// and, in a separate traced run, where the time goes layer by layer.
// See README.md in this directory for the workloads and metrics.
//
//	perfbench --workload sweep-exact --seed 1 --seconds 55 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any output check that fails
// exits non-zero without printing it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"watchdog/internal/sim"
)

// The workloads. Their parameters are part of the benchmark's
// definition: changing one starts a new baseline. README.md (Traffic
// parameters) says what set each of serveMixed's.
var (
	sweepExact = sweepSpec{Fidelity: sim.FidelityExact, Scale: 2}
	serveMixed = serveSpec{
		Rate:         30,
		ZipfS:        1.7,
		JulietShare:  0.2,
		Tenants:      3,
		Pairs:        8,
		CacheEntries: 16,
		StoreMB:      1,
		PrimeBytes:   1<<20 - 8<<10,
		Limit:        250 * time.Millisecond,
	}
	// companionSweep gives the serve-mixed traced run its runner and
	// model figures; companionServeSeconds sizes the serve pass that
	// gives the sweeps' traced runs their serve and store figures.
	companionSweep        = sweepSpec{Fidelity: sim.FidelityExact, Scale: 1}
	companionServeSeconds = 6.0
	// serveLayerScale is the scale of the build/profile timings in the
	// serve-mixed traced run (the largest scale it requests).
	serveLayerScale = 4
)

var workloadNames = []string{"sweep-exact", "serve-mixed"}

// gatedE2E are the end-to-end metrics of the result line, the ones
// BENCHMARK.json bounds. Every run prints and records the others too:
// the simulation-speed figures (sweep_wall_s, sim_mips, the sweeps'
// req_*, cold_*) and the tails. Their run-to-run spread on the host the
// benchmark was defined on is wider than the largest bound a gate may
// have, so they are compared in paired runs instead (see README.md).
var gatedE2E = []string{"hit_p50_ms", "within_limit_ratio", "peak_rss_mb", "setup_s"}

// metric is one reported figure.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Dist  *Dist   `json:"dist,omitempty"`
}

// outcome is one workload run's result.
type outcome struct {
	Workload  string   `json:"workload"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   []metric `json:"metrics"`
	// Notes carries run facts that are not metrics (answer-path
	// cross-checks, sweep counts).
	Notes map[string]any `json:"notes,omitempty"`
}

func (o *outcome) add(name, unit string, v float64) {
	o.Metrics = append(o.Metrics, metric{Name: name, Unit: unit, Value: v})
}

// addDist reports a distribution's median, or its tail when tail is set.
func (o *outcome) addDist(name, unit string, d Dist, tail bool) {
	v := d.Median
	if tail {
		v = d.Tail
	}
	dd := d
	o.Metrics = append(o.Metrics, metric{Name: name, Unit: unit, Value: v, Dist: &dd})
}

func (o *outcome) note(k string, v any) {
	if o.Notes == nil {
		o.Notes = make(map[string]any)
	}
	o.Notes[k] = v
}

// bench carries one invocation's settings.
type bench struct {
	root    string
	state   string // build/run output directory inside the checkout
	seed    int64
	seconds float64
	jobs    int
	ref     reference
}

func main() {
	workloadFlag := flag.String("workload", "", "workload: "+strings.Join(workloadNames, "|")+"|all")
	seed := flag.Int64("seed", 1, "seed of the serve-mixed schedule")
	seconds := flag.Float64("seconds", 55, "how long one run measures")
	traced := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	root := flag.String("root", ".", "repository checkout root")
	writeRef := flag.Bool("write-reference", false, "record the output-check reference digests and exit")
	flag.Parse()

	b := &bench{
		root:    *root,
		state:   filepath.Join(*root, ".bench_build", "perfbench"),
		seed:    *seed,
		seconds: *seconds,
		jobs:    runtime.NumCPU(),
	}
	if err := os.MkdirAll(b.state, 0o755); err != nil {
		fail(err)
	}
	refPath := filepath.Join(*root, "perfbench", "reference.json")
	if *writeRef {
		if err := writeReference(context.Background(), refPath); err != nil {
			fail(err)
		}
		return
	}
	ref, err := loadReference(refPath)
	if err != nil {
		fail(err)
	}
	b.ref = ref

	names := []string{*workloadFlag}
	if *workloadFlag == "all" {
		names = workloadNames
	}
	total := map[string]any{"correct": true, "attempted": 0, "failed": 0}
	all := map[string]any{}
	var last map[string]any
	for _, name := range names {
		if len(names) > 1 {
			// Hand the last workload's heap back to the kernel first, or
			// the reset peak would start from its resident pages.
			debug.FreeOSMemory()
			if err := resetPeakRSS(); err != nil {
				fail(fmt.Errorf("resetting the peak resident set: %w", err))
			}
		}
		o, err := b.run(name, *traced == 1)
		if err != nil {
			fail(fmt.Errorf("%s: %w", name, err))
		}
		b.writeRecord(o, *traced == 1)
		printTable(o)
		if *traced == 0 {
			o.Metrics = gated(o.Metrics)
		}
		last = resultLine(o)
		total["attempted"] = total["attempted"].(int) + o.Attempted
		total["failed"] = total["failed"].(int) + o.Failed
		for _, m := range o.Metrics {
			all[name+"/"+m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
		if len(names) > 1 {
			printJSON(last)
		}
	}
	if len(names) > 1 {
		total["metrics"] = all
		last = total
	}
	printJSON(last)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func (b *bench) run(name string, traced bool) (*outcome, error) {
	ctx := context.Background()
	switch name {
	case "sweep-exact":
		if traced {
			return b.tracedSweep(ctx, name, sweepExact)
		}
		return b.sweepWorkload(ctx, name, sweepExact)
	case "serve-mixed":
		if traced {
			return b.tracedServe(ctx, name)
		}
		return b.serveWorkload(ctx, name)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s, all)", name, strings.Join(workloadNames, ", "))
}

// timeSetups times set-up n times and returns the samples in seconds.
func timeSetups(n int, setup func() error) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// sweepWorkload is an untraced sweep run: fresh-runner fig7 sweeps
// back to back until the run's time is spent (at least one).
func (b *bench) sweepWorkload(ctx context.Context, name string, spec sweepSpec) (*outcome, error) {
	// A runner is cheap to build, so one set-up sample is the mean of a
	// batch; the median of the samples is reported.
	const batch = 2000
	runtime.GC()
	setup, err := timeSetups(31, func() error {
		for i := 0; i < batch; i++ {
			if _, err := newSweepRunner(spec, b.jobs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range setup {
		setup[i] /= batch
	}

	var runs []*sweepResult
	start := time.Now()
	for {
		runtime.GC()
		res, err := runSweep(ctx, spec, b.jobs)
		if err != nil {
			return nil, err
		}
		if err := b.ref.checkSweep(spec, res.Digest); err != nil {
			return nil, err
		}
		runs = append(runs, res)
		// Stop unless one more sweep of average length would end less
		// than half a sweep past the run's time.
		el := time.Since(start)
		if el+el/time.Duration(2*len(runs)) >= time.Duration(b.seconds*float64(time.Second)) {
			break
		}
	}
	rss := peakRSSMB()

	o := &outcome{Workload: name}
	var walls, mips, avail, hits []float64
	within := 0
	for _, r := range runs {
		insts := sumModel(r.Report).Insts
		walls = append(walls, r.Wall.Seconds())
		mips = append(mips, float64(insts)/r.Wall.Seconds()/1e6)
		avail = append(avail, msList(r.Avail)...)
		hits = append(hits, msList(r.Hits)...)
		for _, a := range r.Avail {
			if a <= sweepLimit {
				within++
			}
		}
		o.Attempted += len(r.Avail)
	}
	commonE2E(o, e2e{
		wall: summarize(walls, 0), mips: summarize(mips, 0),
		req: summarize(avail, 99), hit: summarize(hits, 99),
		within: float64(within) / float64(o.Attempted), rss: rss, setup: summarize(setup, 0),
	})
	o.note("sweeps", len(runs))
	return o, nil
}

// e2e holds one run's end-to-end figures before they are named.
type e2e struct {
	wall, mips, req, hit, cold, setup Dist
	within, rss                       float64
}

// commonE2E reports a workload's end-to-end metrics: sweep_wall_s
// only for sweeps, and cold_* only where answers ran a computation of
// their own, which only serve-mixed times.
func commonE2E(o *outcome, e e2e) {
	if e.wall.N > 0 {
		o.addDist("sweep_wall_s", "s", e.wall, false)
	}
	o.addDist("sim_mips", "Minst/s", e.mips, false)
	o.addDist("req_p50_ms", "ms", e.req, false)
	o.addDist("req_p99_ms", "ms", e.req, true)
	o.addDist("hit_p50_ms", "ms", e.hit, false)
	o.addDist("hit_p99_ms", "ms", e.hit, true)
	if e.cold.N > 0 {
		o.addDist("cold_p50_ms", "ms", e.cold, false)
		o.addDist("cold_p90_ms", "ms", e.cold, true)
	}
	o.add("within_limit_ratio", "ratio", e.within)
	o.add("peak_rss_mb", "MB", e.rss)
	o.addDist("setup_s", "s", e.setup, false)
}

// serveWorkload is an untraced serve-mixed run.
func (b *bench) serveWorkload(ctx context.Context, name string) (*outcome, error) {
	dir := filepath.Join(b.state, "store-"+name)
	var env *serveEnv
	setup, err := timeSetups(21, func() error {
		if env != nil {
			env.stop()
		}
		var err error
		env, err = startServer(serveMixed, dir, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	sched := buildSchedule(serveMixed, b.seed, b.seconds)
	p, err := runServePass(env, serveMixed, sched, b.jobs, nil, "m", false)
	env.stop()
	if err != nil {
		return nil, err
	}
	if err := verifyServe(ctx, []*servePass{p}, b.jobs); err != nil {
		return nil, err
	}
	o := &outcome{Workload: name}
	serveE2E(o, p, summarize(setup, 0))
	return o, nil
}

// serveE2E reports a serve pass's end-to-end metrics.
func serveE2E(o *outcome, p *servePass, setup Dist) {
	var req, hit, cold []float64
	within := 0
	for i, a := range p.Ans {
		r := p.Sched[i]
		lat := ms(a.latency(r))
		req = append(req, lat)
		switch p.Paths[i] {
		case pathLRU, pathStore:
			hit = append(hit, lat)
		case pathCold:
			cold = append(cold, lat)
		case pathFailed:
			o.Failed++
		}
		if a.ok() && a.latency(r) <= serveMixed.Limit {
			within++
		}
	}
	o.Attempted = len(p.Ans)
	commonE2E(o, e2e{
		mips: summarize(p.SimMIPS, 0),
		req:  summarize(req, 99), hit: summarize(hit, 99), cold: summarize(cold, 90),
		within: float64(within) / float64(o.Attempted), rss: p.RSSMB, setup: setup,
	})
	o.note("fail_ratio", float64(o.Failed)/float64(o.Attempted))
	o.note("last_answer_s", p.Wall.Seconds())
	o.note("paths", pathCounts(p.Paths))
	m := p.Metrics
	o.note("server_counters", map[string]int64{
		"lru_hits": m.Store.CacheHits, "disk_hits": m.Store.DiskHits,
		"coalesced": m.Coalesced, "sims": int64(m.Harness.Sims),
		"disk_evictions": m.Store.DiskEvictions, "disk_writes": m.Store.DiskWrites,
	})
}

func pathCounts(paths []answerPath) map[string]int {
	out := make(map[string]int)
	for _, p := range paths {
		out[p.String()]++
	}
	return out
}

// printTable prints every metric with its unit and spread.
func printTable(o *outcome) {
	fmt.Printf("# %s: attempted %d, failed %d\n", o.Workload, o.Attempted, o.Failed)
	for _, m := range o.Metrics {
		line := fmt.Sprintf("%-26s %14.6g %-8s", m.Name, m.Value, m.Unit)
		if d := m.Dist; d != nil {
			line += fmt.Sprintf(" n=%d median=%.6g q1=%.6g q3=%.6g", d.N, d.Median, d.Q1, d.Q3)
			if d.TailPct > 0 {
				line += fmt.Sprintf(" tail=p%.4g (%d beyond)", d.TailPct, d.Beyond)
			}
		}
		fmt.Println(line)
	}
	keys := make([]string, 0, len(o.Notes))
	for k := range o.Notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b, _ := json.Marshal(o.Notes[k])
		fmt.Printf("# %s: %s\n", k, b)
	}
}

// gated keeps the metrics of gatedE2E, in that order.
func gated(ms []metric) []metric {
	byName := make(map[string]metric, len(ms))
	for _, m := range ms {
		byName[m.Name] = m
	}
	out := make([]metric, 0, len(gatedE2E))
	for _, name := range gatedE2E {
		out = append(out, byName[name])
	}
	return out
}

func resultLine(o *outcome) map[string]any {
	ms := make(map[string]any, len(o.Metrics))
	for _, m := range o.Metrics {
		ms[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{"correct": true, "attempted": o.Attempted, "failed": o.Failed, "metrics": ms}
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

// writeRecord stores the full run record — provenance, every metric's
// distribution, notes — under the state directory.
func (b *bench) writeRecord(o *outcome, traced bool) {
	dir := filepath.Join(b.state, "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: record:", err)
		return
	}
	rec := map[string]any{
		"schema":  "perfbench-run",
		"version": 1,
		"host":    readHost(b.root),
		"seed":    b.seed,
		"seconds": b.seconds,
		"trace":   traced,
		"time":    time.Now().UTC().Format(time.RFC3339),
		"outcome": o,
	}
	data, _ := json.MarshalIndent(rec, "", "  ")
	t := 0
	if traced {
		t = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", o.Workload, b.seed, t))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: record:", err)
	}
}
