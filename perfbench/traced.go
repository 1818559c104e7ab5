package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"watchdog/internal/serve"
)

// perLayer lists every metric a traced run prints, in order, with its
// unit. BENCHMARK.json declares the same list.
var perLayer = []struct{ name, unit string }{
	{"runner.cell_ms_p50", "ms"},
	{"runner.cell_ms_max", "ms"},
	{"runner.tail_idle_s", "s"},
	{"runner.parallel_eff", "ratio"},
	{"runner.sims", "count"},
	{"runner.profiles", "count"},
	{"runner.cache_hits", "count"},
	{"build.ms_total", "ms"},
	{"profile.ms_total", "ms"},
	{"functional.ns_per_inst", "ns"},
	{"core.ns_per_inst", "ns"},
	{"isa.crack_ns_per_inst", "ns"},
	{"timing.ns_per_uop", "ns"},
	{"warm.ns_per_inst", "ns"},
	{"cache.ns_per_access", "ns"},
	{"cache.new_hierarchy_us", "us"},
	{"bpred.ns_per_branch", "ns"},
	{"model.insts", "count"},
	{"model.uops", "count"},
	{"model.cycles", "count"},
	{"model.l1d_misses", "count"},
	{"model.lock_misses", "count"},
	{"model.checks", "count"},
	{"juliet.ms_per_suite", "ms"},
	{"serve.lru_hit_ms_p50", "ms"},
	{"serve.store_hit_ms_p50", "ms"},
	{"serve.coalesced_ms_p50", "ms"},
	{"serve.handler_hit_us", "us"},
	{"serve.cold_share", "ratio"},
	{"serve.coalesced_share", "ratio"},
	{"serve.lru_share", "ratio"},
	{"serve.store_share", "ratio"},
	{"serve.sims", "count"},
	{"serve.rejected", "count"},
	{"store.write_us_p50", "us"},
	{"store.read_us_p50", "us"},
	{"store.evictions", "count"},
	{"client.lag_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// layerValues collects a traced run's figures by name before they are
// emitted in perLayer order.
type layerValues map[string]float64

// emit appends every per-layer metric to o, failing if one is missing.
func (lv layerValues) emit(o *outcome) error {
	for _, m := range perLayer {
		v, ok := lv[m.name]
		if !ok {
			return fmt.Errorf("traced run did not measure %s", m.name)
		}
		o.add(m.name, m.unit, v)
	}
	return nil
}

// tracedSweep is a sweep workload's traced run: one untraced and one
// traced sweep (their difference is the tracing overhead, and their
// reports must agree), a short serve-mixed pass for the serve and
// store figures, and the layer suite.
func (b *bench) tracedSweep(ctx context.Context, name string, spec sweepSpec) (*outcome, error) {
	tr := newTracer()
	runtime.GC()
	un, err := runTracedSweep(ctx, spec, b.jobs, nil, "untraced")
	if err != nil {
		return nil, err
	}
	if err := b.ref.checkSweep(spec, un.Digest); err != nil {
		return nil, err
	}
	runtime.GC()
	tx, err := runTracedSweep(ctx, spec, b.jobs, tr, "traced")
	if err != nil {
		return nil, err
	}
	if tx.Digest != un.Digest {
		return nil, fmt.Errorf("output check: traced sweep report %s differs from untraced %s", tx.Digest, un.Digest)
	}
	o := &outcome{Workload: name, Attempted: len(un.Avail) + len(tx.Avail)}
	lv := layerValues{}
	if err := runnerLayer(lv, tr, tx, "traced", b.jobs); err != nil {
		return nil, err
	}
	sched := buildSchedule(serveMixed, b.seed, companionServeSeconds)
	env, err := startServer(serveMixed, filepath.Join(b.state, "store-"+name), tr)
	if err != nil {
		return nil, err
	}
	sp, err := runServePass(env, serveMixed, sched, b.jobs, tr, "c", true)
	env.stop()
	if err != nil {
		return nil, err
	}
	if err := verifyServe(ctx, []*servePass{sp}, b.jobs); err != nil {
		return nil, err
	}
	o.Attempted += len(sp.Ans)
	o.Failed += pathCounts(sp.Paths)[pathFailed.String()]
	if err := b.serveLayer(lv, tr, sp); err != nil {
		return nil, err
	}
	if err := b.layerSuite(ctx, lv, spec.Scale, tr); err != nil {
		return nil, err
	}
	lv["trace.overhead_pct"] = 100 * (tx.Wall.Seconds() - un.Wall.Seconds()) / un.Wall.Seconds()
	o.note("untraced_wall_s", un.Wall.Seconds())
	o.note("traced_wall_s", tx.Wall.Seconds())
	return o, b.finishTraced(o, lv, tr)
}

// tracedServe is serve-mixed's traced run: one untraced and one traced
// pass over the same half-length schedule (their median latencies give
// the tracing overhead), a small fig7 sweep for the runner and model
// figures, and the layer suite.
func (b *bench) tracedServe(ctx context.Context, name string) (*outcome, error) {
	tr := newTracer()
	sched := buildSchedule(serveMixed, b.seed, b.seconds/2)
	dir := filepath.Join(b.state, "store-"+name)
	var passes []*servePass
	for _, t := range []*Tracer{nil, tr} {
		env, err := startServer(serveMixed, dir, t)
		if err != nil {
			return nil, err
		}
		label := "u"
		if t != nil {
			label = "t"
		}
		p, err := runServePass(env, serveMixed, sched, b.jobs, t, label, t != nil)
		env.stop()
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	if err := verifyServe(ctx, passes, b.jobs); err != nil {
		return nil, err
	}
	o := &outcome{Workload: name}
	for _, p := range passes {
		o.Attempted += len(p.Ans)
		o.Failed += pathCounts(p.Paths)[pathFailed.String()]
	}
	lv := layerValues{}
	if err := b.serveLayer(lv, tr, passes[1]); err != nil {
		return nil, err
	}
	runtime.GC()
	cs, err := runTracedSweep(ctx, companionSweep, b.jobs, tr, "companion")
	if err != nil {
		return nil, err
	}
	if err := b.ref.checkSweep(companionSweep, cs.Digest); err != nil {
		return nil, err
	}
	o.Attempted += len(cs.Avail)
	if err := runnerLayer(lv, tr, cs, "companion", b.jobs); err != nil {
		return nil, err
	}
	if err := b.layerSuite(ctx, lv, serveLayerScale, tr); err != nil {
		return nil, err
	}
	un, tx := reqMedian(passes[0]), reqMedian(passes[1])
	lv["trace.overhead_pct"] = 100 * (tx - un) / un
	o.note("untraced_req_p50_ms", un)
	o.note("traced_req_p50_ms", tx)
	return o, b.finishTraced(o, lv, tr)
}

func reqMedian(p *servePass) float64 {
	var xs []float64
	for i, a := range p.Ans {
		xs = append(xs, ms(a.latency(p.Sched[i])))
	}
	return summarize(xs, 0).Median
}

// finishTraced emits the per-layer metrics and writes the spans out.
func (b *bench) finishTraced(o *outcome, lv layerValues, tr *Tracer) error {
	if err := lv.emit(o); err != nil {
		return err
	}
	dir := filepath.Join(b.state, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.Workload, b.seed))
	if err := tr.WriteJSONL(path); err != nil {
		return err
	}
	o.note("spans", path)
	o.note("span_self_ms", selfByName(tr.Spans()))
	return nil
}

// selfByName sums span self time per span name, in milliseconds.
func selfByName(spans []Span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += ms(self[s.ID])
	}
	return out
}

// runnerLayer derives the experiments-layer figures of one traced sweep
// from its spans: the Runner.RunCtx cell spans under the sweep's root.
func runnerLayer(lv layerValues, tr *Tracer, res *sweepResult, label string, jobs int) error {
	spans := tr.Spans()
	var root *Span
	for i := range spans {
		if spans[i].Name == "sweep" && spans[i].Group == label {
			root = &spans[i]
		}
	}
	if root == nil {
		return fmt.Errorf("no sweep span %q", label)
	}
	var cells []float64
	var ivs [][2]int64
	var busy int64
	lo, hi := int64(-1), int64(0)
	for _, s := range spans {
		if s.Parent != root.ID || s.Name != "Runner.RunCtx" {
			continue
		}
		cells = append(cells, ms(s.Dur()))
		ivs = append(ivs, [2]int64{s.Start, s.End})
		busy += s.End - s.Start
		if lo < 0 || s.Start < lo {
			lo = s.Start
		}
		hi = max(hi, s.End)
	}
	if len(cells) == 0 {
		return fmt.Errorf("sweep %q has no cell spans", label)
	}
	sort.Float64s(cells)
	lv["runner.cell_ms_p50"] = median(cells)
	lv["runner.cell_ms_max"] = cells[len(cells)-1]
	lv["runner.tail_idle_s"] = float64(underOccupied(lo, hi, ivs, jobs)) / 1e9
	lv["runner.parallel_eff"] = float64(busy) / (float64(root.End-root.Start) * float64(jobs))
	lv["runner.sims"] = float64(res.Sims)
	lv["runner.profiles"] = float64(res.Profiles)
	lv["runner.cache_hits"] = float64(res.CacheHits)
	m := sumModel(res.Report)
	lv["model.insts"] = float64(m.Insts)
	lv["model.uops"] = float64(m.Uops)
	lv["model.cycles"] = float64(m.Cycles)
	lv["model.l1d_misses"] = float64(m.L1DMisses)
	lv["model.lock_misses"] = float64(m.LockMisses)
	lv["model.checks"] = float64(m.Checks)
	return nil
}

// serveLayer derives the serve, store and client figures of one traced
// serve pass.
func (b *bench) serveLayer(lv layerValues, tr *Tracer, p *servePass) error {
	byPath := make(map[answerPath][]float64)
	var lags []float64
	for i, a := range p.Ans {
		r := p.Sched[i]
		byPath[p.Paths[i]] = append(byPath[p.Paths[i]], ms(a.latency(r)))
		lags = append(lags, ms(a.lag(r)))
	}
	n := float64(len(p.Ans))
	lv["serve.lru_hit_ms_p50"] = summarize(byPath[pathLRU], 0).Median
	lv["serve.store_hit_ms_p50"] = summarize(byPath[pathStore], 0).Median
	lv["serve.coalesced_ms_p50"] = summarize(byPath[pathCoalesced], 0).Median
	lv["serve.cold_share"] = float64(len(byPath[pathCold])) / n
	lv["serve.coalesced_share"] = float64(len(byPath[pathCoalesced])) / n
	lv["serve.lru_share"] = float64(len(byPath[pathLRU])) / n
	lv["serve.store_share"] = float64(len(byPath[pathStore])) / n
	var hh []float64
	for _, d := range p.HandlerHit {
		hh = append(hh, float64(d)/1e3)
	}
	lv["serve.handler_hit_us"] = summarize(hh, 0).Median
	m := p.Metrics
	lv["serve.sims"] = float64(m.Harness.Sims)
	lv["serve.rejected"] = float64(m.RejectedBusy + m.RejectedDraining + m.RejectedUnauthorized + m.RejectedLimited)
	lv["store.evictions"] = float64(m.Store.DiskEvictions)
	lv["client.lag_p99_ms"] = summarize(lags, 99).Tail

	w, r, err := replayStore(filepath.Join(b.state, "store-replay"), p, tr)
	if err != nil {
		return err
	}
	lv["store.write_us_p50"] = summarize(w, 0).Median
	lv["store.read_us_p50"] = summarize(r, 0).Median
	return nil
}

// replayStore times Store.Write over the pass's successful (key, body)
// answers in answer order, into a store primed like the server's, then
// Store.Read over the same keys. It returns microseconds per call.
func replayStore(dir string, p *servePass, tr *Tracer) (writes, reads []float64, err error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	st, err := serve.OpenStore(dir, serveMixed.StoreMB)
	if err != nil {
		return nil, nil, err
	}
	if err := primeStore(st, serveMixed.PrimeBytes); err != nil {
		return nil, nil, err
	}
	idx := make([]int, 0, len(p.Ans))
	for i, a := range p.Ans {
		if a.ok() {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(x, y int) bool { return p.Ans[idx[x]].Done < p.Ans[idx[y]].Done })
	id := tr.Begin("Store.Write", "store-replay", 0)
	for _, i := range idx {
		body := bytes.TrimSuffix(p.Ans[i].Body, []byte{'\n'})
		t0 := time.Now()
		st.Write(p.Sched[i].Key, body)
		writes = append(writes, float64(time.Since(t0))/1e3)
	}
	tr.End(id)
	id = tr.Begin("Store.Read", "store-replay", 0)
	for _, i := range idx {
		t0 := time.Now()
		st.Read(p.Sched[i].Key)
		reads = append(reads, float64(time.Since(t0))/1e3)
	}
	tr.End(id)
	return writes, reads, os.RemoveAll(dir)
}

// layerSuite records the replay streams, checks their digest, and
// measures each simulator layer alone.
func (b *bench) layerSuite(ctx context.Context, lv layerValues, buildScale int, tr *Tracer) error {
	var streams []stream
	var digest string
	var err error
	tr.Do("recordStreams", "layers", 0, func(int64) { streams, digest, err = recordStreams(ctx) })
	if err != nil {
		return err
	}
	if err := b.ref.checkStreams(digest); err != nil {
		return err
	}
	replayLayers(streams, tr, lv)
	if err := runIsolated(ctx, tr, lv); err != nil {
		return err
	}
	if err := buildAndProfile(ctx, buildScale, tr, lv); err != nil {
		return err
	}
	return julietSuites(ctx, b.jobs, tr, lv)
}
