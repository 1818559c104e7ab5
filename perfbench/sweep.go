package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"watchdog/internal/experiments"
	"watchdog/internal/report"
	"watchdog/internal/sim"
	"watchdog/internal/trace"
	"watchdog/internal/workload"
)

// sweepSpec fixes one fig7 sweep workload.
type sweepSpec struct {
	Fidelity sim.Fidelity
	Scale    int
}

// sweepLimit is the sweeps' latency limit for within_limit_ratio: a
// cell counts when its answer is available this soon after the sweep
// started. It is 1.25 times the median sweep wall time measured when
// the benchmark was defined (4.8 s, on 2 vCPUs of an Intel Xeon at
// 2.1 GHz), so the ratio falls below 1 once a sweep runs about a
// quarter slower than that.
const sweepLimit = 6 * time.Second

// fig7Configs are the configurations Runner.Fig7 sweeps, baseline
// first, in the order the runner's own fan-out claims them.
var fig7Configs = []experiments.ConfigName{
	experiments.CfgBaseline, experiments.CfgConservative, experiments.CfgISA,
	experiments.CfgXTag, experiments.CfgDangKiller,
}

// fig7Cell is one (workload, configuration) cell of the sweep.
type fig7Cell struct {
	w   workload.Workload
	cfg experiments.ConfigName
}

func fig7Cells() []fig7Cell {
	ws := workload.All()
	cells := make([]fig7Cell, 0, len(ws)*len(fig7Configs))
	for _, c := range fig7Configs {
		for _, w := range ws {
			cells = append(cells, fig7Cell{w, c})
		}
	}
	return cells
}

// hitReplays is how many times each cell is replayed from the result
// cache after a sweep: a replay takes microseconds, so one pass is
// too few samples to time.
const hitReplays = 10

// progressTick is how often runSweep samples the runner's progress
// counter, and so the resolution of its cells' answer times.
const progressTick = time.Millisecond

// sweepResult is one measured fig7 sweep.
type sweepResult struct {
	Wall time.Duration
	// Avail is each cell's answer time since the sweep started, in
	// completion order (every cell is due at the start).
	Avail []time.Duration
	// Hits are Runner.CellCtx replays of every cell from the result
	// cache after the sweep, hitReplays times over.
	Hits                      []time.Duration
	Digest                    string
	Report                    *report.Report
	Sims, Profiles, CacheHits uint64
}

// newSweepRunner is the sweep's set-up: a fresh runner at the spec's
// scale and fidelity.
func newSweepRunner(spec sweepSpec, jobs int) (*experiments.Runner, error) {
	r, err := experiments.NewRunner(spec.Scale)
	if err != nil {
		return nil, err
	}
	r.Jobs = jobs
	r.Fidelity = spec.Fidelity
	return r, nil
}

// runSweep regenerates Figure 7 as a user does: a fresh Runner's Fig7,
// whose RunAll fans the 100 cells out over the runner's own workers,
// renders the table, and Report assembles the JSON document. A watcher
// samples the runner's progress counter (Runner.Progress, ticked as
// each cell completes) every progressTick to time the cells' answers.
func runSweep(ctx context.Context, spec sweepSpec, jobs int) (*sweepResult, error) {
	r, err := newSweepRunner(spec, jobs)
	if err != nil {
		return nil, err
	}
	r.Ctx = ctx
	r.Progress = trace.NewProgress()
	res := &sweepResult{}
	stop := make(chan struct{})
	watched := make(chan []time.Duration)
	start := time.Now()
	go func() { watched <- watchProgress(r.Progress, len(fig7Cells()), start, stop) }()
	t, err := r.Fig7()
	if err == nil {
		_ = t.String()
		res.Report, err = r.Report([]string{"fig7"}, nil)
	}
	res.Wall = time.Since(start)
	close(stop)
	res.Avail = <-watched
	if err != nil {
		return nil, err
	}
	if n := len(fig7Cells()); len(res.Avail) != n {
		return nil, fmt.Errorf("progress counter ticked %d of the sweep's %d cells", len(res.Avail), n)
	}
	if err := finishSweep(ctx, r, res, nil, "", 0); err != nil {
		return nil, err
	}
	return res, nil
}

// watchProgress records, for each of the first n ticks of p, the
// first sample at which p.Done() had reached it, until it has all n or
// stop is closed. The first n ticks are the cells of Fig7's RunAll;
// the sweeps that read its cache afterwards tick again.
func watchProgress(p *trace.Progress, n int, start time.Time, stop <-chan struct{}) []time.Duration {
	out := make([]time.Duration, 0, n)
	tk := time.NewTicker(progressTick)
	defer tk.Stop()
	sample := func() {
		at := time.Since(start)
		for done := min(p.Done(), int64(n)); int64(len(out)) < done; {
			out = append(out, at)
		}
	}
	for len(out) < n {
		select {
		case <-stop:
			sample()
			return out
		case <-tk.C:
			sample()
		}
	}
	<-stop
	return out
}

// runTracedSweep is the traced runs' sweep: the same 100 cells fanned
// out over jobs workers in the order Runner.RunAll claims them, but by
// the benchmark itself, each cell through the public Runner.RunCtx
// inside its own span; then Fig7 (reading the warmed cache) and
// Report. With tr nil it is the untraced sweep the tracing overhead is
// measured against.
func runTracedSweep(ctx context.Context, spec sweepSpec, jobs int, tr *Tracer, label string) (*sweepResult, error) {
	r, err := newSweepRunner(spec, jobs)
	if err != nil {
		return nil, err
	}
	cells := fig7Cells()
	res := &sweepResult{Avail: make([]time.Duration, len(cells))}
	root := tr.Begin("sweep", label, 0)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, len(cells))
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				c := cells[i]
				id := tr.Begin("Runner.RunCtx", label+"/"+c.w.Name+"/"+string(c.cfg), root)
				_, errs[i] = r.RunCtx(ctx, c.w, c.cfg)
				tr.End(id)
				res.Avail[i] = time.Since(start)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	tr.Do("Runner.Fig7", label, root, func(int64) {
		var t fmt.Stringer
		if t, err = r.Fig7(); err == nil {
			_ = t.String()
		}
	})
	if err != nil {
		return nil, err
	}
	tr.Do("Runner.Report", label, root, func(int64) {
		res.Report, err = r.Report([]string{"fig7"}, nil)
	})
	if err != nil {
		return nil, err
	}
	res.Wall = time.Since(start)
	tr.End(root)
	if err := finishSweep(ctx, r, res, tr, label, root); err != nil {
		return nil, err
	}
	return res, nil
}

// finishSweep reads a finished sweep's counters and report digest,
// then times the result-cache replays of every cell.
func finishSweep(ctx context.Context, r *experiments.Runner, res *sweepResult, tr *Tracer, label string, root int64) error {
	res.Sims, res.Profiles, res.CacheHits = r.Timing.Sims(), r.Timing.Profiles(), r.Timing.Hits()
	var err error
	if res.Digest, err = reportDigest(res.Report); err != nil {
		return err
	}
	// Replays take microseconds: let the collector finish with the
	// sweep's garbage first, so they are timed against a settled heap.
	runtime.GC()
	cells := fig7Cells()
	res.Hits = make([]time.Duration, 0, hitReplays*len(cells))
	for k := 0; k < hitReplays; k++ {
		for _, c := range cells {
			hs := time.Now()
			id := tr.Begin("Runner.CellCtx", label+"/"+c.w.Name+"/"+string(c.cfg), root)
			_, err := r.CellCtx(ctx, c.w, c.cfg, c.cfg != experiments.CfgBaseline)
			tr.End(id)
			if err != nil {
				return err
			}
			res.Hits = append(res.Hits, time.Since(hs))
		}
	}
	return nil
}

// reportDigest is the SHA-256 of a report's JSON encoding.
func reportDigest(rep *report.Report) (string, error) {
	b, err := json.Marshal(rep)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// modelTotals sums the modelled statistics over a report's cells. They
// depend only on what is simulated, never on how fast.
type modelTotals struct {
	Insts, Uops, Cycles, L1DMisses, LockMisses, Checks uint64
}

func sumModel(rep *report.Report) modelTotals {
	var m modelTotals
	for _, c := range rep.Cells {
		m.Insts += c.Insts
		m.Uops += c.Uops
		m.Cycles += uint64(c.Cycles)
		m.L1DMisses += c.L1DMisses
		m.LockMisses += c.LockCacheMisses
		m.Checks += c.Checks
	}
	return m
}
