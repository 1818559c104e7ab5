package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"time"

	"watchdog/internal/asm"
	"watchdog/internal/bpred"
	"watchdog/internal/cache"
	"watchdog/internal/core"
	"watchdog/internal/isa"
	"watchdog/internal/machine"
	"watchdog/internal/mem"
	"watchdog/internal/rt"
	"watchdog/internal/security"
	"watchdog/internal/sim"
	"watchdog/internal/trace"
	"watchdog/internal/workload"
)

// streamInsts bounds each workload's recorded prefix.
const streamInsts = 20_000

// access kinds of a recorded hierarchy stream.
const (
	accData uint8 = iota
	accFetch
	accLock
)

type access struct {
	kind  uint8
	write bool
	addr  uint64
}

type branchRec struct {
	pc    uint64
	taken bool
}

// stream is one workload's recorded prefix: the executed PCs, the
// conditional-branch outcomes, and the hierarchy accesses in the order
// the timing model issued them.
type stream struct {
	workload string
	prog     *asm.Program
	pcs      []int32
	branches []branchRec
	accesses []access
}

// watchdogConfig is the conservative Watchdog configuration (the
// fig7 "conservative" column, which needs no profiling pass).
func watchdogConfig() core.Config {
	c := core.DefaultConfig()
	c.PtrPolicy = core.PtrConservative
	return c
}

// recordStreams records a bounded prefix of every workload through the
// trace sink under the conservative Watchdog configuration at scale 1,
// and digests the streams so two commits can be shown to replay the
// same input.
func recordStreams(ctx context.Context) ([]stream, string, error) {
	h := sha256.New()
	var out []stream
	for _, w := range workload.All() {
		prog, rtEnd, err := workload.BuildProgram(w, rt.Options{Policy: core.PolicyWatchdog}, 1)
		if err != nil {
			return nil, "", err
		}
		cfg := sim.Default()
		cfg.Core = watchdogConfig()
		cfg.RuntimeEnd = rtEnd
		cfg.InstLimit = streamInsts
		sink := trace.New(trace.Config{Timeline: true})
		cfg.Sink = sink
		if _, err := sim.RunCtx(ctx, prog, cfg); err != nil && !strings.Contains(err.Error(), "instruction limit") {
			return nil, "", fmt.Errorf("recording %s: %w", w.Name, err)
		}
		s := extractStream(w.Name, prog, sink.Events())
		s.digest(h)
		out = append(out, s)
	}
	return out, hex.EncodeToString(h.Sum(nil)), nil
}

// extractStream turns a sink's timeline into replay streams.
func extractStream(name string, prog *asm.Program, evs []trace.Event) stream {
	s := stream{workload: name, prog: prog}
	lastBlk := ^uint64(0)
	pendingBr := -1
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case trace.KindInst:
			if pendingBr >= 0 {
				s.branches = append(s.branches, branchRec{
					pc: mem.CodeAddr(pendingBr), taken: ev.PC != pendingBr+1})
				pendingBr = -1
			}
			s.pcs = append(s.pcs, int32(ev.PC))
			if prog.Insts[ev.PC].Op == isa.OpBr {
				pendingBr = ev.PC
			}
		case trace.KindFetch:
			if blk := ev.Addr >> 6; blk != lastBlk {
				lastBlk = blk
				s.accesses = append(s.accesses, access{kind: accFetch, addr: ev.Addr})
			}
		case trace.KindUop:
			switch ev.Uop {
			case isa.UopCheck, isa.UopCheckFull:
				s.accesses = append(s.accesses, access{kind: accLock, addr: ev.Addr})
			case isa.UopLoad, isa.UopStore, isa.UopFLoad, isa.UopFStore,
				isa.UopShadowLoad, isa.UopShadowStore:
				s.accesses = append(s.accesses, access{kind: accData, write: ev.Write, addr: ev.Addr})
			}
		}
	}
	return s
}

func (s *stream) digest(h io.Writer) {
	var b [9]byte
	h.Write([]byte(s.workload))
	for _, pc := range s.pcs {
		binary.LittleEndian.PutUint32(b[:4], uint32(pc))
		h.Write(b[:4])
	}
	for _, br := range s.branches {
		binary.LittleEndian.PutUint64(b[:8], br.pc)
		b[8] = 0
		if br.taken {
			b[8] = 1
		}
		h.Write(b[:])
	}
	for _, a := range s.accesses {
		binary.LittleEndian.PutUint64(b[:8], a.addr)
		b[8] = a.kind << 1
		if a.write {
			b[8] |= 1
		}
		h.Write(b[:])
	}
}

// replayReps repeats each replay so that it runs long enough to time.
const replayReps = 20

// replayLayers feeds the recorded streams into each layer alone:
// CrackCache.Cached over the PCs, the hierarchy's Data/Fetch/LockRead
// over the accesses, and PredictCond/UpdateCond over the branches.
func replayLayers(streams []stream, tr *Tracer, lv layerValues) {
	var nPC, nAcc, nBr int
	var tCrack, tCache, tBr time.Duration
	sinkN := 0
	for _, s := range streams {
		cc := isa.NewCrackCache(s.prog.Insts)
		id := tr.Begin("CrackCache.Cached", s.workload, 0)
		t0 := time.Now()
		for r := 0; r < replayReps; r++ {
			for _, pc := range s.pcs {
				sinkN += len(cc.Cached(int(pc)))
			}
		}
		tCrack += time.Since(t0)
		tr.End(id)
		nPC += replayReps * len(s.pcs)

		for r := 0; r < replayReps; r++ {
			h := cache.NewHierarchy(cache.DefaultHierConfig())
			id := tr.Begin("Hierarchy.replay", s.workload, 0)
			t0 := time.Now()
			for _, a := range s.accesses {
				switch a.kind {
				case accData:
					sinkN += h.Data(a.addr, a.write)
				case accFetch:
					sinkN += h.Fetch(a.addr)
				case accLock:
					sinkN += h.LockRead(a.addr)
				}
			}
			tCache += time.Since(t0)
			tr.End(id)
			nAcc += len(s.accesses)
		}

		p := bpred.New(bpred.DefaultConfig())
		id = tr.Begin("bpred.replay", s.workload, 0)
		t0 = time.Now()
		for r := 0; r < replayReps; r++ {
			for _, b := range s.branches {
				pred := p.PredictCond(b.pc)
				p.UpdateCond(b.pc, b.taken, pred)
			}
		}
		tBr += time.Since(t0)
		tr.End(id)
		nBr += replayReps * len(s.branches)
	}
	lv["isa.crack_ns_per_inst"] = perItem(tCrack, nPC)
	lv["cache.ns_per_access"] = perItem(tCache, nAcc)
	lv["bpred.ns_per_branch"] = perItem(tBr, nBr)

	var hs []float64
	id := tr.Begin("cache.NewHierarchy", "layers", 0)
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		h := cache.NewHierarchy(cache.DefaultHierConfig())
		hs = append(hs, float64(time.Since(t0))/1e3)
		sinkN += h.Fetch(0)
	}
	tr.End(id)
	lv["cache.new_hierarchy_us"] = summarize(hs, 0).Median
	if sinkN == 42 {
		fmt.Print("") // keep the replays' results live
	}
}

func perItem(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

// layerScale is the workload scale of the isolated simulator runs: big
// enough that the sampled runs span several sampling periods.
const layerScale = 2

// runIsolated times whole simulations of every workload that differ in
// one layer each: baseline functional, Watchdog functional (adds the
// core engine), Watchdog exact (adds the timing model) and Watchdog
// sampled (adds functional warming).
func runIsolated(ctx context.Context, tr *Tracer, lv layerValues) error {
	var fb, fw, ew, sw time.Duration
	var instsB, instsW, uopsW uint64
	for _, w := range workload.All() {
		progB, endB, err := workload.BuildProgram(w, rt.Options{Policy: core.PolicyBaseline}, layerScale)
		if err != nil {
			return err
		}
		progW, endW, err := workload.BuildProgram(w, rt.Options{Policy: core.PolicyWatchdog}, layerScale)
		if err != nil {
			return err
		}
		run := func(name string, prog *asm.Program, cfg sim.Config) (time.Duration, *machine.Result, error) {
			id := tr.Begin(name, w.Name, 0)
			t0 := time.Now()
			res, err := sim.RunCtx(ctx, prog, cfg)
			d := time.Since(t0)
			tr.End(id)
			if err != nil {
				return 0, nil, fmt.Errorf("%s %s: %w", name, w.Name, err)
			}
			return d, res, nil
		}
		cfg := sim.Config{Core: core.Config{Policy: core.PolicyBaseline}, RuntimeEnd: endB}
		d, r, err := run("sim.RunCtx functional baseline", progB, cfg)
		if err != nil {
			return err
		}
		fb += d
		instsB += r.Insts

		cfg = sim.Config{Core: watchdogConfig(), RuntimeEnd: endW}
		d, r, err = run("sim.RunCtx functional watchdog", progW, cfg)
		if err != nil {
			return err
		}
		fw += d
		instsW += r.Insts

		cfg = sim.Default()
		cfg.Core = watchdogConfig()
		cfg.RuntimeEnd = endW
		d, r, err = run("sim.RunCtx exact watchdog", progW, cfg)
		if err != nil {
			return err
		}
		ew += d
		uopsW += r.Timing.Uops

		cfg.Fidelity = sim.FidelitySampled
		d, _, err = run("sim.RunCtx sampled watchdog", progW, cfg)
		if err != nil {
			return err
		}
		sw += d
	}
	functional := perItem(fb, int(instsB))
	lv["functional.ns_per_inst"] = functional
	lv["core.ns_per_inst"] = perItem(fw, int(instsW)) - functional
	lv["timing.ns_per_uop"] = perItem(ew-fw, int(uopsW))
	lv["warm.ns_per_inst"] = perItem(sw-fw, int(instsW))
	return nil
}

// fig7Options maps the fig7 configurations to the runtime variant
// their programs are built with.
func fig7Options(name string) rt.Options {
	switch name {
	case "baseline":
		return rt.Options{Policy: core.PolicyBaseline}
	case "xtag":
		return rt.Options{Policy: core.PolicyXTag}
	case "dangkiller":
		return rt.Options{Policy: core.PolicyDangKiller}
	}
	return rt.Options{Policy: core.PolicyWatchdog}
}

// buildAndProfile times what a sweep at this scale spends outside the
// simulations: workload.BuildProgram for all 100 fig7 cells and the 20
// sim.ProfileCtx passes of the ISA-assisted column.
func buildAndProfile(ctx context.Context, scale int, tr *Tracer, lv layerValues) error {
	var build, prof time.Duration
	for _, c := range fig7Cells() {
		id := tr.Begin("workload.BuildProgram", c.w.Name+"/"+string(c.cfg), 0)
		t0 := time.Now()
		prog, rtEnd, err := workload.BuildProgram(c.w, fig7Options(string(c.cfg)), scale)
		build += time.Since(t0)
		tr.End(id)
		if err != nil {
			return err
		}
		if c.cfg != "isa" {
			continue
		}
		id = tr.Begin("sim.ProfileCtx", c.w.Name, 0)
		t0 = time.Now()
		_, err = sim.ProfileCtx(ctx, prog, core.DefaultConfig(), rtEnd)
		prof += time.Since(t0)
		tr.End(id)
		if err != nil {
			return err
		}
	}
	lv["build.ms_total"] = float64(build) / 1e6
	lv["profile.ms_total"] = float64(prof) / 1e6
	return nil
}

// julietSuites times security.RunCasesCtx once per policy.
func julietSuites(ctx context.Context, jobs int, tr *Tracer, lv layerValues) error {
	var total time.Duration
	pols := security.Policies()
	for _, p := range pols {
		cfg, opts, err := security.PolicyConfig(p)
		if err != nil {
			return err
		}
		id := tr.Begin("security.RunCasesCtx", p, 0)
		t0 := time.Now()
		_, err = security.RunCasesCtx(ctx, security.Suite(), cfg, opts, jobs, nil, nil)
		total += time.Since(t0)
		tr.End(id)
		if err != nil {
			return err
		}
	}
	lv["juliet.ms_per_suite"] = float64(total) / 1e6 / float64(len(pols))
	return nil
}
