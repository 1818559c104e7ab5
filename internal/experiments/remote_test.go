package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"watchdog/internal/report"
	"watchdog/internal/sim"
	"watchdog/internal/workload"
)

// TestResultFromCellRoundTrip: flattening a simulated result into the
// wire schema and reconstructing it preserves every number the figure
// assembly reads — so a distributed sweep computes identical figures.
func TestResultFromCellRoundTrip(t *testing.T) {
	r := runner(t)
	w, _ := workload.ByName("mcf")
	for _, cfg := range []ConfigName{CfgBaseline, CfgConservative, CfgISA} {
		res, err := r.Run(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cell := buildCell(w.Name, string(cfg), sim.FidelityExact, res, nil)
		back := resultFromCell(&cell)

		if got, want := back.EstimatedCycles(), res.EstimatedCycles(); got != want {
			t.Errorf("%s: EstimatedCycles %d, want %d", cfg, got, want)
		}
		bt, ot := &back.Timing, &res.Timing
		if bt.BaseCycles != cell.BaseCycles || bt.CheckCycles != ot.CheckCycles ||
			bt.LockMissCycles != ot.LockMissCycles || bt.MetaCycles != ot.MetaCycles {
			t.Errorf("%s: CPI buckets differ: %+v", cfg, bt)
		}
		if bt.UopsByMeta != ot.UopsByMeta {
			t.Errorf("%s: UopsByMeta %v, want %v", cfg, bt.UopsByMeta, ot.UopsByMeta)
		}
		if bt.UopsByOp != ot.UopsByOp {
			t.Errorf("%s: UopsByOp differ", cfg)
		}
		if bt.InjectedUops() != ot.InjectedUops() || bt.IPC() != ot.IPC() {
			t.Errorf("%s: derived µop stats differ", cfg)
		}
		if back.Engine != res.Engine {
			// Engine carries more counters than the wire; only the
			// wire-visible ones must survive.
			if back.Engine.MemAccesses != res.Engine.MemAccesses ||
				back.Engine.PtrOps != res.Engine.PtrOps ||
				back.Engine.PtrLoads != res.Engine.PtrLoads ||
				back.Engine.PtrStores != res.Engine.PtrStores ||
				back.Engine.Checks != res.Engine.Checks {
				t.Errorf("%s: engine counters differ: %+v vs %+v", cfg, back.Engine, res.Engine)
			}
		}
		if bt.Cache.Lock != ot.Cache.Lock || bt.Cache.L1D != ot.Cache.L1D ||
			bt.Cache.L2.Misses != ot.Cache.L2.Misses || bt.Cache.L3.Misses != ot.Cache.L3.Misses {
			t.Errorf("%s: cache counters differ", cfg)
		}
		aw, ap, mw, mp := splitFootprint(back.Footprint)
		ow, op, omw, omp := splitFootprint(res.Footprint)
		if aw != ow || ap != op || mw != omw || mp != omp {
			t.Errorf("%s: footprint split (%d,%d,%d,%d), want (%d,%d,%d,%d)",
				cfg, aw, ap, mw, mp, ow, op, omw, omp)
		}
		if back.Insts != res.Insts || back.Uops != res.Uops || back.Partial != res.Partial {
			t.Errorf("%s: scalar counters differ", cfg)
		}
		// And the full circle: re-flattening the reconstruction yields
		// the identical wire cell.
		again := buildCell(w.Name, string(cfg), sim.FidelityExact, back, nil)
		b1, _ := json.Marshal(cell)
		b2, _ := json.Marshal(again)
		if string(b1) != string(b2) {
			t.Errorf("%s: re-flattened cell differs:\n%s\nvs\n%s", cfg, b1, b2)
		}
	}
}

// markerRemote hands out syntactically valid cells with a marker
// value no local simulation would produce, to prove Report emits
// remote cells verbatim rather than re-flattening the reconstruction.
type markerRemote struct{ calls int }

func (m *markerRemote) RemoteCell(ctx context.Context, wname string, cfg ConfigName, fid sim.Fidelity, overhead bool) (report.Cell, error) {
	m.calls++
	c := report.Cell{
		Workload: wname,
		Config:   string(cfg),
		Fidelity: string(fid.OrExact()),
		Cycles:   1000,
		// BaseCycles deliberately breaks the local bucket-sum relation
		// a re-flatten would "repair": verbatim emission preserves it.
		BaseCycles: 777,
		Insts:      10,
		Uops:       10,
		IPC:        0.5,
	}
	if overhead {
		c.Overhead = 4.25
	}
	return c, nil
}

// TestReportEmitsRemoteCellsVerbatim: a remote-backed runner's report
// carries the worker's wire cells byte-for-byte.
func TestReportEmitsRemoteCellsVerbatim(t *testing.T) {
	r, err := NewRunner(1, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	m := &markerRemote{}
	r.Remote = m
	w, _ := workload.ByName("mcf")
	if _, err := r.Run(w, CfgConservative); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(w, CfgBaseline); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Report(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("cells: %d, want 2", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.BaseCycles != 777 {
			t.Errorf("%s/%s: BaseCycles %d, want the verbatim marker 777", c.Workload, c.Config, c.BaseCycles)
		}
		if c.Config == string(CfgConservative) && c.Overhead != 4.25 {
			t.Errorf("remote overhead ratio not preserved: %v", c.Overhead)
		}
	}
	if m.calls != 2 {
		t.Errorf("remote calls: %d, want 2 (runner cache must still coalesce)", m.calls)
	}
	// Cached re-reads stay cache hits, not remote fetches.
	if _, err := r.Run(w, CfgConservative); err != nil {
		t.Fatal(err)
	}
	if m.calls != 2 {
		t.Errorf("cached cell re-fetched remotely (%d calls)", m.calls)
	}
}

// errRemote fails every fetch, checking error propagation and that a
// failed remote cell is not poisoned into the cache.
type errRemote struct{ calls int }

func (e *errRemote) RemoteCell(context.Context, string, ConfigName, sim.Fidelity, bool) (report.Cell, error) {
	e.calls++
	return report.Cell{}, fmt.Errorf("fleet on fire")
}

func TestRemoteErrorPropagates(t *testing.T) {
	r, err := NewRunner(1, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	e := &errRemote{}
	r.Remote = e
	w, _ := workload.ByName("mcf")
	if _, err := r.Run(w, CfgBaseline); err == nil {
		t.Fatal("remote failure did not propagate")
	} else if got := err.Error(); !strings.Contains(got, "fleet on fire") || !strings.Contains(got, "remote") {
		t.Errorf("error lost context: %v", got)
	}
	// The failure was not cached: a retry asks the fleet again.
	if _, err := r.Run(w, CfgBaseline); err == nil || e.calls != 2 {
		t.Errorf("retry: err %v after %d remote calls, want a second failing call", err, e.calls)
	}
}
