package workload

import (
	"testing"

	"watchdog/internal/core"
	"watchdog/internal/rt"
	"watchdog/internal/sim"
)

const testScale = 1

// runOne builds and runs a workload functionally under the given
// configuration.
func runOne(t *testing.T, w Workload, opts rt.Options, cfg core.Config) []int64 {
	t.Helper()
	prog, rtEnd, err := BuildProgram(w, opts, testScale)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(prog, sim.Config{Core: cfg, RuntimeEnd: rtEnd})
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	if res.MemErr != nil {
		t.Fatalf("%s: unexpected fault: %v", w.Name, res.MemErr)
	}
	if res.Aborted {
		t.Fatalf("%s: runtime abort %d", w.Name, res.AbortCode)
	}
	if len(res.Output) == 0 {
		t.Fatalf("%s: no checksum emitted", w.Name)
	}
	return res.Output
}

func TestAllWorkloadsRegistered(t *testing.T) {
	if n := len(All()); n != 20 {
		t.Fatalf("registered %d workloads, want 20", n)
	}
	seen := map[string]bool{}
	for _, w := range All() {
		if seen[w.Name] {
			t.Fatalf("duplicate workload %q", w.Name)
		}
		seen[w.Name] = true
		if _, ok := figureOrder[w.Name]; !ok {
			t.Fatalf("workload %q missing from figure order", w.Name)
		}
	}
}

func TestChecksumsMatchAcrossConfigs(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			base := runOne(t, w, rt.Options{Policy: core.PolicyBaseline}, core.Config{Policy: core.PolicyBaseline})
			wd := runOne(t, w, rt.Options{Policy: core.PolicyWatchdog}, core.DefaultConfig())
			cons := core.DefaultConfig()
			cons.PtrPolicy = core.PtrConservative
			wdc := runOne(t, w, rt.Options{Policy: core.PolicyWatchdog}, cons)
			for i := range base {
				if wd[i] != base[i] || wdc[i] != base[i] {
					t.Fatalf("checksum mismatch: base=%v isa=%v cons=%v", base, wd, wdc)
				}
			}
			if base[len(base)-1] == 0 {
				t.Fatalf("degenerate zero checksum: %v", base)
			}
		})
	}
}

func TestWorkloadsUnderBounds(t *testing.T) {
	opts := rt.Options{Policy: core.PolicyWatchdog, Bounds: true}
	cfg := core.DefaultConfig()
	cfg.Bounds = core.BoundsFused
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			runOne(t, w, opts, cfg)
		})
	}
}

func TestWorkloadsWithProfile(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog, rtEnd, err := BuildProgram(w, rt.Options{Policy: core.PolicyWatchdog}, testScale)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := sim.Profile(prog, core.DefaultConfig(), rtEnd)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultConfig()
			cfg.Profile = prof
			res, err := sim.Run(prog, sim.Config{Core: cfg, RuntimeEnd: rtEnd})
			if err != nil {
				t.Fatal(err)
			}
			if res.MemErr != nil {
				t.Fatalf("profiled run fault: %v", res.MemErr)
			}
			// ISA-assisted classification must never exceed
			// conservative classification.
			consCfg := core.DefaultConfig()
			consCfg.PtrPolicy = core.PtrConservative
			cres, err := sim.Run(prog, sim.Config{Core: consCfg, RuntimeEnd: rtEnd})
			if err != nil {
				t.Fatal(err)
			}
			if res.Engine.PtrOps > cres.Engine.PtrOps {
				t.Fatalf("ISA-assisted ptr ops (%d) exceed conservative (%d)",
					res.Engine.PtrOps, cres.Engine.PtrOps)
			}
		})
	}
}

// TestAllFigureOrderAndCopy: All lists the workloads in figure order
// and returns a copy, so a caller reordering its result does not
// reorder a later call.
func TestAllFigureOrderAndCopy(t *testing.T) {
	ws := All()
	for i, w := range ws {
		if figureOrder[w.Name] != i {
			t.Fatalf("All()[%d] = %s, figure position %d", i, w.Name, figureOrder[w.Name])
		}
	}
	ws[0], ws[len(ws)-1] = ws[len(ws)-1], ws[0]
	if again := All(); again[0].Name != "lbm" || again[len(again)-1].Name != "perl" {
		t.Fatalf("mutating All()'s result reordered a later call: %s ... %s",
			again[0].Name, again[len(again)-1].Name)
	}
}
