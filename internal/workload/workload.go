// Package workload provides the twenty SPEC-CPU-stand-in kernels used
// by the evaluation (Section 9.1 of the paper used twenty C SPEC
// benchmarks). Each kernel is written in WD64 assembly against the
// simulated runtime and reproduces the property that drives Watchdog's
// overheads: the fraction of memory accesses that are pointer
// loads/stores (Figure 5's per-benchmark profile), the allocation
// intensity, and the control/ILP character of the original.
//
// Every workload ends by emitting a checksum via SysPutInt; the
// checksum must be identical across the baseline and every Watchdog
// configuration (the harness asserts this).
package workload

import (
	"fmt"
	"sort"

	"watchdog/internal/asm"
	"watchdog/internal/isa"
	"watchdog/internal/rt"
)

// Ctx wraps the builder with unique-label generation and the scale
// knob.
type Ctx struct {
	B *asm.Builder
	// Scale multiplies the problem size (1 = bench default; tests use
	// smaller values).
	Scale int
	uid   int
}

// L generates a unique label with the given prefix.
func (c *Ctx) L(pfx string) string {
	c.uid++
	return fmt.Sprintf("%s.%d", pfx, c.uid)
}

// Loop emits a down-counting loop: reg runs count..1; the body must
// preserve reg.
func (c *Ctx) Loop(reg isa.Reg, count int64, body func()) {
	top := c.L("loop")
	c.B.Movi(reg, count)
	c.B.Label(top)
	body()
	c.B.Subi(reg, reg, 1)
	c.B.Brnz(reg, top)
}

// Workload is one benchmark kernel.
type Workload struct {
	Name string
	// Kernel is a one-line description of the computation.
	Kernel string
	// PtrHeavy notes roughly how pointer-intensive the kernel is
	// (documentation; the measured number is Figure 5's output).
	PtrHeavy string
	// Build emits the "main" function (label already placed).
	Build func(c *Ctx)
}

// registry holds the workloads in figure order: register inserts each
// one in place, so All is a copy.
var registry []Workload

func register(w Workload) {
	i := sort.Search(len(registry), func(i int) bool {
		return figureOrder[registry[i].Name] > figureOrder[w.Name]
	})
	registry = append(registry, Workload{})
	copy(registry[i+1:], registry[i:])
	registry[i] = w
}

// All returns a copy of the workloads in the paper's figure order.
func All() []Workload {
	return append([]Workload(nil), registry...)
}

// figureOrder is the benchmark order used along the x-axis of the
// paper's figures.
var figureOrder = map[string]int{
	"lbm": 0, "compress": 1, "gzip": 2, "milc": 3, "bzip2": 4,
	"ammp": 5, "go": 6, "sjeng": 7, "equake": 8, "h264": 9,
	"ijpeg": 10, "gobmk": 11, "art": 12, "twolf": 13, "hmmer": 14,
	"vpr": 15, "mcf": 16, "mesa": 17, "gcc": 18, "perl": 19,
}

// ByName returns the named workload.
func ByName(name string) (Workload, bool) {
	for _, w := range registry {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Names returns all workload names in figure order.
func Names() []string {
	ws := All()
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return names
}

// BuildProgram assembles runtime + workload into a runnable program,
// returning the program and the runtime-end marker.
func BuildProgram(w Workload, opts rt.Options, scale int) (*asm.Program, int, error) {
	if scale < 1 {
		scale = 1
	}
	r := rt.NewBuild(opts)
	r.B.Label("main")
	w.Build(&Ctx{B: r.B, Scale: scale})
	prog, err := r.Finish()
	if err != nil {
		return nil, 0, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	return prog, r.RuntimeEnd(), nil
}
