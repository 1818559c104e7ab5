package sim

import (
	"fmt"
	"strings"

	"watchdog/internal/machine"
)

// Fidelity selects the timing methodology of a run. It is a first-
// class simulation dimension: results of different fidelities are
// labeled as such in reports and are never compared against each
// other silently.
//
//   - exact: every µop is fed to the pipeline model (the default; all
//     golden figures are produced at this fidelity).
//   - sampled: the paper's Section 9.1 periodic sampling — functional
//     fast-forward with cache/predictor warming, timing warmup, then a
//     measured sample window; whole-program cycles are extrapolated
//     from the samples' CPI.
//
// Fidelity only affects timing. Functional execution — and therefore
// violation detection — is identical at every fidelity.
type Fidelity string

const (
	FidelityExact   Fidelity = "exact"
	FidelitySampled Fidelity = "sampled"
)

// Fidelities lists the valid values, for CLI help strings.
var Fidelities = []Fidelity{FidelityExact, FidelitySampled}

// FidelityChoices renders Fidelities as "exact|sampled".
func FidelityChoices() string {
	names := make([]string, len(Fidelities))
	for i, f := range Fidelities {
		names[i] = string(f)
	}
	return strings.Join(names, "|")
}

// ParseFidelity parses a CLI/wire fidelity string. The empty string is
// exact, so old clients and zero values keep their meaning.
func ParseFidelity(s string) (Fidelity, error) {
	switch Fidelity(s) {
	case "", FidelityExact:
		return FidelityExact, nil
	case FidelitySampled:
		return FidelitySampled, nil
	case "memoized":
		// Old documents and scripts may still name it; say why it is gone.
		return "", fmt.Errorf("sim: fidelity %q was removed; use sampled (the paper's periodic sampling, under 1 pp drift from exact)", s)
	}
	return "", fmt.Errorf("sim: unknown fidelity %q (want exact or sampled)", s)
}

// OrExact normalizes the zero value to FidelityExact.
func (f Fidelity) OrExact() Fidelity {
	if f == "" {
		return FidelityExact
	}
	return f
}

// DefaultSampling is the sampling configuration used when a sampled
// run does not specify one: the paper's 480M/10M/10M parameters scaled
// 10000x down (48k fast-forward, 1k warmup, 1k sample). The synthetic
// kernels run ~10^5 fewer instructions than SPEC reference inputs, so
// the deep scale-down is what preserves the paper's statistical
// regime of many windows per run: at a 50k-instruction period a
// bench-scale workload still crosses dozens of sample windows, where
// the naive 1000x (500k period) left one or two — and a measured
// geomean-overhead drift of several points instead of under one.
func DefaultSampling() machine.Sampling { return machine.PaperSampling(10000) }

// SamplingOverride builds a sampled run's parameter override from CLI
// flags: unset (zero) values keep the paper defaults, a nil result
// means no override at all, and any override on a non-sampled fidelity
// is rejected rather than silently ignored.
func SamplingOverride(fid Fidelity, ff, warmup, sample uint64) (*machine.Sampling, error) {
	if ff == 0 && warmup == 0 && sample == 0 {
		return nil, nil
	}
	if fid.OrExact() != FidelitySampled {
		return nil, fmt.Errorf("sampling overrides only apply to the sampled fidelity (got %s)", fid.OrExact())
	}
	s := DefaultSampling()
	if ff != 0 {
		s.FastForward = ff
	}
	if warmup != 0 {
		s.Warmup = warmup
	}
	if sample != 0 {
		s.Sample = sample
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// applyFidelity validates the fidelity/sampling combination and arms
// the machine. Functional-only runs (no timing model) ignore fidelity:
// there is no timing to approximate, and the functional semantics are
// identical at every fidelity by construction.
func applyFidelity(m *machine.Machine, cfg *Config) error {
	f := cfg.Fidelity.OrExact()
	switch f {
	case FidelityExact:
		// Back-compat: an explicit Sampling on an otherwise-exact config
		// predates the fidelity knob and still means "sample".
		if cfg.Sampling != nil && cfg.Timing {
			m.SetSampling(*cfg.Sampling)
		}
		return nil
	case FidelitySampled:
		if !cfg.Timing {
			return nil
		}
		s := DefaultSampling()
		if cfg.Sampling != nil {
			s = *cfg.Sampling
		}
		if err := s.Validate(); err != nil {
			return fmt.Errorf("sim: fidelity %s: %w", f, err)
		}
		m.SetSampling(s)
		return nil
	}
	_, err := ParseFidelity(string(f))
	return err
}
