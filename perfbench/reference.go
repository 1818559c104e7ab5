package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
)

// reference holds the output-check digests recorded on the seed
// commit: the fig7 Report document of each sweep the benchmark runs,
// keyed "fidelity@scale", and the digest of the recorded replay
// streams. A change that alters either changes what the benchmark
// measures, and the run refuses to report.
type reference struct {
	Fig7        map[string]string `json:"fig7"`
	Streams     string            `json:"streams"`
	StreamInsts int               `json:"stream_insts"`
}

func refKey(spec sweepSpec) string {
	return fmt.Sprintf("%s@%d", spec.Fidelity.OrExact(), spec.Scale)
}

func loadReference(path string) (reference, error) {
	var ref reference
	data, err := os.ReadFile(path)
	if err != nil {
		return ref, err
	}
	if err := json.Unmarshal(data, &ref); err != nil {
		return ref, fmt.Errorf("%s: %w", path, err)
	}
	return ref, nil
}

// checkSweep compares a sweep's Report digest with the reference.
func (r reference) checkSweep(spec sweepSpec, digest string) error {
	want, ok := r.Fig7[refKey(spec)]
	if !ok {
		return fmt.Errorf("output check: no fig7 reference for %s", refKey(spec))
	}
	if digest != want {
		return fmt.Errorf("output check: fig7 report at %s has digest %s, reference %s",
			refKey(spec), digest, want)
	}
	return nil
}

// checkStreams compares the recorded replay streams with the reference.
func (r reference) checkStreams(digest string) error {
	if r.StreamInsts != streamInsts {
		return fmt.Errorf("output check: reference streams hold %d-instruction prefixes, benchmark records %d",
			r.StreamInsts, streamInsts)
	}
	if digest != r.Streams {
		return fmt.Errorf("output check: replay streams have digest %s, reference %s", digest, r.Streams)
	}
	return nil
}

// writeReference records the reference on the current tree.
func writeReference(ctx context.Context, path string) error {
	ref := reference{Fig7: map[string]string{}, StreamInsts: streamInsts}
	for _, spec := range []sweepSpec{sweepExact, companionSweep} {
		res, err := runSweep(ctx, spec, 2)
		if err != nil {
			return err
		}
		ref.Fig7[refKey(spec)] = res.Digest
	}
	_, digest, err := recordStreams(ctx)
	if err != nil {
		return err
	}
	ref.Streams = digest
	data, err := json.MarshalIndent(&ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
