package sim

import (
	"strings"
	"testing"
)

// TestParseFidelity: the empty string means exact, the removed
// memoized mode gets an error naming its replacement, and any other
// unknown value lists the valid choices.
func TestParseFidelity(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    Fidelity
		wantErr string
	}{
		{"", FidelityExact, ""},
		{"exact", FidelityExact, ""},
		{"sampled", FidelitySampled, ""},
		{"memoized", "", "was removed; use sampled"},
		{"bogus", "", "want exact or sampled"},
	} {
		got, err := ParseFidelity(tc.in)
		if tc.wantErr == "" {
			if err != nil || got != tc.want {
				t.Errorf("ParseFidelity(%q) = %q, %v; want %q", tc.in, got, err, tc.want)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("ParseFidelity(%q) = %q, %v; want error containing %q", tc.in, got, err, tc.wantErr)
		}
	}
}
