package report

const (
	// LoadSchema identifies a saturation-sweep document
	// (`watchdog-serve -load`).
	LoadSchema = "watchdog-load"
	// TrajectorySchema identifies a performance-trend file: one
	// appended point per tracked run, for cross-run comparison.
	TrajectorySchema = "watchdog-trajectory"
)

// LoadReport is the saturation harness's document: a stepped-
// concurrency sweep of mixed traffic against one server, one record
// per step. Like BenchReport its numbers are wall-clock measurements —
// it exists to track the service's performance trajectory, not to gate
// figure regressions.
type LoadReport struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	// Target is the swept server's base URL ("inproc" for the
	// self-hosted in-process sweep).
	Target string `json:"target"`
	// Mix is the traffic composition the generator drew from.
	Mix LoadMix `json:"mix"`
	// Fidelity/Policy/TagBits echo the generator's request knobs
	// (empty/zero = the server defaults), so two records are only ever
	// compared like for like.
	Fidelity string `json:"fidelity,omitempty"`
	Policy   string `json:"policy,omitempty"`
	TagBits  int    `json:"tag_bits,omitempty"`
	// Steps holds one record per concurrency level, in sweep order
	// (ascending offered load).
	Steps []LoadStep `json:"steps"`
}

// LoadMix is the traffic composition in percent; the parts sum to 100.
type LoadMix struct {
	SimPct    int `json:"sim_pct"`
	JulietPct int `json:"juliet_pct"`
}

// LoadStep is one concurrency level's measurements.
type LoadStep struct {
	// Concurrency is how many client workers offered load during this
	// step; Offered is how many requests they issued.
	Concurrency int   `json:"concurrency"`
	Offered     int64 `json:"offered"`
	// OK counts 200 answers. RejectedBusy counts 429 backpressure
	// answers — deliberate load-shedding, not failures, so they are
	// excluded from Errors and ErrorRate. Errors is everything else
	// (non-200 non-429 answers and transport failures).
	OK           int64 `json:"ok"`
	RejectedBusy int64 `json:"rejected_busy"`
	Errors       int64 `json:"errors"`
	// ErrorRate is Errors / Offered (0 when nothing was offered).
	ErrorRate float64 `json:"error_rate"`
	// ThroughputRPS is OK answers per second of step wall time.
	ThroughputRPS float64 `json:"throughput_rps"`
	// P50Milli/P99Milli are nearest-rank percentiles over every
	// successful request in the step (exact, not windowed).
	P50Milli  float64 `json:"p50_ms"`
	P99Milli  float64 `json:"p99_ms"`
	WallNanos int64   `json:"wall_nanos"`
}

// WriteLoadFile serializes the saturation document, stamping schema
// and version.
func WriteLoadFile(path string, l *LoadReport) error {
	l.Schema = LoadSchema
	l.Version = Version
	return writeJSON(path, l)
}

// ReadLoadFile loads and validates a document written by
// WriteLoadFile.
func ReadLoadFile(path string) (*LoadReport, error) {
	var l LoadReport
	if err := readDocument(path, LoadSchema, &l); err != nil {
		return nil, err
	}
	return &l, nil
}
