package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"

	"watchdog/internal/report"
	"watchdog/internal/security"
	"watchdog/internal/serve"
	"watchdog/internal/trace"
)

func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n       int
		want    float64
		rank    int
		beyond  int
		pctWant float64
	}{
		{1000, 99, 990, 10, 99},
		{2000, 99, 1980, 20, 99},
		{300, 99, 290, 10, 100 * 290.0 / 300},
		{100, 90, 90, 10, 90},
		{15, 99, 8, 7, 100 * 8.0 / 15}, // too few samples: the median
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // reversed: summarize must sort
		}
		d := summarize(xs, c.want)
		if got := tailRank(c.n, c.want); got != c.rank {
			t.Errorf("n=%d p%v: rank %d, want %d", c.n, c.want, got, c.rank)
		}
		if d.Tail != float64(c.rank) || d.Beyond != c.beyond || math.Abs(d.TailPct-c.pctWant) > 1e-9 {
			t.Errorf("n=%d p%v: tail %v (p%v, %d beyond), want %v (p%v, %d beyond)",
				c.n, c.want, d.Tail, d.TailPct, d.Beyond, c.rank, c.pctWant, c.beyond)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		d := summarize(c.xs, 0)
		if d.Q1 != c.q1 || d.Median != c.med || d.Q3 != c.q3 {
			t.Errorf("%v: q1/median/q3 %v/%v/%v, want %v/%v/%v", c.xs, d.Q1, d.Median, d.Q3, c.q1, c.med, c.q3)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps its sibling
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 3, Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	var tr *Tracer
	id := tr.Begin("x", "g", 0)
	tr.End(id)
	if id != 0 || tr.Spans() != nil {
		t.Errorf("nil tracer recorded span %d", id)
	}
	tr = newTracer()
	outer := tr.Begin("outer", "g", 0)
	inner := tr.Begin("inner", "g", outer)
	tr.End(inner)
	tr.End(outer)
	s := tr.Spans()
	if len(s) != 2 || s[1].Parent != outer || s[0].End < s[1].End {
		t.Errorf("spans %+v", s)
	}
}

func TestUnderOccupied(t *testing.T) {
	// Two workers: both busy over [0, 60), one busy over [60, 100).
	ivs := [][2]int64{{0, 60}, {0, 30}, {30, 60}, {60, 100}}
	if got := underOccupied(0, 100, ivs, 2); got != 40 {
		t.Errorf("idle %d, want 40", got)
	}
	if got := underOccupied(0, 100, ivs, 1); got != 0 {
		t.Errorf("idle with one worker %d, want 0", got)
	}
}

// TestWatchProgress ticks a progress counter past the watched cells:
// the watcher keeps one answer time per watched cell, in tick order,
// and ignores later ticks.
func TestWatchProgress(t *testing.T) {
	p := trace.NewProgress()
	stop := make(chan struct{})
	got := make(chan []time.Duration)
	start := time.Now()
	go func() { got <- watchProgress(p, 3, start, stop) }()
	p.CellDone()
	time.Sleep(20 * time.Millisecond)
	for i := 0; i < 4; i++ {
		p.CellDone()
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	avail := <-got
	if len(avail) != 3 {
		t.Fatalf("watched %d cells, want 3", len(avail))
	}
	if avail[0] >= avail[1] || avail[1] != avail[2] || avail[1] < 20*time.Millisecond {
		t.Errorf("answer times %v: want the first tick sampled alone, the next two together at least 20ms in", avail)
	}
}

// TestOpenLoopLateness plays a schedule whose requests are all due at
// once against one sender and a server that takes 20ms per answer:
// each later request is sent late by the time the earlier ones held
// the sender, and its latency counts from when it was due.
func TestOpenLoopLateness(t *testing.T) {
	const hold = 20 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(hold)
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	sched := make([]reqSpec, 4)
	ans := runClient(srv.URL, sched, 1, nil, "lt")
	for i, a := range ans {
		if !a.ok() {
			t.Fatalf("request %d: status %d err %v", i, a.Status, a.Err)
		}
		minLag := time.Duration(i) * hold
		if a.lag(sched[i]) < minLag {
			t.Errorf("request %d: lag %v, want >= %v", i, a.lag(sched[i]), minLag)
		}
		if a.latency(sched[i]) < minLag+hold || a.latency(sched[i]) != a.Done-sched[i].Due {
			t.Errorf("request %d: latency %v, want >= %v from due", i, a.latency(sched[i]), minLag+hold)
		}
	}
}

func TestScheduleSeedDeterminism(t *testing.T) {
	spec := serveMixed
	a, b := buildSchedule(spec, 7, 10), buildSchedule(spec, 7, 10)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	c := buildSchedule(spec, 8, 10)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != int(spec.Rate*10) || len(c) != len(a) {
		t.Fatalf("schedule length %d, want %d", len(a), int(spec.Rate*10))
	}
	// The requests that compute sit at the same slots under every seed,
	// a repeat never precedes its key's first request, and due times
	// never go backwards.
	firsts := func(s []reqSpec) map[int]string {
		seen := map[string]bool{}
		out := map[int]string{}
		for i, r := range s {
			if !seen[r.Key] {
				out[i] = r.Key
				seen[r.Key] = true
			}
		}
		return out
	}
	if !reflect.DeepEqual(firsts(a), firsts(c)) {
		t.Error("first requests moved with the seed")
	}
	policies := map[string]bool{}
	for i, r := range a {
		if i > 0 && r.Due < a[i-1].Due {
			t.Fatalf("request %d due %v before request %d at %v", i, r.Due, i-1, a[i-1].Due)
		}
		if r.Juliet {
			policies[r.Policy] = true
		}
		if r.Tenant < 0 || r.Tenant >= spec.Tenants {
			t.Fatalf("request %d: tenant %d", i, r.Tenant)
		}
	}
	if len(policies) != len(security.Policies()) {
		t.Errorf("juliet policies %v, want all of %v", policies, security.Policies())
	}
	paired := 0
	for i := 1; i < len(a); i++ {
		if a[i].Key == a[i-1].Key && a[i].Due == a[i-1].Due {
			paired++
		}
	}
	if paired < spec.Pairs {
		t.Errorf("%d first-request pairs, want %d", paired, spec.Pairs)
	}
}

func TestClassifyAnswerPaths(t *testing.T) {
	ms := time.Millisecond
	sched := []reqSpec{{Key: "A"}, {Key: "A"}, {Key: "A"}, {Key: "B"}, {Key: "A"}, {Key: "C"}}
	ans := []answer{
		{Status: 200, Sent: 0, Done: 10 * ms},       // computes A
		{Status: 200, Sent: 5 * ms, Done: 10 * ms},  // A still running: waits
		{Status: 200, Sent: 20 * ms, Done: 21 * ms}, // A in the LRU
		{Status: 200, Sent: 21 * ms, Done: 30 * ms}, // computes B, evicting A
		{Status: 200, Sent: 40 * ms, Done: 41 * ms}, // A from the store
		{Status: 503, Sent: 50 * ms, Done: 51 * ms}, // refused
	}
	coalesced := map[int]bool{1: true, 2: true, 4: true}
	got := classify(sched, ans, coalesced, 1)
	want := []answerPath{pathCold, pathCoalesced, pathLRU, pathCold, pathStore, pathFailed}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("paths %v, want %v", got, want)
	}
}

func TestOutputCheckRejectsPerturbedReference(t *testing.T) {
	ref := reference{
		Fig7:        map[string]string{refKey(sweepExact): "beef"},
		Streams:     "cafe",
		StreamInsts: streamInsts,
	}
	if err := ref.checkSweep(sweepExact, "beef"); err != nil {
		t.Errorf("matching digest rejected: %v", err)
	}
	if err := ref.checkSweep(sweepExact, "beee"); err == nil {
		t.Error("perturbed fig7 digest accepted")
	}
	if err := ref.checkSweep(companionSweep, "beef"); err == nil {
		t.Error("sweep without a reference accepted")
	}
	if err := ref.checkStreams("cafe"); err != nil {
		t.Errorf("matching stream digest rejected: %v", err)
	}
	if err := ref.checkStreams("cafd"); err == nil {
		t.Error("perturbed stream digest accepted")
	}

	cell := report.Cell{Workload: "mcf", Config: "isa", Cycles: 1000, Insts: 400}
	body, _ := json.Marshal(serve.SimResponse{Schema: serve.Schema, Version: serve.Version, Cell: cell})
	if err := checkAnswer(reqSpec{}, body, &cell, nil); err != nil {
		t.Errorf("matching cell rejected: %v", err)
	}
	perturbed := cell
	perturbed.Cycles++
	if err := checkAnswer(reqSpec{}, body, &perturbed, nil); err == nil {
		t.Error("served cell differing from the local one accepted")
	}

	j := report.Juliet{Policy: "watchdog", BadTotal: 3, BadDetected: 3, GoodTotal: 3, GoodClean: 3}
	jb, _ := json.Marshal(report.JulietReport{Juliet: j})
	jr := reqSpec{Juliet: true, Policy: "watchdog"}
	if err := checkAnswer(jr, jb, nil, &j); err != nil {
		t.Errorf("matching juliet record rejected: %v", err)
	}
	miss := j
	miss.BadDetected = 2
	mb, _ := json.Marshal(report.JulietReport{Juliet: miss})
	if err := checkAnswer(jr, mb, nil, &miss); err == nil {
		t.Error("watchdog missing a bad case accepted")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames)
	}
	o := &outcome{}
	commonE2E(o, e2e{})
	result := gated(o.Metrics)
	if len(result) != len(bj.EndToEnd) {
		t.Fatalf("%d end-to-end metrics in the result line, %d declared", len(result), len(bj.EndToEnd))
	}
	for i, m := range result {
		if m.Name != bj.EndToEnd[i].Name || m.Unit != bj.EndToEnd[i].Unit {
			t.Errorf("end-to-end %d: reported %s (%s), declared %s (%s)", i, m.Name, m.Unit, bj.EndToEnd[i].Name, bj.EndToEnd[i].Unit)
		}
	}
	if len(perLayer) != len(bj.PerLayer) {
		t.Fatalf("%d per-layer metrics printed, %d declared", len(perLayer), len(bj.PerLayer))
	}
	for i, m := range perLayer {
		if m.name != bj.PerLayer[i].Name || m.unit != bj.PerLayer[i].Unit {
			t.Errorf("per-layer %d: printed %s (%s), declared %s (%s)", i, m.name, m.unit, bj.PerLayer[i].Name, bj.PerLayer[i].Unit)
		}
	}
}
