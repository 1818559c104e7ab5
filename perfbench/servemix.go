package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"watchdog/internal/experiments"
	"watchdog/internal/report"
	"watchdog/internal/security"
	"watchdog/internal/serve"
	"watchdog/internal/sim"
	"watchdog/internal/workload"
)

// serveSpec fixes the serve-mixed traffic and server shape.
type serveSpec struct {
	// Rate is the offered load in requests per second (open loop).
	Rate float64
	// ZipfS is the popularity exponent over the key ranks.
	ZipfS float64
	// JulietShare is the fraction of requests that go to /v1/juliet.
	JulietShare float64
	Tenants     int
	// Pairs is how many of the most requested keys get their first two
	// requests at the same instant (see buildSchedule).
	Pairs int
	// CacheEntries sizes the server's LRU below the hot set, so some
	// replays come from the disk store.
	CacheEntries int
	// StoreMB is the disk store budget; PrimeBytes of filler entries
	// are written at set-up so that eviction runs during the
	// measurement.
	StoreMB    int
	PrimeBytes int64
	// Limit is the latency limit of within_limit_ratio.
	Limit time.Duration
}

// popularitySeed fixes which keys are popular. It is a constant, not
// the run seed: the seed shapes the order, timing and tenants of the
// requests, while the multiset of keys — and so the set of cold
// computations — stays the same, which keeps the cold-path figures
// comparable from seed to seed.
const popularitySeed = 0x5eed_f167

// reqSpec is one scheduled request.
type reqSpec struct {
	Due    time.Duration // since the schedule started
	Tenant int
	Juliet bool
	Sim    serve.SimRequest
	Policy string
	// Key is the server's flight key for the request.
	Key string
	// Lane picks the sender: computing requests (each key's first ask)
	// go on lane 0, replays and paired second asks on lane 1, so that
	// a replay never queues in the generator behind a computation.
	Lane int
}

// simKeySpace lists every /v1/sim request of the key space in a fixed
// popularity order: workloads x all configurations x scales 1-4 x
// {exact, sampled} x overhead on/off.
func simKeySpace() []serve.SimRequest {
	var out []serve.SimRequest
	for _, w := range workload.Names() {
		for _, c := range experiments.ConfigNames() {
			for scale := 1; scale <= 4; scale++ {
				for _, fid := range []sim.Fidelity{sim.FidelityExact, sim.FidelitySampled} {
					for _, ovh := range []bool{false, true} {
						out = append(out, serve.SimRequest{
							Workload: w, Config: c, Scale: scale,
							Fidelity: string(fid), Overhead: ovh,
						})
					}
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(popularitySeed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// simKey is the server's flight key for a /v1/sim request.
func simKey(r serve.SimRequest) string {
	ovh := r.Overhead && r.Config != string(experiments.CfgBaseline)
	return serve.SimFlightKey(r.Workload, r.Config, r.Scale, sim.Fidelity(r.Fidelity), ovh)
}

// julietKey is the server's flight key for a /v1/juliet request.
func julietKey(policy string) string {
	bits := 0
	if policy == "xtag" {
		bits = 8
	}
	return serve.JulietFlightKey(policy, bits)
}

// apportion splits n over weights by the largest-remainder method: the
// counts sum to n and follow the weights as closely as whole numbers
// can.
func apportion(n int, weights []float64) []int {
	var total float64
	for _, w := range weights {
		total += w
	}
	counts := make([]int, len(weights))
	type rem struct {
		i int
		r float64
	}
	rems := make([]rem, len(weights))
	left := n
	for i, w := range weights {
		exact := float64(n) * w / total
		counts[i] = int(exact)
		left -= counts[i]
		rems[i] = rem{i, exact - float64(counts[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].r > rems[b].r })
	for k := 0; k < left; k++ {
		counts[rems[k].i]++
	}
	return counts
}

func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	for r := range w {
		w[r] = 1 / math.Pow(float64(r+1), s)
	}
	return w
}

// buildSchedule makes the open-loop request schedule for one run.
//
// The key multiset follows the Zipf popularity law. The requests that
// must compute — each key's first request, and the second request of
// each of the `Pairs` most requested keys, which arrives together with
// the first as when two users open the same new cell at once and so
// waits on its computation — arrive in popularity order at evenly
// spaced slots, identically in every run, so the cold work does not
// depend on the seed. The seed deals the repeat requests over the other
// slots (a repeat never precedes its key's first request), jitters each
// request within its slot of the constant-rate arrival clock, and
// picks its tenant. Computing requests and replays travel on separate
// lanes of the generator (see reqSpec.Lane).
func buildSchedule(spec serveSpec, seed int64, seconds float64) []reqSpec {
	n := int(math.Round(spec.Rate * seconds))
	if n < 1 {
		n = 1
	}
	nj := int(math.Round(spec.JulietShare * float64(n)))
	policies := security.Policies()
	if nj > 0 && nj < len(policies) {
		nj = len(policies) // every policy at least once
	}
	type keyCount struct {
		r reqSpec
		c int
	}
	var kcs []keyCount
	if nj > 0 {
		for i, c := range apportion(nj-len(policies), zipfWeights(len(policies), spec.ZipfS)) {
			kcs = append(kcs, keyCount{reqSpec{Juliet: true, Policy: policies[i], Key: julietKey(policies[i])}, c + 1})
		}
	}
	keys := simKeySpace()
	for i, c := range apportion(n-nj, zipfWeights(len(keys), spec.ZipfS)) {
		if c > 0 {
			kcs = append(kcs, keyCount{reqSpec{Sim: keys[i], Key: simKey(keys[i])}, c})
		}
	}
	// Popularity order; equal counts keep the key space's fixed order.
	sort.SliceStable(kcs, func(i, j int) bool { return kcs[i].c > kcs[j].c })

	// A unit is the computing part of one key: its first request, and
	// its second one when paired.
	type unit struct{ reqs []reqSpec }
	units := make([]unit, len(kcs))
	byKey := make(map[string][]reqSpec, len(kcs))
	for i, kc := range kcs {
		first := 1
		if i < spec.Pairs && kc.c >= 2 {
			first = 2
		}
		for k := 0; k < kc.c; k++ {
			if k < first {
				units[i].reqs = append(units[i].reqs, kc.r)
			} else {
				rep := kc.r
				rep.Lane = 1
				byKey[kc.r.Key] = append(byKey[kc.r.Key], rep)
			}
		}
	}

	rng := rand.New(rand.NewSource(seed))
	out := make([]reqSpec, 0, n)
	joined := make(map[int]bool)
	var ready []reqSpec // repeats whose key's first request is placed
	u := 0
	for len(out) < n {
		if u < len(units) && (len(out) >= u*n/len(units) || len(ready) == 0) {
			for k, r := range units[u].reqs {
				joined[len(out)] = k > 0
				if k > 0 {
					r.Lane = 1
				}
				out = append(out, r)
			}
			ready = append(ready, byKey[units[u].reqs[0].Key]...)
			u++
			continue
		}
		j := rng.Intn(len(ready))
		out = append(out, ready[j])
		ready[j] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
	}
	slot := float64(time.Second) / spec.Rate
	for i := range out {
		out[i].Due = time.Duration((float64(i) + rng.Float64()) * slot)
		if joined[i] {
			out[i].Due = out[i-1].Due
		}
		out[i].Tenant = rng.Intn(spec.Tenants)
	}
	return out
}

func tenantKey(t int) string { return fmt.Sprintf("bench-key-%d", t) }

// serveEnv is one in-process server on a loopback listener.
type serveEnv struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	errc chan error
}

// primeStore fills a store with about `bytes` of filler entries under
// keys no request uses, as a long-running server's store holds earlier
// results. The entries are large, so that set-up takes a few file
// writes rather than hundreds.
func primeStore(st *serve.Store, bytes int64) error {
	body := make([]byte, 48<<10)
	for i := range body {
		body[i] = 'a' + byte(i%26)
	}
	st.Write("prime/00000", body)
	per, err := dirBytes(st.Dir())
	if err != nil || per == 0 {
		return fmt.Errorf("priming store: %v", err)
	}
	n := bytes / per
	for i := int64(1); i < n; i++ {
		st.Write(fmt.Sprintf("prime/%05d", i), body)
	}
	// Top up with one smaller entry: the body is stored base64-encoded,
	// four bytes for every three, beside a fixed-size envelope.
	envelope := per - int64(base64.StdEncoding.EncodedLen(len(body)))
	if rest := (bytes - n*per - envelope) * 3 / 4; rest > 0 {
		st.Write(fmt.Sprintf("prime/%05d", n), body[:rest])
	}
	return nil
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) (int64, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, de := range des {
		if fi, err := de.Info(); err == nil && !fi.IsDir() {
			n += fi.Size()
		}
	}
	return n, nil
}

// startServer is the serve-mixed set-up: a fresh store directory,
// primed and opened, a server over it, listening on loopback and
// answering /healthz.
func startServer(spec serveSpec, dir string, tr *Tracer) (*serveEnv, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	st, err := serve.OpenStore(dir, spec.StoreMB)
	if err != nil {
		return nil, err
	}
	if err := primeStore(st, spec.PrimeBytes); err != nil {
		return nil, err
	}
	keys := make(map[string]string, spec.Tenants)
	for t := 0; t < spec.Tenants; t++ {
		keys[tenantKey(t)] = fmt.Sprintf("tenant-%d", t)
	}
	srv := serve.New(serve.Config{
		Keys:         keys,
		CacheEntries: spec.CacheEntries,
		Store:        st,
		FlightLogN:   1 << 16,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env := &serveEnv{
		srv:  srv,
		hs:   &http.Server{Handler: tracedHandler(srv.Handler(), tr)},
		url:  "http://" + ln.Addr().String(),
		errc: make(chan error, 1),
	}
	go func() { env.errc <- env.hs.Serve(ln) }()
	for i := 0; ; i++ {
		resp, err := http.Get(env.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if i == 100 {
			env.stop()
			return nil, fmt.Errorf("server not ready: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return env, nil
}

// stop shuts the listener down and waits for write-behind persists.
func (e *serveEnv) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	e.hs.Shutdown(ctx)
	<-e.errc
	e.srv.Flush()
}

// spanHeader carries the client's span id so the server-side span
// links to it.
const spanHeader = "X-Bench-Span"

// tracedHandler wraps the server's handler in a span per request; with
// tracing off it is the handler itself.
func tracedHandler(h http.Handler, tr *Tracer) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		id := tr.Begin("Handler.ServeHTTP", r.Header.Get(serve.RequestIDHeader), parent)
		h.ServeHTTP(w, r)
		tr.End(id)
	})
}

// answer is what the client saw for one scheduled request. Times are
// since the schedule started.
type answer struct {
	Status int
	Body   []byte
	Sent   time.Duration
	Done   time.Duration
	Err    error
}

// latency is the answer time measured from when the request was due.
func (a answer) latency(r reqSpec) time.Duration { return a.Done - r.Due }

// lag is how late the generator sent the request against its schedule.
func (a answer) lag(r reqSpec) time.Duration { return a.Sent - r.Due }

func (a answer) ok() bool { return a.Err == nil && a.Status/100 == 2 }

// requestID is the correlation id the client stamps on request i.
func requestID(label string, i int) string { return fmt.Sprintf("%s-%d", label, i) }

// runClient plays the schedule open loop from one process with
// `workers` senders, each holding one keep-alive connection. Sender k
// carries the requests of lane k (mod workers) in schedule order: a
// request goes out at its due time, or as soon as its sender is free
// after it.
func runClient(url string, sched []reqSpec, workers int, tr *Tracer, label string) []answer {
	tp := &http.Transport{
		MaxIdleConnsPerHost: workers,
		MaxConnsPerHost:     workers,
		DisableCompression:  true,
	}
	defer tp.CloseIdleConnections()
	client := &http.Client{Transport: tp}
	out := make([]answer, len(sched))
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, r := range sched {
				if r.Lane%workers != k {
					continue
				}
				if d := time.Until(start.Add(r.Due)); d > 0 {
					time.Sleep(d)
				}
				out[i] = send(client, url, r, tr, requestID(label, i), start)
			}
		}()
	}
	wg.Wait()
	return out
}

// send issues one request and reads the whole answer.
func send(client *http.Client, url string, r reqSpec, tr *Tracer, id string, start time.Time) answer {
	path, body := "/v1/sim", any(r.Sim)
	if r.Juliet {
		path, body = "/v1/juliet", serve.JulietRequest{Policy: r.Policy}
	}
	b, _ := json.Marshal(body)
	req, err := http.NewRequest(http.MethodPost, url+path, bytes.NewReader(b))
	if err != nil {
		return answer{Err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+tenantKey(r.Tenant))
	req.Header.Set(serve.RequestIDHeader, id)
	span := tr.Begin("client.request", id, 0)
	if span != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(span, 10))
	}
	a := answer{Sent: time.Since(start)}
	resp, err := client.Do(req)
	if err == nil {
		a.Status = resp.StatusCode
		a.Body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	a.Done = time.Since(start)
	tr.End(span)
	a.Err = err
	return a
}

// answerPath is the way the server produced an answer.
type answerPath int

const (
	pathFailed    answerPath = iota // non-2xx or transport error
	pathCold                        // ran the computation
	pathCoalesced                   // waited on another request's computation
	pathLRU                         // replayed from the in-memory LRU
	pathStore                       // replayed from the disk store
)

var pathNames = [...]string{"failed", "cold", "coalesced", "lru", "store"}

func (p answerPath) String() string { return pathNames[p] }

// classify attributes every answer to its path. The server's flight
// recorder says which requests ran a computation (coalesced=false);
// among the rest, a request sent while the computation of its key was
// running waited on it, and a replay came from the LRU if the key was
// used within the last lruSize distinct keys (the LRU's own rule,
// replayed in server order: a computation enters the LRU when it
// finishes, a replay when it is sent) and from the disk store
// otherwise.
func classify(sched []reqSpec, ans []answer, coalesced map[int]bool, lruSize int) []answerPath {
	paths := make([]answerPath, len(sched))
	type event struct {
		at  time.Duration
		i   int
		put bool // a computation finishing
	}
	var evs []event
	running := make(map[string][][2]time.Duration) // key -> computation windows
	for i, a := range ans {
		if !a.ok() {
			paths[i] = pathFailed
			continue
		}
		if !coalesced[i] {
			paths[i] = pathCold
			running[sched[i].Key] = append(running[sched[i].Key], [2]time.Duration{a.Sent, a.Done})
			evs = append(evs, event{a.Done, i, true})
			continue
		}
		evs = append(evs, event{a.Sent, i, false})
	}
	sort.SliceStable(evs, func(x, y int) bool { return evs[x].at < evs[y].at })
	lru := newLRUModel(lruSize)
	for _, e := range evs {
		key := sched[e.i].Key
		if e.put {
			lru.use(key)
			continue
		}
		waited := false
		for _, w := range running[key] {
			if e.at >= w[0] && e.at < w[1] {
				waited = true
				break
			}
		}
		switch {
		case waited:
			paths[e.i] = pathCoalesced
		case lru.has(key):
			paths[e.i] = pathLRU
			lru.use(key)
		default:
			paths[e.i] = pathStore
			lru.use(key)
		}
	}
	return paths
}

// lruModel is a recency list of at most n keys.
type lruModel struct {
	n    int
	tick int
	last map[string]int
}

func newLRUModel(n int) *lruModel { return &lruModel{n: n, last: make(map[string]int)} }

func (l *lruModel) use(key string) {
	l.tick++
	l.last[key] = l.tick
	if len(l.last) > l.n {
		oldest, at := "", math.MaxInt
		for k, t := range l.last {
			if t < at {
				oldest, at = k, t
			}
		}
		delete(l.last, oldest)
	}
}

func (l *lruModel) has(key string) bool { _, ok := l.last[key]; return ok }

// fetchJSON GETs a JSON document from the server.
func fetchJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// coalescedByIndex reads the server's flight recorder back into a map
// from schedule index to the coalesced flag.
func coalescedByIndex(url, label string, n int) (map[int]bool, error) {
	var dump serve.FlightDump
	if err := fetchJSON(url+"/debug/flights", &dump); err != nil {
		return nil, err
	}
	out := make(map[int]bool, n)
	seen := 0
	for _, f := range dump.Flights {
		var i int
		if _, err := fmt.Sscanf(f.RequestID, label+"-%d", &i); err != nil || i < 0 || i >= n {
			continue
		}
		out[i] = f.Coalesced
		seen++
	}
	if seen != n {
		return nil, fmt.Errorf("flight recorder holds %d of %d requests", seen, n)
	}
	return out, nil
}

// servePass is one measured serve-mixed pass and what it produced.
type servePass struct {
	Sched   []reqSpec
	Ans     []answer
	Paths   []answerPath
	Wall    time.Duration
	Metrics serve.Metrics
	// SimMIPS holds, for each cell the server computed, its simulated
	// instructions per microsecond of SimResponse.WallNanos.
	SimMIPS []float64
	RSSMB   float64
	// HandlerHit holds the in-process handler timings (probe passes).
	HandlerHit []time.Duration
}

// runServePass plays the schedule against a started server and
// collects the answers, their paths and the server's counters. With
// probe set it also times cached-key answers through the handler
// in-process (no network) for serve.handler_hit_us.
func runServePass(env *serveEnv, spec serveSpec, sched []reqSpec, jobs int, tr *Tracer, label string, probe bool) (*servePass, error) {
	ans := runClient(env.url, sched, jobs, tr, label)
	p := &servePass{Sched: sched, Ans: ans}
	for _, a := range ans {
		p.Wall = max(p.Wall, a.Done)
	}
	p.RSSMB = peakRSSMB()
	coalesced, err := coalescedByIndex(env.url, label, len(sched))
	if err != nil {
		return nil, err
	}
	p.Paths = classify(sched, ans, coalesced, spec.CacheEntries)
	env.srv.Flush()
	if err := fetchJSON(env.url+"/metrics", &p.Metrics); err != nil {
		return nil, err
	}
	for i, a := range ans {
		if p.Paths[i] != pathCold || sched[i].Juliet {
			continue
		}
		var sr serve.SimResponse
		if err := json.Unmarshal(a.Body, &sr); err != nil {
			return nil, fmt.Errorf("request %d: %v", i, err)
		}
		if sr.WallNanos <= 0 {
			return nil, fmt.Errorf("request %d: computed answer reports %d ns of computation", i, sr.WallNanos)
		}
		p.SimMIPS = append(p.SimMIPS, float64(sr.Cell.Insts)/float64(sr.WallNanos)*1e3)
	}
	if probe {
		p.HandlerHit = probeHandler(env.srv, p)
	}
	return p, nil
}

// probeHandler times Handler().ServeHTTP in-process on the pass's most
// requested /v1/sim key, which the LRU holds.
func probeHandler(srv *serve.Server, p *servePass) []time.Duration {
	counts := make(map[string]int)
	best := -1
	for i, r := range p.Sched {
		if r.Juliet || !p.Ans[i].ok() {
			continue
		}
		counts[r.Key]++
		if best < 0 || counts[r.Key] > counts[p.Sched[best].Key] {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	body, _ := json.Marshal(p.Sched[best].Sim)
	h := srv.Handler()
	out := make([]time.Duration, 0, 2000)
	for k := 0; k < cap(out); k++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/sim", bytes.NewReader(body))
		req.Header.Set("Authorization", "Bearer "+tenantKey(0))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		out = append(out, time.Since(t0))
		if rec.Code != http.StatusOK {
			return nil
		}
	}
	return out
}

// verifyServe checks every successful answer against a local
// computation: each /v1/sim cell must equal Runner.CellCtx's cell for
// its key, and each /v1/juliet record must equal the local
// security.SummarizeRan record, with the watchdog policy detecting
// every bad case and flagging no good one.
func verifyServe(ctx context.Context, passes []*servePass, jobs int) error {
	type want struct {
		cell   *report.Cell
		juliet *report.Juliet
	}
	local := make(map[string]*want)
	var order []reqSpec
	for _, p := range passes {
		for i, a := range p.Ans {
			if !a.ok() {
				continue
			}
			if _, ok := local[p.Sched[i].Key]; !ok {
				local[p.Sched[i].Key] = &want{}
				order = append(order, p.Sched[i])
			}
		}
	}
	runners := make(map[[2]string]*experiments.Runner)
	for _, r := range order {
		if r.Juliet {
			continue
		}
		rk := [2]string{strconv.Itoa(r.Sim.Scale), r.Sim.Fidelity}
		if runners[rk] == nil {
			rn, err := experiments.NewRunner(r.Sim.Scale)
			if err != nil {
				return err
			}
			rn.Fidelity = sim.Fidelity(r.Sim.Fidelity)
			runners[rk] = rn
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, len(order))
	for k := 0; k < jobs; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(order) {
					return
				}
				r := order[j]
				w := local[r.Key]
				if r.Juliet {
					cfg, opts, err := security.PolicyConfig(r.Policy)
					if err != nil {
						errs[j] = err
						continue
					}
					cases := security.Suite()
					outs, err := security.RunCasesCtx(ctx, cases, cfg, opts, 1, nil, nil)
					if err != nil {
						errs[j] = err
						continue
					}
					rec := security.SummarizeRan(cases, outs).ReportRecord(r.Policy)
					w.juliet = &rec
					continue
				}
				wl, _ := workload.ByName(r.Sim.Workload)
				rn := runners[[2]string{strconv.Itoa(r.Sim.Scale), r.Sim.Fidelity}]
				cell, err := rn.CellCtx(ctx, wl, experiments.ConfigName(r.Sim.Config), r.Sim.Overhead)
				if err != nil {
					errs[j] = err
					continue
				}
				w.cell = &cell
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("local reference: %w", err)
		}
	}
	for _, p := range passes {
		for i, a := range p.Ans {
			if !a.ok() {
				continue
			}
			r := p.Sched[i]
			if err := checkAnswer(r, a.Body, local[r.Key].cell, local[r.Key].juliet); err != nil {
				return fmt.Errorf("request %d (%s): %w", i, r.Key, err)
			}
		}
	}
	return nil
}

// checkAnswer compares one served body with the local reference.
func checkAnswer(r reqSpec, body []byte, cell *report.Cell, juliet *report.Juliet) error {
	if r.Juliet {
		var got report.JulietReport
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if err := sameJSON(got.Juliet, juliet); err != nil {
			return err
		}
		if r.Policy == "watchdog" && (got.Juliet.BadDetected != got.Juliet.BadTotal ||
			got.Juliet.GoodClean != got.Juliet.GoodTotal) {
			return fmt.Errorf("watchdog detected %d/%d with %d false positives",
				got.Juliet.BadDetected, got.Juliet.BadTotal, got.Juliet.GoodTotal-got.Juliet.GoodClean)
		}
		return nil
	}
	var got serve.SimResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	return sameJSON(got.Cell, cell)
}

// sameJSON reports whether two values encode to the same JSON.
func sameJSON(got, want any) error {
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("served %s, local %s", g, w)
	}
	return nil
}
