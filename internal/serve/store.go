package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"watchdog/internal/flight"
	"watchdog/internal/report"
)

// The persistent result store has two layers in front of the
// simulator:
//
//   - the in-memory LRU of completed flight bodies (Server.cells),
//     bounded by entry count;
//   - an optional disk layer, content-addressed by the normalized
//     flight key under the report schema version. Entries are written
//     behind flight completion and checksum-verified on read: a
//     corrupt or stale-schema entry is evicted and recomputed, never
//     served. A restarted server pointed at the same directory replays
//     prior results byte-identically without re-simulating.
//
// Neither layer bounds the server's memory by itself: the runners under
// the flights keep every Result of their finite cell space.
//
// The flight key is already the canonical identity of a computation
// (SimFlightKey/JulietFlightKey normalize every default), and the
// simulations are deterministic, so replayed bytes are
// indistinguishable from fresh ones — the same property the in-memory
// coalescing layer has always leaned on, extended across restarts.

// storeEnvelope is the on-disk format of one entry: the schema
// version the body was produced under, the flight key it answers, and
// a checksum over the exact response bytes.
type storeEnvelope struct {
	Schema int    `json:"schema"`
	Key    string `json:"key"`
	Sum    string `json:"sum"` // sha256 of Body, hex
	Body   []byte `json:"body"`
}

// Store is the disk-backed content-addressed result layer. Entries
// live one per file, named by the SHA-256 of their flight key, so a
// key maps to exactly one slot regardless of key length or
// characters. Safe for concurrent use.
type Store struct {
	dir string

	// mu orders every change to the set of entry files (rename into
	// place, eviction, corrupt removal) with its index update, so the
	// index matches the directory exactly.
	mu sync.Mutex
	// index holds every entry file by name, weighted by its size, in
	// recency order: past the byte budget the least recently used files
	// are deleted (never the one just written).
	index flight.Cache[string, int64]

	diskHits atomic.Int64
	misses   atomic.Int64
	writes   atomic.Int64
	corrupt  atomic.Int64
}

// OpenStore opens (creating if needed) a result store rooted at dir,
// bounded at maxMB mebibytes of entries (minimum 1). Existing entries
// are kept — that is the point — and indexed oldest-touched first, so
// recency survives a restart. Temp files a crashed write left behind
// are deleted.
func OpenStore(dir string, maxMB int) (*Store, error) {
	return openStore(dir, int64(max(maxMB, 1))<<20)
}

// openStore is OpenStore with the budget in bytes.
func openStore(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	st := &Store{dir: dir}
	st.index.MaxWeight = maxBytes
	st.index.Weigh = func(size int64) int64 { return size }
	st.index.OnEvict = func(name string, _ int64) { os.Remove(filepath.Join(dir, name)) }

	dirents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	type file struct {
		name  string
		size  int64
		mtime time.Time
	}
	var files []file
	for _, de := range dirents {
		if de.IsDir() {
			continue
		}
		switch filepath.Ext(de.Name()) {
		case ".tmp":
			os.Remove(filepath.Join(dir, de.Name()))
		case ".json":
			if fi, err := de.Info(); err == nil {
				files = append(files, file{de.Name(), fi.Size(), fi.ModTime()})
			}
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	for _, f := range files {
		st.index.Add(f.name, f.size)
	}
	return st, nil
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

// entryName is the entry file name for one flight key.
func entryName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + ".json"
}

// Read returns the stored body for key, verifying the envelope: a
// missing entry is a plain miss; an unreadable, wrong-schema,
// wrong-key, or checksum-failing entry is evicted from disk and
// reported as a miss — a corrupt result must be recomputed, never
// served.
func (st *Store) Read(key string) ([]byte, bool) {
	n := entryName(key)
	p := filepath.Join(st.dir, n)
	data, err := os.ReadFile(p)
	if err != nil {
		st.misses.Add(1)
		return nil, false
	}
	var env storeEnvelope
	ok := json.Unmarshal(data, &env) == nil &&
		env.Schema == report.Version &&
		env.Key == key &&
		checksum(env.Body) == env.Sum
	if !ok {
		st.corrupt.Add(1)
		st.mu.Lock()
		os.Remove(p)
		st.index.Remove(n)
		st.mu.Unlock()
		st.misses.Add(1)
		return nil, false
	}
	st.diskHits.Add(1)
	// Mark the entry recently used, in the index and on disk (the mtime
	// orders the index a restart rebuilds).
	st.index.Get(n)
	now := time.Now()
	os.Chtimes(p, now, now)
	return env.Body, true
}

// Write persists one completed body under key, then evicts the least
// recently used entries past the size budget (never the one just
// written). The body lands in a temp file of its own and is renamed
// into place, so concurrent writes of one key never share a file and a
// crash leaves at most a temp file, which the next OpenStore deletes.
// Errors are swallowed: the store is a cache — a full or broken disk
// degrades to recomputation, not to failure.
func (st *Store) Write(key string, body []byte) {
	env := storeEnvelope{
		Schema: report.Version,
		Key:    key,
		Sum:    checksum(body),
		Body:   body,
	}
	data, err := json.Marshal(&env)
	if err != nil {
		return
	}
	n := entryName(key)
	f, err := os.CreateTemp(st.dir, n+".*.tmp")
	if err != nil {
		return
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := os.Rename(f.Name(), filepath.Join(st.dir, n)); err != nil {
		os.Remove(f.Name())
		return
	}
	st.writes.Add(1)
	st.index.Add(n, int64(len(data)))
}

// StoreMetrics is the store's slice of the /metrics document (both
// layers; zero-valued when the server runs without a disk store).
type StoreMetrics struct {
	// CacheEntries / CacheMax describe the in-memory LRU right now.
	CacheEntries int `json:"cache_entries"`
	CacheMax     int `json:"cache_max"`
	// CacheHits counts replays answered from the LRU; CacheEvictions
	// counts entries dropped past the bound.
	CacheHits      int64 `json:"cache_hits"`
	CacheEvictions int64 `json:"cache_evictions"`
	// Disk layer counters (all zero without -store-dir).
	DiskHits       int64 `json:"disk_hits,omitempty"`
	DiskMisses     int64 `json:"disk_misses,omitempty"`
	DiskWrites     int64 `json:"disk_writes,omitempty"`
	DiskBytes      int64 `json:"disk_bytes,omitempty"`
	DiskEvictions  int64 `json:"disk_evictions,omitempty"`
	CorruptEvicted int64 `json:"corrupt_evicted,omitempty"`
}

// storeMetrics assembles the two layers' counters.
func (s *Server) storeMetrics() StoreMetrics {
	cs := s.cells.Stats()
	m := StoreMetrics{
		CacheEntries:   cs.Len,
		CacheMax:       s.cfg.CacheEntries,
		CacheHits:      cs.Hits,
		CacheEvictions: cs.Evictions,
	}
	if st := s.cfg.Store; st != nil {
		is := st.index.Stats()
		m.DiskHits = st.diskHits.Load()
		m.DiskMisses = st.misses.Load()
		m.DiskWrites = st.writes.Load()
		m.DiskBytes = is.Weight
		m.DiskEvictions = is.Evictions
		m.CorruptEvicted = st.corrupt.Load()
	}
	return m
}

// checksum is the store's content hash (SHA-256, hex).
func checksum(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}
