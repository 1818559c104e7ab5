// Package flight is the one single-flight cache behind every cell the
// reproduction computes: the experiments runner's results and
// profiles, the serving layer's flights and its in-memory LRU, and the
// disk store's size index.
//
// A Cache gives per-key single-flight semantics. The first requester of
// a key becomes the creator and computes; every other requester of the
// same key waits for that computation, or leaves on its own context
// while the computation runs on for the rest. A completed entry is kept
// and returned to later requests, even under a canceled context. A
// failure is handed to the waiters of that one flight and then dropped,
// so the next request recomputes instead of replaying the error.
//
// Completed entries can be bounded by total weight, least recently used
// evicted first. The zero bound keeps every entry and maintains no
// recency list, so a hit is one locked map lookup.
package flight

import (
	"container/list"
	"context"
	"sync"
)

// Cache is a per-key single-flight cache with an optional LRU bound on
// its completed entries. Set the exported fields before first use; the
// zero value is an unbounded cache. Safe for concurrent use; a Cache
// must not be copied after first use.
type Cache[K comparable, V any] struct {
	// MaxWeight bounds the total weight of completed entries: past it the
	// least recently used are evicted, except the most recent one, which
	// stays even when it alone outweighs the bound. 0 means unbounded.
	MaxWeight int64
	// Weigh returns an entry's weight (nil: every entry weighs 1, so
	// MaxWeight counts entries).
	Weigh func(V) int64
	// Admit, when non-nil, is asked before a request creates a new flight
	// (never for a hit or a wait). A non-nil error refuses the flight: no
	// entry is registered and Do returns the error.
	Admit func() error
	// OnEvict, when non-nil, is called with each entry evicted past
	// MaxWeight.
	//
	// Weigh, Admit and OnEvict run under the cache's lock, so that
	// admission and registration, or eviction and its side effect, are
	// one step. They must not block or call back into the cache.
	OnEvict func(K, V)
	// OnShare, when non-nil, is called outside the lock when Do finds an
	// entry another request created, before it waits on one in flight,
	// so a waiter is observable while it waits.
	OnShare func()

	mu sync.Mutex
	m  map[K]*entry[K, V]
	// lru orders the completed entries, most recently used first
	// (built by the first completion of a bounded cache).
	lru   *list.List
	stats Stats
}

// Stats is a snapshot of a cache's counters.
type Stats struct {
	Len       int   // completed entries
	Weight    int64 // their total weight
	Hits      int64 // requests answered by a completed entry (Get, or Do finding one)
	Evictions int64 // entries evicted past MaxWeight
}

// entry is one key's slot. An in-flight entry has ready == false; its
// creator fills val/err and then closes done. Entries inserted by Add
// are ready from the start and have no done channel.
type entry[K comparable, V any] struct {
	key    K
	val    V
	err    error
	ready  bool
	done   chan struct{}
	weight int64
	el     *list.Element // in lru
}

// Do returns the value for key. A completed entry answers at once. An
// in-flight one is waited for until it completes or ctx ends. Otherwise
// the caller becomes the creator: Admit is asked, then fn runs on the
// caller's goroutine (ctx does not bound it; fn carries its own
// context), and its result is kept on success or handed to the flight's
// waiters and dropped on failure. shared reports that the answer came
// from an entry another request created, completed or in flight.
func (c *Cache[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (v V, shared bool, err error) {
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		ready := e.ready
		if ready {
			c.hitLocked(e)
		}
		c.mu.Unlock()
		if c.OnShare != nil {
			c.OnShare()
		}
		if ready {
			return e.val, true, nil
		}
		select {
		case <-e.done:
		case <-ctx.Done():
			// A flight that completed meanwhile still answers.
			select {
			case <-e.done:
			default:
				var zero V
				return zero, true, ctx.Err()
			}
		}
		return e.val, true, e.err
	}
	if c.Admit != nil {
		if err := c.Admit(); err != nil {
			c.mu.Unlock()
			var zero V
			return zero, false, err
		}
	}
	e := &entry[K, V]{key: key, done: make(chan struct{})}
	if c.m == nil {
		c.m = make(map[K]*entry[K, V])
	}
	c.m[key] = e
	c.mu.Unlock()

	e.val, e.err = fn()
	c.mu.Lock()
	if e.err != nil {
		delete(c.m, key)
	} else {
		c.completeLocked(e)
	}
	c.mu.Unlock()
	close(e.done)
	return e.val, false, e.err
}

// Get returns the completed value for key, marking it most recently
// used. In-flight entries are not waited for.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok || !e.ready {
		var zero V
		return zero, false
	}
	c.hitLocked(e)
	return e.val, true
}

// Add inserts a completed value for key, or replaces the value of a
// completed entry and marks it most recently used, then evicts past
// MaxWeight. A key still in flight is left to its creator, whose result
// lands when it completes.
func (c *Cache[K, V]) Add(key K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		if !e.ready {
			return
		}
		c.dropLocked(e)
	}
	if c.m == nil {
		c.m = make(map[K]*entry[K, V])
	}
	e := &entry[K, V]{key: key, val: v}
	c.m[key] = e
	c.completeLocked(e)
}

// Remove drops the completed entry for key, without counting an
// eviction or calling OnEvict. A key still in flight is left alone.
func (c *Cache[K, V]) Remove(key K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok && e.ready {
		c.dropLocked(e)
	}
}

// Snapshot copies the completed entries.
func (c *Cache[K, V]) Snapshot() map[K]V {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[K]V, c.stats.Len)
	for k, e := range c.m {
		if e.ready {
			out[k] = e.val
		}
	}
	return out
}

// Stats returns the cache's counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// hitLocked counts a hit on a completed entry and marks it most
// recently used.
func (c *Cache[K, V]) hitLocked(e *entry[K, V]) {
	c.stats.Hits++
	if e.el != nil {
		c.lru.MoveToFront(e.el)
	}
}

// completeLocked turns e, already in the map, into a completed entry at
// the front of the recency list, then evicts past the bound.
func (c *Cache[K, V]) completeLocked(e *entry[K, V]) {
	e.ready = true
	e.weight = 1
	if c.Weigh != nil {
		e.weight = c.Weigh(e.val)
	}
	c.stats.Len++
	c.stats.Weight += e.weight
	if c.MaxWeight <= 0 {
		return
	}
	if c.lru == nil {
		c.lru = list.New()
	}
	e.el = c.lru.PushFront(e)
	for c.stats.Weight > c.MaxWeight && c.lru.Len() > 1 {
		old := c.lru.Back().Value.(*entry[K, V])
		c.dropLocked(old)
		c.stats.Evictions++
		if c.OnEvict != nil {
			c.OnEvict(old.key, old.val)
		}
	}
}

// dropLocked removes the completed entry e from the map, the counts and
// the recency list.
func (c *Cache[K, V]) dropLocked(e *entry[K, V]) {
	delete(c.m, e.key)
	c.stats.Len--
	c.stats.Weight -= e.weight
	if e.el != nil {
		c.lru.Remove(e.el)
	}
}
