package flight

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSingleFlight: concurrent requests for one key run fn once; every
// other request shares the creator's value.
func TestSingleFlight(t *testing.T) {
	var c Cache[string, int]
	var calls atomic.Int32
	release := make(chan struct{})
	started := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	shared := make([]bool, n)
	vals := make([]int, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals[i], shared[i], errs[i] = c.Do(context.Background(), "k", func() (int, error) {
				calls.Add(1)
				close(started)
				<-release
				return 42, nil
			})
		}()
		if i == 0 {
			<-started // the first request is the creator
		}
	}
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", calls.Load())
	}
	creators := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil || vals[i] != 42 {
			t.Errorf("request %d: %d, %v", i, vals[i], errs[i])
		}
		if !shared[i] {
			creators++
		}
	}
	if creators != 1 {
		t.Errorf("%d requests reported creating, want 1", creators)
	}
	if c.Stats().Len != 1 {
		t.Errorf("Len = %d, want 1", c.Stats().Len)
	}
}

// TestWaiterCancellation: a waiter leaves on its own context while the
// flight runs on; the completed entry then answers even a canceled
// context.
func TestWaiterCancellation(t *testing.T) {
	var c Cache[string, int]
	release := make(chan struct{})
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			return 7, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v, shared, err := c.Do(ctx, "k", func() (int, error) {
		t.Error("waiter ran fn")
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) || !shared || v != 0 {
		t.Fatalf("canceled waiter = %d/%v/%v, want 0/true/canceled", v, shared, err)
	}
	close(release)
	<-done
	v, shared, err = c.Do(ctx, "k", nil)
	if err != nil || !shared || v != 7 {
		t.Fatalf("completed entry under canceled ctx = %d/%v/%v, want 7/true/nil", v, shared, err)
	}
	if c.Stats().Hits != 1 {
		t.Errorf("Hits = %d, want 1", c.Stats().Hits)
	}
}

// TestFailureNotRetained: the waiters of a failed flight get its error
// and value; the next request recomputes.
func TestFailureNotRetained(t *testing.T) {
	var c Cache[string, int]
	boom := errors.New("boom")
	release := make(chan struct{})
	started := make(chan struct{})
	go c.Do(context.Background(), "k", func() (int, error) {
		close(started)
		<-release
		return -1, boom
	})
	<-started
	waiting := &doneSpy{Context: context.Background(), called: make(chan struct{})}
	waited := make(chan error)
	go func() {
		v, _, err := c.Do(waiting, "k", nil)
		if v != -1 {
			t.Errorf("waiter value = %d, want the failed flight's -1", v)
		}
		waited <- err
	}()
	<-waiting.called // the waiter is parked on the in-flight entry
	close(release)
	if err := <-waited; !errors.Is(err, boom) {
		t.Fatalf("waiter err = %v, want boom", err)
	}
	if c.Stats().Len != 0 {
		t.Errorf("Len = %d after a failure, want 0", c.Stats().Len)
	}
	calls := 0
	v, shared, err := c.Do(context.Background(), "k", func() (int, error) {
		calls++
		return 3, nil
	})
	if err != nil || shared || v != 3 || calls != 1 {
		t.Errorf("retry = %d/%v/%v (%d calls), want a fresh computation", v, shared, err, calls)
	}
}

// doneSpy signals the first call of Done: a waiter calls it only once
// it has found an in-flight entry to wait on.
type doneSpy struct {
	context.Context
	once   sync.Once
	called chan struct{}
}

func (d *doneSpy) Done() <-chan struct{} {
	d.once.Do(func() { close(d.called) })
	return d.Context.Done()
}

// TestLRUByWeight: completed entries are bounded by total weight,
// least recently used evicted first, and the newest entry always stays.
func TestLRUByWeight(t *testing.T) {
	var evicted []string
	c := Cache[string, int64]{
		MaxWeight: 10,
		Weigh:     func(n int64) int64 { return n },
		OnEvict:   func(k string, _ int64) { evicted = append(evicted, k) },
	}
	c.Add("a", 4)
	c.Add("b", 4)
	if _, ok := c.Get("a"); !ok { // promote a over b
		t.Fatal("a missing")
	}
	c.Add("c", 4) // 12 > 10: evicts b, the coldest
	if _, ok := c.Get("b"); ok {
		t.Error("b survived; recency order not honoured")
	}
	if c.Stats().Weight != 8 || c.Stats().Len != 2 || c.Stats().Evictions != 1 {
		t.Errorf("weight %d len %d evictions %d, want 8/2/1", c.Stats().Weight, c.Stats().Len, c.Stats().Evictions)
	}
	c.Add("a", 2) // replacing reweighs and promotes
	if c.Stats().Weight != 6 {
		t.Errorf("weight after replace = %d, want 6", c.Stats().Weight)
	}
	c.Add("huge", 50) // alone over the bound: everything else goes
	if v, ok := c.Get("huge"); !ok || v != 50 {
		t.Error("the newest entry was evicted")
	}
	if c.Stats().Len != 1 || c.Stats().Weight != 50 {
		t.Errorf("len %d weight %d, want 1/50", c.Stats().Len, c.Stats().Weight)
	}
	if want := []string{"b", "c", "a"}; len(evicted) != 3 || evicted[0] != want[0] || evicted[1] != want[1] || evicted[2] != want[2] {
		t.Errorf("evicted %v, want %v", evicted, want)
	}
	c.Remove("huge")
	if c.Stats().Len != 0 || c.Stats().Weight != 0 || c.Stats().Evictions != 3 {
		t.Errorf("after Remove: len %d weight %d evictions %d", c.Stats().Len, c.Stats().Weight, c.Stats().Evictions)
	}
}

// TestUnbounded: the zero bound keeps every entry and never links a
// recency list.
func TestUnbounded(t *testing.T) {
	var c Cache[int, int]
	for i := 0; i < 100; i++ {
		if _, _, err := c.Do(context.Background(), i, func() (int, error) { return i * i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	c.Get(0)
	if c.Stats().Len != 100 || c.Stats().Evictions != 0 {
		t.Errorf("len %d evictions %d, want 100/0", c.Stats().Len, c.Stats().Evictions)
	}
	if c.lru != nil {
		t.Error("unbounded cache keeps a recency list")
	}
	snap := c.Snapshot()
	if len(snap) != 100 || snap[9] != 81 {
		t.Errorf("snapshot has %d entries, [9] = %d", len(snap), snap[9])
	}
}

// TestAdmit: the admission hook is asked only by would-be creators; a
// refusal registers nothing.
func TestAdmit(t *testing.T) {
	busy := errors.New("busy")
	var asked int
	refuse := true
	c := Cache[string, int]{Admit: func() error {
		asked++
		if refuse {
			return busy
		}
		return nil
	}}
	if _, _, err := c.Do(context.Background(), "k", func() (int, error) {
		t.Error("refused request ran fn")
		return 0, nil
	}); !errors.Is(err, busy) {
		t.Fatalf("err = %v, want the admission error", err)
	}
	c.mu.Lock()
	registered := len(c.m)
	c.mu.Unlock()
	if registered != 0 {
		t.Fatalf("refused flight left %d entries", registered)
	}
	refuse = false
	if v, _, err := c.Do(context.Background(), "k", func() (int, error) { return 1, nil }); err != nil || v != 1 {
		t.Fatalf("admitted = %d/%v", v, err)
	}
	refuse = true
	if v, shared, err := c.Do(context.Background(), "k", nil); err != nil || !shared || v != 1 {
		t.Errorf("hit under a refusing hook = %d/%v/%v, want 1/true/nil", v, shared, err)
	}
	if asked != 2 {
		t.Errorf("hook asked %d times, want 2 (creators only)", asked)
	}
}

// TestAddLeavesFlight: Add and Remove do not disturb a key in flight.
func TestAddLeavesFlight(t *testing.T) {
	c := Cache[string, int]{MaxWeight: 4}
	release := make(chan struct{})
	started := make(chan struct{})
	done := make(chan int)
	go func() {
		v, _, _ := c.Do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			return 2, nil
		})
		done <- v
	}()
	<-started
	c.Add("k", 1)
	c.Remove("k")
	if _, ok := c.Get("k"); ok {
		t.Error("Get answered an in-flight key")
	}
	close(release)
	if v := <-done; v != 2 {
		t.Errorf("creator got %d, want 2", v)
	}
	if v, ok := c.Get("k"); !ok || v != 2 || c.Stats().Len != 1 {
		t.Errorf("after completion Get = %d/%v len %d, want the flight's 2", v, ok, c.Stats().Len)
	}
}

// TestConcurrentMixed drives Do, Get, Add and Remove from many
// goroutines on a small bounded cache (run under -race).
func TestConcurrentMixed(t *testing.T) {
	c := Cache[int, int]{MaxWeight: 8}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*7 + i) % 20
				switch i % 4 {
				case 0:
					v, _, err := c.Do(context.Background(), k, func() (int, error) { return k, nil })
					if err != nil || v != k {
						t.Errorf("Do(%d) = %d/%v", k, v, err)
					}
				case 1:
					if v, ok := c.Get(k); ok && v != k {
						t.Errorf("Get(%d) = %d", k, v)
					}
				case 2:
					c.Add(k, k)
				case 3:
					c.Remove(k)
				}
			}
		}()
	}
	wg.Wait()
	if c.Stats().Len > 8 || int64(c.Stats().Len) != c.Stats().Weight {
		t.Errorf("len %d weight %d, want <= 8 and equal", c.Stats().Len, c.Stats().Weight)
	}
	if c.lru.Len() != c.Stats().Len {
		t.Errorf("recency list holds %d entries, Len says %d", c.lru.Len(), c.Stats().Len)
	}
}
