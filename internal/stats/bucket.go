package stats

import (
	"sync"
	"time"
)

// TokenBucket is a classic token-bucket rate limiter: the bucket
// refills at a fixed rate up to a burst ceiling, and each Take spends
// one token. It sits beside LatencyWindow as a serving-layer
// primitive — the gateway keys one bucket per tenant —
// and is clock-injectable so refill arithmetic is testable without
// sleeping.
// Safe for concurrent use.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Time
	now    func() time.Time
}

// NewTokenBucket builds a bucket refilling at rate tokens/second with
// the given burst capacity (floored at 1 token — a bucket that can
// never hold a whole token could never admit anything). A new bucket
// starts full. Rate must be positive; callers model "unlimited" by not
// constructing a bucket at all.
func NewTokenBucket(rate float64, burst float64) *TokenBucket {
	if burst < 1 {
		burst = 1
	}
	b := &TokenBucket{rate: rate, burst: burst, tokens: burst, now: time.Now}
	b.last = b.now()
	return b
}

// SetClock replaces the bucket's time source (tests only). Resets the
// refill anchor to the new clock's current reading.
func (b *TokenBucket) SetClock(now func() time.Time) {
	b.mu.Lock()
	b.now = now
	b.last = now()
	b.mu.Unlock()
}

// Take spends one token if available. When the bucket is empty it
// reports how long until the next token exists at the current refill
// rate — an honest Retry-After, not a guess.
func (b *TokenBucket) Take() (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / b.rate
	return false, time.Duration(need * float64(time.Second))
}
