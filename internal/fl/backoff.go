package fl

import (
	"context"
	"fmt"
	"math"
	"time"

	"clinfl/internal/tensor"
)

// Backoff computes jittered exponential retry delays. The zero value is
// usable: 100ms base, 30s cap, doubling, no jitter. Delay is a pure
// function of (config, attempt) — jitter for attempt i is drawn from a
// stream seeded by Seed+i, not from shared mutable state — so retry
// schedules are reproducible and a simulated run replays identically.
type Backoff struct {
	// Base is the first delay (default 100ms).
	Base time.Duration
	// Max caps every delay (default 30s).
	Max time.Duration
	// Jitter, in [0, 1], scales each delay by a uniform draw from
	// [1-Jitter, 1]: retries desynchronize without ever exceeding the
	// deterministic envelope. 0 disables jitter.
	Jitter float64
	// Seed drives the jitter stream.
	Seed int64
}

// withDefaults fills zero fields.
func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 100 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 30 * time.Second
	}
	return b
}

// Delay returns the wait before retry attempt (0-based): Base×2^attempt,
// capped at Max, scaled down by up to Jitter.
func (b Backoff) Delay(attempt int) time.Duration {
	b = b.withDefaults()
	if attempt < 0 {
		attempt = 0
	}
	d := float64(b.Base) * math.Pow(2, float64(attempt))
	if d > float64(b.Max) {
		d = float64(b.Max)
	}
	if b.Jitter > 0 {
		j := b.Jitter
		if j > 1 {
			j = 1
		}
		rng := tensor.NewRNG(b.Seed + int64(attempt))
		d *= 1 - j*rng.Float64()
	}
	return time.Duration(d)
}

// Retrier is the retry loop over a Backoff schedule, with a hook that
// observes each delay.
type Retrier struct {
	// Backoff supplies the delay schedule.
	Backoff Backoff
	// OnDelay, when non-nil, observes each computed delay just before
	// the sleep (attempt is 0-based).
	OnDelay func(attempt int, d time.Duration)
}

// Retry runs fn up to attempts times, sleeping Backoff.Delay(i) of wall
// time between failures and aborting early when ctx is cancelled. It
// returns nil on the first success, ctx's error on cancellation, and
// otherwise the last failure.
func (r *Retrier) Retry(ctx context.Context, attempts int, fn func() error) error {
	b := r.Backoff.withDefaults()
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for i := 0; i < attempts; i++ {
		if err = fn(); err == nil {
			return nil
		}
		if i == attempts-1 {
			break
		}
		d := b.Delay(i)
		if r.OnDelay != nil {
			r.OnDelay(i, d)
		}
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return fmt.Errorf("fl: retry cancelled after attempt %d: %w (last error: %v)", i+1, ctx.Err(), err)
		}
	}
	return err
}
