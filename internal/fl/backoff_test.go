package fl

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestBackoffDelayDefaults(t *testing.T) {
	var b Backoff // zero value: 100ms base, 30s cap, doubling, no jitter
	for i, want := range []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
	} {
		if got := b.Delay(i); got != want {
			t.Errorf("Delay(%d) = %v, want %v", i, got, want)
		}
	}
	if got := b.Delay(30); got != 30*time.Second {
		t.Errorf("Delay(30) = %v, want the 30s cap", got)
	}
	if got := b.Delay(-1); got != b.Delay(0) {
		t.Errorf("Delay(-1) = %v, want Delay(0) = %v", got, b.Delay(0))
	}
}

func TestBackoffDelayJitterEnvelope(t *testing.T) {
	b := Backoff{Base: 50 * time.Millisecond, Max: time.Second, Jitter: 0.5, Seed: 3}
	for attempt := 0; attempt < 12; attempt++ {
		nominal := 50 * time.Millisecond << uint(attempt)
		if nominal > time.Second {
			nominal = time.Second
		}
		got := b.Delay(attempt)
		if got > nominal {
			t.Errorf("Delay(%d) = %v exceeds the deterministic envelope %v", attempt, got, nominal)
		}
		if min := time.Duration(float64(nominal) * (1 - b.Jitter)); got < min {
			t.Errorf("Delay(%d) = %v below the jitter floor %v", attempt, got, min)
		}
		// Jitter is a pure function of (config, attempt): repeated calls
		// must agree, so simulated runs replay identically.
		if again := b.Delay(attempt); again != got {
			t.Errorf("Delay(%d) not deterministic: %v then %v", attempt, got, again)
		}
	}
}

// recordingRetrier returns a Retrier over b that appends every delay it
// sleeps to *waits.
func recordingRetrier(b Backoff, waits *[]time.Duration) *Retrier {
	return &Retrier{Backoff: b, OnDelay: func(_ int, d time.Duration) { *waits = append(*waits, d) }}
}

func TestBackoffRetrySucceedsAfterFailures(t *testing.T) {
	var waits []time.Duration
	r := recordingRetrier(Backoff{Base: time.Millisecond}, &waits)
	calls := 0
	err := r.Retry(context.Background(), 5, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Retry: %v", err)
	}
	if calls != 3 {
		t.Errorf("fn called %d times, want 3", calls)
	}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond}
	if len(waits) != len(want) {
		t.Fatalf("slept %d times (%v), want %d", len(waits), waits, len(want))
	}
	for i, w := range want {
		if waits[i] != w {
			t.Errorf("sleep %d = %v, want %v", i, waits[i], w)
		}
	}
}

func TestBackoffRetryExhaustsAttempts(t *testing.T) {
	var waits []time.Duration
	r := recordingRetrier(Backoff{Base: time.Millisecond}, &waits)
	calls := 0
	last := errors.New("still down")
	err := r.Retry(context.Background(), 3, func() error {
		calls++
		return last
	})
	if !errors.Is(err, last) {
		t.Errorf("Retry error = %v, want the last failure", err)
	}
	if calls != 3 {
		t.Errorf("fn called %d times, want 3", calls)
	}
	// No sleep after the final attempt.
	if len(waits) != 2 {
		t.Errorf("slept %d times, want 2", len(waits))
	}
}

func TestBackoffRetryHonorsContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A huge base delay: if cancellation were ignored the test would hang.
	r := &Retrier{Backoff: Backoff{Base: time.Hour}}
	calls := 0
	err := r.Retry(ctx, 5, func() error {
		calls++
		return errors.New("down")
	})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Errorf("Retry error = %v, want a context.Canceled wrap", err)
	}
	if calls != 1 {
		t.Errorf("fn called %d times, want 1 (cancelled before the first sleep)", calls)
	}
}
