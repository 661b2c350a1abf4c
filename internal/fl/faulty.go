package fl

import (
	"fmt"
	"sync"
	"time"

	"clinfl/internal/tensor"
)

// FaultConfig describes the failures a FaultyExecutor injects: fixed
// delays (stragglers) and deterministic or probabilistic round failures
// (dropouts). The drop stream is seeded, so a scenario replays
// identically.
type FaultConfig struct {
	// Delay is added before every round's local execution.
	Delay time.Duration
	// DelayRounds, when non-empty, restricts Delay to the listed rounds
	// (others run at full speed).
	DelayRounds []int
	// DropRounds lists rounds on which ExecuteRound fails outright
	// (a crashed or unreachable site).
	DropRounds []int
	// DropProb fails any round with this probability (0 disables).
	DropProb float64
	// Seed drives the drop stream.
	Seed int64
}

// FaultyExecutor wraps an Executor with injected delays and dropouts —
// the scenario harness for straggler/partial-participation experiments
// and tests. Its delays are real sleeps, so it runs on the real clock
// only; simulated straggling belongs to sim's planned clients. It is safe
// for the concurrent use the controller makes of executors (one in-flight
// round at a time).
type FaultyExecutor struct {
	inner Executor
	cfg   FaultConfig

	mu  sync.Mutex
	rng *tensor.RNG
}

var _ Executor = (*FaultyExecutor)(nil)

// WrapFaulty decorates an executor with fault injection.
func WrapFaulty(inner Executor, cfg FaultConfig) *FaultyExecutor {
	return &FaultyExecutor{inner: inner, cfg: cfg, rng: tensor.NewRNG(cfg.Seed + 5381)}
}

// Name implements Executor.
func (f *FaultyExecutor) Name() string { return f.inner.Name() }

// Validate passes through to the inner executor when it can score models,
// so wrapping does not hide a Validator.
func (f *FaultyExecutor) Validate(global map[string]*tensor.Matrix) (float64, error) {
	if v, ok := f.inner.(Validator); ok {
		return v.Validate(global)
	}
	return 0, fmt.Errorf("fl: %s cannot validate", f.Name())
}

// ExecuteRound implements Executor: sleep, maybe fail, then run the real
// round.
func (f *FaultyExecutor) ExecuteRound(round int, global map[string]*tensor.Matrix) (*ClientUpdate, error) {
	if d := f.delayFor(round); d > 0 {
		time.Sleep(d)
	}
	if f.dropsRound(round) {
		return nil, fmt.Errorf("fl: %s injected dropout on round %d", f.Name(), round)
	}
	return f.inner.ExecuteRound(round, global)
}

// delayFor computes the injected delay for a round.
func (f *FaultyExecutor) delayFor(round int) time.Duration {
	if len(f.cfg.DelayRounds) > 0 && !containsRound(f.cfg.DelayRounds, round) {
		return 0
	}
	return f.cfg.Delay
}

// dropsRound decides whether the round fails.
func (f *FaultyExecutor) dropsRound(round int) bool {
	if containsRound(f.cfg.DropRounds, round) {
		return true
	}
	if f.cfg.DropProb > 0 {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.rng.Float64() < f.cfg.DropProb
	}
	return false
}

func containsRound(rounds []int, round int) bool {
	for _, r := range rounds {
		if r == round {
			return true
		}
	}
	return false
}
