package sim

import (
	"fmt"
	"sync"

	"clinfl/internal/fl"
	"clinfl/internal/tensor"
)

// This file is the client-multiplexing layer that turns the simulator
// into a capacity planner: when Scenario.RealClients caps the real
// population, only that prefix of clients holds data shards and runs real
// local training. Every client above the cap is a *surrogate* that
// replays calibrated costs instead — the scenario's compute/link/fault
// profiles in virtual time, plus a codec-aware byte model measured once
// per scenario from the real subset. Because every codec in the
// negotiation set (raw, f32, topk, int8) has a shape-determined encoding
// (fixed-width headers, indices and values; no varints), the calibrated
// byte sizes are exact, so a multiplexed run reproduces the fully-real
// run's system trajectory — sampling, participation, deadline exclusions,
// failures, byte counters, round durations — byte-for-byte, while its
// memory and CPU stay O(RealClients + participants) instead of
// O(Clients). What surrogates do NOT reproduce is model quality: each one
// submits its twin's full-precision update (no per-client data
// heterogeneity, no lossy-codec quantization noise), which is the
// surrogate error the calibration test bounds.

// CostModel is the calibrated surrogate cost table for one scenario:
// encoded payload sizes per uplink codec plus the task download size,
// measured from the real subset once at build time. Frame overhead (the
// 8-byte transport header) is added at accounting time, mirroring the
// real clients' bookkeeping.
type CostModel struct {
	// UpBytes maps an uplink codec name (as written in Scenario.Codecs)
	// to the encoded update payload size in bytes.
	UpBytes map[string]int
	// DownBytes is the raw-encoded task (global model) payload size.
	DownBytes int
}

// calibrateCosts measures the cost model from the real subset: one real
// shard trains once from the initial weights (off the virtual clock —
// calibration burns real CPU, not simulated time) and the result is
// encoded through every distinct uplink codec in the scenario. All codec
// encodings are shape-determined, so these sizes hold for every client
// and every round.
func calibrateCosts(sc Scenario, pop *Population) (*CostModel, error) {
	initial := InitialLinearWeights(LinearDim)
	trained, _, err := pop.Shards[0].Train(initial)
	if err != nil {
		return nil, fmt.Errorf("sim: calibrate: %w", err)
	}
	cm := &CostModel{UpBytes: make(map[string]int)}
	names := sc.Codecs
	if len(names) == 0 {
		names = []string{""}
	}
	for _, name := range names {
		if _, ok := cm.UpBytes[name]; ok {
			continue
		}
		codec, err := fl.CodecByName(name)
		if err != nil {
			return nil, err
		}
		blob, err := codec.Encode(trained)
		if err != nil {
			return nil, fmt.Errorf("sim: calibrate codec %q: %w", name, err)
		}
		cm.UpBytes[name] = len(blob)
	}
	downBlob, err := fl.EncodeWeights(initial)
	if err != nil {
		return nil, fmt.Errorf("sim: calibrate down codec: %w", err)
	}
	cm.DownBytes = len(downBlob)
	return cm, nil
}

// twinState is one real client's shared training result, multiplexed
// across every surrogate bound to it. The first accessor of a round
// (under the virtual clock, dispatches run one at a time on the driver, so
// "first" is deterministic) trains the twin's shard from that round's
// global weights; later accessors reuse the result. Training is a pure
// function of (shard, global), so who computes it never matters.
type twinState struct {
	shard   *LinearShard
	samples int

	mu     sync.Mutex
	rounds map[int]*twinResult
}

type twinResult struct {
	weights map[string]*tensor.Matrix
	loss    float64
}

// result returns the twin's post-training weights and loss for round,
// computing them on first use. The returned map is shared and read-only:
// surrogates hand it to the federation as is, because nothing downstream
// of an in-process update writes its weights — sinks, aggregators and the
// WAL only read them.
func (t *twinState) result(round int, global map[string]*tensor.Matrix) (map[string]*tensor.Matrix, float64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r, ok := t.rounds[round]; ok {
		return r.weights, r.loss, nil
	}
	w, loss, err := t.shard.Train(global)
	if err != nil {
		return nil, 0, err
	}
	if t.rounds == nil {
		t.rounds = make(map[int]*twinResult)
	}
	t.rounds[round] = &twinResult{weights: w, loss: loss}
	return w, loss, nil
}

// Per-client draw streams. Scenario clients used to carry a private
// tensor.RNG each, but one math/rand source is ~5KB of lagged-Fibonacci
// state — 100k clients would spend half a gigabyte on jitter draws. The
// planner-scale population instead derives every per-client random value
// from a 8-byte seed with a splitmix64-style hash keyed by (client seed,
// stream, round): O(1) memory, O(1) time, identical draws for a given
// client index whether its neighbors are real or surrogate — which is
// exactly what makes the multiplexed run's system trajectory equal the
// fully-real run's.
const (
	streamComputeBase uint64 = iota + 1
	streamLatency
	streamJitter
	streamDrop
)

// mix64 is the splitmix64 finalizer: a bijective avalanche over uint64.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// clientSeed derives one client's draw seed from the scenario seed.
func clientSeed(scenarioSeed int64, client int) uint64 {
	return mix64(uint64(scenarioSeed)*0x9e3779b97f4a7c15 + uint64(client) + 1)
}

// unitDraw returns a uniform [0, 1) value for (seed, stream, round),
// independent across streams and rounds.
func unitDraw(seed, stream, round uint64) float64 {
	z := mix64(seed + 0x9e3779b97f4a7c15*(stream+1) + 0xd1b54a32d192ed03*(round+1))
	return float64(z>>11) / (1 << 53)
}
