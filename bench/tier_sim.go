package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"slices"
	"time"

	"clinfl/internal/fl/hier"
	"clinfl/internal/sim"
	"clinfl/internal/tensor"
)

const spanSimRun = "sim.run"

// tierScenario is the product's tier scenario at the profile's roster and
// round count: 64 real shards, a 64 -> 8 -> root streaming tier, full
// participation, linear task.
func tierScenario(seed int64, clients, rounds int) sim.Scenario {
	sc := sim.TierScenario(seed, clients)
	sc.Rounds = rounds
	return sc
}

func runTier30kSim(cfg config) (*Run, error) {
	// The simulator hands a single token from goroutine to goroutine, so it
	// is sequential by design. On two Ps every handoff is a cross-core futex
	// wake (15% of the profile) whose cost follows the host's load, not the
	// program: round time moved 0.72 -> 0.92 s between two sessions on the
	// same commit. One P measures the simulator instead of the hypervisor.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sz := sizesFor(cfg.seconds, cfg.smoke)
	run := newRun(wlTier30kSim, cfg)
	m := run.Metrics

	// Set-up is the untimed small-roster run: it warms the heap and is the
	// base of the linearity ratio.
	var setups []float64
	var small *sim.RunResult
	for pass := 0; pass < setupPasses; pass++ {
		start := passStart(pass)
		var err error
		if small, err = tierScenario(cfg.seed, sz.simSmall, sz.simSmallRounds).Run(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var perRound []float64 // per run: real seconds per simulated round
	var virtual, realTime time.Duration
	var bytesUp, bytesDown, tierBytes int64
	var resident int64
	var updates, rounds, partials, fullRounds int
	var lossSum float64
	improved := true
	before := readGoStats()
	cfg.rec.Enable(true)
	start := time.Now()
	for k := 0; k < sz.simRuns; k++ {
		runStart := time.Now()
		res, err := tierScenario(cfg.seed+int64(k), sz.simClients, sz.simRounds).Run()
		if err != nil {
			return nil, err
		}
		cfg.rec.Add(spanSimRun, k, "", runStart, time.Now())
		hist := res.Result.History.Rounds
		perRound = append(perRound, res.RealElapsed.Seconds()/float64(len(hist)))
		virtual += res.VirtualElapsed
		realTime += res.RealElapsed
		bytesUp += res.BytesUp
		bytesDown += res.BytesDown
		lossSum += res.FinalMSE
		improved = improved && res.FinalMSE < res.InitialMSE
		for _, r := range hist {
			rounds++
			updates += len(r.Participants)
			run.updates(sz.simClients, len(r.Participants))
			if len(r.Participants) == sz.simClients && len(r.Failures) == 0 {
				fullRounds++
			}
			partials += r.TierPartials
			tierBytes += r.TierBytesUp
			if r.TierResidentBytes > resident {
				resident = r.TierResidentBytes
			}
		}
	}
	wall := time.Since(start).Seconds()
	cfg.rec.Enable(false)
	after := readGoStats()

	run.check("rounds_complete", rounds == sz.simRuns*sz.simRounds && fullRounds == rounds,
		"%d/%d rounds had all %d participants and no failures", fullRounds, sz.simRuns*sz.simRounds, sz.simClients)
	run.check("loss_improved", improved, "a run's final MSE is not below its initial MSE")
	same, err := sameSeedHistoriesMatch(cfg.seed, sz)
	if err != nil {
		return nil, err
	}
	run.check("history_deterministic", same, "two same-seed %d-client runs produced different History JSON", sz.simCheckN)

	n := float64(rounds)
	m.setN("setup_s", median(setups), len(setups))
	m.setN("round_min_s", slices.Min(perRound), len(perRound))
	m.set("wall_s", wall)
	m.set("updates_per_s", float64(updates)/wall)
	m.set("bytes_up_per_round", float64(bytesUp)/n)
	m.set("bytes_down_per_round", float64(bytesDown)/n)
	m.set("final_loss", lossSum/float64(sz.simRuns))

	if cfg.traced() {
		perClientRound := wall / (n * float64(sz.simClients))
		smallCost := small.RealElapsed.Seconds() / float64(sz.simSmallRounds*sz.simSmall)
		m.set("sim.wall_us_per_client_round", us(perClientRound))
		m.set("sim.cost_ratio_30k_over_3k", perClientRound/smallCost)
		m.set("sim.virtual_s_per_wall_s", virtual.Seconds()/realTime.Seconds())
		m.set("hier.partials_per_round", float64(partials)/n)
		m.set("hier.tier_bytes_up_per_round", float64(tierBytes)/n)
		m.set("hier.resident_bytes", float64(resident))
		setGoMetrics(m, before, after, rounds)
		if err := hierStandalone(m, sz); err != nil {
			return nil, err
		}
		// No injection point reaches inside Scenario.Run, so the
		// controller-plus-simulator share is what is left of a round once
		// the standalone-measured tier arithmetic is taken out.
		tier := float64(sz.simClients)*m["hier.fold_us_per_update"].Value/1e6 +
			float64(partials)/n*m["hier.merge_us"].Value/1e6 + m["hier.finalize_ms"].Value/1e3
		m.set("fl.controller.self_ms_per_round", ms(wall/n-tier))
	}
	return run, nil
}

// sameSeedHistoriesMatch runs one small scenario twice and compares the
// canonical History JSON digests.
func sameSeedHistoriesMatch(seed int64, sz sizes) (bool, error) {
	var digests [2][sha256.Size]byte
	for i := range digests {
		res, err := tierScenario(seed, sz.simCheckN, sz.simRounds).Run()
		if err != nil {
			return false, err
		}
		blob, err := res.HistoryJSON()
		if err != nil {
			return false, err
		}
		digests[i] = sha256.Sum256(blob)
	}
	return digests[0] == digests[1], nil
}

// hierStandalone times Partial.Fold, Merge and Finalize on the scenario's
// weight map: 64 shard partials of 64 updates each, then merged into one.
func hierStandalone(m Metrics, sz sizes) error {
	const shards, perShard = 64, 64
	rng := tensor.NewRNG(1)
	dim := sim.InitialLinearWeights(8)["w"].Cols()
	update := func(i int) hier.Update {
		return hier.Update{
			ClientName: fmt.Sprintf("c%05d", i),
			Weights:    map[string]*tensor.Matrix{"w": rng.Normal(1, dim, 0, 1), "b": rng.Normal(1, 1, 0, 1)},
			NumSamples: 20 + i%40,
			TrainLoss:  0.1,
		}
	}
	updates := make([]hier.Update, shards*perShard)
	for i := range updates {
		updates[i] = update(i)
	}
	var fold, merge, finalize []float64
	for rep := 0; rep < sz.standaloneReps; rep++ {
		parts := make([]*hier.Partial, shards)
		start := time.Now()
		for s := range parts {
			parts[s] = hier.NewPartial()
			for _, u := range updates[s*perShard : (s+1)*perShard] {
				if err := parts[s].Fold(u); err != nil {
					return err
				}
			}
		}
		fold = append(fold, time.Since(start).Seconds()/float64(len(updates)))
		start = time.Now()
		for s := 1; s < shards; s++ {
			if err := parts[0].Merge(parts[s]); err != nil {
				return err
			}
		}
		merge = append(merge, time.Since(start).Seconds()/float64(shards-1))
		start = time.Now()
		if _, err := parts[0].Finalize(); err != nil {
			return err
		}
		finalize = append(finalize, time.Since(start).Seconds())
	}
	m.setN("hier.fold_us_per_update", us(median(fold)), len(fold))
	m.setN("hier.merge_us", us(median(merge)), len(merge))
	m.setN("hier.finalize_ms", ms(median(finalize)), len(finalize))
	return nil
}
