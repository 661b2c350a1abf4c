package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"clinfl/internal/fl"
	"clinfl/internal/fl/durable"
	"clinfl/internal/metrics"
	"clinfl/internal/tensor"
)

// CrashPoint scripts one server crash at an exact, reproducible position
// in the WAL record stream: the Nth record of type After belonging to
// Round kills the run. OnAppend fires synchronously on the appending
// goroutine right after the record is written, and the segment's
// cooperative shutdown flushes the group-commit tail on Close, so the
// record the hook saw always survives into the next segment — the crash
// lands *between* intact records, exactly like a power cut the WAL's
// framing absorbs (a real mid-write cut is the torn tail the replay
// truncates).
type CrashPoint struct {
	Round int
	After durable.RecordType
	// N is the 1-based occurrence within the segment (e.g.
	// After=RecUpdatePayload, N=3 crashes once three client updates of the
	// round are on disk).
	N int
}

// SoakScenario is a crash-restart soak: a deterministic Scenario run
// under a WAL, killed and restarted at each scripted CrashPoint. Every
// segment rebuilds the population, executors, and virtual clock from the
// spec — exactly what a restarted server process would do — and resumes
// from the WAL alone.
type SoakScenario struct {
	Scenario Scenario
	Crashes  []CrashPoint
}

// SoakResult summarizes a crash-restart soak.
type SoakResult struct {
	// Final is the converged global model; FinalMSE its holdout score.
	Final    map[string]*tensor.Matrix
	FinalMSE float64
	// Segments counts process lifetimes (crashes + the final clean run).
	Segments int
	// ReplayedRecords totals WAL records replayed across all restarts.
	ReplayedRecords int64
	// ResumedMidRound reports that at least one restart recovered an open
	// round (the crash happened mid-gather).
	ResumedMidRound bool
	// PendingUpdatesRecovered counts client updates re-seeded from open
	// rounds across all restarts — updates that survived a crash on disk
	// and were aggregated without re-training.
	PendingUpdatesRecovered int
	// Registry carries the soak's metrics (shared across segments, like a
	// scrape target that outlives server restarts).
	Registry *metrics.Registry
}

// Run executes the soak over the WAL at walPath. It fails if a segment
// dies for any reason other than its scripted crash, or if there are more
// scripted crashes than segments that consume them.
func (ss SoakScenario) Run(walPath string) (*SoakResult, error) {
	sc := ss.Scenario.withDefaults()
	reg := metrics.NewRegistry()
	crashes := append([]CrashPoint(nil), ss.Crashes...)
	res := &SoakResult{Registry: reg}

	for seg := 0; ; seg++ {
		if seg > len(ss.Crashes) {
			return nil, fmt.Errorf("sim: soak %s segment %d exceeded scripted crashes", sc.Name, seg)
		}
		clock := NewVirtualClock()
		set, err := sc.build(clock)
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		var crashed atomic.Bool
		opts := durable.Options{Metrics: reg}
		if len(crashes) > 0 {
			cp := crashes[0]
			seen := 0
			opts.OnAppend = func(_ int64, rec *durable.Record) {
				if rec.Type != cp.After || rec.Round != cp.Round {
					return
				}
				seen++
				if seen == cp.N {
					crashed.Store(true)
					cancel()
				}
			}
		}
		wal, err := durable.Open(walPath, opts)
		if err != nil {
			cancel()
			return nil, err
		}
		if seg > 0 {
			st := wal.Recovered()
			res.ReplayedRecords += st.Records
			if st.Open != nil {
				res.ResumedMidRound = true
				res.PendingUpdatesRecovered += len(st.Open.Updates)
			}
		}
		set.cfg.WAL = wal
		set.cfg.Metrics = reg
		ctrl, err := fl.NewController(set.cfg, set.execs)
		if err != nil {
			cancel()
			_ = wal.Close()
			return nil, err
		}
		out, runErr := ctrl.Run(ctx, set.initial)
		_ = wal.Close()
		cancel()
		if runErr == nil {
			res.Final = out.FinalWeights
			res.Segments = seg + 1
			res.FinalMSE, err = set.pop.Eval(out.FinalWeights)
			if err != nil {
				return nil, err
			}
			return res, nil
		}
		if !crashed.Load() {
			return nil, fmt.Errorf("sim: soak %s segment %d died outside its scripted crash: %w", sc.Name, seg, runErr)
		}
		crashes = crashes[1:]
	}
}

// SoakCrashScenario is the pinned crash-restart spec: 8 clients over 6
// rounds with two faulty clients failing outright on rounds 2 and 4,
// mixed raw/f32 uplinks, and three scripted crashes — one mid-gather with
// three updates already durable (the recovered-pending-updates case), one
// right after a round opens, one straight after a model commit. Every
// source of nondeterminism that cannot survive re-execution (sampling,
// jitter, probabilistic drops, deadlines) is off, so the soak's final
// model must be byte-identical to an uninterrupted run of the same
// Scenario. Do not re-tune casually — its weight digest is checked in.
func SoakCrashScenario(seed int64) SoakScenario {
	return SoakScenario{
		Scenario: Scenario{
			Name:       "soak-crash-8",
			Seed:       seed,
			Clients:    8,
			Rounds:     6,
			MinClients: 1,
			Codecs:     []string{"raw", "f32"},
			Compute:    ComputeProfile{Mean: 100 * time.Millisecond},
			Faults:     FaultProfile{FaultyFraction: 0.25, DropRounds: []int{2, 4}},
		},
		Crashes: []CrashPoint{
			{Round: 1, After: durable.RecUpdatePayload, N: 3},
			{Round: 3, After: durable.RecRoundOpen, N: 1},
			{Round: 4, After: durable.RecModelCommit, N: 1},
		},
	}
}

// CanonicalWeightsDigest hashes a weight map in name-sorted wire encoding:
// equal digests mean byte-identical models. The golden soak test pins this
// digest in testdata.
func CanonicalWeightsDigest(w map[string]*tensor.Matrix) (string, error) {
	names := make([]string, 0, len(w))
	for name := range w {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		h.Write([]byte(name))
		h.Write([]byte{0})
		if _, err := w[name].WriteTo(h); err != nil {
			return "", fmt.Errorf("sim: digest %q: %w", name, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
