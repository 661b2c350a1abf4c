// Command flserver runs the networked federation server for ADR
// fine-tuning: it loads its provision startup kit, waits for the expected
// clients to register with valid tokens over mutual TLS, drives E
// scatter-and-gather rounds, and writes the final global model.
//
// The federation can run fully synchronously (the default: every round
// waits for every client) or straggler-tolerantly: -sample tasks a random
// client subset per round, -min-updates aggregates as soon as that many
// updates arrive, -deadline bounds each round's gather, and -fedasync
// folds stragglers' late updates in with staleness weighting instead of
// dropping them. -codec compresses the downlink weight payloads (clients
// pick their own uplink codec with flclient -codec; the lossy top-k
// uplink is rejected at registration unless -allow-topk-uplink is set,
// because top-k of a full weight map zeroes most of every parameter).
//
// -quarantine-after N switches the round loop from "a failure is
// terminal" to reconciliation: failed or timed-out task assignments are
// requeued with exponential backoff and re-dispatched within the round
// deadline (to an idle substitute when -substitute is on), N consecutive
// failures quarantine a client out of the sample pool until a ping probe
// succeeds (-probe-interval paces the probes), and a round starved below
// quorum parks until probes revive clients instead of failing. Requires
// -deadline, which bounds every retry; the server refuses it without one.
//
// Every round setting is checked by the server library itself, the same
// check the in-process controller runs: a negative -rounds, a -sample
// outside [0, 1], a -min-clients or -min-updates above -clients, a
// negative -deadline or -quarantine-after, or -quarantine-after without
// -deadline exits non-zero naming the field and the flag that sets it.
//
// -tier turns the server into the root of a streaming aggregation
// hierarchy: registered peers may be edge aggregators that fold their
// own clients' updates into O(model) partial aggregates and uplink only
// the merged partial. The root merges partials (and any directly
// attached plain clients — a mixed fleet is fine) into exact FedAvg,
// identical to the flat result; -clients then counts direct registrants
// (edges plus plain clients), not leaves. Incompatible with -fedasync,
// -quarantine-after, and -wal, which all need raw per-client updates at
// the root. Without -tier, partial-aggregate uplinks are rejected.
//
// -wal makes the run durable: round lifecycle events go to a write-ahead
// log as they happen, group-committed by a background syncer; only session
// grants and quarantine decisions are fsync'd before they take effect. A
// crashed or SIGTERM'd server restarted with the same -wal path resumes
// mid-round — committed rounds are never re-run, durable client updates
// are never re-trained, and reconnecting clients re-attach to their
// sessions. -metrics serves Prometheus-format counters (rounds, bytes,
// failures, recoveries, WAL appends) over HTTP at /metrics.
//
// Usage:
//
//	provision -project demo -server localhost -clients c1,c2 -out kits
//	flserver -kit kits/server -addr :8443 -clients 2 -rounds 5 -out global.weights
//	flserver -kit kits/server -clients 8 -rounds 5 \
//	    -sample 0.5 -min-updates 3 -deadline 30s -fedasync -codec f32
//	flserver -kit kits/server -clients 8 -rounds 20 \
//	    -deadline 30s -fedasync -quarantine-after 4 -probe-interval 10s
//	flserver -kit kits/server -clients 8 -rounds 20 \
//	    -wal run.wal -metrics :9090   # durable + observable
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"
	"unicode"

	"clinfl/internal/core"
	"clinfl/internal/fl"
	"clinfl/internal/fl/durable"
	"clinfl/internal/metrics"
	"clinfl/internal/nn"
	"clinfl/internal/provision"
)

// defaultVocab is the vocabulary size flclient's default cohort yields
// (-patients 8638 -seed 1); TestDefaultVocabMatchesClient keeps the two in
// step.
const defaultVocab = 202

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "flserver:", err)
		os.Exit(1)
	}
}

// fieldFlags maps each setting the server library may refuse by
// name to the flag that sets it.
var fieldFlags = map[string]string{
	"Rounds": "-rounds", "SampleFraction": "-sample", "MinUpdates": "-min-updates",
	"MinClients": "-min-clients", "RoundDeadline": "-deadline",
	"Reconcile": "-quarantine-after", "QuarantineAfter": "-quarantine-after",
	"Codec": "-codec",
}

// flagged adds to a refusal the flags that set the fields it names.
func flagged(err error) error {
	var flags []string
	for _, word := range strings.FieldsFunc(err.Error(), func(r rune) bool { return !unicode.IsLetter(r) }) {
		if f, ok := fieldFlags[word]; ok && !slices.Contains(flags, f) {
			flags = append(flags, f)
		}
	}
	if len(flags) == 0 {
		return err
	}
	return fmt.Errorf("%w (set by %s)", err, strings.Join(flags, ", "))
}

func run() error {
	var (
		kitDir    = flag.String("kit", "kits/server", "server startup-kit directory")
		addr      = flag.String("addr", ":8443", "listen address")
		clients   = flag.Int("clients", 8, "expected client count")
		rounds    = flag.Int("rounds", 8, "communication rounds E")
		modelName = flag.String("model", "lstm", "model architecture: lstm | bert | bert-mini")
		vocabSize = flag.Int("vocab", defaultVocab, "vocabulary size (the default is what flclient's default cohort yields)")
		maxLen    = flag.Int("maxlen", 24, "sequence length (must match clients)")
		seed      = flag.Int64("seed", 1, "global model init seed (must match clients)")
		out       = flag.String("out", "global.weights", "output path for the final model")

		sample     = flag.Float64("sample", 0, "client fraction tasked per round, in [0, 1] (0 or 1 = all)")
		minUpdates = flag.Int("min-updates", 0, "aggregate as soon as this many updates arrive, at most -clients (0 = all tasked)")
		minClients = flag.Int("min-clients", 0, "per-round quorum: fail the run if fewer updates gathered, at most -clients (0 = a floor of one update)")
		deadline   = flag.Duration("deadline", 0, "round gather deadline; stragglers are dropped or fedasync-merged (0 = wait)")
		fedasync   = flag.Bool("fedasync", false, "fold stragglers' late updates in with staleness weighting instead of dropping them")
		codec      = flag.String("codec", "raw", "downlink weight codec: raw | f32 | int8")
		allowTopK  = flag.Bool("allow-topk-uplink", false, "accept clients' lossy top-k uplink codec (zeroes most of each full weight map; otherwise they fall back to raw)")
		tier       = flag.Bool("tier", false, "act as the root of an aggregation hierarchy: accept edge aggregators' partial-aggregate uplinks and merge them as exact streaming FedAvg (incompatible with -fedasync, -quarantine-after, -wal)")

		quarantineAfter = flag.Int("quarantine-after", 0, "enable the reconciliation control plane: quarantine a client after this many consecutive failures, requeue lost task assignments, probe demoted clients (0 = the null policy: one attempt per assignment, no health tracking)")
		probeInterval   = flag.Duration("probe-interval", 30*time.Second, "base delay between recovery probes of a demoted client (doubles per failed probe; needs -quarantine-after)")
		substitute      = flag.Bool("substitute", true, "re-dispatch a failed task slot to an idle eligible client when the original is demoted (needs -quarantine-after)")

		walPath     = flag.String("wal", "", "write-ahead log path; a restart with the same path resumes the run mid-round (empty = not durable)")
		metricsAddr = flag.String("metrics", "", "listen address serving Prometheus metrics at /metrics (empty = disabled)")
	)
	flag.Parse()
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	// SIGINT/SIGTERM cancel the run: the listener and client connections
	// close, Run returns, and — with -wal — the log is left positioned so
	// the next start resumes exactly where this one stopped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	kit, err := provision.ReadKit(*kitDir)
	if err != nil {
		return err
	}
	verify, err := provision.TokenVerifier(*kitDir)
	if err != nil {
		return err
	}
	// The round-0 global model: clients build the same architecture from
	// the same flags through the same recipe, so shapes always agree.
	mdl, err := core.NewModel(core.Config{ModelName: *modelName, MaxLen: *maxLen, Seed: *seed}, *vocabSize)
	if err != nil {
		return fmt.Errorf("build %s: %w", *modelName, err)
	}
	initial := nn.SnapshotWeights(mdl.Params())
	reg := metrics.NewRegistry()
	var wal *durable.WAL
	if *walPath != "" {
		wal, err = durable.Open(*walPath, durable.Options{Metrics: reg})
		if err != nil {
			return err
		}
		defer wal.Close()
		if st := wal.Recovered(); st.Records > 0 {
			logger.Info("resuming from write-ahead log", "path", *walPath,
				"records", st.Records, "last_committed_round", st.LastRound,
				"open_round", st.Open != nil)
		}
	}
	scfg := fl.ServerConfig{
		Addr:            *addr,
		ExpectedClients: *clients,
		Rounds:          *rounds,
		SampleFraction:  *sample,
		MinUpdates:      *minUpdates,
		MinClients:      *minClients,
		RoundDeadline:   *deadline,
		Seed:            *seed,
		Codec:           *codec,
		AllowTopKUplink: *allowTopK,
		VerifyToken:     verify,
		WAL:             wal,
		Metrics:         reg,
		Logf:            fl.SlogLogf(logger, slog.LevelInfo),
	}
	if *fedasync {
		scfg.AsyncAggregator = fl.FedAsync{}
	}
	if *tier {
		// The widths are the deployed edge topology's concern; the root
		// only needs to know to accept and merge partial uplinks.
		scfg.Tier = true
	}
	if *quarantineAfter != 0 {
		scfg.Reconcile = &fl.ReconcilePolicy{
			QuarantineAfter: *quarantineAfter,
			ProbeBackoff:    fl.Backoff{Base: *probeInterval, Seed: *seed},
			Substitute:      *substitute,
		}
	}
	srv, err := fl.NewServer(scfg, kit)
	if err != nil {
		return flagged(err)
	}
	defer srv.Close()
	go func() {
		<-ctx.Done()
		logger.Info("shutdown signal received, closing server")
		_ = srv.Close()
	}()
	var metricsSrv *http.Server
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg)
		metricsSrv = &http.Server{Addr: *metricsAddr, Handler: mux}
		go func() {
			if err := metricsSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("metrics server failed", "err", err)
			}
		}()
		defer metricsSrv.Close()
		logger.Info("serving metrics", "addr", *metricsAddr, "path", "/metrics")
	}
	fmt.Printf("flserver: listening on %s, waiting for %d clients\n", srv.Addr(), *clients)

	res, err := srv.Run(initial)
	if err != nil {
		if ctx.Err() != nil {
			if wal != nil {
				logger.Info("run interrupted; restart with the same -wal path to resume", "path", *walPath)
			}
			return fmt.Errorf("interrupted: %w", err)
		}
		return err
	}
	blob, err := fl.EncodeWeights(res.FinalWeights)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, blob, 0o666); err != nil {
		return err
	}
	var up, down int64
	for _, rec := range res.History.Rounds {
		up += rec.BytesUp
		down += rec.BytesDown
	}
	fmt.Printf("flserver: wrote final global model to %s (%d rounds, payload %d B up / %d B down, framed wire %d B in / %d B out)\n",
		*out, len(res.History.Rounds), up, down, res.History.WireBytesRead, res.History.WireBytesWritten)
	for _, rec := range res.History.Rounds {
		fmt.Printf("flserver: round %d: %d/%d participants, %d late applied, %d late dropped, %d failures, %v\n",
			rec.Round, len(rec.Participants), len(rec.Sampled),
			len(rec.LateApplied), len(rec.LateDropped), len(rec.Failures),
			rec.Duration.Round(time.Millisecond))
	}
	return nil
}
