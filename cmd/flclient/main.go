// Command flclient runs one networked federation client for ADR
// fine-tuning. It loads its provision startup kit, regenerates its local
// shard of the synthetic cohort (standing in for the site's private EHR
// database — every site sees only its own shard), dials the server over
// mutual TLS, registers with its admission token (negotiating its uplink
// weight codec), and trains when tasked. Under a sampling/deadline server
// the client may sit idle for rounds it is not tasked in; -prox adds a
// FedProx proximal term so partial participation tolerates heterogeneous
// shards. -reconnect (on by default) rides out connection loss and server
// restarts: the client redials with jittered exponential backoff and
// presents its session token, re-attaching to any in-flight task.
//
// Usage (site 3 of 8, compressed uplink):
//
//	flclient -kit kits/clinic-3 -server localhost:8443 -shard 2 -shards 8 \
//	    -codec f32 -prox 0.01
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"clinfl/internal/core"
	"clinfl/internal/data"
	"clinfl/internal/fl"
	"clinfl/internal/provision"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "flclient:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		kitDir     = flag.String("kit", "", "client startup-kit directory")
		serverAddr = flag.String("server", "localhost:8443", "server address")
		shard      = flag.Int("shard", 0, "this site's shard index (0-based)")
		shards     = flag.Int("shards", 8, "total shard count")
		imbalanced = flag.Bool("imbalanced", true, "use the paper's imbalanced ratios (needs -shards 8; when not given, used only with -shards 8)")
		modelName  = flag.String("model", "lstm", "model architecture (must match server)")
		maxLen     = flag.Int("maxlen", 24, "sequence length (must match server)")
		seed       = flag.Int64("seed", 1, "model/data seed (must match server)")
		epochs     = flag.Int("epochs", 1, "local epochs per round")
		lr         = flag.Float64("lr", 5e-3, "Adam learning rate")
		trainSize  = flag.Int("train", 640, "total federation train examples")
		patients   = flag.Int("patients", 8638, "synthetic cohort size")
		codec      = flag.String("codec", "raw", "uplink weight codec: raw | f32 | int8 | topk[:fraction]")
		proxMu     = flag.Float64("prox", 0, "FedProx proximal strength mu (0 = plain FedAvg local training)")
		reconnect  = flag.Bool("reconnect", true, "redial with backoff on connection loss and resume the session")
		maxRedials = flag.Int("max-reconnects", 8, "redial attempts per connection failure")
	)
	flag.Parse()
	if *kitDir == "" {
		return fmt.Errorf("missing -kit")
	}
	if *shard < 0 || *shard >= *shards {
		return fmt.Errorf("shard %d out of range [0,%d)", *shard, *shards)
	}

	site := siteFlags{
		model: *modelName, maxLen: *maxLen, seed: *seed, epochs: *epochs, lr: *lr,
		train: *trainSize, patients: *patients, shards: *shards,
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "imbalanced" {
			site.imbalanced = imbalanced
		}
	})
	cfg, err := site.config()
	if err != nil {
		return err
	}
	kit, err := provision.ReadKit(*kitDir)
	if err != nil {
		return err
	}

	// Regenerate the shared synthetic cohort and keep only our shard; the
	// deterministic seed plays the role of each site's local database.
	all, vocab, err := core.EncodeCohort(cfg.EHR, cfg.MaxLen, cfg.Seed)
	if err != nil {
		return err
	}
	if cfg.TrainSize > len(all) {
		return fmt.Errorf("train size %d exceeds cohort %d", cfg.TrainSize, len(all))
	}
	parts, err := core.Shards(cfg, all[:cfg.TrainSize])
	if err != nil {
		return err
	}
	local := parts[*shard]
	fmt.Printf("flclient %s: local shard %d/%d has %d examples (vocab %d)\n",
		kit.Name, *shard+1, *shards, len(local), vocab.Size())

	exec, err := core.NewSite(cfg, *shard, kit.Name, local, vocab.Size(), nil, *proxMu)
	if err != nil {
		return err
	}
	client, err := fl.NewClient(fl.ClientConfig{
		ServerAddr:    *serverAddr,
		Codec:         *codec,
		Reconnect:     *reconnect,
		MaxReconnects: *maxRedials,
		Backoff:       fl.Backoff{Jitter: 0.5, Seed: *seed + int64(*shard)},
	}, kit, exec)
	if err != nil {
		return err
	}
	// SIGINT/SIGTERM abandon the run; a restarted client re-attaches to
	// its session only within the same process (the token is in memory),
	// so a signal here simply stops participating — the server treats the
	// site as failed and the round proceeds without it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() {
		_, err := client.Run()
		done <- err
	}()
	select {
	case <-ctx.Done():
		return fmt.Errorf("interrupted")
	case err := <-done:
		if err != nil {
			return err
		}
	}
	fmt.Printf("flclient %s: done\n", kit.Name)
	return nil
}

// siteFlags are the flags that shape what this site trains.
type siteFlags struct {
	model                                   string
	maxLen, epochs, train, patients, shards int
	seed                                    int64
	lr                                      float64
	// imbalanced is -imbalanced when it was given, nil when it was not.
	imbalanced *bool
}

// config is the recipe config this site trains under: the paper's
// federated fine-tuning of f.model (core.Default) at the flags' sequence
// length, seed, cohort, federation size and local settings. Without
// -imbalanced the paper's ratios apply only to eight shards; an explicit
// -imbalanced with any other -shards is refused, as core.Config.Validate
// refuses it.
func (f siteFlags) config() (core.Config, error) {
	cfg := core.Default(core.TaskFinetune, core.ModeFederated, f.model)
	cfg.Clients = f.shards
	cfg.MaxLen = f.maxLen
	cfg.Seed = f.seed
	cfg.LocalEpochs = f.epochs
	cfg.LR = f.lr
	cfg.TrainSize = f.train
	cfg.EHR.Seed = f.seed
	cfg.EHR.Patients = f.patients
	cfg.EHR.CorpusSentences = 1 // unused by fine-tuning
	cfg.Partition = core.PartitionBalanced
	if f.imbalanced != nil && *f.imbalanced || f.imbalanced == nil && f.shards == len(data.PaperImbalancedRatios) {
		cfg.Partition = core.PartitionImbalanced
	}
	return cfg, cfg.Validate()
}
