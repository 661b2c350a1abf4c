package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"
	"text/tabwriter"
	"time"

	"clinfl/internal/core"
	"clinfl/internal/fl"
	"clinfl/internal/metrics"
	"clinfl/internal/nn"
	"clinfl/internal/provision"
)

// Fig2 reproduces the MLM pretraining feasibility study: held-out masked-
// language-model loss trajectories for the four schemes the paper plots —
// centralized data, a small (single-site) dataset, FL on imbalanced client
// shards, and FL on balanced shards.
type Fig2 struct{}

// ID implements Runner.
func (Fig2) ID() string { return "fig2" }

// Describe implements Runner.
func (Fig2) Describe() string { return "Fig. 2: MLM pretraining loss under 4 data schemes" }

// Fig2Scheme names one curve.
type Fig2Scheme struct {
	Name      string
	Mode      core.Mode
	Partition core.Partition
}

// Fig2Schemes lists the four paper curves.
var Fig2Schemes = []Fig2Scheme{
	{Name: "centralized", Mode: core.ModeCentralized, Partition: core.PartitionBalanced},
	{Name: "small-dataset", Mode: core.ModeStandalone, Partition: core.PartitionBalanced},
	{Name: "fl-imbalanced", Mode: core.ModeFederated, Partition: core.PartitionImbalanced},
	{Name: "fl-balanced", Mode: core.ModeFederated, Partition: core.PartitionBalanced},
}

// RunFig2 executes the four schemes with the given model, returning the
// eval-loss curves keyed by scheme name.
func RunFig2(ctx context.Context, scale Scale, modelName string) ([]*metrics.Curve, error) {
	var curves []*metrics.Curve
	for _, s := range Fig2Schemes {
		cfg := scale.apply(core.Default(core.TaskPretrain, s.Mode, modelName))
		cfg.Partition = s.Partition
		rep, err := runPipeline(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig2 %s: %w", s.Name, err)
		}
		c := rep.EvalCurve
		c.Name = s.Name
		curves = append(curves, c)
	}
	return curves, nil
}

// Run implements Runner.
func (Fig2) Run(ctx context.Context, w io.Writer, scale Scale) error {
	// The paper pretrains full BERT; that is the default here too.
	curves, err := RunFig2(ctx, scale, "bert")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "FIG. 2 — MLM LOSS (held-out, per communication round)")
	fmt.Fprintln(w, "Paper shape: loss starts near ln|V| (paper 10.7 at 44k vocab; here ln|V| of the")
	fmt.Fprintln(w, "scaled clinical vocab); centralized/fl-imbalanced/fl-balanced converge together")
	fmt.Fprintln(w, "(paper: 3.5); small-dataset plateaus higher (paper: 4.4).")
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Scheme\tStart\tFinal\tMin")
	for _, c := range curves {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\n", c.Name, c.First(), c.Last(), c.Min())
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, metrics.ASCIIPlot(curves, 48, 12))
	return nil
}

// Fig3 reproduces the demonstration (paper Fig. 3): a full NVFlare-style
// deployment — provisioning with CA/TLS/token security, a networked server,
// and 8 networked clients on localhost — fine-tuning the LSTM model, with
// per-local-epoch wall-clock times reported as in the paper's "average of
// 12.7 seconds per local epoch".
type Fig3 struct{}

// ID implements Runner.
func (Fig3) ID() string { return "fig3" }

// Describe implements Runner.
func (Fig3) Describe() string {
	return "Fig. 3: provision + TLS deployment demonstration (LSTM fine-tuning)"
}

// Fig3Result summarizes the demonstration for tests and benches.
type Fig3Result struct {
	Clients       int
	Rounds        int
	MeanEpochTime time.Duration
	// EpochTimes holds the raw local-epoch samples so callers can read
	// straggler tails (P50/P95/P99), not just the mean the paper quotes.
	EpochTimes     *metrics.Timing
	FinalValAcc    float64
	RoundDurations []time.Duration
}

// RunFig3 executes the networked demonstration and returns its summary.
// Log lines stream to w as the lifecycle progresses (server/client
// registration, rounds, aggregation), mirroring the console capture the
// paper's figure shows.
func RunFig3(ctx context.Context, w io.Writer, scale Scale) (*Fig3Result, error) {
	cfg := scale.apply(core.Default(core.TaskFinetune, core.ModeFederated, "lstm"))
	// The server and every client log concurrently into the one writer.
	var logMu sync.Mutex
	logf := func(format string, args ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		fmt.Fprintf(w, "  "+format+"\n", args...)
	}

	// --- Stage 1: provision (Fig. 1 "NVFlare provision") ---
	clientNames := make([]string, cfg.Clients)
	for i := range clientNames {
		clientNames[i] = fmt.Sprintf("clinic-%d", i+1)
	}
	proj, err := provision.Provision(provision.Config{
		ProjectName: "clinfl-demo",
		ServerName:  "localhost",
		ClientNames: clientNames,
	})
	if err != nil {
		return nil, err
	}
	logf("provision: CA + server cert + %d client certs + admission tokens issued", cfg.Clients)

	// --- Stage 2: data and model preparation ---
	trainSet, validSet, vocab, err := core.PrepareFinetune(cfg)
	if err != nil {
		return nil, err
	}
	shards, err := core.Shards(cfg, trainSet)
	if err != nil {
		return nil, err
	}
	valModel, err := core.NewModel(cfg, vocab.Size())
	if err != nil {
		return nil, err
	}
	epochTimes := metrics.NewTiming("local_epoch")

	// --- Stage 3: networked server + clients over mutual TLS ---
	srv, err := fl.NewServer(fl.ServerConfig{
		Addr:            "127.0.0.1:0",
		ExpectedClients: cfg.Clients,
		Rounds:          cfg.Rounds,
		Logf:            logf,
		VerifyToken:     proj.VerifyToken,
		Validate:        core.AccuracyValidator(valModel, validSet),
	}, proj.ServerKit)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	logf("server: listening on %s (mutual TLS, token auth)", srv.Addr())

	clientErr := make(chan error, cfg.Clients)
	logEpoch := func(client string, round, epoch int, d time.Duration) {
		epochTimes.Add(d)
		logf("client %s: round %d local epoch %d took %v", client, round, epoch, d.Round(time.Millisecond))
	}
	for i, name := range clientNames {
		exec, err := core.NewSite(cfg, i, name, shards[i], vocab.Size(), logEpoch, 0)
		if err != nil {
			return nil, err
		}
		cl, err := fl.NewClient(fl.ClientConfig{ServerAddr: srv.Addr(), Logf: logf}, proj.ClientKits[name], exec)
		if err != nil {
			return nil, err
		}
		go func() {
			_, err := cl.Run()
			clientErr <- err
		}()
	}

	res, err := srv.Run(nn.SnapshotWeights(valModel.Params()))
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Clients; i++ {
		if cerr := <-clientErr; cerr != nil && err == nil {
			return nil, fmt.Errorf("experiments: fig3 client: %w", cerr)
		}
	}
	_ = ctx

	out := &Fig3Result{
		Clients:       cfg.Clients,
		Rounds:        cfg.Rounds,
		MeanEpochTime: epochTimes.Mean(),
		EpochTimes:    epochTimes,
		FinalValAcc:   res.History.BestScore,
	}
	for _, r := range res.History.Rounds {
		out.RoundDurations = append(out.RoundDurations, r.Duration)
	}
	return out, nil
}

// Run implements Runner.
func (Fig3) Run(ctx context.Context, w io.Writer, scale Scale) error {
	fmt.Fprintln(w, "FIG. 3 — NVFLARE-STYLE DEPLOYMENT DEMONSTRATION")
	res, err := RunFig3(ctx, w, scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nclients=%d rounds=%d\n", res.Clients, res.Rounds)
	fmt.Fprintf(w, "mean local-epoch time: %v (paper reports 12.7 s on its hardware/data scale)\n",
		res.MeanEpochTime.Round(time.Millisecond))
	fmt.Fprintf(w, "local-epoch quantiles: p50=%v p95=%v p99=%v max=%v over %d epochs\n",
		res.EpochTimes.P50().Round(time.Millisecond), res.EpochTimes.P95().Round(time.Millisecond),
		res.EpochTimes.P99().Round(time.Millisecond), res.EpochTimes.Max().Round(time.Millisecond),
		res.EpochTimes.Count())
	fmt.Fprintf(w, "best validation accuracy: %.1f%%\n", 100*res.FinalValAcc)
	var total time.Duration
	for _, d := range res.RoundDurations {
		total += d
	}
	if n := len(res.RoundDurations); n > 0 {
		fmt.Fprintf(w, "mean federated round time: %v over %d rounds\n",
			(total / time.Duration(n)).Round(time.Millisecond), n)
	}
	if math.IsNaN(res.FinalValAcc) {
		return fmt.Errorf("experiments: fig3 produced NaN accuracy")
	}
	return nil
}
