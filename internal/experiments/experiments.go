// Package experiments defines one runnable, parameterized specification per
// table and figure in the paper's evaluation section (Sec. IV), mapping each
// onto the core pipeline:
//
//	table1 — Table I  (setup parameters; printed, nothing trained)
//	table2 — Table II (model specifications and parameter counts)
//	table3 — Table III (top-1 accuracy: 3 models × centralized/FL/standalone)
//	fig2   — Fig. 2   (MLM pretraining loss, 4 schemes)
//	fig3   — Fig. 3   (fine-tuning demonstration over real provision + TLS)
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"clinfl/internal/core"
)

// Scale shrinks experiment workloads uniformly: 1 is the reference
// scaled-down configuration (DESIGN.md, "Documented substitutions");
// larger values divide data sizes and rounds for quick smoke runs.
type Scale int

// apply shrinks a pipeline config by the scale factor.
func (s Scale) apply(cfg core.Config) core.Config {
	if s <= 1 {
		return cfg
	}
	f := int(s)
	div := func(v, minV int) int {
		v /= f
		if v < minV {
			v = minV
		}
		return v
	}
	cfg.TrainSize = div(cfg.TrainSize, 8*8) // keep >= 8 examples per client
	cfg.ValidSize = div(cfg.ValidSize, 16)
	cfg.Rounds = div(cfg.Rounds, 2)
	cfg.EHR.Patients = div(cfg.EHR.Patients, cfg.TrainSize+cfg.ValidSize)
	cfg.EHR.CorpusSentences = div(cfg.EHR.CorpusSentences, cfg.TrainSize+cfg.ValidSize)
	return cfg
}

// Runner is a named experiment.
type Runner interface {
	// ID is the experiment identifier ("table3", "fig2", ...).
	ID() string
	// Describe returns a one-line summary.
	Describe() string
	// Run executes the experiment, writing paper-formatted output to w.
	Run(ctx context.Context, w io.Writer, scale Scale) error
}

// registry holds all experiments keyed by id.
func registry() map[string]Runner {
	rs := []Runner{Table1{}, Table2{}, Table3{}, Fig2{}, Fig3{}, Sweep{}, Stragglers{}, ScaleSim{}, Chaos{}, Capacity{}, Hier{}}
	out := make(map[string]Runner, len(rs))
	for _, r := range rs {
		out[r.ID()] = r
	}
	return out
}

// ByID returns the experiment with the given id.
func ByID(id string) (Runner, error) {
	r, ok := registry()[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return r, nil
}

// IDs lists the registered experiment ids in stable order.
func IDs() []string {
	var out []string
	for id := range registry() {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// runPipeline is shared plumbing: build, run and time one pipeline config.
func runPipeline(ctx context.Context, cfg core.Config) (*core.Report, error) {
	p, err := core.NewPipeline(cfg)
	if err != nil {
		return nil, err
	}
	return p.Run(ctx)
}

// fmtDur renders a duration compactly for result tables.
func fmtDur(d time.Duration) string {
	return d.Round(100 * time.Millisecond).String()
}
