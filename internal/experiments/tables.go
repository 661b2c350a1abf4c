package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"clinfl/internal/core"
	"clinfl/internal/ehr"
	"clinfl/internal/model"
	"clinfl/internal/nn"
)

// Table1 prints the experiment parameters (paper Table I), substituting
// this reproduction's hardware/software rows and scaled data sizes.
type Table1 struct{}

// ID implements Runner.
func (Table1) ID() string { return "table1" }

// Describe implements Runner.
func (Table1) Describe() string { return "Table I: parameters used in this reproduction" }

// Run implements Runner.
func (Table1) Run(_ context.Context, w io.Writer, scale Scale) error {
	cfgF := scale.apply(core.Default(core.TaskFinetune, core.ModeFederated, "lstm"))
	cfgP := scale.apply(core.Default(core.TaskPretrain, core.ModeFederated, "bert"))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "TABLE I — PARAMETERS USED IN THIS REPRODUCTION")
	fmt.Fprintf(tw, "Number of clients\t%d\n", cfgF.Clients)
	fmt.Fprintf(tw, "Hardware spec.\tsingle CPU core, pure-Go float64 kernels (paper: 2 GPU machines)\n")
	fmt.Fprintf(tw, "Software info.\tGo stdlib only (paper: PyTorch, CUDA, NVFlare v2.2)\n")
	fmt.Fprintf(tw, "# of train data (pretraining)\t%d (paper: 453,377)\n", cfgP.TrainSize)
	fmt.Fprintf(tw, "# of valid data (pretraining)\t%d (paper: 8,683)\n", cfgP.ValidSize)
	fmt.Fprintf(tw, "# of train data (finetuning)\t%d (paper: 6,927)\n", cfgF.TrainSize)
	fmt.Fprintf(tw, "# of valid data (finetuning)\t%d (paper: 1,732)\n", cfgF.ValidSize)
	fmt.Fprintf(tw, "Cohort\t%d patients, target ADR rate %.3f (paper: 8,638 / 0.211)\n",
		cfgF.EHR.Patients, cfgF.EHR.TargetPositiveRate)
	fmt.Fprintf(tw, "Optimizer / learning rate\tAdam, per-model (lstm %.0e, bert 1e-03, bert-mini 2e-03; paper: 1e-02)\n", cfgF.LR)
	fmt.Fprintf(tw, "Communication rounds E\t%d (finetune), %d (pretrain)\n", cfgF.Rounds, cfgP.Rounds)
	fmt.Fprintf(tw, "Imbalanced client ratios\t{0.29 0.22 0.17 0.14 0.09 0.04 0.03 0.02}\n")
	return tw.Flush()
}

// Table2 prints the model specifications (paper Table II) together with
// measured parameter counts from the instantiated models.
type Table2 struct{}

// ID implements Runner.
func (Table2) ID() string { return "table2" }

// Describe implements Runner.
func (Table2) Describe() string { return "Table II: medical NLP model specifications" }

// Run implements Runner.
func (Table2) Run(_ context.Context, w io.Writer, _ Scale) error {
	const vocab, maxLen = 256, 24
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "TABLE II — MEDICAL NLP MODELS")
	fmt.Fprintln(tw, "Specification/Model\tBERT\tBERT-mini\tLSTM")
	specs := []model.Spec{model.SpecBERT, model.SpecBERTMini, model.SpecLSTM}
	row := func(name string, f func(model.Spec) string) {
		fmt.Fprintf(tw, "%s", name)
		for _, s := range specs {
			fmt.Fprintf(tw, "\t%s", f(s))
		}
		fmt.Fprintln(tw)
	}
	row("Hidden dimension", func(s model.Spec) string { return fmt.Sprint(s.Hidden) })
	row("# of attention heads", func(s model.Spec) string {
		if s.Heads == 0 {
			return "-"
		}
		return fmt.Sprint(s.Heads)
	})
	row("# of hidden layers", func(s model.Spec) string { return fmt.Sprint(s.Layers) })
	row("# of parameters (vocab 256)", func(s model.Spec) string {
		m, err := model.New(s, vocab, maxLen, 2, 1)
		if err != nil {
			return "err"
		}
		return fmt.Sprint(nn.NumParams(m.Params()))
	})
	return tw.Flush()
}

// Table3 reproduces the paper's headline comparison: top-1 accuracy of
// BERT, BERT-mini and LSTM under centralized, FL and standalone training.
type Table3 struct{}

// ID implements Runner.
func (Table3) ID() string { return "table3" }

// Describe implements Runner.
func (Table3) Describe() string {
	return "Table III: top-1 accuracy of 3 models x centralized/FL/standalone"
}

// Table3Paper holds the paper's reported values for side-by-side output.
var Table3Paper = map[string]map[string]float64{
	"centralized": {"bert": 80.1, "bert-mini": 72.7, "lstm": 87.9},
	"standalone":  {"bert": 72.2, "bert-mini": 68.5, "lstm": 67.3},
	"fl":          {"bert": 80.1, "bert-mini": 72.3, "lstm": 87.5},
}

// Table3Result is one scheme/model cell.
type Table3Result struct {
	Scheme   string
	Model    string
	Accuracy float64 // percent
	Paper    float64 // percent
	Duration string
}

// RunTable3 executes all nine cells and returns them (exported so bench
// and tests can reuse the logic with custom configs).
func RunTable3(ctx context.Context, scale Scale, models []string, ehrOverride *ehr.Config) ([]Table3Result, error) {
	schemes := []core.Mode{core.ModeCentralized, core.ModeFederated, core.ModeStandalone}
	var out []Table3Result
	for _, m := range models {
		for _, scheme := range schemes {
			cfg := scale.apply(core.Default(core.TaskFinetune, scheme, m))
			if ehrOverride != nil {
				cfg.EHR = *ehrOverride
			}
			// Bound standalone cost: the three largest imbalanced shards
			// cover 68% of the data and dominate the weighted mean.
			cfg.StandaloneLimit = 3
			rep, err := runPipeline(ctx, cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: table3 %s/%s: %w", scheme, m, err)
			}
			out = append(out, Table3Result{
				Scheme:   string(scheme),
				Model:    m,
				Accuracy: 100 * rep.Accuracy,
				Paper:    Table3Paper[string(scheme)][m],
				Duration: fmtDur(rep.Duration),
			})
		}
	}
	return out, nil
}

// Run implements Runner.
func (Table3) Run(ctx context.Context, w io.Writer, scale Scale) error {
	results, err := RunTable3(ctx, scale, []string{"lstm", "bert-mini", "bert"}, nil)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "TABLE III — TOP-1 ACCURACY [%] (measured vs paper)")
	fmt.Fprintln(tw, "Scheme/Model\tModel\tMeasured\tPaper\tRuntime")
	for _, r := range results {
		fmt.Fprintf(tw, "%s\t%s\t%.1f\t%.1f\t%s\n", r.Scheme, r.Model, r.Accuracy, r.Paper, r.Duration)
	}
	fmt.Fprintln(tw)
	fmt.Fprintln(tw, "Shape checks: FL ≈ centralized for each model; standalone below both;")
	fmt.Fprintln(tw, "LSTM above BERT family (see DESIGN.md, \"Documented substitutions\").")
	return tw.Flush()
}
