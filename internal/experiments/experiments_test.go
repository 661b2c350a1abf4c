package experiments

import (
	"context"
	"strings"
	"testing"

	"clinfl/internal/core"
)

func TestRegistryContainsAllArtifacts(t *testing.T) {
	want := []string{"capacity", "chaos", "fig2", "fig3", "hier", "scale", "stragglers", "sweep", "table1", "table2", "table3"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("experiments %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("experiments %v, want %v", got, want)
		}
	}
	for _, id := range want {
		r, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if r.ID() != id || r.Describe() == "" {
			t.Fatalf("experiment %q malformed", id)
		}
	}
	if _, err := ByID("table9"); err == nil {
		t.Fatal("want error for unknown experiment")
	}
}

func TestTable1PrintsPaperParameters(t *testing.T) {
	var sb strings.Builder
	if err := (Table1{}).Run(context.Background(), &sb, 1); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, needle := range []string{"453,377", "6,927", "8,638", "0.29"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("table1 output missing %q:\n%s", needle, out)
		}
	}
}

func TestTable2PrintsModelGeometry(t *testing.T) {
	var sb strings.Builder
	if err := (Table2{}).Run(context.Background(), &sb, 1); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, needle := range []string{"BERT", "BERT-mini", "LSTM", "128", "50", "12"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("table2 output missing %q:\n%s", needle, out)
		}
	}
}

func TestScaleShrinksConfigs(t *testing.T) {
	base := core.Default(core.TaskFinetune, core.ModeFederated, "lstm")
	small := Scale(4).apply(base)
	if small.TrainSize >= base.TrainSize {
		t.Fatalf("scale did not shrink train size: %d", small.TrainSize)
	}
	if small.TrainSize < 64 {
		t.Fatalf("scale shrank below the 8-clients floor: %d", small.TrainSize)
	}
	if small.Rounds >= base.Rounds {
		t.Fatalf("scale did not shrink rounds: %d", small.Rounds)
	}
	if err := small.Validate(); err != nil {
		t.Fatalf("scaled config invalid: %v", err)
	}
	if same := Scale(1).apply(base); same.TrainSize != base.TrainSize {
		t.Fatal("scale 1 must be identity")
	}
}

func TestTable3PaperValuesMatchPublication(t *testing.T) {
	// Spot-check the transcription of the paper's Table III.
	if Table3Paper["centralized"]["lstm"] != 87.9 {
		t.Fatal("centralized LSTM should be 87.9")
	}
	if Table3Paper["fl"]["bert"] != 80.1 {
		t.Fatal("FL BERT should be 80.1")
	}
	if Table3Paper["standalone"]["lstm"] != 67.3 {
		t.Fatal("standalone LSTM should be 67.3")
	}
}

func TestFig2SchemesMatchPaper(t *testing.T) {
	if len(Fig2Schemes) != 4 {
		t.Fatalf("fig2 has %d schemes, paper compares 4", len(Fig2Schemes))
	}
	names := map[string]bool{}
	for _, s := range Fig2Schemes {
		names[s.Name] = true
	}
	for _, want := range []string{"centralized", "small-dataset", "fl-imbalanced", "fl-balanced"} {
		if !names[want] {
			t.Fatalf("fig2 missing scheme %q", want)
		}
	}
}

// TestScaleSimExperiment runs the simulator experiment at a heavy
// scale-down and checks it proves its own determinism.
func TestScaleSimExperiment(t *testing.T) {
	var sb strings.Builder
	if err := (ScaleSim{}).Run(context.Background(), &sb, 8); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, needle := range []string{"DETERMINISTIC FEDERATION", "holdout MSE", "deterministic replay", "true"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("scale output missing %q:\n%s", needle, out)
		}
	}
}

// TestTable3SmokeLSTM runs the full Table III machinery on one model at a
// heavy scale-down — an integration test of the experiment plumbing.
func TestTable3SmokeLSTM(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	results, err := RunTable3(context.Background(), 8, []string{"lstm"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results %d, want 3 schemes", len(results))
	}
	for _, r := range results {
		if r.Accuracy <= 0 || r.Accuracy > 100 {
			t.Fatalf("%s accuracy %v out of range", r.Scheme, r.Accuracy)
		}
		if r.Paper == 0 {
			t.Fatalf("%s missing paper value", r.Scheme)
		}
	}
}

// TestFig3Smoke exercises the full secure deployment once at small scale.
func TestFig3Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	var sb strings.Builder
	res, err := RunFig3(context.Background(), &sb, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clients != 8 {
		t.Fatalf("clients %d", res.Clients)
	}
	if res.MeanEpochTime <= 0 {
		t.Fatal("no epoch timing measured")
	}
	out := sb.String()
	for _, needle := range []string{"provision", "registered", "round"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("fig3 log missing %q", needle)
		}
	}
}
