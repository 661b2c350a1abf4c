package sim

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files from the current output")

func TestScenarioConvergesOnLinearTask(t *testing.T) {
	res, err := Scenario{
		Name:     "converge",
		Seed:     1,
		Clients:  8,
		Rounds:   12,
		Validate: true,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Result.History.Rounds) != 12 {
		t.Fatalf("ran %d rounds, want 12", len(res.Result.History.Rounds))
	}
	if res.FinalMSE >= res.InitialMSE/10 {
		t.Fatalf("FedAvg did not converge: MSE %v -> %v", res.InitialMSE, res.FinalMSE)
	}
}

func TestScenarioStragglersNeverBlockRounds(t *testing.T) {
	sc := Scenario{
		Name:          "stragglers",
		Seed:          3,
		Clients:       12,
		Rounds:        4,
		MinUpdates:    8,
		MinClients:    4,
		RoundDeadline: time.Second,
		FedAsyncAlpha: 0.5,
		Compute: ComputeProfile{
			Mean:              100 * time.Millisecond,
			StragglerFraction: 0.25,
			StragglerFactor:   50, // way past every deadline
		},
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stragglers) != 3 {
		t.Fatalf("stragglers %v, want 3 of 12", res.Stragglers)
	}
	slow := map[string]bool{}
	for _, s := range res.Stragglers {
		slow[s] = true
	}
	for _, rec := range res.Result.History.Rounds {
		for _, p := range rec.Participants {
			if slow[p] {
				t.Fatalf("round %d aggregated straggler %s in-round", rec.Round, p)
			}
		}
		// Virtual round time is capped by the deadline (plus zero-cost
		// drain), never by the stragglers' 5s compute.
		if rec.Duration > 1100*time.Millisecond {
			t.Fatalf("round %d virtual duration %v exceeds deadline", rec.Round, rec.Duration)
		}
	}
}

func TestScenarioMixedCodecsAccountBytes(t *testing.T) {
	base := Scenario{
		Name:    "codec-bytes",
		Seed:    5,
		Clients: 6,
		Rounds:  3,
	}
	raw := base
	raw.Codecs = []string{"raw"}
	f32 := base
	f32.Codecs = []string{"f32"}
	rres, err := raw.Run()
	if err != nil {
		t.Fatal(err)
	}
	fres, err := f32.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rres.BytesUp <= 0 || fres.BytesUp <= 0 {
		t.Fatalf("uplink bytes unaccounted: raw=%d f32=%d", rres.BytesUp, fres.BytesUp)
	}
	if float64(fres.BytesUp) > 0.7*float64(rres.BytesUp) {
		t.Fatalf("f32 uplink %d bytes, want well below raw %d", fres.BytesUp, rres.BytesUp)
	}
	var recUp int64
	for _, rec := range rres.Result.History.Rounds {
		if rec.BytesUp <= 0 {
			t.Fatalf("round %d BytesUp unrecorded", rec.Round)
		}
		recUp += rec.BytesUp
	}
	// The stats counter includes 8-byte frame headers and any updates that
	// never aggregated; the History counter is payload bytes that reached
	// the model. Frame overhead aside they must agree.
	if recUp > rres.BytesUp {
		t.Fatalf("History BytesUp %d exceeds simulated uplink total %d", recUp, rres.BytesUp)
	}
}

// TestGolden16HistoryByteStable is the golden determinism test: the pinned
// 16-client mixed-codec scenario must reproduce byte-for-byte identical
// History JSON on every run, at every GOMAXPROCS (CI runs this package
// with -cpu 1,2,4), on every platform. Regenerate with -update after an
// intentional behavior change.
func TestGolden16HistoryByteStable(t *testing.T) {
	res1, err := Golden16Scenario().Run()
	if err != nil {
		t.Fatal(err)
	}
	js1, err := res1.HistoryJSON()
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Golden16Scenario().Run()
	if err != nil {
		t.Fatal(err)
	}
	js2, err := res2.HistoryJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js1, js2) {
		t.Fatalf("same seed, different History:\nrun1: %s\nrun2: %s", js1, js2)
	}

	golden := filepath.Join("testdata", "golden16_history.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, js1, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(js1, want) {
		t.Fatalf("History diverged from golden file (regenerate with -update if intended)\ngot:  %s\nwant: %s", js1, want)
	}
}

// TestScale200Smoke is the acceptance scenario: 200 clients × 20 rounds
// with 10%% stragglers and 5%% faulty clients completes deterministically
// in well under 30s of real time, simulating minutes of federation wall
// time under the virtual clock.
func TestScale200Smoke(t *testing.T) {
	res, err := ScaleScenario(7).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.RealElapsed > 30*time.Second {
		t.Fatalf("200-client scenario took %v real time, want < 30s", res.RealElapsed)
	}
	if got := len(res.Result.History.Rounds); got != 20 {
		t.Fatalf("completed %d rounds, want 20", got)
	}
	if len(res.Stragglers) != 20 || len(res.Faulty) != 10 {
		t.Fatalf("population: %d stragglers / %d faulty, want 20 / 10",
			len(res.Stragglers), len(res.Faulty))
	}
	if res.VirtualElapsed < 10*res.RealElapsed {
		t.Fatalf("virtual time %v did not dominate real time %v", res.VirtualElapsed, res.RealElapsed)
	}
	if res.FinalMSE >= res.InitialMSE/10 {
		t.Fatalf("scale scenario did not converge: MSE %v -> %v", res.InitialMSE, res.FinalMSE)
	}
	// Determinism at scale: a second run reproduces History exactly.
	js1, err := res.HistoryJSON()
	if err != nil {
		t.Fatal(err)
	}
	res2, err := ScaleScenario(7).Run()
	if err != nil {
		t.Fatal(err)
	}
	js2, err := res2.HistoryJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js1, js2) {
		t.Fatal("200-client scenario is not deterministic across runs")
	}
}

// BenchmarkScale200 measures simulator throughput on the acceptance
// scenario, reported as rounds simulated per second of real time.
func BenchmarkScale200(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := ScaleScenario(7).Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Result.History.Rounds))/res.RealElapsed.Seconds(), "rounds/s")
	}
}
