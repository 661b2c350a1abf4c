package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestTierScenario10kDeterministic pins the hierarchical-aggregation
// scenario at 10k clients: the run must complete every round with full
// participation, reproduce byte-identical History across runs and at
// every GOMAXPROCS (run with -cpu 1,2,4 in CI), match the digest pinned
// in testdata, and carry tier accounting in every round record.
// Regenerate the digest with -update after an intentional change.
func TestTierScenario10kDeterministic(t *testing.T) {
	const clients = 10_000
	res1, err := TierScenario(7, clients).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res1.RealElapsed > 60*time.Second {
		t.Fatalf("tier scenario took %v real time, want < 60s", res1.RealElapsed)
	}
	js1, err := res1.HistoryJSON()
	if err != nil {
		t.Fatal(err)
	}
	res2, err := TierScenario(7, clients).Run()
	if err != nil {
		t.Fatal(err)
	}
	js2, err := res2.HistoryJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js1, js2) {
		t.Fatal("same seed, different History across two tier runs")
	}

	sum := sha256.Sum256(js1)
	digest := hex.EncodeToString(sum[:]) + "\n"
	golden := filepath.Join("testdata", "tier_10k.digest")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(digest), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden digest (regenerate with -update): %v", err)
	}
	if digest != string(want) {
		t.Fatalf("History digest diverged from golden (regenerate with -update if intended)\ngot:  %swant: %s", digest, want)
	}

	rounds := res1.Result.History.Rounds
	if len(rounds) != 8 {
		t.Fatalf("completed %d rounds, want 8", len(rounds))
	}
	// TierScenario's widths are {64, 8}: each round encodes 64 edge
	// partials up to the regional tier and 8 regionals up to the root.
	const wantPartials = 64 + 8
	for _, rec := range rounds {
		if len(rec.Participants) != clients {
			t.Fatalf("round %d: %d participants, want %d", rec.Round, len(rec.Participants), clients)
		}
		if rec.TierPartials != wantPartials {
			t.Fatalf("round %d: TierPartials = %d, want %d", rec.Round, rec.TierPartials, wantPartials)
		}
		if rec.TierBytesUp <= 0 || rec.TierResidentBytes <= 0 {
			t.Fatalf("round %d: tier byte accounting missing (up=%d resident=%d)",
				rec.Round, rec.TierBytesUp, rec.TierResidentBytes)
		}
	}
	if res1.FinalMSE >= res1.InitialMSE/10 {
		t.Fatalf("tier scenario did not converge: MSE %v -> %v", res1.InitialMSE, res1.FinalMSE)
	}
}

// TestTierRootStateIndependentOfClientCount is the O(model) memory
// evidence: quadrupling the roster must leave the root's resident
// aggregation state essentially unchanged (expansion components grow with
// the condition of the sum, never with the number of folds), and that
// state must sit orders of magnitude below what buffering per-client
// updates at the root would cost.
func TestTierRootStateIndependentOfClientCount(t *testing.T) {
	resident := func(clients int) int64 {
		res, err := TierScenario(7, clients).Run()
		if err != nil {
			t.Fatal(err)
		}
		rounds := res.Result.History.Rounds
		r := rounds[len(rounds)-1].TierResidentBytes
		if r <= 0 {
			t.Fatalf("%d clients: no resident-state accounting", clients)
		}
		return r
	}
	small, big := resident(2_500), resident(10_000)
	if big > small*3/2 {
		t.Fatalf("root resident state grew with the roster: %d bytes at 10k vs %d at 2.5k", big, small)
	}
	// Buffering raw per-client updates at the root costs at least one
	// float64 per model element per client.
	elems := 0
	for _, m := range InitialLinearWeights(LinearDim) {
		elems += m.Rows() * m.Cols()
	}
	naive := int64(10_000) * int64(elems) * 8
	if big*20 > naive {
		t.Fatalf("root resident state %d bytes is not far below the naive per-client buffer %d", big, naive)
	}
}
