package fltest

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"clinfl/internal/fl"
)

// TestFeatureLattice runs every combination of tier × reconcile × FedAsync
// × uplink codec on every harness. Each cell has exactly two outcomes: it
// completes a round in which everyone sampled takes part, or it is refused at
// construction with a reason naming both features. A tier with reconcile or
// FedAsync is the refused kind; lifting one of those limits flips its cells.
// Tier × WAL is refused by the construction table in the fl package, since
// no harness takes a WAL.
func TestFeatureLattice(t *testing.T) {
	clients := []ClientSpec{
		{Name: "a", Samples: 10, Value: 1},
		{Name: "b", Samples: 30, Value: 2},
		{Name: "c", Samples: 20, Value: 7},
		{Name: "d", Samples: 40, Value: 3.5},
	}
	for _, h := range Harnesses() {
		for _, tier := range [][]int{nil, {2}} {
			for _, reconcile := range []bool{false, true} {
				for _, async := range []bool{false, true} {
					for _, codec := range []string{"", "f32", "int8", "topk:0.5"} {
						name := fmt.Sprintf("%s/tier=%v/reconcile=%v/fedasync=%v/codec=%q", h.Name(), tier != nil, reconcile, async, codec)
						spec := RunSpec{Rounds: 1, RoundDeadline: 5 * time.Second, Tier: tier}
						if reconcile {
							spec.Reconcile = &fl.ReconcilePolicy{QuarantineAfter: 2}
						}
						if async {
							spec.FedAsyncAlpha = 0.5
						}
						for _, c := range clients {
							c.Codec = codec
							spec.Clients = append(spec.Clients, c)
						}
						t.Run(name, func(t *testing.T) { latticeCell(t, h, spec) })
					}
				}
			}
		}
	}
}

// latticeCell runs one cell and checks it took one of the two outcomes.
func latticeCell(t *testing.T, h Harness, spec RunSpec) {
	res, err := h.Run(spec)
	if spec.Tier != nil && (spec.Reconcile != nil || spec.FedAsyncAlpha > 0) {
		// The first conflict settle meets is named.
		other := "Reconcile"
		if spec.FedAsyncAlpha > 0 {
			other = "AsyncAggregator"
		}
		if err == nil || !strings.HasPrefix(err.Error(), "fl: Tier is incompatible with "+other) {
			t.Fatalf("got %v, want a construction refusal naming Tier and %s", err, other)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(t, res)
	rec := res.History.Rounds[0]
	if len(res.History.Rounds) != 1 || len(rec.Participants) != len(rec.Sampled) || len(rec.Failures) > 0 {
		t.Fatalf("round %+v, want every sampled client in it", rec)
	}
	if codec := spec.Clients[0].Codec; codec != "" && codec != "f32" {
		return // a lossy codec moves the average
	}
	want := ExpectedFedAvg(spec.Clients)
	for p, m := range res.FinalWeights {
		if v := m.Data()[0]; v != want {
			t.Errorf("final %s = %v, want exact %v", p, v, want)
		}
	}
}
