package fltest

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"clinfl/internal/fl"
	"clinfl/internal/tensor"
)

// Property: for sync FedAvg, any permutation of client arrival order
// yields the bit-identical aggregated model. Random rosters (sizes,
// values, sample counts) run under the virtual-clock harness with random
// delays — only the *set* of participants may matter, never the order.
func TestPropertyPermutedArrivalOrderSameModel(t *testing.T) {
	h := ControllerHarness{Virtual: true}
	f := func(seed int64, nRaw uint8) bool {
		rng := tensor.NewRNG(seed)
		n := int(nRaw%5) + 2
		clients := make([]ClientSpec, n)
		for i := range clients {
			clients[i] = ClientSpec{
				Name:    fmt.Sprintf("c%d", i),
				Samples: 1 + rng.Intn(50),
				Value:   rng.Float64()*10 - 5,
				Delay:   time.Duration(rng.Intn(400)) * time.Millisecond,
			}
		}
		run := func(cs []ClientSpec) map[string]*tensor.Matrix {
			res, err := h.Run(RunSpec{Rounds: 1, Clients: cs})
			if err != nil {
				t.Fatal(err)
			}
			return res.FinalWeights
		}
		base := run(clients)
		permuted := make([]ClientSpec, n)
		copy(permuted, clients)
		rng.Shuffle(n, func(i, j int) { permuted[i], permuted[j] = permuted[j], permuted[i] })
		// Re-randomize delays too: arrival order changes, membership not.
		for i := range permuted {
			permuted[i].Delay = time.Duration(rng.Intn(400)) * time.Millisecond
		}
		perm := run(permuted)
		for name, m := range base {
			pm := perm[name]
			for i, v := range m.Data() {
				if pm.Data()[i] != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: whenever stragglers push the on-time update count below the
// configured quorum, the run errors — it never silently publishes a
// sub-quorum model.
func TestPropertyBelowQuorumAlwaysErrors(t *testing.T) {
	h := ControllerHarness{Virtual: true}
	f := func(seed int64, nRaw, qRaw uint8) bool {
		rng := tensor.NewRNG(seed)
		n := int(nRaw%5) + 2 // 2..6 clients
		q := int(qRaw)%n + 1 // quorum 1..n
		late := n - q + 1    // enough stragglers to leave q-1 on time
		clients := make([]ClientSpec, n)
		for i := range clients {
			clients[i] = ClientSpec{Name: fmt.Sprintf("c%d", i), Samples: 1 + rng.Intn(9), Value: 1}
			if i < late {
				clients[i].Delay = time.Second
			}
		}
		_, err := h.Run(RunSpec{
			Rounds: 1, MinClients: q,
			RoundDeadline: 100 * time.Millisecond,
			Clients:       clients,
		})
		return err != nil && strings.Contains(err.Error(), "quorum")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the raw codec is bit-lossless and the f32 codec is lossless
// within float32 rounding, for arbitrary weight maps.
func TestPropertyCodecRoundTrip(t *testing.T) {
	f := func(seed int64, rRaw, cRaw uint8) bool {
		rng := tensor.NewRNG(seed)
		rows, cols := int(rRaw%7)+1, int(cRaw%7)+1
		weights := map[string]*tensor.Matrix{
			"w": rng.Normal(rows, cols, 0, 3),
			"b": rng.Uniform(1, cols, -100, 100),
		}
		rawBlob, err := (fl.RawCodec{}).Encode(weights)
		if err != nil {
			return false
		}
		rawBack, err := fl.DecodeWeights(rawBlob)
		if err != nil {
			return false
		}
		f32Blob, err := (fl.Float32Codec{}).Encode(weights)
		if err != nil {
			return false
		}
		f32Back, err := fl.DecodeWeights(f32Blob)
		if err != nil {
			return false
		}
		for name, m := range weights {
			for i, v := range m.Data() {
				if rawBack[name].Data()[i] != v {
					return false // raw must be exact
				}
				if f32Back[name].Data()[i] != float64(float32(v)) {
					return false // f32 must be exactly float32 rounding
				}
				if math.Abs(f32Back[name].Data()[i]-v) > 1e-5*math.Max(1, math.Abs(v)) {
					return false // and within tolerance of the original
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
