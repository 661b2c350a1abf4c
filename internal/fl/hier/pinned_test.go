package hier

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"testing"

	"clinfl/internal/tensor"
)

// pinnedPartials returns partials covering the encoder's cases: an empty
// partial (no params, empty lists), a leaf partial whose expansions hold
// several components and whose failure list is empty, and a root that has
// merged that leaf and recorded failures of its own.
func pinnedPartials(t *testing.T) map[string]*Partial {
	t.Helper()
	update := func(name string, n int, scale float64) Update {
		w := tensor.MustFromSlice(2, 3, []float64{
			1 * scale, 1e-17 * scale, 3e20 * scale, -1e-300, 1.0 / 3, math.SmallestNonzeroFloat64,
		})
		b := tensor.MustFromSlice(1, 2, []float64{0.1 * scale, -7e15})
		return Update{
			ClientName: name,
			Weights:    map[string]*tensor.Matrix{"w": w, "b": b},
			NumSamples: n,
			TrainLoss:  0.1 * float64(n),
		}
	}
	leaf := NewPartial()
	for i, n := range []int{3, 7, 11} {
		if err := leaf.Fold(update(string(rune('c'-i)), n, math.Pow(3, float64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	leaf.AddTierBytes(77)
	root := NewPartial()
	for i, n := range []int{5, 2} {
		if err := root.Fold(update(string(rune('x'+i)), n, -math.Pow(7, float64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	root.Fail("z: conn: reset")
	root.Fail("q: timeout")
	child := NewPartial()
	if err := child.Merge(leaf); err != nil {
		t.Fatal(err)
	}
	if err := root.Merge(child); err != nil {
		t.Fatal(err)
	}
	most := 0
	for _, ps := range leaf.params {
		for _, e := range ps.sums {
			most = max(most, len(e))
		}
	}
	if most < 3 {
		t.Fatalf("leaf expansions hold at most %d components, want several", most)
	}
	return map[string]*Partial{"empty": NewPartial(), "leaf": leaf, "root": root}
}

// TestPartialEncodingPinned pins the encoded partial bytes, so a change to
// the encoder or the layout shows up here and not only as a tier byte
// drift in the benchmark. Every encoding cut short fails as a malformed
// partial.
func TestPartialEncodingPinned(t *testing.T) {
	want := map[string]string{
		"empty": "848a902e2ae64b79bbb78d93d1482d8991389b49147a1e6dad7bb0832944f0e9",
		"leaf":  "05cf5eb6f71bc778a1a59f5eb2d5bcd18b948009152692f69ac334f6cb624f63",
		"root":  "ec8d2b6034ba4397a100bea5856eb9235052f5d5111c4f7932813284da259d5c",
	}
	for name, p := range pinnedPartials(t) {
		blob, err := EncodePartial(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s partial sha256 %s (%d bytes), want %s", name, got, len(blob), want[name])
		}
		for i := range blob {
			if _, err := DecodePartial(blob[:i]); !errors.Is(err, ErrBadPartial) {
				t.Fatalf("%s prefix of %d/%d bytes: err = %v, want ErrBadPartial", name, i, len(blob), err)
			}
		}
	}
}
