package hier

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"clinfl/internal/tensor"
)

func testPartial(t *testing.T) *Partial {
	t.Helper()
	r := rand.New(rand.NewSource(11))
	p := NewPartial()
	for i := 0; i < 5; i++ {
		w := tensor.New(2, 3)
		for j := range w.Data() {
			w.Data()[j] = r.NormFloat64() * math.Pow(2, float64(r.Intn(40)-20))
		}
		b := tensor.New(1, 3)
		for j := range b.Data() {
			b.Data()[j] = r.NormFloat64()
		}
		err := p.Fold(Update{
			ClientName: string(rune('a' + i)),
			Weights:    map[string]*tensor.Matrix{"w": w, "b": b},
			NumSamples: 1 + r.Intn(100),
			TrainLoss:  r.Float64(),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	p.Fail("z: conn: reset")
	p.AddTierBytes(123)
	return p
}

func TestPartialCodecRoundTrip(t *testing.T) {
	p := testPartial(t)
	blob, err := EncodePartial(p)
	if err != nil {
		t.Fatal(err)
	}
	if !IsPartial(blob) {
		t.Fatal("encoded partial missing magic")
	}
	q, err := DecodePartial(blob)
	if err != nil {
		t.Fatal(err)
	}
	if q.Weight() != p.Weight() || q.Updates() != p.Updates() {
		t.Fatalf("counters differ: %d/%d vs %d/%d", q.Weight(), q.Updates(), p.Weight(), p.Updates())
	}
	if q.TierBytes() != p.TierBytes() {
		t.Fatal("byte accounting differs")
	}
	wantF, gotF := p.Failures(), q.Failures()
	if len(gotF) != len(wantF) {
		t.Fatalf("accounting lists differ: %v vs %v", gotF, wantF)
	}
	if q.MeanLoss() != p.MeanLoss() {
		t.Fatalf("mean loss %v vs %v", q.MeanLoss(), p.MeanLoss())
	}
	want, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	for name, wm := range want {
		gm := got[name]
		if gm == nil {
			t.Fatalf("missing %q after round trip", name)
		}
		for i, v := range wm.Data() {
			if math.Float64bits(v) != math.Float64bits(gm.Data()[i]) {
				t.Fatalf("%s[%d] differs after round trip", name, i)
			}
		}
	}
	// Deterministic: re-encoding yields identical bytes.
	blob2, err := EncodePartial(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("encoding is not deterministic")
	}
}

func TestDecodePartialRejectsCorruption(t *testing.T) {
	blob, err := EncodePartial(testPartial(t))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   []byte("CFXX1\nrest"),
		"truncated":   blob[:len(blob)/2],
		"trailing":    append(append([]byte(nil), blob...), 0xFF),
		"weight only": []byte(PartialMagic),
	}
	// Absurd param count.
	huge := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(huge[len(PartialMagic):], 1<<30)
	cases["param count"] = huge
	for name, b := range cases {
		if _, err := DecodePartial(b); !errors.Is(err, ErrBadPartial) {
			t.Errorf("%s: err = %v, want ErrBadPartial", name, err)
		}
	}
	// Every prefix must fail cleanly, never panic.
	for i := 0; i < len(blob); i++ {
		if _, err := DecodePartial(blob[:i]); err == nil {
			t.Fatalf("prefix of %d bytes decoded successfully", i)
		}
	}
}

// TestEncodingIndependentOfParamOrder: the param schema is name-sorted
// whatever order it arrives in. Partials folded from maps built in
// permuted insertion orders, and a decoded payload whose params are out of
// name order, all encode to the same bytes and merge alike.
func TestEncodingIndependentOfParamOrder(t *testing.T) {
	names := []string{"lstm.w", "emb", "out.b", "lstm.b", "out.w", "a"}
	r := rand.New(rand.NewSource(5))
	values := make([][]float64, 3)
	for i := range values {
		values[i] = make([]float64, 2*len(names))
		for j := range values[i] {
			values[i][j] = r.NormFloat64() * math.Pow(2, float64(r.Intn(30)-15))
		}
	}
	fold := func(order []int) *Partial {
		p := NewPartial()
		for i, vals := range values {
			weights := make(map[string]*tensor.Matrix, len(names))
			for _, k := range order {
				weights[names[k]] = tensor.MustFromSlice(1, 2, vals[2*k:2*k+2])
			}
			if err := p.Fold(Update{ClientName: string(rune('a' + i)), Weights: weights, NumSamples: 3 + i, TrainLoss: 0.25}); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	encode := func(p *Partial) []byte {
		t.Helper()
		blob, err := EncodePartial(p)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	p := fold([]int{0, 1, 2, 3, 4, 5})
	want := encode(p)
	for _, order := range [][]int{{5, 4, 3, 2, 1, 0}, {2, 0, 5, 1, 3, 4}} {
		if got := encode(fold(order)); !bytes.Equal(got, want) {
			t.Fatalf("insertion order %v encodes differently", order)
		}
	}

	// A payload whose params are out of name order decodes to the same
	// schema: it re-encodes canonically and merges like the original.
	reversed := *p
	reversed.params = slices.Clone(p.params)
	slices.Reverse(reversed.params)
	blob := encode(&reversed)
	if bytes.Equal(blob, want) {
		t.Fatal("reversed params encoded in name order; the case tests nothing")
	}
	q, err := DecodePartial(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := encode(q); !bytes.Equal(got, want) {
		t.Fatal("out-of-order payload re-encodes differently")
	}
	a, b := NewPartial(), NewPartial()
	for _, pair := range [][2]*Partial{{a, p}, {a, q}, {b, q}, {b, p}} {
		if err := pair[0].Merge(pair[1]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(encode(a), encode(b)) {
		t.Fatal("merging the decoded payload differs from merging the original")
	}
}

// TestDecodePartialRejectsDuplicateParams: a name repeated anywhere in the
// param list, not only next to itself, is a malformed partial.
func TestDecodePartialRejectsDuplicateParams(t *testing.T) {
	p := testPartial(t) // params b, w
	for _, order := range [][]int{{0, 0, 1}, {0, 1, 0}, {1, 0, 1}} {
		dup := *p
		dup.params = nil
		for _, k := range order {
			dup.params = append(dup.params, p.params[k])
		}
		blob, err := EncodePartial(&dup)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodePartial(blob); !errors.Is(err, ErrBadPartial) || !strings.Contains(err.Error(), "duplicate param") {
			t.Errorf("params %v: err = %v, want a duplicate-param ErrBadPartial", order, err)
		}
	}
}

func FuzzDecodePartial(f *testing.F) {
	p := NewPartial()
	w := tensor.New(1, 2)
	w.Data()[0], w.Data()[1] = 0.5, -1.25
	if err := p.Fold(Update{ClientName: "seed", Weights: map[string]*tensor.Matrix{"w": w}, NumSamples: 4, TrainLoss: 0.5}); err != nil {
		f.Fatal(err)
	}
	seed, err := EncodePartial(p)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(PartialMagic))
	f.Add([]byte(PartialMagic + "\x01\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := DecodePartial(data)
		if err != nil {
			return
		}
		// Anything that decodes must re-encode and survive a merge.
		if _, err := EncodePartial(q); err != nil {
			t.Fatalf("decoded partial failed to re-encode: %v", err)
		}
		root := NewPartial()
		if err := root.Merge(q); err == nil && root.Updates() > 0 && root.Weight() > 0 {
			if _, err := root.Finalize(); err != nil {
				t.Fatalf("merged fuzz partial failed finalize: %v", err)
			}
		}
	})
}

func TestEncodedSizeMatchesEncodePartial(t *testing.T) {
	cases := map[string]*Partial{
		"empty":  NewPartial(),
		"folded": testPartial(t),
	}
	merged := NewPartial()
	if err := merged.Merge(testPartial(t)); err != nil {
		t.Fatal(err)
	}
	if err := merged.Merge(testPartial(t)); err != nil {
		t.Fatal(err)
	}
	cases["merged"] = merged
	for name, p := range cases {
		blob, err := EncodePartial(p)
		if err != nil {
			t.Fatal(err)
		}
		size, err := p.EncodedSize()
		if err != nil {
			t.Fatal(err)
		}
		if size != int64(len(blob)) {
			t.Fatalf("%s: EncodedSize %d, EncodePartial produced %d bytes", name, size, len(blob))
		}
	}
	// The validation failures must agree too: an oversized failure entry,
	// set on the field so Fail's cut is bypassed, fails both the same way.
	bad := testPartial(t)
	bad.failures[0] = string(make([]byte, maxEntryLen+1))
	if _, err := EncodePartial(bad); err == nil {
		t.Fatal("EncodePartial accepted an oversized failure entry")
	}
	if _, err := bad.EncodedSize(); err == nil {
		t.Fatal("EncodedSize accepted an oversized failure entry")
	}
}

// TestPartialEncodedSizeIndependentOfFolds: a partial's wire image is the
// aggregate, not a census of its leaves. Identical values folded once or
// 4,096 times under distinct names stay exact in one component per element,
// so both partials encode to the same size.
func TestPartialEncodedSizeIndependentOfFolds(t *testing.T) {
	size := func(folds int) int64 {
		t.Helper()
		p := NewPartial()
		for i := 0; i < folds; i++ {
			err := p.Fold(Update{
				ClientName: "client-" + strconv.Itoa(i),
				Weights: map[string]*tensor.Matrix{
					"w": tensor.MustFromSlice(2, 2, []float64{0.5, -1.25, 3, 0}),
					"b": tensor.MustFromSlice(1, 2, []float64{0.125, 2}),
				},
				NumSamples: 3,
				TrainLoss:  0.75,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		n, err := p.EncodedSize()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if one, many := size(1), size(4096); one != many {
		t.Fatalf("EncodedSize %d after 1 fold, %d after 4096", one, many)
	}
}

// TestFailCutsLongEntry: Fail keeps at most maxEntryLen bytes of an entry,
// cut at a UTF-8 boundary, so the partial still encodes.
func TestFailCutsLongEntry(t *testing.T) {
	p := NewPartial()
	// Two-byte runes after a 5-byte prefix: byte maxEntryLen is the second
	// byte of a rune, so the cut backs up one byte.
	p.Fail("bad: " + strings.Repeat("é", 1000))
	p.Fail("short: reason")
	got := p.Failures()
	if got[1] != "short: reason" {
		t.Fatalf("short entry became %q", got[1])
	}
	if f := got[0]; len(f) != maxEntryLen-1 || !utf8.ValidString(f) || !strings.HasPrefix(f, "bad: ") {
		t.Fatalf("long entry kept %d bytes (valid UTF-8: %v), want its first %d", len(f), utf8.ValidString(f), maxEntryLen-1)
	}
	if _, err := EncodePartial(p); err != nil {
		t.Fatal(err)
	}
}
