package fl

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"clinfl/internal/model"
	"clinfl/internal/tensor"
)

// codecTestWeights builds a weight map with a spread of magnitudes.
func codecTestWeights(seed int64) map[string]*tensor.Matrix {
	rng := tensor.NewRNG(seed)
	w := map[string]*tensor.Matrix{
		"enc.w": rng.Normal(16, 32, 0, 1),
		"enc.b": rng.Normal(1, 32, 0, 0.01),
		"out.w": rng.Normal(32, 2, 0, 3),
	}
	return w
}

func TestRawCodecRoundTripExact(t *testing.T) {
	weights := codecTestWeights(1)
	blob, err := RawCodec{}.Encode(weights)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RawCodec{}.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range weights {
		if !got[name].Equal(m) {
			t.Fatalf("raw codec changed %q", name)
		}
	}
}

func TestFloat32CodecBoundedErrorAndSize(t *testing.T) {
	weights := codecTestWeights(2)
	raw, err := RawCodec{}.Encode(weights)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := Float32Codec{}.Encode(weights)
	if err != nil {
		t.Fatal(err)
	}
	// The acceptance bar: quantized transport cuts bytes-on-wire by >=40%.
	if float64(len(blob)) > 0.6*float64(len(raw)) {
		t.Fatalf("f32 payload %d bytes, want <= 60%% of raw %d", len(blob), len(raw))
	}
	got, err := Float32Codec{}.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range weights {
		g := got[name]
		if !g.SameShape(m) {
			t.Fatalf("f32 codec changed shape of %q", name)
		}
		for i, v := range m.Data() {
			q := g.Data()[i]
			if math.Abs(q-v) > 1e-6*math.Max(1, math.Abs(v)) {
				t.Fatalf("f32 %q[%d]: %v -> %v exceeds float32 error bound", name, i, v, q)
			}
		}
	}
}

func TestInt8CodecBoundedErrorAndSize(t *testing.T) {
	weights := codecTestWeights(6)
	// Add an all-zero parameter to exercise the scale-0 row path.
	weights["zero.w"] = tensor.New(4, 8)
	raw, err := RawCodec{}.Encode(weights)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := Int8Codec{}.Encode(weights)
	if err != nil {
		t.Fatal(err)
	}
	// The acceptance bar: int8 transport cuts bytes-on-wire by >= 60%.
	if float64(len(blob)) > 0.4*float64(len(raw)) {
		t.Fatalf("int8 payload %d bytes, want <= 40%% of raw %d", len(blob), len(raw))
	}
	got, err := Int8Codec{}.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range weights {
		g := got[name]
		if !g.SameShape(m) {
			t.Fatalf("int8 codec changed shape of %q", name)
		}
		d, gd := m.Data(), g.Data()
		cols := m.Cols()
		for r := 0; r < m.Rows(); r++ {
			maxAbs := 0.0
			for _, v := range d[r*cols : (r+1)*cols] {
				maxAbs = math.Max(maxAbs, math.Abs(v))
			}
			// Symmetric int8 grid: half a step per element, plus the
			// float32 rounding of the scale itself.
			bound := maxAbs/254*(1+1e-6) + 1e-15
			for j := r * cols; j < (r+1)*cols; j++ {
				if math.Abs(gd[j]-d[j]) > bound {
					t.Fatalf("int8 %q[%d]: %v -> %v exceeds bound %v", name, j, d[j], gd[j], bound)
				}
			}
		}
	}
	if !got["zero.w"].Equal(weights["zero.w"]) {
		t.Fatal("int8 codec perturbed all-zero parameter")
	}
}

func TestInt8CodecRejectsTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(int8Magic)
	writeUint32(&buf, 1)
	writeName(&buf, "w")
	writeUint32(&buf, 4096)
	writeUint32(&buf, 4096)
	if _, err := (Int8Codec{}).Decode(buf.Bytes()); err == nil ||
		!strings.Contains(err.Error(), "truncated") {
		t.Fatalf("want truncated-payload error, got %v", err)
	}
}

func TestInt8CodecRejectsBadScale(t *testing.T) {
	for _, scale := range []float32{float32(math.NaN()), float32(math.Inf(1)), -1} {
		var buf bytes.Buffer
		buf.WriteString(int8Magic)
		writeUint32(&buf, 1)
		writeName(&buf, "w")
		writeUint32(&buf, 1)
		writeUint32(&buf, 2)
		writeUint32(&buf, math.Float32bits(scale))
		buf.Write([]byte{1, 2})
		if _, err := (Int8Codec{}).Decode(buf.Bytes()); err == nil ||
			!strings.Contains(err.Error(), "bad row scale") {
			t.Fatalf("scale %v: want bad-scale error, got %v", scale, err)
		}
	}
}

func TestTopKCodecKeepsLargestAndShrinks(t *testing.T) {
	weights := codecTestWeights(3)
	raw, err := RawCodec{}.Encode(weights)
	if err != nil {
		t.Fatal(err)
	}
	c := TopKCodec{Fraction: 0.25}
	blob, err := c.Encode(weights)
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(blob)) > 0.4*float64(len(raw)) {
		t.Fatalf("top-k 25%% payload %d bytes, want well under raw %d", len(blob), len(raw))
	}
	got, err := c.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range weights {
		g := got[name]
		d, gd := m.Data(), g.Data()
		k := int(math.Ceil(0.25 * float64(len(d))))
		// Threshold = magnitude of the k-th largest element; everything
		// strictly above it must survive, everything kept must round-trip
		// at float32 precision, everything dropped must read zero.
		mags := make([]float64, len(d))
		for i, v := range d {
			mags[i] = math.Abs(v)
		}
		thresh := kthLargest(mags, k)
		kept := 0
		for i, v := range d {
			switch {
			case gd[i] == 0 && math.Abs(v) > thresh:
				t.Fatalf("top-k %q[%d]: dropped element |%v| above threshold %v", name, i, v, thresh)
			case gd[i] != 0:
				kept++
				if math.Abs(gd[i]-v) > 1e-6*math.Max(1, math.Abs(v)) {
					t.Fatalf("top-k %q[%d]: kept value %v -> %v beyond float32 error", name, i, v, gd[i])
				}
			}
		}
		if kept > k {
			t.Fatalf("top-k %q kept %d > k=%d elements", name, kept, k)
		}
	}
}

// kthLargest returns the k-th largest value of vals (1-based).
func kthLargest(vals []float64, k int) float64 {
	cp := append([]float64(nil), vals...)
	for i := 0; i < k; i++ { // tiny n; selection sort is fine
		maxJ := i
		for j := i + 1; j < len(cp); j++ {
			if cp[j] > cp[maxJ] {
				maxJ = j
			}
		}
		cp[i], cp[maxJ] = cp[maxJ], cp[i]
	}
	return cp[k-1]
}

func TestDecodeWeightsSniffsEveryCodec(t *testing.T) {
	weights := codecTestWeights(4)
	for _, codec := range []WeightCodec{RawCodec{}, Float32Codec{}, Int8Codec{}, TopKCodec{Fraction: 0.5}} {
		blob, err := codec.Encode(weights)
		if err != nil {
			t.Fatalf("%s encode: %v", codec.Name(), err)
		}
		got, err := DecodeWeights(blob)
		if err != nil {
			t.Fatalf("%s sniffed decode: %v", codec.Name(), err)
		}
		if len(got) != len(weights) {
			t.Fatalf("%s sniffed decode returned %d params, want %d", codec.Name(), len(got), len(weights))
		}
		for name, m := range weights {
			if !got[name].SameShape(m) {
				t.Fatalf("%s sniffed decode changed shape of %q", codec.Name(), name)
			}
		}
	}
	if _, err := DecodeWeights([]byte("junk")); err == nil {
		t.Fatal("want error decoding junk")
	}
}

// TestDecodeWeightsRejectsGarbage: a blob that carries no codec magic is
// refused for its magic, whatever bytes follow.
func TestDecodeWeightsRejectsGarbage(t *testing.T) {
	for _, junk := range []string{"", "not a checkpoint", "CFLW1", "CFLW2\n" + strings.Repeat("\x00", 64)} {
		_, err := DecodeWeights([]byte(junk))
		if err == nil || !strings.Contains(err.Error(), "bad magic") {
			t.Fatalf("decoding %q: got %v, want a bad magic error", junk, err)
		}
	}
}

func TestCodecByName(t *testing.T) {
	for name, want := range map[string]string{
		"":          "raw",
		"raw":       "raw",
		"f32":       "f32",
		"int8":      "int8",
		"topk":      "topk:0.1",
		"topk:0.25": "topk:0.25",
	} {
		c, err := CodecByName(name)
		if err != nil {
			t.Fatalf("CodecByName(%q): %v", name, err)
		}
		if c.Name() != want {
			t.Fatalf("CodecByName(%q).Name() = %q, want %q", name, c.Name(), want)
		}
	}
	for _, bad := range []string{"gzip", "topk:0", "topk:2", "topk:x", "topk:NaN"} {
		if _, err := CodecByName(bad); err == nil {
			t.Fatalf("CodecByName(%q) should fail", bad)
		}
	}
}

func TestTopKCodecRejectsBadFraction(t *testing.T) {
	for _, f := range []float64{0, -1, 1.5} {
		if _, err := (TopKCodec{Fraction: f}).Encode(codecTestWeights(5)); err == nil {
			t.Fatalf("fraction %v should fail", f)
		}
	}
}

func TestFedAsyncApply(t *testing.T) {
	g := tensor.New(1, 2)
	g.Fill(1)
	global := map[string]*tensor.Matrix{"w": g}
	w := tensor.New(1, 2)
	w.Fill(5)
	u := &ClientUpdate{ClientName: "late", Weights: map[string]*tensor.Matrix{"w": w}}

	// staleness 1 with alpha 0.5 -> a = 0.25: 0.75*1 + 0.25*5 = 2.
	if err := (FedAsync{Alpha: 0.5}).Apply(global, u, 1); err != nil {
		t.Fatal(err)
	}
	if got := global["w"].At(0, 0); math.Abs(got-2) > 1e-12 {
		t.Fatalf("fedasync result %v, want 2", got)
	}

	// Same param count but a different name: the per-param lookup fails.
	if err := (FedAsync{}).Apply(global, &ClientUpdate{ClientName: "x", Weights: map[string]*tensor.Matrix{"v": w}}, 0); err == nil ||
		!strings.Contains(err.Error(), "missing param") {
		t.Fatalf("want missing-param error, got %v", err)
	}
	// A short or oversized param set must be rejected outright: extra
	// params were silently dropped before the count cross-check (the
	// loop walks global only), so a client could smuggle params past the
	// late-merge path that weightedAverage would have refused.
	before := global["w"].At(0, 1)
	for _, bad := range []map[string]*tensor.Matrix{
		{},
		{"w": w, "rogue": w},
	} {
		err := (FedAsync{}).Apply(global, &ClientUpdate{ClientName: "x", Weights: bad}, 0)
		if err == nil || !strings.Contains(err.Error(), "params, want") {
			t.Fatalf("want param-count error for %d params, got %v", len(bad), err)
		}
	}
	if got := global["w"].At(0, 1); got != before {
		t.Fatalf("rejected update mutated global: %v -> %v", before, got)
	}
	if err := (FedAsync{Alpha: 2}).Apply(global, u, 0); err == nil {
		t.Fatal("want alpha range error")
	}
	if err := (FedAsync{}).Apply(global, u, -1); err == nil {
		t.Fatal("want staleness error")
	}
}

func TestCodecRejectsOverflowingShape(t *testing.T) {
	// rows*cols here overflows int64 (each ~3.2e9, product ~1e19), so a
	// naive product check would wrap negative and wave the header through.
	var buf bytes.Buffer
	buf.WriteString(f32Magic)
	writeUint32(&buf, 1)
	writeName(&buf, "w")
	writeUint32(&buf, 3<<30)
	writeUint32(&buf, 3<<30)
	if _, err := (Float32Codec{}).Decode(buf.Bytes()); err == nil ||
		!strings.Contains(err.Error(), "implausible shape") {
		t.Fatalf("want implausible-shape error, got %v", err)
	}
}

func TestFloat32CodecRejectsTruncatedPayload(t *testing.T) {
	// A dense shape declaring 16M elements backed by zero data bytes must
	// be rejected before the decoder allocates for it.
	var buf bytes.Buffer
	buf.WriteString(f32Magic)
	writeUint32(&buf, 1)
	writeName(&buf, "w")
	writeUint32(&buf, 4096)
	writeUint32(&buf, 4096)
	if _, err := (Float32Codec{}).Decode(buf.Bytes()); err == nil ||
		!strings.Contains(err.Error(), "truncated") {
		t.Fatalf("want truncated-payload error, got %v", err)
	}
}

func TestTopKCodecRejectsZeroK(t *testing.T) {
	// The encoder always keeps at least one element per parameter, so k=0
	// only appears in corrupt payloads.
	var buf bytes.Buffer
	buf.WriteString(topKMagic)
	writeUint32(&buf, 1)
	writeName(&buf, "w")
	writeUint32(&buf, 2)
	writeUint32(&buf, 2)
	writeUint32(&buf, 0)
	if _, err := (TopKCodec{}).Decode(buf.Bytes()); err == nil ||
		!strings.Contains(err.Error(), "out of [1") {
		t.Fatalf("want k-out-of-range error, got %v", err)
	}
}

// pinnedCodecWeights is a fixed weight map with every edge case the
// encoders must keep byte-stable: an all-zero row, a NaN, a +Inf, float64
// subnormals, a row whose float64 scale is nonzero but rounds to float32
// zero, and ordinary values.
func pinnedCodecWeights() map[string]*tensor.Matrix {
	rng := tensor.NewRNG(24)
	w := rng.Normal(4, 6, 0, 1)
	d := w.Data()
	for j := 6; j < 12; j++ {
		d[j] = 0
	}
	d[13] = math.NaN()
	d[20] = math.Inf(1)
	return map[string]*tensor.Matrix{
		"enc.w": w,
		"enc.b": tensor.MustFromSlice(1, 3, []float64{5e-324, -2.5e-310, 0.75}),
		"tiny.w": tensor.MustFromSlice(2, 3, []float64{
			1e-300, -1e-300, 0,
			5e-324, 0, -5e-324,
		}),
		"out.w": rng.Normal(3, 2, 0, 10),
	}
}

// TestCodecPayloadsPinned pins every codec's payload bytes: a change to
// the frame or to any element body shows up here, not only as a length
// drift in the golden runs.
func TestCodecPayloadsPinned(t *testing.T) {
	weights := pinnedCodecWeights()
	for _, tc := range []struct {
		codec WeightCodec
		want  string
	}{
		{RawCodec{}, "efa7ce9f404c65ba61596c4f4d38865bd801596e872c0fcff9dc7a49de568b91"},
		{Float32Codec{}, "67282abad32a6fd674215d80f71e66880d7ea0f9e3609da99ed01fcb28a88bf8"},
		{Int8Codec{}, "74e232ac6fa5c932f47ada68e25e2ad0a84fa4fdfd105c5c7e2e6170ac0f8e03"},
		{TopKCodec{Fraction: 0.3}, "5f3f3a95c28568c0354504698107761e665b7623ac3aa6e7ac83ba3f187fde70"},
		{TopKCodec{Fraction: 1}, "32e507677af820727977b8e468414637f7a1cd06526586e40504919abc4f3dad"},
	} {
		blob, err := tc.codec.Encode(weights)
		if err != nil {
			t.Fatalf("%s encode: %v", tc.codec.Name(), err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s payload sha256 %s (%d bytes), want %s", tc.codec.Name(), got, len(blob), tc.want)
		}
	}
}

// TestCodecsRejectDuplicateAndTrailing: a payload that names a param twice
// or carries bytes after its last param is corrupt, in every codec. A
// repeated name used to overwrite the first copy silently, and trailing
// bytes used to be ignored.
func TestCodecsRejectDuplicateAndTrailing(t *testing.T) {
	one := map[string]*tensor.Matrix{"w": tensor.NewRNG(9).Normal(2, 3, 0, 1)}
	for _, tc := range []struct {
		codec WeightCodec
		magic string
		count int // bytes of the param count
	}{
		{RawCodec{}, rawMagic, 8},
		{Float32Codec{}, f32Magic, 4},
		{Int8Codec{}, int8Magic, 4},
		{TopKCodec{Fraction: 0.5}, topKMagic, 4},
	} {
		blob, err := tc.codec.Encode(one)
		if err != nil {
			t.Fatal(err)
		}
		param := blob[len(tc.magic)+tc.count:]
		dup := append([]byte(tc.magic), make([]byte, tc.count)...)
		dup[len(tc.magic)] = 2
		dup = append(append(dup, param...), param...)
		for what, bad := range map[string][]byte{
			"duplicate param": dup,
			"trailing bytes":  append(bytes.Clone(blob), 0),
		} {
			if _, err := tc.codec.Decode(bad); err == nil || !strings.Contains(err.Error(), what) {
				t.Errorf("%s %s: want %q error, got %v", tc.codec.Name(), what, what, err)
			}
			if _, err := DecodeWeights(bad); err == nil {
				t.Errorf("%s %s: DecodeWeights accepted it", tc.codec.Name(), what)
			}
		}
	}
}

// Property: the raw codec round-trips arbitrary weight maps bit-exactly.
func TestRawCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		weights := map[string]*tensor.Matrix{}
		for i := 0; i < 1+rng.Intn(4); i++ {
			weights[string(rune('a'+i))] = rng.Normal(1+rng.Intn(8), 1+rng.Intn(8), 0, 100)
		}
		blob, err := RawCodec{}.Encode(weights)
		if err != nil {
			return false
		}
		got, err := RawCodec{}.Decode(blob)
		if err != nil || len(got) != len(weights) {
			return false
		}
		for name, m := range weights {
			if !got[name].Equal(m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRawDecodeAllocationFitsThePayload: decoding allocates what the
// decoded map holds and no read scratch, so a 1x8 bias costs a few hundred
// bytes; a 3x8192 matrix still round-trips.
func TestRawDecodeAllocationFitsThePayload(t *testing.T) {
	blob, err := RawCodec{}.Encode(map[string]*tensor.Matrix{"b": tensor.NewRNG(3).Normal(1, 8, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := (RawCodec{}).Decode(blob); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perDecode := (after.TotalAlloc - before.TotalAlloc) / runs; perDecode >= 512 {
		t.Fatalf("decoding a 1x8 param allocated %d bytes, want well under 1 KiB", perDecode)
	}

	big := map[string]*tensor.Matrix{"w": tensor.NewRNG(4).Normal(3, 8192, 0, 1)}
	if blob, err = (RawCodec{}).Encode(big); err != nil {
		t.Fatal(err)
	}
	got, err := RawCodec{}.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !got["w"].Equal(big["w"]) {
		t.Fatal("3x8192 round trip changed the matrix")
	}
}

// BenchmarkCodec encodes and decodes one update of the 417k-parameter LSTM
// that fanin16_tls sends (vocab 172, max length 24, 2 classes) with each
// codec.
func BenchmarkCodec(b *testing.B) {
	mdl, err := model.New(model.SpecLSTM, 172, 24, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	weights := make(map[string]*tensor.Matrix)
	for _, p := range mdl.Params() {
		weights[p.Name] = p.W
	}
	for _, c := range []WeightCodec{RawCodec{}, Float32Codec{}, Int8Codec{}, TopKCodec{Fraction: 0.1}} {
		blob, err := c.Encode(weights)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.Name()+"/encode", func(b *testing.B) {
			for b.Loop() {
				if _, err := c.Encode(weights); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.Name()+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := c.Decode(blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
