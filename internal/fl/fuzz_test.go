package fl

// Fuzz targets for the attacker-facing decode surfaces: weight payloads
// (any registered codec, sniffed by magic) arrive from remote clients and
// must never panic, over-allocate, or accept an inconsistent shape. The
// seed corpus includes the PR 3 regression payloads: shape headers whose
// per-dimension values pass a naive product check only via integer
// overflow, which once bypassed the element cap.

import (
	"bytes"
	"encoding/binary"
	"testing"

	"clinfl/internal/tensor"
)

// buildCodecBlob hand-assembles a codec payload with arbitrary header
// fields, so corpus entries can lie about shapes in ways the encoders
// never would.
func buildCodecBlob(magic string, params []fuzzParam) []byte {
	var buf bytes.Buffer
	buf.WriteString(magic)
	writeUint32(&buf, uint32(len(params)))
	for _, p := range params {
		writeName(&buf, p.name)
		writeUint32(&buf, p.rows)
		writeUint32(&buf, p.cols)
		buf.Write(p.body)
	}
	return buf.Bytes()
}

func writeUint32(buf *bytes.Buffer, v uint32) {
	buf.Write(binary.LittleEndian.AppendUint32(nil, v))
}

func writeName(buf *bytes.Buffer, name string) {
	writeUint32(buf, uint32(len(name)))
	buf.WriteString(name)
}

type fuzzParam struct {
	name       string
	rows, cols uint32
	body       []byte
}

// fuzzSeeds returns valid blobs from every codec plus the regression
// corpus of malicious shape headers.
func fuzzSeeds(t testing.TB) [][]byte {
	rng := tensor.NewRNG(1)
	weights := map[string]*tensor.Matrix{
		"layer.w": rng.Normal(3, 5, 0, 1),
		"layer.b": rng.Normal(1, 5, 0, 1),
	}
	var seeds [][]byte
	for _, c := range []WeightCodec{RawCodec{}, Float32Codec{}, Int8Codec{}, TopKCodec{Fraction: 0.4}} {
		blob, err := c.Encode(weights)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, blob)
	}
	// Raw format regression: 8-byte dims so huge their int product
	// wraps — this exact class once panicked the raw reader with
	// "makeslice: len out of range", before dimensions were capped in
	// int64 ahead of any allocation.
	rawEvil := func(rows, cols uint64) []byte {
		var buf bytes.Buffer
		buf.WriteString(rawMagic)
		var b8 [8]byte
		binary.LittleEndian.PutUint64(b8[:], 1) // param count
		buf.Write(b8[:])
		writeName(&buf, "w")
		binary.LittleEndian.PutUint64(b8[:], rows)
		buf.Write(b8[:])
		binary.LittleEndian.PutUint64(b8[:], cols)
		buf.Write(b8[:])
		return buf.Bytes()
	}
	k1 := make([]byte, 4)
	binary.LittleEndian.PutUint32(k1, 1)
	seeds = append(seeds,
		rawEvil(0x3030303030303030, 0x3130303030303030), // the fuzzer's find
		rawEvil(1<<32, 1<<32),
		rawEvil(1<<20, 1<<20),
		// PR 3 overflow bypass: 2^16 × 2^16 wraps a 32-bit product to 0;
		// per-dimension caps and the int64 product must both reject it.
		buildCodecBlob(f32Magic, []fuzzParam{{name: "w", rows: 1 << 16, cols: 1 << 16}}),
		buildCodecBlob(topKMagic, []fuzzParam{{name: "w", rows: 1 << 16, cols: 1 << 16, body: k1}}),
		// 2^31 × 2 wraps negative on 32-bit int.
		buildCodecBlob(f32Magic, []fuzzParam{{name: "w", rows: 1 << 31, cols: 2}}),
		// Huge-but-unbacked dense shape: payload-length cross-check must
		// reject before allocating.
		buildCodecBlob(f32Magic, []fuzzParam{{name: "w", rows: 1 << 20, cols: 64}}),
		// Top-k sparse blob demanding a big dense allocation with k=1.
		buildCodecBlob(topKMagic, []fuzzParam{{name: "w", rows: 1 << 20, cols: 128, body: k1}}),
		// Int8 blobs: overflow-wrapping shape, huge unbacked dense shape,
		// and a NaN row scale ahead of otherwise-valid codes.
		buildCodecBlob(int8Magic, []fuzzParam{{name: "w", rows: 1 << 16, cols: 1 << 16}}),
		buildCodecBlob(int8Magic, []fuzzParam{{name: "w", rows: 1 << 20, cols: 64}}),
		buildCodecBlob(int8Magic, []fuzzParam{{name: "w", rows: 1, cols: 2,
			body: []byte{0, 0, 0xc0, 0x7f, 1, 2}}}),
		// Implausible name length.
		append([]byte(f32Magic), bytes.Repeat([]byte{0xFF}, 16)...),
		[]byte("junk"),
		[]byte("not a checkpoint"),
		[]byte(f32Magic),
		[]byte(topKMagic),
	)
	return seeds
}

func FuzzDecodeWeights(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	// Tighten the decoder's allocation caps for fuzzing: a top-k blob may
	// legitimately demand rows*cols dense floats from a tiny sparse
	// payload, and the fuzzer would otherwise thrash allocating gigabytes
	// of *valid* output. The overflow/consistency logic under test is
	// identical at any cap value.
	oldParam, oldTotal := maxParamElems, maxTotalElems
	maxParamElems, maxTotalElems = 1<<16, 1<<18
	f.Cleanup(func() { maxParamElems, maxTotalElems = oldParam, oldTotal })

	f.Fuzz(func(t *testing.T, data []byte) {
		weights, err := DecodeWeights(data)
		if err != nil {
			return
		}
		// Decoded successfully: every invariant of a healthy weight map
		// must hold, and the map must survive a re-encode round trip.
		var total int64
		for name, m := range weights {
			if m == nil {
				t.Fatalf("param %q decoded nil", name)
			}
			if m.Rows() < 0 || m.Cols() < 0 {
				t.Fatalf("param %q has negative shape %dx%d", name, m.Rows(), m.Cols())
			}
			n := int64(m.Rows()) * int64(m.Cols())
			if n > int64(maxParamElems) {
				t.Fatalf("param %q with %d elems escaped the cap", name, n)
			}
			total += n
			if int64(len(m.Data())) != n {
				t.Fatalf("param %q backing slice %d != shape %d", name, len(m.Data()), n)
			}
		}
		if total > int64(maxTotalElems) {
			t.Fatalf("blob with %d total elems escaped the cumulative cap", total)
		}
		if _, err := EncodeWeights(weights); err != nil {
			t.Fatalf("decoded weights do not re-encode: %v", err)
		}
	})
}

func FuzzCodecByName(f *testing.F) {
	for _, s := range []string{"", "raw", "f32", "int8", "topk", "topk:0.1", "topk:1", "topk:NaN", "topk:-1", "topk:1e309", "zstd"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		c, err := CodecByName(name)
		if err != nil {
			return
		}
		// Accepted codecs must be usable end to end.
		rng := tensor.NewRNG(7)
		weights := map[string]*tensor.Matrix{"w": rng.Normal(2, 3, 0, 1)}
		blob, err := c.Encode(weights)
		if err != nil {
			t.Fatalf("codec %q accepted by name but cannot encode: %v", name, err)
		}
		if _, err := DecodeWeights(blob); err != nil {
			t.Fatalf("codec %q round trip failed: %v", name, err)
		}
	})
}
