package fl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"clinfl/internal/tensor"
	"clinfl/internal/wire"
)

// WeightCodec serializes a weight map for transport. Codecs trade payload
// bytes for precision: the raw codec is exact float64, the f32 codec
// quantizes to float32 (~50% of raw), the int8 codec quantizes each row to
// symmetric int8 with a float32 scale (~12.5% of raw), and the top-k codec
// keeps only the largest-magnitude fraction of each parameter (sparse
// index+float32 pairs). Every codec's output is self-describing (distinct
// magic), so
// DecodeWeights can decode any of them without out-of-band negotiation;
// negotiation only decides what the *sender* emits.
type WeightCodec interface {
	// Name identifies the codec in negotiation metadata and flags.
	Name() string
	// Encode serializes a weight map.
	Encode(weights map[string]*tensor.Matrix) ([]byte, error)
	// Decode parses a blob this codec produced.
	Decode(blob []byte) (map[string]*tensor.Matrix, error)
}

// Every codec writes the same frame: its magic, the parameter count, then
// for each parameter in name order a u32 name length, the name, the shape
// (rows, cols) and the codec's element body. The raw frame writes its
// count and shape as u64, the others as u32. A codec supplies only the
// body.
type frame struct {
	codec string // names the codec in errors
	magic string
	wide  bool // u64 count and shape
	body  body
}

// body is one codec's per-parameter element encoding.
type body interface {
	// size is the body's encoded length for m.
	size(m *tensor.Matrix) int
	// put appends m's body to dst.
	put(dst []byte, m *tensor.Matrix) []byte
	// dense is the body length a rows×cols parameter must have present
	// before its matrix is allocated; 0 for a sparse body, whose
	// allocation only the element caps bound.
	dense(rows, cols int64) int64
	// get decodes a body into the zeroed m. It checks r.Err() before
	// indexing what r returned, and returns it.
	get(r *wire.Reader, m *tensor.Matrix) error
}

// Codec magics.
const (
	rawMagic  = "CFLW1\n"
	f32Magic  = "CFLQ1\n"
	int8Magic = "CFLI1\n"
	topKMagic = "CFLS1\n"
)

var (
	rawFrame  = frame{"raw", rawMagic, true, RawCodec{}}
	f32Frame  = frame{"f32", f32Magic, false, Float32Codec{}}
	int8Frame = frame{"int8", int8Magic, false, Int8Codec{}}
	topKFrame = frame{"top-k", topKMagic, false, TopKCodec{}}
	// frames is what DecodeWeights sniffs a payload's magic against.
	frames = [...]frame{rawFrame, f32Frame, int8Frame, topKFrame}
)

// Decode-time allocation bounds: per-parameter and whole-blob element caps
// keep a tiny corrupt payload from demanding gigabytes before any data
// bytes are read (transport frames are capped at 64 MiB). Variables, not
// constants, so the fuzz harness can shrink them and explore the rejection
// logic without thrashing on legitimately-huge allocations.
var (
	maxParamElems int64 = 1 << 27
	maxTotalElems int64 = 1 << 28
)

// Frame-header caps on the parameter count and on one name's length.
const (
	maxParams   = 1 << 20
	maxNameSize = 1 << 16
)

// EncodeWeights serializes a weight map in the raw (exact float64)
// transport format; senders with a negotiated codec call its Encode
// instead.
func EncodeWeights(weights map[string]*tensor.Matrix) ([]byte, error) {
	return rawFrame.encode(weights), nil
}

// DecodeWeights parses a transported weight map produced by any registered
// codec (raw, f32, int8, top-k), sniffing the format from the payload's
// magic.
func DecodeWeights(blob []byte) (map[string]*tensor.Matrix, error) {
	f := rawFrame // junk is reported against the raw magic
	for _, g := range frames {
		if bytes.HasPrefix(blob, []byte(g.magic)) {
			f = g
			break
		}
	}
	weights, err := f.decode(blob)
	if err != nil {
		return nil, fmt.Errorf("fl: decode weights: %w", err)
	}
	return weights, nil
}

// encode sizes the payload exactly and appends it into one slice.
func (f frame) encode(weights map[string]*tensor.Matrix) []byte {
	names := slices.Sorted(maps.Keys(weights))
	dim := 4
	if f.wide {
		dim = 8
	}
	size := len(f.magic) + dim
	for _, name := range names {
		size += 4 + len(name) + 2*dim + f.body.size(weights[name])
	}
	dst := make([]byte, 0, size)
	dst = append(dst, f.magic...)
	dst = f.appendDim(dst, len(names))
	for _, name := range names {
		m := weights[name]
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(name)))
		dst = append(dst, name...)
		dst = f.appendDim(f.appendDim(dst, m.Rows()), m.Cols())
		dst = f.body.put(dst, m)
	}
	return dst
}

func (f frame) appendDim(dst []byte, v int) []byte {
	if f.wide {
		return binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return binary.LittleEndian.AppendUint32(dst, uint32(v))
}

func (f frame) dim(r *wire.Reader) uint64 {
	if f.wide {
		return r.U64()
	}
	return uint64(r.U32())
}

// decode walks a payload of this frame. Every count, length and shape is
// capped before it sizes an allocation, a dense body must be present in
// full before its matrix is allocated, and a repeated parameter name or a
// byte after the last parameter rejects the payload.
func (f frame) decode(blob []byte) (map[string]*tensor.Matrix, error) {
	r := wire.NewReader(blob)
	if string(r.Next(len(f.magic))) != f.magic {
		// A blob cut short inside the magic is a truncated frame too.
		if strings.HasPrefix(f.magic, string(blob)) {
			return nil, fmt.Errorf("fl: %s decode: bad magic: %w", f.codec, wire.ErrTruncated)
		}
		return nil, fmt.Errorf("fl: %s decode: bad magic", f.codec)
	}
	n := f.dim(r)
	if r.Err() != nil {
		return nil, fmt.Errorf("fl: %s decode count: %w", f.codec, r.Err())
	}
	if n > maxParams {
		return nil, fmt.Errorf("fl: %s decode: implausible parameter count %d", f.codec, n)
	}
	// Every param takes at least one byte, so the map hint is bounded by
	// the payload, not by the count it claims.
	out := make(map[string]*tensor.Matrix, min(n, uint64(r.Len())))
	var total int64
	for i := uint64(0); i < n; i++ {
		ln := r.U32()
		if r.Err() == nil && ln > maxNameSize {
			return nil, fmt.Errorf("fl: %s decode: implausible name length %d", f.codec, ln)
		}
		name := string(r.Next(int(ln)))
		rows, cols := f.dim(r), f.dim(r)
		if r.Err() != nil {
			return nil, fmt.Errorf("fl: %s decode param %d header: %w", f.codec, i, r.Err())
		}
		// Each dimension is capped before the product is taken, so a
		// corrupt shape cannot wrap past the element cap on any GOARCH;
		// 2^27 elements (1 GiB of float64) per parameter is far above any
		// real model and far below an OOM.
		limit := uint64(maxParamElems)
		if rows > limit || cols > limit || rows*cols > limit {
			return nil, fmt.Errorf("fl: %s decode %q: implausible shape %dx%d", f.codec, name, rows, cols)
		}
		total += int64(rows * cols)
		if total > maxTotalElems {
			return nil, fmt.Errorf("fl: %s decode %q: cumulative shape exceeds %d elements", f.codec, name, maxTotalElems)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("fl: %s decode: duplicate param %q", f.codec, name)
		}
		if f.body.dense(int64(rows), int64(cols)) > int64(r.Len()) {
			return nil, fmt.Errorf("fl: %s decode %q: shape %dx%d: %w", f.codec, name, rows, cols, wire.ErrTruncated)
		}
		m := tensor.New(int(rows), int(cols))
		if err := f.body.get(r, m); err != nil {
			return nil, fmt.Errorf("fl: %s decode %q: %w", f.codec, name, err)
		}
		out[name] = m
	}
	if r.Len() > 0 {
		return nil, fmt.Errorf("fl: %s decode: %d trailing bytes", f.codec, r.Len())
	}
	return out, nil
}

// RawCodec is the exact float64 wire format: u64 count and shape, f64
// body. It is the pre-codec default, the model file `flserver -out`
// writes, and the reference every lossy codec is compared to.
type RawCodec struct{}

// Name implements WeightCodec.
func (RawCodec) Name() string { return "raw" }

// Encode implements WeightCodec.
func (RawCodec) Encode(weights map[string]*tensor.Matrix) ([]byte, error) {
	return rawFrame.encode(weights), nil
}

// Decode implements WeightCodec.
func (RawCodec) Decode(blob []byte) (map[string]*tensor.Matrix, error) {
	return rawFrame.decode(blob)
}

func (RawCodec) size(m *tensor.Matrix) int { return 8 * len(m.Data()) }

func (RawCodec) put(dst []byte, m *tensor.Matrix) []byte {
	for _, v := range m.Data() {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

func (RawCodec) dense(rows, cols int64) int64 { return 8 * rows * cols }

func (RawCodec) get(r *wire.Reader, m *tensor.Matrix) error {
	d := m.Data()
	p := r.Next(8 * len(d))
	if r.Err() != nil {
		return r.Err()
	}
	for i := range d {
		d[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return nil
}

// Float32Codec quantizes every element to float32, halving bytes on the
// wire at ~1e-7 relative error — far below the noise floor of a federated
// round.
type Float32Codec struct{}

// Name implements WeightCodec.
func (Float32Codec) Name() string { return "f32" }

// Encode implements WeightCodec.
func (Float32Codec) Encode(weights map[string]*tensor.Matrix) ([]byte, error) {
	return f32Frame.encode(weights), nil
}

// Decode implements WeightCodec.
func (Float32Codec) Decode(blob []byte) (map[string]*tensor.Matrix, error) {
	return f32Frame.decode(blob)
}

func (Float32Codec) size(m *tensor.Matrix) int { return 4 * len(m.Data()) }

func (Float32Codec) put(dst []byte, m *tensor.Matrix) []byte {
	for _, v := range m.Data() {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v)))
	}
	return dst
}

func (Float32Codec) dense(rows, cols int64) int64 { return 4 * rows * cols }

func (Float32Codec) get(r *wire.Reader, m *tensor.Matrix) error {
	d := m.Data()
	p := r.Next(4 * len(d))
	if r.Err() != nil {
		return r.Err()
	}
	for i := range d {
		d[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:])))
	}
	return nil
}

// Int8Codec quantizes each parameter row to symmetric int8: one float32
// scale (max|row|/127) followed by one signed byte per element. That is
// ~1/8 of the raw float64 payload (the per-row scale adds 4 bytes per
// `cols` elements) at a worst-case per-element error of scale/2 =
// max|row|/254, comparable to the noise a single local epoch injects. Rows
// that are all zero carry scale 0 and decode exactly.
type Int8Codec struct{}

// Name implements WeightCodec.
func (Int8Codec) Name() string { return "int8" }

// Encode implements WeightCodec.
func (Int8Codec) Encode(weights map[string]*tensor.Matrix) ([]byte, error) {
	return int8Frame.encode(weights), nil
}

// Decode implements WeightCodec.
func (Int8Codec) Decode(blob []byte) (map[string]*tensor.Matrix, error) {
	return int8Frame.decode(blob)
}

func (Int8Codec) size(m *tensor.Matrix) int { return m.Rows() * (4 + m.Cols()) }

func (Int8Codec) put(dst []byte, m *tensor.Matrix) []byte {
	d := m.Data()
	cols := m.Cols()
	for r := 0; r < m.Rows(); r++ {
		row := d[r*cols : (r+1)*cols]
		// MaxAbs, not the builtin max: a NaN must not become the row's
		// scale.
		scale := tensor.MaxAbs(row) / 127
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(scale)))
		n := len(dst)
		dst = append(dst, make([]byte, cols)...)
		// The zero test is on the float64 scale: a row whose scale rounds
		// to float32 zero still ships its clamped codes. They are
		// quantized against the float32-rounded scale the decoder will
		// use, so encode/decode agree on the grid.
		if scale != 0 {
			tensor.QuantizeInt8(dst[n:], row, float64(float32(scale)))
		}
	}
	return dst
}

func (Int8Codec) dense(rows, cols int64) int64 { return rows * (4 + cols) }

func (Int8Codec) get(r *wire.Reader, m *tensor.Matrix) error {
	d := m.Data()
	cols := m.Cols()
	p := r.Next(m.Rows() * (4 + cols))
	if r.Err() != nil {
		return r.Err()
	}
	for row := 0; row < m.Rows(); row++ {
		q := p[row*(4+cols) : (row+1)*(4+cols)]
		scale := float64(math.Float32frombits(binary.LittleEndian.Uint32(q)))
		if math.IsNaN(scale) || math.IsInf(scale, 0) || scale < 0 {
			return fmt.Errorf("bad row scale %v", scale)
		}
		tensor.DequantizeInt8(d[row*cols:(row+1)*cols], q[4:], scale)
	}
	return nil
}

// TopKCodec keeps only the Fraction largest-magnitude elements of each
// parameter (as uint32-index + float32-value pairs); the rest decode as
// zero. Intended for sparse *delta* transport; applied to full weights it
// is aggressively lossy, so experiments pair it with small fractions only
// when the accuracy budget allows.
type TopKCodec struct {
	// Fraction of elements kept per parameter, in (0, 1]. At least one
	// element per parameter is always kept.
	Fraction float64
}

// Name implements WeightCodec.
func (c TopKCodec) Name() string { return "topk:" + strconv.FormatFloat(c.Fraction, 'g', -1, 64) }

// Encode implements WeightCodec.
func (c TopKCodec) Encode(weights map[string]*tensor.Matrix) ([]byte, error) {
	// Negated form so a NaN fraction is rejected rather than slipping
	// through and silently keeping one element per parameter.
	if !(c.Fraction > 0 && c.Fraction <= 1) {
		return nil, fmt.Errorf("fl: top-k fraction %v out of (0,1]", c.Fraction)
	}
	f := topKFrame
	f.body = c
	return f.encode(weights), nil
}

// Decode implements WeightCodec.
func (TopKCodec) Decode(blob []byte) (map[string]*tensor.Matrix, error) {
	return topKFrame.decode(blob)
}

// keep is how many elements of an n-element parameter the codec keeps.
func (c TopKCodec) keep(n int) int {
	return max(int(math.Ceil(c.Fraction*float64(n))), 1)
}

func (c TopKCodec) size(m *tensor.Matrix) int { return 4 + 8*c.keep(len(m.Data())) }

func (c TopKCodec) put(dst []byte, m *tensor.Matrix) []byte {
	d := m.Data()
	idx := topKIndices(d, c.keep(len(d)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(idx)))
	for _, i := range idx {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(i))
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(d[i])))
	}
	return dst
}

func (TopKCodec) dense(rows, cols int64) int64 { return 0 }

func (TopKCodec) get(r *wire.Reader, m *tensor.Matrix) error {
	d := m.Data()
	k := uint64(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	// The encoder always keeps at least one element per parameter.
	if k < 1 || k > uint64(len(d)) {
		return fmt.Errorf("k %d out of [1, %d]", k, len(d))
	}
	p := r.Next(8 * int(k))
	if r.Err() != nil {
		return r.Err()
	}
	for j := 0; j < int(k); j++ {
		idx := binary.LittleEndian.Uint32(p[8*j:])
		if uint64(idx) >= uint64(len(d)) {
			return fmt.Errorf("index %d out of range", idx)
		}
		d[idx] = float64(math.Float32frombits(binary.LittleEndian.Uint32(p[8*j+4:])))
	}
	return nil
}

// topKIndices returns the indices of the k largest-magnitude elements.
func topKIndices(d []float64, k int) []int {
	idx := make([]int, len(d))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		va, vb := math.Abs(d[idx[a]]), math.Abs(d[idx[b]])
		if va != vb {
			return va > vb
		}
		return idx[a] < idx[b] // deterministic tie-break
	})
	out := idx[:k]
	sort.Ints(out) // ascending index order compresses/streams better
	return out
}

// CodecByName resolves a codec from its negotiation/flag name: "raw",
// "f32", "int8", or "topk:<fraction>" ("topk" alone keeps 10%).
func CodecByName(name string) (WeightCodec, error) {
	switch {
	case name == "" || name == "raw":
		return RawCodec{}, nil
	case name == "f32":
		return Float32Codec{}, nil
	case name == "int8":
		return Int8Codec{}, nil
	case name == "topk":
		return TopKCodec{Fraction: 0.1}, nil
	case strings.HasPrefix(name, "topk:"):
		f, err := strconv.ParseFloat(strings.TrimPrefix(name, "topk:"), 64)
		if err != nil || !(f > 0 && f <= 1) {
			return nil, fmt.Errorf("fl: bad top-k fraction in codec %q", name)
		}
		return TopKCodec{Fraction: f}, nil
	default:
		return nil, fmt.Errorf("fl: unknown codec %q (have raw, f32, int8, topk[:fraction])", name)
	}
}

// CodecSimFilter round-trips every update through a codec before
// aggregation, simulating compressed uplink transport for in-process
// (simulator-mode) federations: updates pick up the codec's quantization
// loss and their PayloadBytes, so experiments report bytes-on-wire per
// round without sockets.
type CodecSimFilter struct {
	Codec WeightCodec
}

// Name implements Filter.
func (f CodecSimFilter) Name() string { return "codec-sim(" + f.Codec.Name() + ")" }

// Apply implements Filter.
func (f CodecSimFilter) Apply(update *ClientUpdate, _ map[string]*tensor.Matrix) error {
	blob, err := f.Codec.Encode(update.Weights)
	if err != nil {
		return err
	}
	weights, err := f.Codec.Decode(blob)
	if err != nil {
		return err
	}
	update.Weights = weights
	update.PayloadBytes = len(blob)
	return nil
}
