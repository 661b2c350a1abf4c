package fl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"clinfl/internal/sched"
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
	// frame is the frame the codec writes. It seals the interface: every
	// codec is one of this package's frames.
	frame() (frame, error)
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

// body is one codec's per-parameter element encoding. A frame walk takes
// each body off the wire with read, which runs the body's own checks; the
// value methods then read a checked body and cannot fail.
type body interface {
	// size is the body's encoded length for m.
	size(m *tensor.Matrix) int
	// put appends m's body to dst, and reports whether m holds no NaN or
	// ±Inf. A dense body checks each row just before it encodes it, while
	// the row is in cache, and checks no more rows once one fails.
	put(dst []byte, m *tensor.Matrix) ([]byte, bool)
	// stride is the length of one row of a dense body, which must be
	// present in full before the body is read; 0 for a sparse body.
	stride(cols int) int
	// read takes a rows×cols body off r and checks what is the body's
	// own: a row scale, a top-k count and its indices. It checks r.Err()
	// before indexing what r returned, and returns the body's bytes.
	read(r *wire.Reader, rows, cols int) ([]byte, error)
	// decode writes a checked body's values into the rows×cols d. A dense
	// body writes every element; a sparse one writes only those it kept,
	// so d must be zeroed first.
	decode(p []byte, d []float64, rows, cols int)
	// fold is the range fold: it adds c times rows [lo, hi) of a checked
	// body's values into the same rows of the rows×cols acc, the same bits
	// as decoding the body and adding those rows with AddScaled.
	fold(p []byte, acc []float64, lo, hi, cols int, c float64)
	// check is the accept step's value check of a checked body:
	// errNonFinite for a NaN or ±Inf, else errTooLarge for a magnitude of
	// at least maxMagnitude, else nil.
	check(p []byte) error
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
	// frames is what a payload's magic is sniffed against.
	frames = [...]frame{rawFrame, f32Frame, int8Frame, topKFrame}
)

// Element caps on one parameter and on a whole payload. A walk checks them
// before it reads a body, and a dense body must be present in full, so a
// dense payload can never claim more than it carries. A sparse top-k body
// can: two 2^13×2^14 params with one kept element each fit in 60 bytes.
// So the server never decodes an uplink by its own claim. The check walk
// allocates nothing per element, and the map is built only after the
// params' shapes have matched the round's global model. Variables, not
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
	return RawCodec{}.Encode(weights)
}

// DecodeWeights parses a transported weight map produced by any registered
// codec (raw, f32, int8, top-k), sniffing the format from the payload's
// magic.
func DecodeWeights(blob []byte) (map[string]*tensor.Matrix, error) {
	return decodeInto(blob, nil)
}

// decodeInto is DecodeWeights writing each param into prev's matrix of the
// same name and shape, and allocating the rest. The map it returns holds
// exactly the payload's params. On error, prev's matrices may hold part of
// the failed payload.
func decodeInto(blob []byte, prev map[string]*tensor.Matrix) (map[string]*tensor.Matrix, error) {
	weights, err := frameOf(blob).decode(blob, prev)
	if err != nil {
		return nil, fmt.Errorf("fl: decode weights: %w", err)
	}
	return weights, nil
}

// encodeChecked is codec.Encode into dst's backing array when that holds
// the payload (pass the last payload to reuse it, or nil). It also names
// the first param, in name order, holding a NaN or ±Inf ("" when none),
// found in the same pass.
func encodeChecked(codec WeightCodec, dst []byte, weights map[string]*tensor.Matrix) ([]byte, string, error) {
	f, err := codec.frame()
	if err != nil {
		return nil, "", err
	}
	blob, bad := f.encode(dst, weights)
	return blob, bad, nil
}

// The accept step's value errors, worded to follow "param %q has ".
var (
	errNonFinite = errors.New("a non-finite value")
	errTooLarge  = errors.New("a value of magnitude at least 2^980") // maxMagnitude
)

// checkValues is the accept step's value check of a decoded param.
func checkValues(d []float64) error {
	switch m, finite := tensor.MaxAbsFinite(d); {
	case !finite:
		return errNonFinite
	case m >= maxMagnitude:
		return errTooLarge
	}
	return nil
}

// paramCheck is what the check walk reports of one parameter.
type paramCheck struct {
	name       string
	rows, cols int
	// bad is the param's value check: nil when every value is finite and
	// below maxMagnitude.
	bad error
}

// checkPayload validates a payload of any codec without decoding it: it
// rejects exactly what DecodeWeights rejects, with the same error, and
// reports each param in name order.
func checkPayload(blob []byte) ([]paramCheck, error) {
	f := frameOf(blob)
	var params []paramCheck
	err := f.walk(blob, func(p param) error {
		params = append(params, paramCheck{string(p.name), p.rows, p.cols, f.body.check(p.body)})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("fl: decode weights: %w", err)
	}
	return params, nil
}

// frameOf picks the frame a payload's magic names; junk is reported
// against the raw magic.
func frameOf(blob []byte) frame {
	for _, g := range frames {
		if bytes.HasPrefix(blob, []byte(g.magic)) {
			return g
		}
	}
	return rawFrame
}

// encode writes the payload of weights into dst's backing array when that
// holds it, else into a new one. It also names the first param, in name
// order, holding a NaN or ±Inf ("" when none): the bodies check each value
// as they encode it. Every param's body slot is sized exactly and the
// headers between them written first, so the bodies are then put on the
// shared pool, each into its own slot: the bytes do not depend on the pool
// width.
func (f frame) encode(dst []byte, weights map[string]*tensor.Matrix) ([]byte, string) {
	names := slices.Sorted(maps.Keys(weights))
	n := len(names)
	j := &encodeJob{body: f.body, ms: make([]*tensor.Matrix, n), slots: make([][]byte, n), finite: make([]bool, n)}
	dim := 4
	if f.wide {
		dim = 8
	}
	size, elems := len(f.magic)+dim, 0
	for i, name := range names {
		j.ms[i] = weights[name]
		size += 4 + len(name) + 2*dim + f.body.size(j.ms[i])
		elems += len(j.ms[i].Data())
	}
	if cap(dst) < size {
		dst = make([]byte, 0, size)
	}
	dst = append(dst[:0], f.magic...)
	dst = f.appendDim(dst, n)
	for i, name := range names {
		m := j.ms[i]
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(name)))
		dst = append(dst, name...)
		dst = f.appendDim(f.appendDim(dst, m.Rows()), m.Cols())
		end := len(dst) + f.body.size(m)
		j.slots[i] = dst[len(dst):len(dst):end]
		dst = dst[:end]
	}
	// A few flops per element: the check, and a scale, divide and round.
	sched.Default().ParallelFor(n, 4*elems/max(n, 1), j)
	for i, ok := range j.finite {
		if !ok {
			return dst, names[i]
		}
	}
	return dst, ""
}

// encodeJob puts a payload's bodies on the pool: item i is param i.
type encodeJob struct {
	body   body
	ms     []*tensor.Matrix
	slots  [][]byte // param i's body: empty, with its exact size as capacity
	finite []bool
}

// Run puts the bodies of params [lo, hi), each into its slot.
func (j *encodeJob) Run(lo, hi int) {
	for i := lo; i < hi; i++ {
		b, ok := j.body.put(j.slots[i], j.ms[i])
		if len(b) != cap(j.slots[i]) {
			panic(fmt.Sprintf("fl: encode: a %d-byte body in a %d-byte slot", len(b), cap(j.slots[i])))
		}
		j.finite[i] = ok
	}
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

// param is one parameter as a walk hands it on: its header and its checked
// body. name and body alias the payload.
type param struct {
	name       []byte
	rows, cols int
	body       []byte
}

// walk runs every structural check of a payload of this frame, and hands
// each parameter to visit in payload order. Every count, length and shape
// is capped before it is used, and a dense body must be present in full
// before it is read. Names must be strictly ascending, the encoder's
// order, so a repeated name is caught against the one before it. A byte
// after the last parameter rejects the payload. decode, check and the
// fold's source walk (foldSources) are the walk's three visitors, and no
// check is written anywhere else.
func (f frame) walk(blob []byte, visit func(p param) error) error {
	r := wire.NewReader(blob)
	if string(r.Next(len(f.magic))) != f.magic {
		// A blob cut short inside the magic is a truncated frame too.
		if strings.HasPrefix(f.magic, string(blob)) {
			return fmt.Errorf("fl: %s decode: bad magic: %w", f.codec, wire.ErrTruncated)
		}
		return fmt.Errorf("fl: %s decode: bad magic", f.codec)
	}
	n := f.dim(r)
	if r.Err() != nil {
		return fmt.Errorf("fl: %s decode count: %w", f.codec, r.Err())
	}
	if n > maxParams {
		return fmt.Errorf("fl: %s decode: implausible parameter count %d", f.codec, n)
	}
	var prev []byte
	var total int64
	for i := uint64(0); i < n; i++ {
		ln := r.U32()
		if r.Err() == nil && ln > maxNameSize {
			return fmt.Errorf("fl: %s decode: implausible name length %d", f.codec, ln)
		}
		name := r.Next(int(ln))
		rows, cols := f.dim(r), f.dim(r)
		if r.Err() != nil {
			return fmt.Errorf("fl: %s decode param %d header: %w", f.codec, i, r.Err())
		}
		// Each dimension is capped before the product is taken, so a
		// corrupt shape cannot wrap past the element cap on any GOARCH;
		// 2^27 elements (1 GiB of float64) per parameter is far above any
		// real model and far below an OOM.
		limit := uint64(maxParamElems)
		if rows > limit || cols > limit || rows*cols > limit {
			return fmt.Errorf("fl: %s decode %q: implausible shape %dx%d", f.codec, name, rows, cols)
		}
		total += int64(rows * cols)
		if total > maxTotalElems {
			return fmt.Errorf("fl: %s decode %q: cumulative shape exceeds %d elements", f.codec, name, maxTotalElems)
		}
		if i > 0 {
			switch c := bytes.Compare(name, prev); {
			case c == 0:
				return fmt.Errorf("fl: %s decode: duplicate param %q", f.codec, name)
			case c < 0:
				return fmt.Errorf("fl: %s decode: param %q out of name order", f.codec, name)
			}
		}
		prev = name
		if int64(rows)*int64(f.body.stride(int(cols))) > int64(r.Len()) {
			return fmt.Errorf("fl: %s decode %q: shape %dx%d: %w", f.codec, name, rows, cols, wire.ErrTruncated)
		}
		p, err := f.body.read(r, int(rows), int(cols))
		if err != nil {
			return fmt.Errorf("fl: %s decode %q: %w", f.codec, name, err)
		}
		if err := visit(param{name, int(rows), int(cols), p}); err != nil {
			return err
		}
	}
	if r.Len() > 0 {
		return fmt.Errorf("fl: %s decode: %d trailing bytes", f.codec, r.Len())
	}
	return nil
}

// decode builds the weight map of a payload of this frame. A param whose
// name and shape match a matrix of prev is decoded into that matrix, so a
// site that decodes each task into the last allocates nothing once the
// model's shape is settled.
func (f frame) decode(blob []byte, prev map[string]*tensor.Matrix) (map[string]*tensor.Matrix, error) {
	out := make(map[string]*tensor.Matrix, len(prev))
	err := f.walk(blob, func(p param) error {
		m := prev[string(p.name)]
		switch {
		case m == nil || m.Rows() != p.rows || m.Cols() != p.cols:
			m = tensor.New(p.rows, p.cols)
		case f.body.stride(p.cols) == 0:
			clear(m.Data()) // a sparse body sets only what it kept
		}
		f.body.decode(p.body, m.Data(), p.rows, p.cols)
		out[string(p.name)] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// rowBody is a dense body: every row is stride(cols) bytes that row
// decodes on its own.
type rowBody interface {
	body
	row(dst []float64, q []byte)
}

// readRows takes a dense body of rows rows off r.
func readRows(b rowBody, r *wire.Reader, rows, cols int) ([]byte, error) {
	p := r.Next(rows * b.stride(cols))
	if r.Err() != nil {
		return nil, r.Err()
	}
	return p, nil
}

// decodeRows is a dense body's decode.
func decodeRows(b rowBody, p []byte, d []float64, rows, cols int) {
	w := b.stride(cols)
	for i := 0; i < rows; i++ {
		b.row(d[i*cols:(i+1)*cols], p[i*w:(i+1)*w])
	}
}

// foldFlat is the fold of a raw (size 8) or f32 (size 4) body, whose rows
// lie end to end with no header: it decodes elements [lo, hi) a stack row
// at a time and adds each with AddScaled.
func foldFlat(size int, p []byte, acc []float64, lo, hi int, c float64) {
	var row [256]float64
	for i := lo; i < hi; i += len(row) {
		d := row[:min(len(row), hi-i)]
		q := p[i*size : (i+len(d))*size]
		if size == 8 {
			RawCodec{}.row(d, q)
		} else {
			Float32Codec{}.row(d, q)
		}
		tensor.AddScaled(acc[i:i+len(d)], d, c)
	}
}

// Exponent masks: all exponent bits set means NaN or ±Inf.
const (
	f64ExpMask = 0x7ff0000000000000
	f32ExpMask = 0x7f800000
)

// maxMagnitudeBits is the float64 bits of maxMagnitude, a power of two:
// a value's exponent bits reach it exactly when its magnitude does.
var maxMagnitudeBits = math.Float64bits(maxMagnitude)

// RawCodec is the exact float64 wire format: u64 count and shape, f64
// body. It is the pre-codec default, the model file `flserver -out`
// writes, and the reference every lossy codec is compared to.
type RawCodec struct{}

// Name implements WeightCodec.
func (RawCodec) Name() string { return "raw" }

// Encode implements WeightCodec.
func (c RawCodec) Encode(weights map[string]*tensor.Matrix) ([]byte, error) {
	blob, _, err := encodeChecked(c, nil, weights)
	return blob, err
}

// Decode implements WeightCodec.
func (RawCodec) Decode(blob []byte) (map[string]*tensor.Matrix, error) {
	return rawFrame.decode(blob, nil)
}

func (RawCodec) frame() (frame, error) { return rawFrame, nil }

func (RawCodec) size(m *tensor.Matrix) int { return 8 * len(m.Data()) }

func (RawCodec) put(dst []byte, m *tensor.Matrix) ([]byte, bool) {
	finite := true
	for r := 0; r < m.Rows(); r++ {
		row := m.Row(r)
		finite = finite && tensor.AllFinite(row)
		for _, v := range row {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst, finite
}

func (c RawCodec) read(r *wire.Reader, rows, cols int) ([]byte, error) {
	return readRows(c, r, rows, cols)
}

func (RawCodec) stride(cols int) int { return 8 * cols }

func (RawCodec) row(dst []float64, q []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(q[8*i:]))
	}
}

func (c RawCodec) decode(p []byte, d []float64, rows, cols int) { decodeRows(c, p, d, rows, cols) }

func (RawCodec) fold(p []byte, acc []float64, lo, hi, cols int, w float64) {
	foldFlat(8, p, acc, lo*cols, hi*cols, w)
}

// check scans for both bounds: a raw value is any float64. A NaN or ±Inf
// outranks a large magnitude, as in checkValues.
func (RawCodec) check(p []byte) error {
	var err error
	for i := 0; i < len(p); i += 8 {
		switch e := binary.LittleEndian.Uint64(p[i:]) & f64ExpMask; {
		case e == f64ExpMask:
			return errNonFinite
		case e >= maxMagnitudeBits:
			err = errTooLarge
		}
	}
	return err
}

// Float32Codec quantizes every element to float32, halving bytes on the
// wire at ~1e-7 relative error — far below the noise floor of a federated
// round.
type Float32Codec struct{}

// Name implements WeightCodec.
func (Float32Codec) Name() string { return "f32" }

// Encode implements WeightCodec.
func (c Float32Codec) Encode(weights map[string]*tensor.Matrix) ([]byte, error) {
	blob, _, err := encodeChecked(c, nil, weights)
	return blob, err
}

// Decode implements WeightCodec.
func (Float32Codec) Decode(blob []byte) (map[string]*tensor.Matrix, error) {
	return f32Frame.decode(blob, nil)
}

func (Float32Codec) frame() (frame, error) { return f32Frame, nil }

func (Float32Codec) size(m *tensor.Matrix) int { return 4 * len(m.Data()) }

func (Float32Codec) put(dst []byte, m *tensor.Matrix) ([]byte, bool) {
	finite := true
	for r := 0; r < m.Rows(); r++ {
		row := m.Row(r)
		finite = finite && tensor.AllFinite(row)
		for _, v := range row {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v)))
		}
	}
	return dst, finite
}

func (c Float32Codec) read(r *wire.Reader, rows, cols int) ([]byte, error) {
	return readRows(c, r, rows, cols)
}

func (Float32Codec) stride(cols int) int { return 4 * cols }

func (Float32Codec) row(dst []float64, q []byte) {
	for i := range dst {
		dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(q[4*i:])))
	}
}

func (c Float32Codec) decode(p []byte, d []float64, rows, cols int) { decodeRows(c, p, d, rows, cols) }

func (Float32Codec) fold(p []byte, acc []float64, lo, hi, cols int, w float64) {
	foldFlat(4, p, acc, lo*cols, hi*cols, w)
}

// check scans for a NaN or ±Inf; a finite float32 is below 2^128.
func (Float32Codec) check(p []byte) error {
	for i := 0; i < len(p); i += 4 {
		if binary.LittleEndian.Uint32(p[i:])&f32ExpMask == f32ExpMask {
			return errNonFinite
		}
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
func (c Int8Codec) Encode(weights map[string]*tensor.Matrix) ([]byte, error) {
	blob, _, err := encodeChecked(c, nil, weights)
	return blob, err
}

// Decode implements WeightCodec.
func (Int8Codec) Decode(blob []byte) (map[string]*tensor.Matrix, error) {
	return int8Frame.decode(blob, nil)
}

func (Int8Codec) frame() (frame, error) { return int8Frame, nil }

func (Int8Codec) size(m *tensor.Matrix) int { return m.Rows() * (4 + m.Cols()) }

func (Int8Codec) put(dst []byte, m *tensor.Matrix) ([]byte, bool) {
	finite := true
	for r := 0; r < m.Rows(); r++ {
		// One pass reads the row for its check and its scale. The scale is
		// MaxAbsFinite's, not the builtin max: a NaN must not become it.
		row := m.Row(r)
		mx, ok := tensor.MaxAbsFinite(row)
		finite = finite && ok
		scale := mx / 127
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(scale)))
		n := len(dst)
		dst = append(dst, make([]byte, len(row))...)
		// The zero test is on the float64 scale: a row whose scale rounds
		// to float32 zero still ships its clamped codes. They are
		// quantized against the float32-rounded scale the decoder will
		// use, so encode/decode agree on the grid.
		if scale != 0 {
			tensor.QuantizeInt8(dst[n:], row, float64(float32(scale)))
		}
	}
	return dst, finite
}

// read checks every row's scale: finite and non-negative.
func (c Int8Codec) read(r *wire.Reader, rows, cols int) ([]byte, error) {
	p, err := readRows(c, r, rows, cols)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(p); i += 4 + cols {
		scale := float64(math.Float32frombits(binary.LittleEndian.Uint32(p[i:])))
		if math.IsNaN(scale) || math.IsInf(scale, 0) || scale < 0 {
			return nil, fmt.Errorf("bad row scale %v", scale)
		}
	}
	return p, nil
}

func (Int8Codec) stride(cols int) int { return 4 + cols }

func (Int8Codec) row(dst []float64, q []byte) {
	scale := float64(math.Float32frombits(binary.LittleEndian.Uint32(q)))
	tensor.DequantizeInt8(dst, q[4:], scale)
}

func (c Int8Codec) decode(p []byte, d []float64, rows, cols int) { decodeRows(c, p, d, rows, cols) }

// fold adds each row with the fused AddScaledInt8, which dequantizes and
// accumulates in one pass.
func (Int8Codec) fold(p []byte, acc []float64, lo, hi, cols int, w float64) {
	for i := lo; i < hi; i++ {
		q := p[i*(4+cols) : (i+1)*(4+cols)]
		scale := float64(math.Float32frombits(binary.LittleEndian.Uint32(q)))
		tensor.AddScaledInt8(acc[i*cols:(i+1)*cols], q[4:], scale, w)
	}
}

// check scans nothing: a code times a checked scale is at most
// 128·MaxFloat32.
func (Int8Codec) check([]byte) error { return nil }

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
	blob, _, err := encodeChecked(c, nil, weights)
	return blob, err
}

// Decode implements WeightCodec.
func (TopKCodec) Decode(blob []byte) (map[string]*tensor.Matrix, error) {
	return topKFrame.decode(blob, nil)
}

func (c TopKCodec) frame() (frame, error) {
	// Negated form so a NaN fraction is rejected rather than slipping
	// through and silently keeping one element per parameter.
	if !(c.Fraction > 0 && c.Fraction <= 1) {
		return frame{}, fmt.Errorf("fl: top-k fraction %v out of (0,1]", c.Fraction)
	}
	f := topKFrame
	f.body = c
	return f, nil
}

// keep is how many elements of an n-element parameter the codec keeps.
func (c TopKCodec) keep(n int) int {
	return max(int(math.Ceil(c.Fraction*float64(n))), 1)
}

func (c TopKCodec) size(m *tensor.Matrix) int { return 4 + 8*c.keep(len(m.Data())) }

// put checks the whole param, not row by row: choosing the kept elements
// reads all of it anyway.
func (c TopKCodec) put(dst []byte, m *tensor.Matrix) ([]byte, bool) {
	d := m.Data()
	finite := tensor.AllFinite(d)
	idx := topKIndices(d, c.keep(len(d)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(idx)))
	for _, i := range idx {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(i))
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(d[i])))
	}
	return dst, finite
}

func (TopKCodec) stride(int) int { return 0 }

// read checks the kept count and that the indices are in range and
// strictly ascending, the encoder's order: no element is set twice. It
// returns the index+value pairs.
func (TopKCodec) read(r *wire.Reader, rows, cols int) ([]byte, error) {
	n := uint64(rows * cols)
	k := uint64(r.U32())
	if r.Err() != nil {
		return nil, r.Err()
	}
	// The encoder always keeps at least one element per parameter.
	if k < 1 || k > n {
		return nil, fmt.Errorf("k %d out of [1, %d]", k, n)
	}
	p := r.Next(8 * int(k))
	if r.Err() != nil {
		return nil, r.Err()
	}
	for j := 0; j < len(p); j += 8 {
		idx := binary.LittleEndian.Uint32(p[j:])
		if uint64(idx) >= n {
			return nil, fmt.Errorf("index %d out of range", idx)
		}
		if j > 0 && idx <= binary.LittleEndian.Uint32(p[j-8:]) {
			return nil, fmt.Errorf("index %d not ascending", idx)
		}
	}
	return p, nil
}

func (TopKCodec) decode(p []byte, d []float64, _, _ int) {
	for j := 0; j < len(p); j += 8 {
		d[binary.LittleEndian.Uint32(p[j:])] = float64(math.Float32frombits(binary.LittleEndian.Uint32(p[j+4:])))
	}
}

// fold adds only the kept elements in rows [lo, hi), found by binary
// search over the ascending indices. The decoded zeros it skips would add
// +0, which changes no sum that started at +0: such a sum is never −0.
func (TopKCodec) fold(p []byte, acc []float64, lo, hi, cols int, w float64) {
	first := func(row int) int {
		return 8 * sort.Search(len(p)/8, func(k int) bool {
			return int(binary.LittleEndian.Uint32(p[8*k:])) >= row*cols
		})
	}
	for j := first(lo); j < first(hi); j += 8 {
		v := float64(math.Float32frombits(binary.LittleEndian.Uint32(p[j+4:])))
		acc[binary.LittleEndian.Uint32(p[j:])] += float64(w * v) // the conversion forbids a fused multiply-add
	}
}

// check scans for a NaN or ±Inf; a finite float32 is below 2^128.
func (TopKCodec) check(p []byte) error {
	for j := 0; j < len(p); j += 8 {
		if binary.LittleEndian.Uint32(p[j+4:])&f32ExpMask == f32ExpMask {
			return errNonFinite
		}
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
