package fl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"clinfl/internal/nn"
	"clinfl/internal/tensor"
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

// Codec magics. The raw codec reuses the nn checkpoint magic ("CFLW1\n").
const (
	f32Magic  = "CFLQ1\n"
	topKMagic = "CFLS1\n"
	int8Magic = "CFLI1\n"
)

// RawCodec is the exact float64 wire format (nn checkpoint format); the
// pre-codec default and the reference every lossy codec is compared to.
type RawCodec struct{}

// Name implements WeightCodec.
func (RawCodec) Name() string { return "raw" }

// Encode implements WeightCodec.
func (RawCodec) Encode(weights map[string]*tensor.Matrix) ([]byte, error) {
	return EncodeWeights(weights)
}

// Decode implements WeightCodec.
func (RawCodec) Decode(blob []byte) (map[string]*tensor.Matrix, error) {
	w, err := nn.ReadWeights(bytes.NewReader(blob))
	if err != nil {
		return nil, fmt.Errorf("fl: raw decode: %w", err)
	}
	return w, nil
}

// Float32Codec quantizes every element to float32, halving bytes on the
// wire at ~1e-7 relative error — far below the noise floor of a federated
// round.
type Float32Codec struct{}

// Name implements WeightCodec.
func (Float32Codec) Name() string { return "f32" }

// Encode implements WeightCodec.
func (Float32Codec) Encode(weights map[string]*tensor.Matrix) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(f32Magic)
	names := sortedNames(weights)
	writeUint32(&buf, uint32(len(names)))
	for _, name := range names {
		m := weights[name]
		writeName(&buf, name)
		writeUint32(&buf, uint32(m.Rows()))
		writeUint32(&buf, uint32(m.Cols()))
		var w [4]byte
		for _, v := range m.Data() {
			binary.LittleEndian.PutUint32(w[:], math.Float32bits(float32(v)))
			buf.Write(w[:])
		}
	}
	return buf.Bytes(), nil
}

// Decode implements WeightCodec.
func (Float32Codec) Decode(blob []byte) (map[string]*tensor.Matrix, error) {
	r, n, err := codecHeader(blob, f32Magic, "f32")
	if err != nil {
		return nil, err
	}
	out := make(map[string]*tensor.Matrix, n)
	for i := 0; i < n; i++ {
		name, rows, cols, err := readParamHeader(r, "f32")
		if err != nil {
			return nil, err
		}
		// Dense payload: the remaining bytes must cover the declared
		// shape, so allocation is bounded by the blob size.
		if int64(rows)*int64(cols)*4 > int64(r.Len()) {
			return nil, fmt.Errorf("fl: f32 decode %q: payload truncated for shape %dx%d", name, rows, cols)
		}
		m := tensor.New(rows, cols)
		d := m.Data()
		var w [4]byte
		for j := range d {
			if _, err := io.ReadFull(r, w[:]); err != nil {
				return nil, fmt.Errorf("fl: f32 decode %q: %w", name, err)
			}
			d[j] = float64(math.Float32frombits(binary.LittleEndian.Uint32(w[:])))
		}
		out[name] = m
	}
	return out, nil
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
	var buf bytes.Buffer
	buf.WriteString(int8Magic)
	names := sortedNames(weights)
	writeUint32(&buf, uint32(len(names)))
	var w [4]byte
	for _, name := range names {
		m := weights[name]
		writeName(&buf, name)
		writeUint32(&buf, uint32(m.Rows()))
		writeUint32(&buf, uint32(m.Cols()))
		d := m.Data()
		cols := m.Cols()
		for r := 0; r < m.Rows(); r++ {
			row := d[r*cols : (r+1)*cols]
			maxAbs := 0.0
			for _, v := range row {
				if a := math.Abs(v); a > maxAbs {
					maxAbs = a
				}
			}
			scale := maxAbs / 127
			binary.LittleEndian.PutUint32(w[:], math.Float32bits(float32(scale)))
			buf.Write(w[:])
			if scale == 0 {
				for range row {
					buf.WriteByte(0)
				}
				continue
			}
			// Quantize against the float32-rounded scale the decoder will
			// use, so encode/decode agree on the grid.
			s := float64(float32(scale))
			for _, v := range row {
				q := math.Round(v / s)
				if q > 127 {
					q = 127
				} else if q < -127 {
					q = -127
				}
				buf.WriteByte(byte(int8(q)))
			}
		}
	}
	return buf.Bytes(), nil
}

// Decode implements WeightCodec.
func (Int8Codec) Decode(blob []byte) (map[string]*tensor.Matrix, error) {
	r, n, err := codecHeader(blob, int8Magic, "int8")
	if err != nil {
		return nil, err
	}
	out := make(map[string]*tensor.Matrix, n)
	for i := 0; i < n; i++ {
		name, rows, cols, err := readParamHeader(r, "int8")
		if err != nil {
			return nil, err
		}
		// Dense payload: 4 scale bytes + cols code bytes per row must fit
		// in what remains, so allocation is bounded by the blob size.
		if int64(rows)*(4+int64(cols)) > int64(r.Len()) {
			return nil, fmt.Errorf("fl: int8 decode %q: payload truncated for shape %dx%d", name, rows, cols)
		}
		m := tensor.New(rows, cols)
		d := m.Data()
		var sb [4]byte
		codes := make([]byte, cols)
		for row := 0; row < rows; row++ {
			if _, err := io.ReadFull(r, sb[:]); err != nil {
				return nil, fmt.Errorf("fl: int8 decode %q: %w", name, err)
			}
			scale := float64(math.Float32frombits(binary.LittleEndian.Uint32(sb[:])))
			if math.IsNaN(scale) || math.IsInf(scale, 0) || scale < 0 {
				return nil, fmt.Errorf("fl: int8 decode %q: bad row scale %v", name, scale)
			}
			if _, err := io.ReadFull(r, codes); err != nil {
				return nil, fmt.Errorf("fl: int8 decode %q: %w", name, err)
			}
			dr := d[row*cols : (row+1)*cols]
			for j, c := range codes {
				dr[j] = float64(int8(c)) * scale
			}
		}
		out[name] = m
	}
	return out, nil
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
	var buf bytes.Buffer
	buf.WriteString(topKMagic)
	names := sortedNames(weights)
	writeUint32(&buf, uint32(len(names)))
	for _, name := range names {
		m := weights[name]
		d := m.Data()
		k := int(math.Ceil(c.Fraction * float64(len(d))))
		if k < 1 {
			k = 1
		}
		idx := topKIndices(d, k)
		writeName(&buf, name)
		writeUint32(&buf, uint32(m.Rows()))
		writeUint32(&buf, uint32(m.Cols()))
		writeUint32(&buf, uint32(len(idx)))
		var w [4]byte
		for _, i := range idx {
			binary.LittleEndian.PutUint32(w[:], uint32(i))
			buf.Write(w[:])
			binary.LittleEndian.PutUint32(w[:], math.Float32bits(float32(d[i])))
			buf.Write(w[:])
		}
	}
	return buf.Bytes(), nil
}

// Decode implements WeightCodec.
func (TopKCodec) Decode(blob []byte) (map[string]*tensor.Matrix, error) {
	r, n, err := codecHeader(blob, topKMagic, "top-k")
	if err != nil {
		return nil, err
	}
	out := make(map[string]*tensor.Matrix, n)
	var totalElems int64
	for i := 0; i < n; i++ {
		name, rows, cols, err := readParamHeader(r, "top-k")
		if err != nil {
			return nil, err
		}
		// Sparse payload bytes don't bound the dense allocation the shape
		// demands, so cap the blob's cumulative element count instead.
		totalElems += int64(rows) * int64(cols)
		if totalElems > maxTotalElems {
			return nil, fmt.Errorf("fl: top-k decode %q: cumulative shape exceeds %d elements", name, int64(maxTotalElems))
		}
		var kb [4]byte
		if _, err := io.ReadFull(r, kb[:]); err != nil {
			return nil, fmt.Errorf("fl: top-k decode %q: %w", name, err)
		}
		k := int(binary.LittleEndian.Uint32(kb[:]))
		m := tensor.New(rows, cols)
		d := m.Data()
		// The encoder always keeps at least one element per parameter.
		if k < 1 || k > len(d) {
			return nil, fmt.Errorf("fl: top-k decode %q: k %d out of [1, %d]", name, k, len(d))
		}
		var w [8]byte
		for j := 0; j < k; j++ {
			if _, err := io.ReadFull(r, w[:]); err != nil {
				return nil, fmt.Errorf("fl: top-k decode %q: %w", name, err)
			}
			idx := int(binary.LittleEndian.Uint32(w[:4]))
			if idx >= len(d) {
				return nil, fmt.Errorf("fl: top-k decode %q: index %d out of range", name, idx)
			}
			d[idx] = float64(math.Float32frombits(binary.LittleEndian.Uint32(w[4:])))
		}
		out[name] = m
	}
	return out, nil
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

// decoderFor sniffs a payload's magic and returns the codec that wrote it.
func decoderFor(blob []byte) WeightCodec {
	switch {
	case bytes.HasPrefix(blob, []byte(f32Magic)):
		return Float32Codec{}
	case bytes.HasPrefix(blob, []byte(topKMagic)):
		return TopKCodec{Fraction: 1}
	case bytes.HasPrefix(blob, []byte(int8Magic)):
		return Int8Codec{}
	default:
		// Raw (nn magic) or junk; RawCodec reports precise errors for junk.
		return RawCodec{}
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

// ---- shared little helpers ----

func sortedNames(weights map[string]*tensor.Matrix) []string {
	names := make([]string, 0, len(weights))
	for name := range weights {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func writeUint32(buf *bytes.Buffer, v uint32) {
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], v)
	buf.Write(w[:])
}

func writeName(buf *bytes.Buffer, name string) {
	writeUint32(buf, uint32(len(name)))
	buf.WriteString(name)
}

// codecHeader validates magic and reads the parameter count.
func codecHeader(blob []byte, magic, codec string) (*bytes.Reader, int, error) {
	if !bytes.HasPrefix(blob, []byte(magic)) {
		return nil, 0, fmt.Errorf("fl: %s decode: bad magic", codec)
	}
	r := bytes.NewReader(blob[len(magic):])
	var cb [4]byte
	if _, err := io.ReadFull(r, cb[:]); err != nil {
		return nil, 0, fmt.Errorf("fl: %s decode count: %w", codec, err)
	}
	n := int(binary.LittleEndian.Uint32(cb[:]))
	if n > 1<<20 {
		return nil, 0, fmt.Errorf("fl: %s decode: implausible parameter count %d", codec, n)
	}
	return r, n, nil
}

// readParamHeader reads one parameter's name and shape.
func readParamHeader(r *bytes.Reader, codec string) (string, int, int, error) {
	var lb [4]byte
	if _, err := io.ReadFull(r, lb[:]); err != nil {
		return "", 0, 0, fmt.Errorf("fl: %s decode name length: %w", codec, err)
	}
	ln := binary.LittleEndian.Uint32(lb[:])
	if ln > 1<<16 {
		return "", 0, 0, fmt.Errorf("fl: %s decode: implausible name length %d", codec, ln)
	}
	nb := make([]byte, ln)
	if _, err := io.ReadFull(r, nb); err != nil {
		return "", 0, 0, fmt.Errorf("fl: %s decode name: %w", codec, err)
	}
	var sb [8]byte
	if _, err := io.ReadFull(r, sb[:]); err != nil {
		return "", 0, 0, fmt.Errorf("fl: %s decode shape: %w", codec, err)
	}
	rows := int(binary.LittleEndian.Uint32(sb[:4]))
	cols := int(binary.LittleEndian.Uint32(sb[4:]))
	// Each dimension is capped before the product is taken (in int64), so
	// a corrupt shape cannot wrap past the element cap on any GOARCH; 2^27
	// elements (1 GiB of float64) per parameter is far above any real
	// model and far below an OOM.
	if rows < 0 || cols < 0 || int64(rows) > maxParamElems || int64(cols) > maxParamElems ||
		int64(rows)*int64(cols) > maxParamElems {
		return "", 0, 0, fmt.Errorf("fl: %s decode %q: implausible shape %dx%d", codec, nb, rows, cols)
	}
	return string(nb), rows, cols, nil
}

// Decode-time allocation bounds: per-parameter and whole-blob element caps
// keep a tiny corrupt payload from demanding gigabytes before any data
// bytes are read (transport frames are capped at 64 MiB). Variables, not
// constants, so the fuzz harness can shrink them and explore the rejection
// logic without thrashing on legitimately-huge allocations.
var (
	maxParamElems int64 = 1 << 27
	maxTotalElems int64 = 1 << 28
)
