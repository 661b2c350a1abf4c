package hier

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// PartialMagic prefixes the encoded-partial wire format, following the
// weight-codec magics (CFLQ1/CFLS1/CFLI1): a tier node sends its merged
// partial upward as a MsgUpdate whose payload carries this header, which
// is how a tier-aware root tells a partial from a plain weight map.
const PartialMagic = "CFHP1\n"

// Decoder hardening caps: fail fast on corrupt or hostile headers
// instead of allocating unbounded buffers.
const (
	maxParams       = 1 << 14 // distinct parameter tensors
	maxElems        = 1 << 26 // total elements across all params
	maxComponents   = 64      // expansion components per element (nonoverlap bounds ~40)
	maxNameLen      = 256
	maxEntryLen     = 1 << 10 // participant / failure strings
	maxParticipants = 1 << 21
)

// ErrBadPartial is wrapped by every decode failure.
var ErrBadPartial = errors.New("hier: malformed partial")

// IsPartial reports whether blob is an encoded partial.
func IsPartial(blob []byte) bool {
	return bytes.HasPrefix(blob, []byte(PartialMagic))
}

func writeU16(buf *bytes.Buffer, v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	buf.Write(b[:])
}

func writeU32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

func writeU64(buf *bytes.Buffer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	buf.Write(b[:])
}

func writeString(buf *bytes.Buffer, s string) {
	writeU16(buf, uint16(len(s)))
	buf.WriteString(s)
}

func writeExpansion(buf *bytes.Buffer, e expansion) {
	writeU16(buf, uint16(len(e)))
	for _, c := range e {
		writeU64(buf, math.Float64bits(c))
	}
}

// EncodePartial serializes p deterministically: parameters in the
// partial's name order and accounting lists sorted, so a given fold
// sequence always encodes to identical bytes. (Different fold orders of
// the same updates represent the same exact value but may lay it out
// across different expansion components; Finalize — not the wire image —
// is the order-independent quantity.)
func EncodePartial(p *Partial) ([]byte, error) {
	for _, s := range p.participants {
		if len(s) > maxNameLen {
			return nil, fmt.Errorf("hier: encode: participant name %d bytes exceeds %d", len(s), maxNameLen)
		}
	}
	for _, s := range p.failures {
		if len(s) > maxEntryLen {
			return nil, fmt.Errorf("hier: encode: failure entry %d bytes exceeds %d", len(s), maxEntryLen)
		}
	}
	for _, ps := range p.params {
		if len(ps.name) > maxNameLen {
			return nil, fmt.Errorf("hier: encode: param name %d bytes exceeds %d", len(ps.name), maxNameLen)
		}
	}

	var buf bytes.Buffer
	buf.WriteString(PartialMagic)
	writeU32(&buf, uint32(len(p.params)))
	writeU64(&buf, uint64(p.weight))
	writeU32(&buf, uint32(p.updates))
	writeU32(&buf, uint32(p.merged))
	writeExpansion(&buf, p.lossSum)
	parts, fails := p.Participants(), p.Failures()
	writeU32(&buf, uint32(len(parts)))
	for _, s := range parts {
		writeString(&buf, s)
	}
	writeU32(&buf, uint32(len(fails)))
	for _, s := range fails {
		writeString(&buf, s)
	}
	writeU64(&buf, uint64(p.bytesUp))
	writeU64(&buf, uint64(p.bytesDown))
	writeU64(&buf, uint64(p.tierBytes))
	for _, ps := range p.params {
		writeString(&buf, ps.name)
		writeU32(&buf, uint32(ps.rows))
		writeU32(&buf, uint32(ps.cols))
		for _, e := range ps.sums {
			if len(e) > maxComponents {
				return nil, fmt.Errorf("hier: encode: %q expansion has %d components, cap %d", ps.name, len(e), maxComponents)
			}
			writeExpansion(&buf, e)
		}
	}
	return buf.Bytes(), nil
}

// EncodedSize returns len(EncodePartial(p)) without serializing, with
// the same validation failures, so a node that only needs byte
// accounting (the in-process controller's tier climb) skips building a
// model-sized buffer per hop. codec_test pins the two against each other.
func (p *Partial) EncodedSize() (int64, error) {
	for _, s := range p.participants {
		if len(s) > maxNameLen {
			return 0, fmt.Errorf("hier: encode: participant name %d bytes exceeds %d", len(s), maxNameLen)
		}
	}
	for _, s := range p.failures {
		if len(s) > maxEntryLen {
			return 0, fmt.Errorf("hier: encode: failure entry %d bytes exceeds %d", len(s), maxEntryLen)
		}
	}
	size := int64(len(PartialMagic)) + 4 + 8 + 4 + 4 // magic, nparams, weight, updates, merged
	size += 2 + 8*int64(len(p.lossSum))
	size += 4
	for _, s := range p.participants {
		size += 2 + int64(len(s))
	}
	size += 4
	for _, s := range p.failures {
		size += 2 + int64(len(s))
	}
	size += 8 + 8 + 8 // bytesUp, bytesDown, tierBytes
	for _, ps := range p.params {
		if len(ps.name) > maxNameLen {
			return 0, fmt.Errorf("hier: encode: param name %d bytes exceeds %d", len(ps.name), maxNameLen)
		}
		size += 2 + int64(len(ps.name)) + 4 + 4
		for _, e := range ps.sums {
			if len(e) > maxComponents {
				return 0, fmt.Errorf("hier: encode: %q expansion has %d components, cap %d", ps.name, len(e), maxComponents)
			}
			size += 2 + 8*int64(len(e))
		}
	}
	return size, nil
}

type decoder struct {
	b   []byte
	off int
}

func (d *decoder) fail(format string, args ...any) error {
	return fmt.Errorf("%w: %s at offset %d", ErrBadPartial, fmt.Sprintf(format, args...), d.off)
}

func (d *decoder) u16() (uint16, error) {
	if d.off+2 > len(d.b) {
		return 0, d.fail("truncated u16")
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if d.off+4 > len(d.b) {
		return 0, d.fail("truncated u32")
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if d.off+8 > len(d.b) {
		return 0, d.fail("truncated u64")
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v, nil
}

func (d *decoder) str(maxLen int) (string, error) {
	n, err := d.u16()
	if err != nil {
		return "", err
	}
	if int(n) > maxLen {
		return "", d.fail("string length %d exceeds %d", n, maxLen)
	}
	if d.off+int(n) > len(d.b) {
		return "", d.fail("truncated string")
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

func (d *decoder) expansion() (expansion, error) {
	n, err := d.u16()
	if err != nil {
		return nil, err
	}
	if int(n) > maxComponents {
		return nil, d.fail("expansion has %d components, cap %d", n, maxComponents)
	}
	if d.off+8*int(n) > len(d.b) {
		return nil, d.fail("truncated expansion")
	}
	if n == 0 {
		return nil, nil
	}
	e := make(expansion, n)
	for i := range e {
		bits := binary.LittleEndian.Uint64(d.b[d.off:])
		d.off += 8
		e[i] = math.Float64frombits(bits)
	}
	return e, nil
}

func (d *decoder) strList(count uint32, maxLen int) ([]string, error) {
	if count == 0 {
		return nil, nil
	}
	// Each entry costs at least 2 header bytes; bound allocation by the
	// bytes actually present.
	if int64(count)*2 > int64(len(d.b)-d.off) {
		return nil, d.fail("list count %d exceeds remaining payload", count)
	}
	out := make([]string, 0, count)
	for i := uint32(0); i < count; i++ {
		s, err := d.str(maxLen)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// DecodePartial parses an encoded partial, validating every length and
// cap before allocating.
func DecodePartial(blob []byte) (*Partial, error) {
	if !IsPartial(blob) {
		return nil, fmt.Errorf("%w: missing %q magic", ErrBadPartial, PartialMagic)
	}
	d := &decoder{b: blob, off: len(PartialMagic)}
	nParams, err := d.u32()
	if err != nil {
		return nil, err
	}
	if nParams > maxParams {
		return nil, d.fail("param count %d exceeds %d", nParams, maxParams)
	}
	weight, err := d.u64()
	if err != nil {
		return nil, err
	}
	if weight > math.MaxInt64 {
		return nil, d.fail("weight overflows int64")
	}
	updates, err := d.u32()
	if err != nil {
		return nil, err
	}
	merged, err := d.u32()
	if err != nil {
		return nil, err
	}
	lossSum, err := d.expansion()
	if err != nil {
		return nil, err
	}
	nParts, err := d.u32()
	if err != nil {
		return nil, err
	}
	if nParts > maxParticipants {
		return nil, d.fail("participant count %d exceeds %d", nParts, maxParticipants)
	}
	participants, err := d.strList(nParts, maxNameLen)
	if err != nil {
		return nil, err
	}
	nFails, err := d.u32()
	if err != nil {
		return nil, err
	}
	if nFails > maxParticipants {
		return nil, d.fail("failure count %d exceeds %d", nFails, maxParticipants)
	}
	failures, err := d.strList(nFails, maxEntryLen)
	if err != nil {
		return nil, err
	}
	bytesUp, err := d.u64()
	if err != nil {
		return nil, err
	}
	bytesDown, err := d.u64()
	if err != nil {
		return nil, err
	}
	tierBytes, err := d.u64()
	if err != nil {
		return nil, err
	}
	if bytesUp > math.MaxInt64 || bytesDown > math.MaxInt64 || tierBytes > math.MaxInt64 {
		return nil, d.fail("byte counter overflows int64")
	}

	p := NewPartial()
	p.weight = int64(weight)
	p.updates = int(updates)
	p.merged = int(merged)
	p.lossSum = lossSum
	p.participants = participants
	p.failures = failures
	p.bytesUp = int64(bytesUp)
	p.bytesDown = int64(bytesDown)
	p.tierBytes = int64(tierBytes)

	var totalElems int64
	for i := uint32(0); i < nParams; i++ {
		name, err := d.str(maxNameLen)
		if err != nil {
			return nil, err
		}
		rows, err := d.u32()
		if err != nil {
			return nil, err
		}
		cols, err := d.u32()
		if err != nil {
			return nil, err
		}
		// Cap each dimension before multiplying: the int64 product of two
		// arbitrary u32s can wrap negative and slip past the elems cap.
		if rows == 0 || cols == 0 || int64(rows) > maxElems || int64(cols) > maxElems {
			return nil, d.fail("param %q shape %dx%d out of range", name, rows, cols)
		}
		elems := int64(rows) * int64(cols)
		if elems > maxElems {
			return nil, d.fail("param %q shape %dx%d out of range", name, rows, cols)
		}
		totalElems += elems
		if totalElems > maxElems {
			return nil, d.fail("total elements exceed %d", maxElems)
		}
		// Each element costs at least its 2-byte component header.
		if elems*2 > int64(len(d.b)-d.off) {
			return nil, d.fail("param %q elements exceed remaining payload", name)
		}
		ps := &paramSum{name: name, rows: int(rows), cols: int(cols), sums: make([]expansion, elems)}
		for j := range ps.sums {
			e, err := d.expansion()
			if err != nil {
				return nil, err
			}
			ps.sums[j] = e
		}
		p.params = append(p.params, ps)
	}
	if d.off != len(d.b) {
		return nil, d.fail("%d trailing bytes", len(d.b)-d.off)
	}
	// An encoder writes params in name order, but any order decodes: one
	// sort restores the schema order, and a duplicate name lands next to
	// its twin.
	sortParams(p.params)
	for k := 1; k < len(p.params); k++ {
		if p.params[k].name == p.params[k-1].name {
			return nil, d.fail("duplicate param %q", p.params[k].name)
		}
	}
	return p, nil
}
