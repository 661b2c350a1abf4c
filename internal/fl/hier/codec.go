package hier

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"clinfl/internal/wire"
)

// PartialMagic prefixes the encoded-partial wire format, following the
// weight-codec magics (CFLQ1/CFLS1/CFLI1): a tier node sends its merged
// partial upward as a MsgUpdate whose payload carries this header, which
// is how a tier-aware root tells a partial from a plain weight map.
// Version 2 dropped the list of leaf names and the leaf byte counters that
// version 1 carried; a CFHP1 payload is no partial to a CFHP2 root, which
// refuses it as that edge's bad payload (bad magic).
const PartialMagic = "CFHP2\n"

// Decoder hardening caps: fail fast on corrupt or hostile headers
// instead of allocating unbounded buffers.
const (
	maxParams     = 1 << 14 // distinct parameter tensors
	maxElems      = 1 << 26 // total elements across all params
	maxComponents = 64      // expansion components per element (nonoverlap bounds ~40)
	maxNameLen    = 256     // param names
	maxEntryLen   = 1 << 10 // failure entries
	maxFailures   = 1 << 21 // failure entries per partial
)

// ErrBadPartial is wrapped by every decode failure.
var ErrBadPartial = errors.New("hier: malformed partial")

// IsPartial reports whether blob is an encoded partial.
func IsPartial(blob []byte) bool {
	return bytes.HasPrefix(blob, []byte(PartialMagic))
}

// EncodePartial serializes p deterministically: parameters in the
// partial's name order and the failure list sorted, so a given fold
// sequence always encodes to identical bytes. (Different fold orders of
// the same updates represent the same exact value but may lay it out
// across different expansion components; Finalize — not the wire image —
// is the order-independent quantity.)
func EncodePartial(p *Partial) ([]byte, error) {
	size, err := p.EncodedSize()
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, size)
	b = append(b, PartialMagic...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p.params)))
	b = binary.LittleEndian.AppendUint64(b, uint64(p.weight))
	b = binary.LittleEndian.AppendUint32(b, uint32(p.updates))
	b = appendExpansion(b, p.lossSum)
	b = appendStrings(b, p.Failures())
	b = binary.LittleEndian.AppendUint64(b, uint64(p.tierBytes))
	for _, ps := range p.params {
		b = appendString(b, ps.name)
		b = binary.LittleEndian.AppendUint32(b, uint32(ps.rows))
		b = binary.LittleEndian.AppendUint32(b, uint32(ps.cols))
		for _, e := range ps.sums {
			b = appendExpansion(b, e)
		}
	}
	return b, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// appendStrings appends a u32 count, then each string.
func appendStrings(b []byte, list []string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(list)))
	for _, s := range list {
		b = appendString(b, s)
	}
	return b
}

func appendExpansion(b []byte, e expansion) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(e)))
	for _, c := range e {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c))
	}
	return b
}

// EncodedSize returns len(EncodePartial(p)) without serializing. It is
// where the encode caps are checked, so EncodePartial fails exactly when
// it does, and a node that only needs byte accounting (the in-process
// controller's tier climb) skips building a model-sized buffer per hop.
func (p *Partial) EncodedSize() (int64, error) {
	size := int64(len(PartialMagic)) + 4 + 8 + 4 // magic, nparams, weight, updates
	size += 2 + 8*int64(len(p.lossSum))
	size += 4
	for _, s := range p.failures {
		if len(s) > maxEntryLen {
			return 0, fmt.Errorf("hier: encode: failure entry %d bytes exceeds %d", len(s), maxEntryLen)
		}
		size += 2 + int64(len(s))
	}
	size += 8 // tierBytes
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

// fail is a decode failure at r's offset.
func fail(r *wire.Reader, format string, args ...any) error {
	return fmt.Errorf("%w: %s at offset %d", ErrBadPartial, fmt.Sprintf(format, args...), r.Off())
}

// check returns r's failure as an ErrBadPartial: a cap the helpers below
// recorded as is, a truncation wrapped with its offset.
func check(r *wire.Reader) error {
	err := r.Err()
	if err == nil || errors.Is(err, ErrBadPartial) {
		return err
	}
	return fmt.Errorf("%w: %w at offset %d", ErrBadPartial, err, r.Off())
}

func str(r *wire.Reader, maxLen int) string {
	n := int(r.U16())
	if n > maxLen {
		r.Fail(fail(r, "string length %d exceeds %d", n, maxLen))
	}
	return string(r.Next(n))
}

func readExpansion(r *wire.Reader) expansion {
	n := int(r.U16())
	if n > maxComponents {
		r.Fail(fail(r, "expansion has %d components, cap %d", n, maxComponents))
	}
	p := r.Next(8 * n)
	if len(p) == 0 {
		return nil
	}
	e := make(expansion, n)
	for i := range e {
		e[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return e
}

// failureList reads a u32 count, capped at maxFailures, then that many
// failure entries.
func failureList(r *wire.Reader) []string {
	count := r.U32()
	switch {
	case r.Err() != nil || count == 0:
		return nil
	case count > maxFailures:
		r.Fail(fail(r, "failure count %d exceeds %d", count, maxFailures))
		return nil
	case int64(count)*2 > int64(r.Len()):
		// Each entry costs at least 2 header bytes; bound allocation by
		// the bytes actually present.
		r.Fail(fail(r, "failure count %d exceeds remaining payload", count))
		return nil
	}
	out := make([]string, 0, count)
	for i := uint32(0); i < count && r.Err() == nil; i++ {
		out = append(out, str(r, maxEntryLen))
	}
	return out
}

// DecodePartial parses an encoded partial, validating every length and
// cap before allocating.
func DecodePartial(blob []byte) (*Partial, error) {
	if !IsPartial(blob) {
		return nil, fmt.Errorf("%w: missing %q magic", ErrBadPartial, PartialMagic)
	}
	r := wire.NewReader(blob)
	r.Next(len(PartialMagic))
	nParams, weight := r.U32(), r.U64()
	if err := check(r); err != nil {
		return nil, err
	}
	if nParams > maxParams {
		return nil, fail(r, "param count %d exceeds %d", nParams, maxParams)
	}
	if weight > math.MaxInt64 {
		return nil, fail(r, "weight overflows int64")
	}
	p := NewPartial()
	p.weight = int64(weight)
	p.updates = int(r.U32())
	p.lossSum = readExpansion(r)
	p.failures = failureList(r)
	tierBytes := r.U64()
	if err := check(r); err != nil {
		return nil, err
	}
	if tierBytes > math.MaxInt64 {
		return nil, fail(r, "tier byte counter overflows int64")
	}
	p.tierBytes = int64(tierBytes)

	var totalElems int64
	for i := uint32(0); i < nParams; i++ {
		name := str(r, maxNameLen)
		rows, cols := r.U32(), r.U32()
		if err := check(r); err != nil {
			return nil, err
		}
		// Cap each dimension before multiplying: the int64 product of two
		// arbitrary u32s can wrap negative and slip past the elems cap.
		if rows == 0 || cols == 0 || int64(rows) > maxElems || int64(cols) > maxElems {
			return nil, fail(r, "param %q shape %dx%d out of range", name, rows, cols)
		}
		elems := int64(rows) * int64(cols)
		if elems > maxElems {
			return nil, fail(r, "param %q shape %dx%d out of range", name, rows, cols)
		}
		totalElems += elems
		if totalElems > maxElems {
			return nil, fail(r, "total elements exceed %d", maxElems)
		}
		// Each element costs at least its 2-byte component header.
		if elems*2 > int64(r.Len()) {
			return nil, fail(r, "param %q elements exceed remaining payload", name)
		}
		ps := &paramSum{name: name, rows: int(rows), cols: int(cols), sums: make([]expansion, elems)}
		for j := range ps.sums {
			ps.sums[j] = readExpansion(r)
		}
		if err := check(r); err != nil {
			return nil, err
		}
		p.params = append(p.params, ps)
	}
	if r.Len() != 0 {
		return nil, fail(r, "%d trailing bytes", r.Len())
	}
	// An encoder writes params in name order, but any order decodes: one
	// sort restores the schema order, and a duplicate name lands next to
	// its twin.
	sortParams(p.params)
	for k := 1; k < len(p.params); k++ {
		if p.params[k].name == p.params[k-1].name {
			return nil, fail(r, "duplicate param %q", p.params[k].name)
		}
	}
	return p, nil
}
