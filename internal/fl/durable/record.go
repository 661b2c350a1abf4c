// Package durable is the federation server's write-ahead log: an
// append-only, fsync'd, CRC-checked record stream of round lifecycle
// events (client sessions, round open, task assignment, update receipt,
// round finalization, model commit) that lets a crashed Server or
// Controller reconstruct its in-flight round state — pending clients,
// already-received updates, the last committed global model — and resume
// mid-round instead of losing the run.
//
// The on-disk format follows the decoder discipline established for the
// weight codecs and the transport framing (PR 3/PR 5): every length is
// capped before allocation, every record body carries a CRC-32C, and the
// decoder is fuzzed. A torn tail (the crash happened mid-append) is
// detected by CRC/length mismatch and truncated on reopen; anything
// before it replays exactly.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"clinfl/internal/tensor"
	"clinfl/internal/wire"
)

// RecordType enumerates WAL record kinds.
type RecordType uint8

// WAL record kinds, in round-lifecycle order.
const (
	// RecSession records a client registration: name plus the session
	// token the server issued, so reconnects after a server restart can
	// re-attach to their session.
	RecSession RecordType = iota + 1
	// RecRoundOpen marks the start of a round's scatter.
	RecRoundOpen
	// RecTaskAssigned records one client receiving the round's task.
	RecTaskAssigned
	// RecUpdate records one client's update as decoded weights at full f64
	// precision. Only older logs hold it: v1 logs, and v2 logs an
	// in-process Controller wrote before it logged RecUpdatePayload like
	// the networked Server. Replay still reads it.
	RecUpdate
	// RecRoundFinal marks a round's aggregation (participants listed);
	// informational — RecModelCommit is the durable commit point.
	RecRoundFinal
	// RecModelCommit stores the committed global model for a round. On
	// replay it closes any open round at or before it.
	RecModelCommit
	// RecHealth records a reconciliation health decision for a client
	// (the state name rides in Token — the layout's existing string
	// slot). Only pool-membership edges are logged: quarantine entry,
	// and the rejoin that clears it. Replay applies them last-wins, so a
	// restart never resurrects a quarantined client into the sample
	// pool.
	RecHealth
	// RecUpdatePayload records one client's update as the uplink payload
	// exactly as it crossed the wire, in whatever codec was negotiated
	// (raw/f32/int8/topk). The live round aggregated the decode of these
	// bytes, so a resumed round that decodes them again aggregates
	// bit-identical values — at the wire size, not 8 bytes per parameter.
	// Logs containing this kind carry the v2 magic.
	RecUpdatePayload
)

// String names the record kind.
func (t RecordType) String() string {
	switch t {
	case RecSession:
		return "session"
	case RecRoundOpen:
		return "round-open"
	case RecTaskAssigned:
		return "task-assigned"
	case RecUpdate:
		return "update"
	case RecRoundFinal:
		return "round-final"
	case RecModelCommit:
		return "model-commit"
	case RecHealth:
		return "health"
	case RecUpdatePayload:
		return "update-payload"
	default:
		return fmt.Sprintf("rectype(%d)", uint8(t))
	}
}

// Record is one WAL entry. Fields beyond Type/Round are used by the
// kinds that need them and zero elsewhere.
type Record struct {
	Type   RecordType
	Round  int
	Client string
	// Token is the session token (RecSession).
	Token string
	// NumSamples / TrainLoss / PayloadBytes describe an update
	// (RecUpdate, RecUpdatePayload); PayloadBytes is the update's original
	// wire size so byte accounting survives a restart.
	NumSamples   int
	TrainLoss    float64
	PayloadBytes int
	// Participants lists the clients aggregated in a round
	// (RecRoundFinal).
	Participants []string
	// Weights carries a full-precision weight map (RecUpdate,
	// RecModelCommit).
	Weights map[string]*tensor.Matrix
	// Payload is the encoded uplink (RecUpdatePayload); PayloadBytes is its
	// length. A decoded record's Payload aliases the buffer it was decoded
	// from.
	Payload []byte
}

// Decoder hardening caps. A record that exceeds any of them fails decode
// instead of allocating.
const (
	// maxRecordSize bounds one encoded record body (64 MiB, matching the
	// transport frame cap: a record never carries more than one message's
	// worth of weights).
	maxRecordSize = 64 << 20
	// maxNameLen bounds client names and session tokens.
	maxNameLen = 4096
	// maxListLen bounds participant lists and weight-map entry counts
	// (they are encoded as u16).
	maxListLen = math.MaxUint16
)

// ErrRecordTooLarge is returned for records exceeding maxRecordSize.
var ErrRecordTooLarge = errors.New("durable: record exceeds size limit")

// encodeRecord renders rec as one record body (no length/CRC framing).
// Layout, all little-endian:
//
//	u8   type
//	u32  round
//	str  client        (u16 len + bytes)
//	str  token
//	u32  numSamples
//	u64  trainLoss bits
//	u32  payloadBytes
//	u16  nParticipants, then that many str
//	u16  nWeights, then per entry: str name + tensor wire format
//	     payload       (RecUpdatePayload only: payloadBytes bytes)
//
// Weight entries are name-sorted so the same logical record always
// encodes to the same bytes.
func encodeRecord(rec *Record) ([]byte, error) {
	return encodeRecordInto(nil, rec)
}

// encodeRecordInto appends rec's body to b (typically a reused scratch
// buffer) and returns the extended slice. The buffer is pre-sized for
// the weight payload — an update record is tens of MB, and letting
// append discover that by doubling would copy the whole body several
// times over on the round's hot path — and the weight data is packed
// directly, without an intermediate per-matrix buffer.
func encodeRecordInto(b []byte, rec *Record) ([]byte, error) {
	if rec.Round < 0 || rec.Round > math.MaxInt32 {
		return nil, fmt.Errorf("durable: round %d out of range", rec.Round)
	}
	payloadBytes := rec.PayloadBytes
	if rec.Type == RecUpdatePayload {
		if len(rec.Weights) != 0 {
			return nil, fmt.Errorf("durable: %s record carries decoded weights", rec.Type)
		}
		payloadBytes = len(rec.Payload)
	} else if len(rec.Payload) != 0 {
		return nil, fmt.Errorf("durable: %s record carries a payload", rec.Type)
	}
	capHint := len(b) + 64 + len(rec.Client) + len(rec.Token) + len(rec.Payload)
	for _, p := range rec.Participants {
		capHint += 2 + len(p)
	}
	for name, m := range rec.Weights {
		capHint += 2 + len(name) + 16 + 8*m.Rows()*m.Cols()
	}
	// Reject obviously oversized payloads before allocating for them; the
	// exact cap check on the encoded length below still governs records
	// near the limit.
	if capHint-len(b) > maxRecordSize+64 {
		return nil, fmt.Errorf("%w: ~%d bytes", ErrRecordTooLarge, capHint-len(b))
	}
	if cap(b) < capHint {
		nb := make([]byte, len(b), capHint)
		copy(nb, b)
		b = nb
	}
	start := len(b)
	b = append(b, byte(rec.Type))
	b = binary.LittleEndian.AppendUint32(b, uint32(rec.Round))
	var err error
	if b, err = appendString(b, rec.Client); err != nil {
		return nil, err
	}
	if b, err = appendString(b, rec.Token); err != nil {
		return nil, err
	}
	if rec.NumSamples < 0 || rec.NumSamples > math.MaxInt32 ||
		payloadBytes < 0 || payloadBytes > math.MaxInt32 {
		return nil, fmt.Errorf("durable: update counters out of range")
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(rec.NumSamples))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(rec.TrainLoss))
	b = binary.LittleEndian.AppendUint32(b, uint32(payloadBytes))
	if len(rec.Participants) > maxListLen {
		return nil, fmt.Errorf("durable: %d participants exceeds cap", len(rec.Participants))
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(rec.Participants)))
	for _, p := range rec.Participants {
		if b, err = appendString(b, p); err != nil {
			return nil, err
		}
	}
	if len(rec.Weights) > maxListLen {
		return nil, fmt.Errorf("durable: %d weight entries exceeds cap", len(rec.Weights))
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(rec.Weights)))
	names := make([]string, 0, len(rec.Weights))
	for name := range rec.Weights {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if b, err = appendString(b, name); err != nil {
			return nil, err
		}
		// The matrix wire format from tensor.Matrix.WriteTo (u64 rows,
		// u64 cols, f64 data, all little-endian), packed in place: the
		// capacity is already reserved, so the data lands in the buffer
		// with no per-matrix temporary.
		m := rec.Weights[name]
		b = binary.LittleEndian.AppendUint64(b, uint64(m.Rows()))
		b = binary.LittleEndian.AppendUint64(b, uint64(m.Cols()))
		data := m.Data()
		off := len(b)
		if cap(b)-off < 8*len(data) {
			nb := make([]byte, off, off+8*len(data))
			copy(nb, b)
			b = nb
		}
		b = b[:off+8*len(data)]
		for i, v := range data {
			binary.LittleEndian.PutUint64(b[off+i*8:], math.Float64bits(v))
		}
	}
	b = append(b, rec.Payload...)
	if len(b)-start > maxRecordSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, len(b)-start)
	}
	return b, nil
}

// decodeRecord parses one record body produced by encodeRecord. It never
// panics on corrupt input: every read is bounds-checked and every count
// capped before allocation (the fuzz target drives this directly).
func decodeRecord(body []byte) (*Record, error) { return parseRecord(body, true) }

// scanRecord is decodeRecord without the weight map: the body passes
// exactly the same checks, but the matrices are walked instead of
// materialized and Weights stays nil. Replay scans every record and
// decodes only the few a restart needs.
func scanRecord(body []byte) (*Record, error) { return parseRecord(body, false) }

func parseRecord(body []byte, withWeights bool) (*Record, error) {
	if len(body) > maxRecordSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, len(body))
	}
	r := wire.NewReader(body)
	t, round := r.U8(), r.U32()
	rec := &Record{Type: RecordType(t), Client: str(r), Token: str(r)}
	ns, lossBits, pb := r.U32(), r.U64(), r.U32()
	np := int(r.U16())
	for i := 0; i < np && r.Err() == nil; i++ {
		rec.Participants = append(rec.Participants, str(r))
	}
	nw := int(r.U16())
	if err := r.Err(); err != nil {
		return nil, err
	}
	switch {
	case rec.Type < RecSession || rec.Type > RecUpdatePayload:
		return nil, fmt.Errorf("durable: unknown record type %d", t)
	case round > math.MaxInt32:
		return nil, fmt.Errorf("durable: round %d out of range", round)
	case ns > math.MaxInt32:
		return nil, fmt.Errorf("durable: sample count %d out of range", ns)
	case pb > math.MaxInt32:
		return nil, fmt.Errorf("durable: payload bytes %d out of range", pb)
	case nw > 0 && rec.Type == RecUpdatePayload:
		return nil, fmt.Errorf("durable: %s record carries decoded weights", rec.Type)
	}
	rec.Round, rec.NumSamples, rec.PayloadBytes = int(round), int(ns), int(pb)
	rec.TrainLoss = math.Float64frombits(lossBits)
	if nw > 0 && withWeights {
		rec.Weights = make(map[string]*tensor.Matrix, nw)
	}
	var seen map[string]struct{}
	if nw > 0 {
		seen = make(map[string]struct{}, nw)
	}
	for i := 0; i < nw; i++ {
		name := str(r)
		rows, cols, data := matrix(r)
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("durable: decode weight %q: %w", name, err)
		}
		if _, dup := seen[name]; dup {
			return nil, fmt.Errorf("durable: duplicate weight %q", name)
		}
		seen[name] = struct{}{}
		if !withWeights {
			continue
		}
		m := tensor.New(rows, cols)
		vals := m.Data()
		for j := range vals {
			vals[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[j*8:]))
		}
		rec.Weights[name] = m
	}
	if rec.Type == RecUpdatePayload {
		// Next bounds the claimed length by the bytes actually present, so
		// a forged header never sizes an allocation; the payload is not
		// copied at all.
		rec.Payload = r.Next(rec.PayloadBytes)
		if err := r.Err(); err != nil {
			return nil, err
		}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("durable: %d trailing bytes after record", r.Len())
	}
	return rec, nil
}

// appendString appends a u16-length-prefixed string, enforcing the cap.
func appendString(b []byte, s string) ([]byte, error) {
	if len(s) > maxNameLen {
		return nil, fmt.Errorf("durable: string length %d exceeds cap", len(s))
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...), nil
}

// str reads a u16-length-prefixed string, enforcing the cap.
func str(r *wire.Reader) string {
	n := int(r.U16())
	if n > maxNameLen {
		r.Fail(fmt.Errorf("durable: string length %d exceeds cap", n))
	}
	return string(r.Next(n))
}

// maxMatrixDim bounds each dimension of a logged matrix: a record body is
// at most maxRecordSize, so no matrix in it holds more f64 elements than
// this — and capping both dimensions keeps their product from overflowing.
const maxMatrixDim = maxRecordSize / 8

// matrix reads one matrix in the tensor wire format (u64 rows, u64 cols,
// rows*cols little-endian f64) and returns its shape and its data bytes,
// still encoded: the element count is bounded by the bytes present before
// anything is sized from it. The results hold only while r.Err() is nil.
func matrix(r *wire.Reader) (rows, cols int, data []byte) {
	rw, cl := r.U64(), r.U64()
	if rw > maxMatrixDim || cl > maxMatrixDim || rw*cl > maxMatrixDim {
		r.Fail(fmt.Errorf("durable: implausible dimensions %dx%d", rw, cl))
	}
	return int(rw), int(cl), r.Next(int(rw * cl * 8))
}
