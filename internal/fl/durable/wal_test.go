package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"clinfl/internal/metrics"
	"clinfl/internal/tensor"
)

func testWeights(seed float64) map[string]*tensor.Matrix {
	return map[string]*tensor.Matrix{
		"w": tensor.MustFromSlice(2, 2, []float64{seed, seed + 0.5, -seed, math.Pi * seed}),
		"b": tensor.MustFromSlice(1, 2, []float64{seed * 10, 0}),
	}
}

func weightsEqual(a, b map[string]*tensor.Matrix) bool {
	if len(a) != len(b) {
		return false
	}
	for k, m := range a {
		o, ok := b[k]
		if !ok || !m.Equal(o) {
			return false
		}
	}
	return true
}

func TestRecordRoundTripAllTypes(t *testing.T) {
	recs := []*Record{
		{Type: RecSession, Client: "hospital-a", Token: "tok-123"},
		{Type: RecRoundOpen, Round: 7},
		{Type: RecTaskAssigned, Round: 7, Client: "hospital-a"},
		{Type: RecUpdate, Round: 7, Client: "hospital-a", NumSamples: 128,
			TrainLoss: 0.731, PayloadBytes: 4096, Weights: testWeights(1)},
		{Type: RecRoundFinal, Round: 7, Participants: []string{"hospital-a", "hospital-b"}},
		{Type: RecModelCommit, Round: 7, Weights: testWeights(2)},
		{Type: RecHealth, Round: 8, Client: "hospital-b", Token: "quarantined"},
		{Type: RecUpdatePayload, Round: 7, Client: "hospital-b", NumSamples: 64,
			TrainLoss: 0.5, PayloadBytes: 5, Payload: []byte("CFI8\x01")},
	}
	for _, rec := range recs {
		body, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("encode %s: %v", rec.Type, err)
		}
		got, err := decodeRecord(body)
		if err != nil {
			t.Fatalf("decode %s: %v", rec.Type, err)
		}
		if got.Type != rec.Type || got.Round != rec.Round || got.Client != rec.Client ||
			got.Token != rec.Token || got.NumSamples != rec.NumSamples ||
			got.TrainLoss != rec.TrainLoss || got.PayloadBytes != rec.PayloadBytes {
			t.Fatalf("%s: scalar fields mismatch: %+v vs %+v", rec.Type, got, rec)
		}
		if len(got.Participants) != len(rec.Participants) {
			t.Fatalf("%s: participants %v vs %v", rec.Type, got.Participants, rec.Participants)
		}
		for i := range rec.Participants {
			if got.Participants[i] != rec.Participants[i] {
				t.Fatalf("%s: participant %d mismatch", rec.Type, i)
			}
		}
		if rec.Weights != nil && !weightsEqual(got.Weights, rec.Weights) {
			t.Fatalf("%s: weights mismatch", rec.Type)
		}
		if !bytes.Equal(got.Payload, rec.Payload) {
			t.Fatalf("%s: payload %q, want %q", rec.Type, got.Payload, rec.Payload)
		}
		// The scan applies the same checks and keeps everything but the
		// weights.
		scanned, err := scanRecord(body)
		if err != nil {
			t.Fatalf("scan %s: %v", rec.Type, err)
		}
		if scanned.Weights != nil || scanned.Client != rec.Client || scanned.PayloadBytes != rec.PayloadBytes {
			t.Fatalf("%s: scanned %+v", rec.Type, scanned)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	rec := &Record{Type: RecModelCommit, Round: 3, Weights: testWeights(4)}
	a, err := encodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := encodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same record encoded to different bytes")
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	valid, err := encodeRecord(&Record{Type: RecUpdate, Round: 1, Client: "c",
		NumSamples: 1, Weights: testWeights(1)})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := encodeRecord(&Record{Type: RecUpdatePayload, Round: 1, Client: "c",
		NumSamples: 1, Payload: []byte("0123456789")})
	if err != nil {
		t.Fatal(err)
	}
	// The payload length is the u32 before the two (zero) u16 list counts
	// that end the fixed header; the 10 payload bytes follow them.
	lenAt := len(payload) - 10 - 4 - 4
	if got := binary.LittleEndian.Uint32(payload[lenAt:]); got != 10 {
		t.Fatalf("payload length field at %d holds %d, want 10", lenAt, got)
	}
	overclaim := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint32(overclaim[lenAt:], math.MaxInt32) // claims 2 GiB, holds 10 bytes
	withWeights := append([]byte(nil), valid...)
	withWeights[0] = byte(RecUpdatePayload) // a payload record may not carry a weight map
	cases := map[string][]byte{
		"empty":                  {},
		"unknown type":           {0xFF, 0, 0, 0, 0},
		"type past the last":     append([]byte{byte(RecUpdatePayload) + 1}, valid[1:]...),
		"truncated":              valid[:len(valid)-3],
		"trailing bytes":         append(append([]byte(nil), valid...), 0xAB),
		"payload truncated":      payload[:len(payload)-3],
		"payload trailing bytes": append(append([]byte(nil), payload...), 0xAB),
		"payload overclaimed":    overclaim,
		"payload with weights":   withWeights,
	}
	for name, body := range cases {
		if _, err := decodeRecord(body); err == nil {
			t.Errorf("%s: decode accepted malformed body", name)
		}
		if _, err := scanRecord(body); err == nil {
			t.Errorf("%s: scan accepted malformed body", name)
		}
	}
	// A decoded payload is a view of the body, so no length a header can
	// claim ever sizes a buffer.
	rec, err := decodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if &rec.Payload[0] != &payload[len(payload)-10] {
		t.Error("decoded payload was copied out of the record body")
	}
}

func TestWALAppendReopenReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fl.wal")
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := w.Recovered()
	if st.LastRound != -1 || st.Open != nil || len(st.Sessions) != 0 || st.Torn {
		t.Fatalf("fresh WAL state: %+v", st)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.AppendSession("a", "tok-a"))
	must(w.AppendSession("b", "tok-b"))
	must(w.AppendRoundOpen(0))
	must(w.AppendTaskAssigned(0, "a"))
	must(w.AppendTaskAssigned(0, "b"))
	must(w.AppendUpdate(0, "a", 10, 0.5, 100, testWeights(1)))
	must(w.AppendUpdate(0, "b", 20, 0.4, 200, testWeights(2)))
	must(w.AppendRoundFinal(0, []string{"a", "b"}))
	committed := testWeights(3)
	must(w.AppendModelCommit(0, committed))
	// Round 1 crashes mid-gather: open, both tasked, only one update in.
	must(w.AppendRoundOpen(1))
	must(w.AppendTaskAssigned(1, "b"))
	must(w.AppendTaskAssigned(1, "a"))
	must(w.AppendUpdate(1, "a", 10, 0.45, 100, testWeights(4)))
	if w.Appends() != 13 {
		t.Fatalf("appends = %d, want 13", w.Appends())
	}
	// Group commit: the round records are lazy, so the fsync count stays
	// far below the append count — only the durable session appends (and
	// the header) are guaranteed synchronous. Sync is the barrier.
	must(w.Sync())
	if got := w.Fsyncs(); got < 3 {
		t.Fatalf("fsyncs = %d, want >= 3 (header, sessions, barrier)", got)
	}
	must(w.Close())

	reg := metrics.NewRegistry()
	w2, err := Open(path, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	st = w2.Recovered()
	if st.Torn {
		t.Fatal("clean log reported torn")
	}
	if st.Records != 13 {
		t.Fatalf("replayed %d records, want 13", st.Records)
	}
	if got := reg.Counter("wal_replayed_records_total", "").Value(); got != 13 {
		t.Fatalf("replay counter = %d, want 13", got)
	}
	if st.LastRound != 0 || !weightsEqual(st.Weights, committed) {
		t.Fatalf("committed model not recovered: round %d", st.LastRound)
	}
	if st.Sessions["a"] != "tok-a" || st.Sessions["b"] != "tok-b" {
		t.Fatalf("sessions not recovered: %v", st.Sessions)
	}
	if st.Open == nil || st.Open.Round != 1 {
		t.Fatalf("open round not recovered: %+v", st.Open)
	}
	if len(st.Open.Tasked) != 2 || st.Open.Tasked[0] != "a" || st.Open.Tasked[1] != "b" {
		t.Fatalf("tasked set %v, want sorted [a b]", st.Open.Tasked)
	}
	if len(st.Open.Updates) != 1 || st.Open.Updates[0].Client != "a" ||
		st.Open.Updates[0].NumSamples != 10 || !weightsEqual(st.Open.Updates[0].Weights, testWeights(4)) {
		t.Fatalf("open updates %+v", st.Open.Updates)
	}
	// Appending after reopen continues the log.
	must(w2.AppendUpdate(1, "b", 20, 0.35, 200, testWeights(5)))
	must(w2.AppendModelCommit(1, testWeights(6)))
	must(w2.Close())

	w3, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	st = w3.Recovered()
	if st.LastRound != 1 || st.Open != nil {
		t.Fatalf("after commit: LastRound=%d Open=%+v", st.LastRound, st.Open)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fl.wal")
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendSession("a", "tok"); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendRoundOpen(0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	goodSize := fileSize(t, path)
	// Simulate a crash mid-append: half a frame of garbage at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 0xDE, 0xAD}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := w2.Recovered()
	if !st.Torn {
		t.Fatal("torn tail not reported")
	}
	if st.Records != 2 || st.Sessions["a"] != "tok" || st.Open == nil || st.Open.Round != 0 {
		t.Fatalf("intact prefix lost: %+v", st)
	}
	// The tail was truncated and the log accepts fresh appends cleanly.
	if err := w2.AppendTaskAssigned(0, "a"); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if got := fileSize(t, path); got <= goodSize {
		t.Fatalf("file size %d after truncate+append, want > %d", got, goodSize)
	}
	w3, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if st := w3.Recovered(); st.Torn || st.Records != 3 {
		t.Fatalf("post-truncate log not clean: %+v", st)
	}
}

func TestWALCorruptMiddleStopsReplayAtCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fl.wal")
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendSession("a", "tok"); err != nil {
		t.Fatal(err)
	}
	firstEnd := fileSize(t, path)
	if err := w.AppendSession("b", "tok2"); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendSession("c", "tok3"); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// Flip a byte inside the second record's body: CRC must catch it, and
	// replay keeps only the records before it.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[firstEnd+12] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	st := w2.Recovered()
	if !st.Torn || st.Records != 1 || st.Sessions["a"] != "tok" || st.Sessions["b"] != "" {
		t.Fatalf("corrupt-middle replay: %+v", st)
	}
}

func TestWALBadMagicRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a.wal")
	if err := os.WriteFile(path, []byte("GARBAGE\nmore"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); err == nil {
		t.Fatal("Open accepted a non-WAL file")
	}
}

func TestWALNoSyncSkipsFsync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fl.wal")
	w, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.AppendRoundOpen(0); err != nil {
		t.Fatal(err)
	}
	if w.Fsyncs() != 0 {
		t.Fatalf("fsyncs = %d with NoSync", w.Fsyncs())
	}
}

func TestWALOnAppendHook(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fl.wal")
	var seen []int64
	var types []RecordType
	w, err := Open(path, Options{NoSync: true, OnAppend: func(n int64, rec *Record) {
		seen = append(seen, n)
		types = append(types, rec.Type)
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.AppendRoundOpen(0); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendTaskAssigned(0, "a"); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 ||
		types[0] != RecRoundOpen || types[1] != RecTaskAssigned {
		t.Fatalf("hook saw %v %v", seen, types)
	}
}

func TestWALGroupCommitFlushOnClose(t *testing.T) {
	// Lazy round records with no explicit Sync must still be on disk
	// after Close: Close drains the syncer and flushes the tail.
	path := filepath.Join(t.TempDir(), "fl.wal")
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendRoundOpen(0); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendTaskAssigned(0, "a"); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendUpdate(0, "a", 10, 0.5, 100, testWeights(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		// Second Close reports the already-closed file; it must not
		// panic or deadlock. (Error content is os-specific.)
		t.Log("second Close returned nil")
	}
	w2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	st := w2.Recovered()
	if st.Torn || st.Records != 3 || st.Open == nil || st.Open.Round != 0 ||
		len(st.Open.Updates) != 1 {
		t.Fatalf("group-commit tail lost: %+v", st)
	}
}

func TestWALSyncBarrierCoversLazyAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fl.wal")
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	base := w.Fsyncs()
	for i := 0; i < 5; i++ {
		if err := w.AppendTaskAssigned(0, string(rune('a'+i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := w.Fsyncs(); got <= base {
		t.Fatalf("barrier did not fsync (fsyncs %d -> %d)", base, got)
	}
	// A second barrier with nothing new appended is a no-op.
	after := w.Fsyncs()
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := w.Fsyncs(); got != after {
		t.Fatalf("idle barrier fsynced (fsyncs %d -> %d)", after, got)
	}
}

func TestReplayIdempotentMerge(t *testing.T) {
	// A resumed round re-logs RoundOpen/TaskAssigned/Update records for
	// state it already replayed; the merge must dedupe, first update wins.
	r := newReplay()
	apply := func(rec *Record) { r.apply(rec, span{off: int64(rec.NumSamples), n: 1}) }
	apply(&Record{Type: RecRoundOpen, Round: 2})
	apply(&Record{Type: RecTaskAssigned, Round: 2, Client: "b"})
	apply(&Record{Type: RecTaskAssigned, Round: 2, Client: "a"})
	apply(&Record{Type: RecTaskAssigned, Round: 2, Client: "b"})
	apply(&Record{Type: RecUpdate, Round: 2, Client: "a", NumSamples: 5})
	apply(&Record{Type: RecRoundOpen, Round: 2}) // resume re-opens same round
	apply(&Record{Type: RecUpdatePayload, Round: 2, Client: "a", NumSamples: 99})
	apply(&Record{Type: RecUpdatePayload, Round: 2, Client: "b", NumSamples: 7})
	st := r.st
	if st.Open == nil || !slices.Equal(st.Open.Tasked, []string{"a", "b"}) || len(st.Open.Updates) != 2 {
		t.Fatalf("merge failed: %+v", st.Open)
	}
	if st.Open.Updates[0].NumSamples != 5 || st.Open.Updates[1].Client != "b" {
		t.Fatal("duplicate update overwrote the first durable copy")
	}
	if len(r.updates) != 2 || r.updates[0].off != 5 || r.updates[1].off != 7 {
		t.Fatalf("update spans %+v out of step with the updates", r.updates)
	}
	// Stale records for already-committed rounds are ignored.
	apply(&Record{Type: RecModelCommit, Round: 2})
	apply(&Record{Type: RecRoundOpen, Round: 1})
	apply(&Record{Type: RecUpdate, Round: 1, Client: "a"})
	if st.Open != nil || st.LastRound != 2 || len(r.updates) != 0 {
		t.Fatalf("stale round resurrected: %+v", st)
	}
}

// writeRounds appends n committed rounds — two clients each, one logging
// f64 weights and one an uplink payload — and returns the last commit.
func writeRounds(t *testing.T, w *WAL, n int) map[string]*tensor.Matrix {
	t.Helper()
	var committed map[string]*tensor.Matrix
	for round := 0; round < n; round++ {
		committed = testWeights(float64(100 + round))
		for _, err := range []error{
			w.AppendRoundOpen(round),
			w.AppendTaskAssigned(round, "a"),
			w.AppendTaskAssigned(round, "b"),
			w.AppendUpdate(round, "a", 10, 0.5, 100, testWeights(float64(round))),
			w.AppendUpdatePayload(round, "b", 20, 0.4, []byte("payload")),
			w.AppendRoundFinal(round, []string{"a", "b"}),
			w.AppendModelCommit(round, committed),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return committed
}

func TestWALPayloadUpdatesRecoveredVerbatim(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fl.wal")
	reg := metrics.NewRegistry()
	w, err := Open(path, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	committed := writeRounds(t, w, 2)
	payload := []byte("CFI8\x01 not really int8, the WAL does not care")
	for _, err := range []error{
		w.AppendRoundOpen(2),
		w.AppendTaskAssigned(2, "a"),
		w.AppendTaskAssigned(2, "b"),
		w.AppendUpdatePayload(2, "b", 20, 0.25, payload),
		w.AppendUpdate(2, "a", 10, 0.5, 100, testWeights(9)),
		w.Close(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got, want := reg.Counter("wal_bytes_written_total", "").Value(), fileSize(t, path)-int64(len(walMagic)); got != want {
		t.Fatalf("wal_bytes_written_total = %d, want the %d bytes of records in the file", got, want)
	}

	w2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	st := w2.Recovered()
	if st.Torn || st.LastRound != 1 || !weightsEqual(st.Weights, committed) {
		t.Fatalf("committed state: %+v", st)
	}
	if st.Open == nil || st.Open.Round != 2 || len(st.Open.Updates) != 2 {
		t.Fatalf("open round: %+v", st.Open)
	}
	// Arrival order, each update in the form its record kind logged.
	b, a := st.Open.Updates[0], st.Open.Updates[1]
	if b.Client != "b" || b.Weights != nil || !bytes.Equal(b.Payload, payload) ||
		b.PayloadBytes != len(payload) || b.NumSamples != 20 || b.TrainLoss != 0.25 {
		t.Fatalf("payload update: %+v", b)
	}
	if a.Client != "a" || a.Payload != nil || !weightsEqual(a.Weights, testWeights(9)) {
		t.Fatalf("f64 update: %+v", a)
	}
}

func TestReplayDecodesOnlyWhatARestartNeeds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fl.wal")
	w, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 6
	committed := writeRounds(t, w, rounds)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	scan := func() (*replay, *os.File) {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		r, err := scanFile(f, fileSize(t, path))
		if err != nil {
			t.Fatal(err)
		}
		return r, f
	}
	// The work list the scan leaves behind is everything replay will ever
	// decode: of 6 commits and 12 updates, one commit and no update.
	r, f := scan()
	if r.st.Records != rounds*7 || r.st.LastRound != rounds-1 || r.st.Open != nil {
		t.Fatalf("scan state: %+v", r.st)
	}
	if r.st.Weights != nil {
		t.Fatal("scan materialized a model commit")
	}
	if r.commit.n == 0 || len(r.updates) != 0 {
		t.Fatalf("scan scheduled commit %+v and %d updates for decode, want the last commit and none", r.commit, len(r.updates))
	}
	if err := r.materialize(f); err != nil {
		t.Fatal(err)
	}
	if !weightsEqual(r.st.Weights, committed) {
		t.Fatal("materialized model is not the last commit")
	}

	// With a round left open, exactly its updates join the list.
	w, err = Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{
		w.AppendRoundOpen(rounds),
		w.AppendTaskAssigned(rounds, "a"),
		w.AppendUpdatePayload(rounds, "a", 1, 0, []byte("open")),
		w.Close(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if r, _ = scan(); r.commit.n == 0 || len(r.updates) != 1 || r.st.Open == nil {
		t.Fatalf("scan of an open round scheduled commit %+v and %d updates", r.commit, len(r.updates))
	}
}

func TestWALV1LogReplaysAndIsStampedV2(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fl.wal")
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{
		w.AppendSession("a", "tok-a"),
		w.AppendRoundOpen(0),
		w.AppendTaskAssigned(0, "a"),
		w.AppendTaskAssigned(0, "b"),
		w.AppendUpdate(0, "a", 10, 0.5, 100, testWeights(1)),
		w.Close(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Every record kind written above predates v2, so re-stamping the
	// header yields exactly the file a pre-v2 binary would have left.
	magicOf := func() string {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw[:len(walMagic)])
	}
	if magicOf() != walMagic {
		t.Fatalf("fresh log magic %q, want %q", magicOf(), walMagic)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte(walMagicV1), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("v1 log rejected: %v", err)
	}
	st := w2.Recovered()
	if st.Torn || st.Records != 5 || st.Sessions["a"] != "tok-a" || st.Open == nil ||
		len(st.Open.Updates) != 1 || !weightsEqual(st.Open.Updates[0].Weights, testWeights(1)) {
		t.Fatalf("v1 replay: %+v", st)
	}
	// Stamped before any payload record can be appended: a pre-v2 binary
	// now stops at the magic instead of truncating what it cannot parse.
	if magicOf() != walMagic {
		t.Fatalf("reopened v1 log still carries magic %q", magicOf())
	}
	if err := w2.AppendUpdatePayload(0, "b", 20, 0.4, []byte("uplink")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	w3, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if st := w3.Recovered(); st.Torn || st.Records != 6 || len(st.Open.Updates) != 2 ||
		string(st.Open.Updates[1].Payload) != "uplink" {
		t.Fatalf("mixed-kind replay: %+v", st)
	}
}

func TestWALTornInsideMagicStartsOver(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fl.wal")
	if err := os.WriteFile(path, []byte(walMagic[:3]), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := w.Recovered(); !st.Torn || st.Records != 0 {
		t.Fatalf("state: %+v", st)
	}
	if err := w.AppendRoundOpen(0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("log restarted after a torn header does not reopen: %v", err)
	}
	defer w2.Close()
	if st := w2.Recovered(); st.Torn || st.Records != 1 {
		t.Fatalf("state after restart: %+v", st)
	}
}

// TestReplayFrameLengthBoundedByFile pins that a torn frame header cannot
// size an allocation: the tail of a tiny log claims a 64 MiB body, and
// replay must call it torn from the file size alone.
func TestReplayFrameLengthBoundedByFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fl.wal")
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendRoundOpen(0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	good := fileSize(t, path)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var tail [frameHeaderLen + 4]byte
	binary.LittleEndian.PutUint32(tail[0:4], maxRecordSize)
	if _, err := f.Write(tail[:]); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := scanFile(f, fileSize(t, path))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if r.good != good || r.st.Records != 1 {
		t.Fatalf("scan stopped at %d after %d records, want %d after 1", r.good, r.st.Records, good)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("scanning a %d-byte log allocated %d bytes", fileSize(t, path), grew)
	}
}

// TestReplayLargeOpenRound replays an open round of 20k clients, tasked
// and heard from in scrambled order. Per-record work that scans the
// round's client lists makes this quadratic (minutes); the bound is far
// above what a linearithmic replay needs.
func TestReplayLargeOpenRound(t *testing.T) {
	const clients = 20000
	path := filepath.Join(t.TempDir(), "fl.wal")
	w, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendRoundOpen(0); err != nil {
		t.Fatal(err)
	}
	name := func(i int) string { return fmt.Sprintf("site-%05d", i*7919%clients) } // 7919 is coprime to 20000: a permutation
	for i := 0; i < clients; i++ {
		if err := w.AppendTaskAssigned(0, name(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := clients - 1; i >= 0; i-- {
		if err := w.AppendUpdatePayload(0, name(i), i, 0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	w2, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("replaying a %d-client open round took %v", clients, took)
	}
	open := w2.Recovered().Open
	if open == nil || len(open.Tasked) != clients || len(open.Updates) != clients {
		t.Fatalf("open round: %d tasked, %d updates", len(open.Tasked), len(open.Updates))
	}
	if !slices.IsSorted(open.Tasked) || open.Tasked[0] != "site-00000" || open.Tasked[clients-1] != "site-19999" {
		t.Fatal("tasked set not sorted")
	}
	for i, u := range open.Updates {
		if want := clients - 1 - i; u.Client != name(want) || u.NumSamples != want || len(u.Payload) != 1 {
			t.Fatalf("update %d is %+v, want client %s: arrival order lost", i, u, name(want))
		}
	}
}

func TestWALHealthReplayLastWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fl.wal")
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendHealth(2, "c1", "quarantined"); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendHealth(3, "c2", "quarantined"); err != nil {
		t.Fatal(err)
	}
	// c2 rejoined two rounds later; the replayed view must not keep it
	// quarantined.
	if err := w.AppendHealth(5, "c2", "healthy"); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st := r.Recovered()
	if st.Health["c1"] != "quarantined" {
		t.Fatalf("c1 health %q, want quarantined", st.Health["c1"])
	}
	if st.Health["c2"] != "healthy" {
		t.Fatalf("c2 health %q, want healthy (last record wins)", st.Health["c2"])
	}
}

func TestEncodeCapsEnforced(t *testing.T) {
	long := make([]byte, maxNameLen+1)
	for i := range long {
		long[i] = 'x'
	}
	if _, err := encodeRecord(&Record{Type: RecSession, Client: string(long)}); err == nil {
		t.Fatal("oversized client name accepted")
	}
	if _, err := encodeRecord(&Record{Type: RecRoundOpen, Round: -1}); err == nil {
		t.Fatal("negative round accepted")
	}
	if _, err := encodeRecord(&Record{Type: RecUpdate, NumSamples: -1}); err == nil {
		t.Fatal("negative sample count accepted")
	}
	// A weight map larger than the record cap must fail encode, not OOM.
	big := map[string]*tensor.Matrix{"w": tensor.New(3000, 3000)} // 72 MB > 64 MiB
	if _, err := encodeRecord(&Record{Type: RecModelCommit, Weights: big}); err == nil {
		t.Fatal("oversized record accepted")
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
