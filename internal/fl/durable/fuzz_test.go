package durable

import (
	"bytes"
	"testing"

	"clinfl/internal/tensor"
)

// FuzzDecodeRecord drives the WAL record decoder with arbitrary bytes.
// The decoder must never panic and never allocate beyond its caps; on
// valid input, a decode→encode→decode round trip must be stable.
func FuzzDecodeRecord(f *testing.F) {
	seedRecords := []*Record{
		{Type: RecSession, Client: "clinic", Token: "tok-1"},
		{Type: RecRoundOpen, Round: 12},
		{Type: RecTaskAssigned, Round: 12, Client: "clinic"},
		{Type: RecUpdate, Round: 12, Client: "clinic", NumSamples: 64, TrainLoss: 0.25,
			PayloadBytes: 512, Weights: map[string]*tensor.Matrix{
				"w": tensor.MustFromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6}),
			}},
		{Type: RecRoundFinal, Round: 12, Participants: []string{"clinic", "lab"}},
		{Type: RecModelCommit, Round: 12, Weights: map[string]*tensor.Matrix{
			"b": tensor.MustFromSlice(1, 1, []float64{-0.5}),
		}},
		{Type: RecHealth, Round: 12, Client: "clinic", Token: "quarantined"},
		{Type: RecUpdatePayload, Round: 12, Client: "clinic", NumSamples: 64, TrainLoss: 0.25,
			Payload: []byte("CFI8\x01\x00\x00\x00\x01w\x00\x00\x00\x01\x00\x00\x00\x01?\x80\x00\x00\x7f")},
		{Type: RecUpdatePayload, Round: 13, Client: "lab"}, // empty payload
	}
	for _, rec := range seedRecords {
		body, err := encodeRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, body []byte) {
		rec, err := decodeRecord(body)
		// Replay trusts the scan to accept exactly what a later full decode
		// accepts.
		if scanned, serr := scanRecord(body); (serr == nil) != (err == nil) {
			t.Fatalf("scan and decode disagree: scan %v, decode %v", serr, err)
		} else if err == nil && (scanned.Type != rec.Type || scanned.Round != rec.Round ||
			scanned.Client != rec.Client || !bytes.Equal(scanned.Payload, rec.Payload)) {
			t.Fatalf("scan read %+v, decode %+v", scanned, rec)
		}
		if err != nil {
			return
		}
		if rec.Type == RecUpdatePayload && (rec.PayloadBytes != len(rec.Payload) || len(rec.Weights) != 0) {
			t.Fatalf("payload record decoded inconsistent: %d payload bytes claimed, %d held, %d weights",
				rec.PayloadBytes, len(rec.Payload), len(rec.Weights))
		}
		re, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("re-encode of decoded record failed: %v", err)
		}
		rec2, err := decodeRecord(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if rec2.Type != rec.Type || rec2.Round != rec.Round || rec2.Client != rec.Client ||
			!bytes.Equal(rec2.Payload, rec.Payload) {
			t.Fatalf("round trip not stable: %+v vs %+v", rec2, rec)
		}
	})
}
