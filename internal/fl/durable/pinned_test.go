package durable

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"testing"

	"clinfl/internal/tensor"
	"clinfl/internal/wire"
)

// pinnedRecords is one record of each kind. The weights carry the bit
// patterns a careless encoder would normalize: subnormals, both zeros and
// two NaN payloads.
func pinnedRecords() []*Record {
	odd := func() map[string]*tensor.Matrix {
		return map[string]*tensor.Matrix{
			"w": tensor.MustFromSlice(2, 3, []float64{
				math.SmallestNonzeroFloat64, 0, math.Copysign(0, -1),
				math.NaN(), math.Float64frombits(0x7ff8_0000_dead_beef), -2.5e-310,
			}),
			"b": tensor.MustFromSlice(1, 2, []float64{math.MaxFloat64, -1.0 / 3}),
		}
	}
	return []*Record{
		{Type: RecSession, Client: "hospital-a", Token: "tok-123"},
		{Type: RecRoundOpen, Round: 7},
		{Type: RecTaskAssigned, Round: 7, Client: "hospital-a"},
		{Type: RecUpdate, Round: 7, Client: "hospital-a", NumSamples: 128,
			TrainLoss: 0.731, PayloadBytes: 4096, Weights: odd()},
		{Type: RecRoundFinal, Round: 7, Participants: []string{"hospital-a", "hospital-b", ""}},
		{Type: RecModelCommit, Round: 7, Weights: odd()},
		{Type: RecHealth, Round: 8, Client: "hospital-b", Token: "quarantined"},
		{Type: RecUpdatePayload, Round: 9, Client: "hospital-b", NumSamples: 64,
			TrainLoss: math.Inf(1), Payload: []byte("CFLI1\n\x01\x02")},
	}
}

// TestRecordEncodingPinned pins the record body bytes of every kind, so a
// change to the encoder or the layout shows up here and not only as a WAL
// size drift in the benchmark. Every body cut short fails as a truncation.
func TestRecordEncodingPinned(t *testing.T) {
	want := map[RecordType]string{
		RecSession:       "979ce6f6d3a1fea9ec940a2fc007d33ed29f586178d2107667da0fe69ab45445",
		RecRoundOpen:     "d42ba7e0d81aea879982e2733e38d27ff263caf84bef2c64ce06289ffea18cfb",
		RecTaskAssigned:  "18909f944590b2d9b07c8bf3129509793e81bd105f855f0517665c07791a03de",
		RecUpdate:        "52d3a74df939283ae15b1cb8919b3f85414fe89aaded02586f80e42822678402",
		RecRoundFinal:    "e5a4afeee873fa1e968c1d6745ad3be452bdda7981349d362dbe2478c6024e4f",
		RecModelCommit:   "c20077cb6b6777411e44cf97d26fe6824b6748066f3f2bfdcca3350895ad97ee",
		RecHealth:        "2a1b06d4861f0dc81b8960f5beab413a98f07d5dfb341e10155e77d0900d95ba",
		RecUpdatePayload: "65e243751bcd2d343c8401f4ceb811a46a91e3fcf0c9a37f192f2bb872cb12e8",
	}
	for _, rec := range pinnedRecords() {
		body, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("encode %s: %v", rec.Type, err)
		}
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); got != want[rec.Type] {
			t.Errorf("%s body sha256 %s (%d bytes), want %s", rec.Type, got, len(body), want[rec.Type])
		}
		for i := range body {
			for _, parse := range []func([]byte) (*Record, error){decodeRecord, scanRecord} {
				if _, err := parse(body[:i]); !errors.Is(err, wire.ErrTruncated) {
					t.Fatalf("%s prefix of %d/%d bytes: err = %v, want wire.ErrTruncated", rec.Type, i, len(body), err)
				}
			}
		}
	}
}
