package server

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"github.com/densitymountain/edmstream"
)

// onePointRecord builds a one-point WAL batch record with the given
// kind and dimension or token count, followed by tail.
func onePointRecord(kind byte, n uint32, tail ...byte) []byte {
	rec := []byte{batchRecordVersion}
	rec = binary.LittleEndian.AppendUint32(rec, 1)
	rec = append(rec, make([]byte, 24)...) // id, time, label
	rec = append(rec, kind)
	rec = binary.LittleEndian.AppendUint32(rec, n)
	return append(rec, tail...)
}

// batchRecordSeeds returns one WAL batch record per input class the
// decoder distinguishes.
func batchRecordSeeds() [][]byte {
	valid := encodeBatchRecord([]edmstream.Point{
		{ID: 1, Vector: []float64{1.5, -2.25}, Label: 3, Time: 0.75},
		{ID: 2, Tokens: edmstream.NewTokenSet("b", "a"), Label: edmstream.NoLabel, Time: 1},
	})
	wrongVersion := append([]byte(nil), valid...)
	wrongVersion[0] = batchRecordVersion + 1
	hugeCount := []byte{batchRecordVersion}
	hugeCount = binary.LittleEndian.AppendUint32(hugeCount, math.MaxUint32)
	return [][]byte{
		valid,
		encodeBatchRecord(nil), // empty batch
		wrongVersion,
		valid[:3],            // truncated header
		valid[:len(valid)-1], // truncated point
		hugeCount,            // count past the bytes left
		onePointRecord(pointKindVector, 1_000_000, make([]byte, 8)...),    // dimension past the bytes left
		onePointRecord(pointKindTokens, 0x01000000, 2, 0, 0, 0, 'a', 'b'), // the 40-byte token record
		onePointRecord(pointKindTokens, 1, 100, 0, 0, 0, 'a', 'b'),        // token length past the bytes left
		onePointRecord(7, 0),                     // unknown point kind
		append(append([]byte(nil), valid...), 0), // trailing garbage
		encodeBatchRecord([]edmstream.Point{ // minimal points, at the count bound
			{ID: 1, Vector: []float64{}},
			{ID: 2, Tokens: edmstream.NewTokenSet()},
		}),
	}
}

// FuzzDecodeBatchRecord: the WAL batch decoder never panics, and any
// payload it accepts survives an encode/decode round trip unchanged.
func FuzzDecodeBatchRecord(f *testing.F) {
	for _, seed := range batchRecordSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		pts, err := decodeBatchRecord(payload)
		if err != nil {
			return
		}
		again, err := decodeBatchRecord(encodeBatchRecord(pts))
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v", err)
		}
		if len(again) != len(pts) {
			t.Fatalf("round trip gave %d points, want %d", len(again), len(pts))
		}
		for i := range pts {
			if !samePoint(pts[i], again[i]) {
				t.Fatalf("point %d changed in the round trip:\n  %+v\n  %+v", i, pts[i], again[i])
			}
		}
	})
}

// samePoint compares points field by field, floats by their bits so a
// NaN coordinate or timestamp equals itself.
func samePoint(p, q edmstream.Point) bool {
	if p.ID != q.ID || p.Label != q.Label || math.Float64bits(p.Time) != math.Float64bits(q.Time) {
		return false
	}
	if (p.Vector == nil) != (q.Vector == nil) || len(p.Vector) != len(q.Vector) {
		return false
	}
	for i := range p.Vector {
		if math.Float64bits(p.Vector[i]) != math.Float64bits(q.Vector[i]) {
			return false
		}
	}
	if (p.Tokens == nil) != (q.Tokens == nil) || p.Tokens.Len() != q.Tokens.Len() {
		return false
	}
	for tok := range p.Tokens {
		if !q.Tokens.Contains(tok) {
			return false
		}
	}
	return true
}

// FuzzDecodePoints: the ingest and assign body decoder never panics,
// and a body it accepts yields at most maxPoints points (when bounded),
// each of which passes Validate.
func FuzzDecodePoints(f *testing.F) {
	seeds := []struct {
		body string
		max  uint8
	}{
		{`[{"vector":[1,2],"time":0.5,"id":7,"label":1},{"tokens":["a","b"]}]`, 0}, // JSON array
		{"{\"vector\":[1,2]}\n{\"vector\":[3,4],\"time\":2}\n", 0},                 // NDJSON
		{`[]`, 0},
		{``, 0},                                // empty body
		{`42`, 0},                              // neither array nor object
		{`[{"vector":[1],"color":"red"}]`, 0},  // unknown field
		{`{"vector":[1],"color":"red"}`, 0},    // unknown field in the first NDJSON object
		{`[{"vector":[1],"tokens":["a"]}]`, 0}, // both vector and tokens
		{`[{"vector":[]}]`, 0},                 // zero-dimension vector
		{`[{"vector":[1],"time":-1}]`, 0},      // negative timestamp
		{`[{"vector":[1]},{"vector":[2]},{"vector":[3]}]`, 2}, // too many points
		{`[{"vector":[1]}] trailing`, 0},                      // trailing garbage after the array
		{`[{"vector":[1]}][{"vector":[2]}]`, 0},               // a second array after the first
		{"{\"vector\":[1]}\n{\"vector\":", 0},                 // truncated NDJSON
	}
	for _, s := range seeds {
		f.Add([]byte(s.body), s.max)
	}
	f.Fuzz(func(t *testing.T, body []byte, max uint8) {
		maxPoints := int(max % 8)
		pts, err := decodePoints(bytes.NewReader(body), 1.5, maxPoints)
		if err != nil {
			return
		}
		if maxPoints > 0 && len(pts) > maxPoints {
			t.Fatalf("accepted %d points with maxPoints %d", len(pts), maxPoints)
		}
		for i, p := range pts {
			if err := p.Validate(); err != nil {
				t.Fatalf("accepted point %d fails Validate: %v", i, err)
			}
		}
	})
}
