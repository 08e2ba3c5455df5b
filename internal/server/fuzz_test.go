package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// wirePoint is the encoding/json form of one point object, the oracle
// parsePoints must agree with.
type wirePoint struct {
	ID     *int64    `json:"id,omitempty"`
	Vector []float64 `json:"vector,omitempty"`
	Tokens []string  `json:"tokens,omitempty"`
	Time   *float64  `json:"time,omitempty"`
	Label  *int      `json:"label,omitempty"`
}

// decodePointsJSON decodes a request body with encoding/json: a JSON
// array through the token API, or NDJSON with every object through
// Decode. It is the reference behaviour for parsePoints.
func decodePointsJSON(body []byte, now float64, maxPoints int) ([]edmstream.Point, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()

	var pts []edmstream.Point
	add := func(w wirePoint) error {
		if w.Vector != nil && w.Tokens != nil {
			return fmt.Errorf("point %d: has both vector and tokens", len(pts))
		}
		if w.Tokens == nil && len(w.Vector) == 0 {
			return fmt.Errorf("point %d: vector must have at least one coordinate", len(pts))
		}
		p := edmstream.Point{Label: edmstream.NoLabel, Time: now}
		if w.ID != nil {
			p.ID = *w.ID
		}
		if w.Time != nil {
			p.Time = *w.Time
		}
		if w.Label != nil {
			p.Label = *w.Label
		}
		if w.Tokens != nil {
			p.Tokens = edmstream.NewTokenSet(w.Tokens...)
		} else {
			p.Vector = w.Vector
		}
		if err := p.Validate(); err != nil {
			return fmt.Errorf("point %d: %w", len(pts), err)
		}
		if maxPoints > 0 && len(pts) >= maxPoints {
			return fmt.Errorf("too many points in one request (max %d)", maxPoints)
		}
		pts = append(pts, p)
		return nil
	}

	start := bytes.TrimLeft(body, " \t\r\n")
	switch {
	case len(start) == 0:
		return nil, errors.New("empty request body")
	case start[0] == '[':
		if _, err := dec.Token(); err != nil {
			return nil, err
		}
		for dec.More() {
			var w wirePoint
			if err := dec.Decode(&w); err != nil {
				return nil, fmt.Errorf("point %d: %w", len(pts), err)
			}
			if err := add(w); err != nil {
				return nil, err
			}
		}
		if _, err := dec.Token(); err != nil {
			return nil, err
		}
		if _, err := dec.Token(); !errors.Is(err, io.EOF) {
			return nil, errors.New("unexpected data after the JSON array")
		}
		return pts, nil
	case start[0] == '{':
		for {
			var w wirePoint
			if err := dec.Decode(&w); errors.Is(err, io.EOF) {
				return pts, nil
			} else if err != nil {
				return nil, fmt.Errorf("point %d: %w", len(pts), err)
			}
			if err := add(w); err != nil {
				return nil, err
			}
		}
	}
	return nil, fmt.Errorf("request body must be a JSON array of points or NDJSON, got %q", start[0])
}

// FuzzDecodePointsMatchesJSON: parsePoints and encoding/json accept
// the same bodies, and for an accepted body yield the same points,
// floats compared by their bits.
func FuzzDecodePointsMatchesJSON(f *testing.F) {
	seeds := []struct {
		body string
		max  uint8
	}{
		// Keys: case-folded, Unicode-folded (the Kelvin sign folds to
		// k), escaped, repeated (the last wins, and a repeated array
		// keeps what the earlier one put under a null element).
		{`[{"VECTOR":[1],"Time":2,"iD":3,"LABEL":4}]`, 0},
		{`[{"to\u212aens":["a"]},{"vector":[1],"token\u017f":null}]`, 0},
		{"[{\"to\u212aens\":[\"a\"]},{\"vector\":[1],\"token\u017f\":null}]", 0},
		{`{"\u0076ector":[1],"t\u0069me":1}`, 0},
		{`[{"vector":[1,2,3],"vector":[4],"vector":[null,null,null,null],"id":1,"id":2}]`, 0},
		{`[{"tokens":["a","b"],"tokens":[null,"c"],"vector":null}]`, 0},
		{`[{"vector":[1,2],"vector":null,"vector":[null]}]`, 0},
		{`[{"vector":[1,2],"vector":[],"vector":[null]}]`, 0},
		// null for every field, and as an array element.
		{`[{"vector":[1],"id":null,"time":null,"label":null,"tokens":null}]`, 0},
		{`{"id":null,"time":null,"label":null,"tokens":null,"vector":null}`, 0},
		{`[null]`, 0},
		{`[{"vector":[1]},null]`, 0},
		{"{\"vector\":[1]}\nnull", 0},
		// Strings in tokens: surrogate pairs, lone surrogates, invalid
		// UTF-8 (each bad byte becomes U+FFFD), escapes.
		{`[{"tokens":["\ud83d\ude00","\ud83d","\ude00x","\ud83d\u0041","\uDBFF\uDFFF"]}]`, 0},
		{"[{\"tokens\":[\"\xff\xfe\",\"a\xc3\",\"\xed\xa0\x80\",\"\\\"\\\\\\/\\b\\f\\n\\r\\t\"]}]", 0},
		{`[{"tokens":["\x"]}]`, 0},
		{"[{\"tokens\":[\"a\x01\"]}]", 0},
		// Numbers.
		{`[{"vector":[-0,1e308,-1E-400,0.5e+3],"time":-0}]`, 0},
		{`[{"vector":[1e309]}]`, 0},
		{`[{"vector":[01]}]`, 0},
		{`[{"vector":[.5]}]`, 0},
		{`[{"vector":[1.]}]`, 0},
		{`[{"vector":[1e]}]`, 0},
		{`[{"vector":[-]}]`, 0},
		{`[{"vector":[1],"id":1.0}]`, 0},
		{`[{"vector":[1],"id":9223372036854775808}]`, 0},
		{`[{"vector":[1],"id":-9223372036854775808}]`, 0},
		{`[{"vector":[1],"label":99999999999999999999}]`, 0},
		{`[{"vector":[1],"label":-1}]`, 0},
		// NDJSON objects concatenated with no whitespace.
		{`{"vector":[1]}{"vector":[2],"time":3}{"tokens":["x"]}`, 0},
		{`{"vector":[1]}{"vector":[2]}{"vector":[3]}`, 2},
		// Empty array, whitespace-only body.
		{"[ \n]", 0},
		{" \t\r\n", 0},
		// Type mismatches.
		{`[{"vector":"a"}]`, 0},
		{`[{"tokens":[1]}]`, 0},
		{`[{"vector":[]}]`, 0},
		{`[{"tokens":[]}]`, 0},
		{`[{"vector":[true]}]`, 0},
		{`[{"vector":[1],"id":"1"}]`, 0},
		{`[{"vector":[[1]]}]`, 0},
		{`[5]`, 0},
		{`{"vector":[1]} 5`, 0},
		// Structure.
		{`[{"vector":[1]},]`, 0},
		{`[{"vector":[1],}]`, 0},
		{`[{"vector":[1]} {"vector":[2]}]`, 0},
		{`[{"vector" [1]}]`, 0},
		{`[{vector:[1]}]`, 0},
		{`[{"vector":[1]}`, 0},
		{`{"vector":[1]}]`, 0},
		{`"vector"`, 0},
	}
	for _, s := range seeds {
		f.Add([]byte(s.body), s.max)
	}
	f.Fuzz(func(t *testing.T, body []byte, max uint8) {
		maxPoints := int(max % 8)
		got, err := parsePoints(body, 1.5, maxPoints)
		want, wantErr := decodePointsJSON(body, 1.5, maxPoints)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("parsePoints error %v, encoding/json error %v, for %q", err, wantErr, body)
		}
		if len(got) != len(want) {
			t.Fatalf("parsePoints gave %d points, encoding/json %d, for %q", len(got), len(want), body)
		}
		for i := range got {
			if !samePoint(got[i], want[i]) {
				t.Fatalf("point %d differs for %q:\n  parsePoints   %+v\n  encoding/json %+v", i, body, got[i], want[i])
			}
		}
	})
}
