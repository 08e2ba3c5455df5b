package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"testing"

	"github.com/densitymountain/edmstream"
)

// decodePoints reads a body of unknown length and parses it, as the
// ingest and assign handlers do for a request without Content-Length.
func decodePoints(r io.Reader, now float64, maxPoints int) ([]edmstream.Point, error) {
	body, err := readBody(r, -1)
	if err != nil {
		return nil, err
	}
	return parsePoints(body, now, maxPoints)
}

// TestDecodePointsSamePointEveryPosition: an object decodes to the
// same point wherever it sits in a body: as an array element, as the
// first or a later NDJSON object, or alone. A null field is an absent
// one in every position (the server clock, NoLabel), and keys match
// case-insensitively in every position.
func TestDecodePointsSamePointEveryPosition(t *testing.T) {
	const now = 2.5
	other := `{"vector":[9,9],"time":1}`
	tests := []struct {
		obj  string
		want edmstream.Point
	}{
		{`{"vector":[1,2],"time":null}`, edmstream.Point{Vector: []float64{1, 2}, Time: now, Label: edmstream.NoLabel}},
		{`{"vector":[1,2],"label":null}`, edmstream.Point{Vector: []float64{1, 2}, Time: now, Label: edmstream.NoLabel}},
		{`{"vector":[1,2],"id":null,"tokens":null}`, edmstream.Point{Vector: []float64{1, 2}, Time: now, Label: edmstream.NoLabel}},
		{`{"Vector":[1,2]}`, edmstream.Point{Vector: []float64{1, 2}, Time: now, Label: edmstream.NoLabel}},
		{`{"VECTOR":[1,2],"TIME":0.5,"Id":7,"LaBeL":3}`, edmstream.Point{ID: 7, Vector: []float64{1, 2}, Time: 0.5, Label: 3}},
		{`{"id":7,"vector":[1,-0],"time":0.5,"label":3}`, edmstream.Point{ID: 7, Vector: []float64{1, math.Copysign(0, -1)}, Time: 0.5, Label: 3}},
		{`{"id":7,"time":0.5,"id":null,"time":null,"vector":[1]}`, edmstream.Point{Vector: []float64{1}, Time: now, Label: edmstream.NoLabel}},
		{`{"toKens":["b","a"],"label":null}`, edmstream.Point{Tokens: edmstream.NewTokenSet("a", "b"), Time: now, Label: edmstream.NoLabel}},
	}
	for _, tt := range tests {
		t.Run(tt.obj, func(t *testing.T) {
			positions := []struct {
				name string
				body string
				idx  int
			}{
				{"array-element", "[" + other + "," + tt.obj + "]", 1},
				{"first-ndjson", tt.obj + "\n" + other, 0},
				{"later-ndjson", other + "\n" + tt.obj, 1},
				{"bare-object", tt.obj, 0},
			}
			for _, pos := range positions {
				pts, err := decodePoints(bytes.NewReader([]byte(pos.body)), now, 0)
				if err != nil {
					t.Errorf("%s: %v", pos.name, err)
					continue
				}
				if got := pts[pos.idx]; !samePoint(got, tt.want) {
					t.Errorf("%s: got %+v, want %+v", pos.name, got, tt.want)
				}
			}
		})
	}
}

// perfbenchBody renders n points the way the benchmark's ingest load
// does: an id, a 2-D vector and a time per point.
func perfbenchBody(tb testing.TB, n int, ndjson bool) []byte {
	type wire struct {
		ID     int64     `json:"id"`
		Vector []float64 `json:"vector"`
		Time   float64   `json:"time"`
	}
	var buf bytes.Buffer
	batch := make([]wire, n)
	for i := range batch {
		batch[i] = wire{ID: int64(1000 + i), Vector: []float64{math.Sin(float64(i)) * 7.3, math.Cos(float64(i)) * 3.1}, Time: 12.5 + float64(i)/997}
		if ndjson {
			raw, err := json.Marshal(batch[i])
			if err != nil {
				tb.Fatal(err)
			}
			buf.Write(raw)
			buf.WriteByte('\n')
		}
	}
	if ndjson {
		return buf.Bytes()
	}
	raw, err := json.Marshal(batch)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// probeBody renders n assign probes: a 2-D vector each.
func probeBody(tb testing.TB, n int) []byte {
	probes := make([]map[string][]float64, n)
	for i := range probes {
		probes[i] = map[string][]float64{"vector": {float64(i) * 0.37, -float64(i) * 0.11}}
	}
	raw, err := json.Marshal(probes)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// readAndParse decodes body as the handlers do for a request whose
// Content-Length is set.
func readAndParse(body []byte, maxPoints int) ([]edmstream.Point, error) {
	buf, err := readBody(bytes.NewReader(body), int64(len(body)))
	if err != nil {
		return nil, err
	}
	return parsePoints(buf, 0, maxPoints)
}

// TestDecodePointsAllocs pins the decoder's allocations on a 128-point
// ingest body: the read buffer, the point slice and one vector per
// point, at most 2 per point.
func TestDecodePointsAllocs(t *testing.T) {
	const n = 128
	body := perfbenchBody(t, n, false)
	if pts, err := readAndParse(body, 4096); err != nil || len(pts) != n {
		t.Fatalf("decoded %d points, err %v; want %d", len(pts), err, n)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := readAndParse(body, 4096); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations for %d points", allocs, n)
	if allocs > 2*n {
		t.Errorf("%.0f allocations for %d points, want at most %d", allocs, n, 2*n)
	}
}

// BenchmarkDecodePoints reads and parses request bodies of the shapes
// the benchmark's load sends: 128-point ingest bodies, as a JSON array
// and as NDJSON, and 32-probe assign bodies.
func BenchmarkDecodePoints(b *testing.B) {
	for _, bc := range []struct {
		name string
		body []byte
		n    int
	}{
		{"ingest-array-128", perfbenchBody(b, 128, false), 128},
		{"ingest-ndjson-128", perfbenchBody(b, 128, true), 128},
		{"assign-array-32", probeBody(b, 32), 32},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.body)))
			for b.Loop() {
				pts, err := readAndParse(bc.body, 4096)
				if err != nil || len(pts) != bc.n {
					b.Fatalf("decoded %d points, err %v; want %d", len(pts), err, bc.n)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.n), "ns/pt")
		})
	}
}
