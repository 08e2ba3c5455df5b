package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"github.com/densitymountain/edmstream"
)

// TestDeterminismThroughNetworkPath: a single writer streaming an
// ordered batch sequence over HTTP must land the engine in exactly
// the state direct InsertBatch calls produce — byte-identical final
// snapshot, identical event log, identical per-point cell acks. This
// pins the whole network path (JSON wire decode, coalescer, commit):
// none of it may reorder, drop, re-stamp or otherwise perturb a
// deterministic stream.
func TestDeterminismThroughNetworkPath(t *testing.T) {
	const (
		n     = 6000
		batch = 250
	)
	opts := edmstream.Options{Radius: 1.2, InitPoints: 200}

	// One deterministic drifting stream with explicit ids and times.
	rng := rand.New(rand.NewSource(99))
	type rawPoint struct {
		id   int64
		vec  [2]float64
		time float64
	}
	raws := make([]rawPoint, n)
	for i := range raws {
		cx, cy := 0.0, 0.0
		switch {
		case i%3 == 1:
			cx, cy = 8, 2
		case i%3 == 2:
			// A blob that drifts over the stream, driving adjust/split
			// style churn through the DP-Tree.
			cx, cy = 4+6*float64(i)/n, 9
		}
		raws[i] = rawPoint{
			id:   int64(i),
			vec:  [2]float64{cx + rng.NormFloat64()*0.4, cy + rng.NormFloat64()*0.4},
			time: float64(i) / 1000,
		}
	}

	// Path A: direct library ingestion.
	direct, err := edmstream.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	var directAcks [][]int64
	for i := 0; i < n; i += batch {
		pts := make([]edmstream.Point, batch)
		for j, r := range raws[i : i+batch] {
			pts[j] = edmstream.Point{ID: r.id, Vector: []float64{r.vec[0], r.vec[1]}, Time: r.time, Label: edmstream.NoLabel}
		}
		acks, err := direct.InsertBatchAssigned(pts, nil)
		if err != nil {
			t.Fatal(err)
		}
		directAcks = append(directAcks, append([]int64(nil), acks...))
	}

	// Path B: the same batches, in order, through the HTTP server (a
	// single sequential writer never has company in the queue: each
	// request is its own batch).
	served, _, base := startServer(t, opts, Config{})
	var httpAcks [][]int64
	for i := 0; i < n; i += batch {
		req := make([]map[string]any, batch)
		for j, r := range raws[i : i+batch] {
			req[j] = map[string]any{"id": r.id, "vector": []float64{r.vec[0], r.vec[1]}, "time": r.time}
		}
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/ingest", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var ack ingestResponse
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || ack.Accepted != batch {
			t.Fatalf("batch %d: status %d, ack %+v", i/batch, resp.StatusCode, ack)
		}
		httpAcks = append(httpAcks, ack.Cells)
	}

	// Per-request acks are identical along the whole stream.
	for b := range directAcks {
		if len(directAcks[b]) != len(httpAcks[b]) {
			t.Fatalf("batch %d: ack lengths differ (%d vs %d)", b, len(directAcks[b]), len(httpAcks[b]))
		}
		for j := range directAcks[b] {
			if directAcks[b][j] != httpAcks[b][j] {
				t.Fatalf("batch %d point %d: cell ack %d (http) vs %d (direct)", b, j, httpAcks[b][j], directAcks[b][j])
			}
		}
	}

	// Stop the server so the write path is quiescent, then compare the
	// final states byte for byte.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := served.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	servedC := served.c

	directSnap, err := json.Marshal(direct.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	servedSnap, err := json.Marshal(servedC.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(directSnap, servedSnap) {
		t.Errorf("final snapshots differ:\nhttp:   %.400s\ndirect: %.400s", servedSnap, directSnap)
	}

	directEvents, err := json.Marshal(direct.Events())
	if err != nil {
		t.Fatal(err)
	}
	servedEvents, err := json.Marshal(servedC.Events())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(directEvents, servedEvents) {
		t.Errorf("event logs differ:\nhttp:   %.400s\ndirect: %.400s", servedEvents, directEvents)
	}

	if a, b := direct.Stats(), servedC.Stats(); a != b {
		t.Errorf("stats differ:\nhttp:   %+v\ndirect: %+v", b, a)
	}
}
