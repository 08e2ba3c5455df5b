package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/densitymountain/edmstream"
)

// TestShapeMismatchRejected: once the stream's modality and
// dimensionality are established, a request with a different shape is
// a 400 — it must never reach the engine's distance kernels, where a
// shorter vector panics the writer goroutine (linear index) or is
// silently truncated (grid index). The daemon must stay alive and
// keep serving well-formed requests afterwards.
func TestShapeMismatchRejected(t *testing.T) {
	// Force the linear index: it is the code path where a dimension
	// mismatch is a panic, not a silent truncation.
	opts := testOptions()
	opts.IndexPolicy = edmstream.IndexLinear
	_, c, base := startServer(t, opts, Config{})

	// Establish a 3-D stream.
	var ack ingestResponse
	resp := postJSON(t, base+"/v1/ingest",
		[]map[string]any{{"vector": []float64{1, 2, 3}, "time": 0.1}}, &ack)
	if resp.StatusCode != http.StatusOK || ack.Accepted != 1 {
		t.Fatalf("setup ingest: status %d, ack %+v", resp.StatusCode, ack)
	}

	bad := []map[string]any{
		{"vector": []float64{0.5, 0.5}},   // too short: the panic case
		{"vector": []float64{1, 2, 3, 4}}, // too long: the truncation case
		{"tokens": []string{"a", "b"}},    // modality flip
	}
	for i, p := range bad {
		for _, path := range []string{"/v1/ingest", "/v1/assign"} {
			resp := postJSON(t, base+path, []map[string]any{p}, nil)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("mismatched point %d on %s: status %d, want 400", i, path, resp.StatusCode)
			}
		}
	}
	// Zero-dimension vectors never establish or match any shape.
	if resp := postJSON(t, base+"/v1/ingest", []map[string]any{{"vector": []float64{}}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty vector: status %d, want 400", resp.StatusCode)
	}

	// The server survived: a well-formed request still lands.
	resp = postJSON(t, base+"/v1/ingest",
		[]map[string]any{{"vector": []float64{1.1, 2.1, 3.1}, "time": 0.2}}, &ack)
	if resp.StatusCode != http.StatusOK || ack.Accepted != 1 {
		t.Fatalf("post-mismatch ingest: status %d, ack %+v (writer goroutine dead?)", resp.StatusCode, ack)
	}
	if got := c.Stats().Points; got != 2 {
		t.Errorf("engine points = %d, want 2 (mismatched requests must not commit)", got)
	}
}

// TestMaxBatchEnforced: a single request may not exceed MaxBatch
// points (400), and no coalesced engine batch ever exceeds MaxBatch —
// a request that would overflow an open batch starts the next one.
// The writer is stalled in its first flush until every other request
// is queued, so the cap is tested against a full queue regardless of
// scheduler timing.
func TestMaxBatchEnforced(t *testing.T) {
	const maxBatch = 100
	var held <-chan struct{}
	var release func()
	s, c, base := startServer(t, testOptions(), Config{MaxBatch: maxBatch}, func(s *Server) {
		held, release = stallFirstFlush(s.coal)
	})
	t.Cleanup(release)

	// Oversized single request: rejected before queueing.
	big := make([]map[string]any, maxBatch+1)
	for i := range big {
		big[i] = map[string]any{"vector": []float64{float64(i % 7), 0}, "time": float64(i) / 1000}
	}
	if resp := postJSON(t, base+"/v1/ingest", big, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized request: status %d, want 400", resp.StatusCode)
	}
	if got := c.Stats().Points; got != 0 {
		t.Fatalf("oversized request committed %d points", got)
	}

	// Concurrent 60-point requests: pairs would exceed the cap, so
	// every committed batch must stay at or under it.
	const requests = 12
	errs := make(chan error, requests)
	for r := 0; r < requests; r++ {
		go func(r int) {
			req := make([]map[string]any, 60)
			for i := range req {
				req[i] = map[string]any{"vector": []float64{float64(r % 5), float64(i % 5)}, "time": float64(r*60+i) / 1000}
			}
			raw, _ := json.Marshal(req)
			resp, err := http.Post(base+"/v1/ingest", "application/json", strings.NewReader(string(raw)))
			if err != nil {
				errs <- err
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			errs <- nil
		}(r)
	}
	<-held
	waitPending(t, s.coal, requests-1)
	release()
	for r := 0; r < requests; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Stats().Points; got != requests*60 {
		t.Fatalf("engine points = %d, want %d", got, requests*60)
	}
	if max := s.coal.batchSize.Stats().WindowMax; max > maxBatch {
		t.Errorf("a coalesced batch carried %g points, cap is %d", max, maxBatch)
	}
	// Pairs overflow the cap, so every request is its own batch.
	if got := s.coal.batches.Value(); got != requests {
		t.Errorf("coalescer made %d batches for %d requests, want one each", got, requests)
	}
}

// TestShutdownAfterFailedStart: Shutdown must return promptly when
// Start failed (the coalescer loop never ran, so there is nothing to
// drain — and nothing that will ever close its done channel).
func TestShutdownAfterFailedStart(t *testing.T) {
	// Occupy a port so Start fails deterministically.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	c, err := edmstream.New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(c, Config{Addr: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err == nil {
		t.Fatal("Start on an occupied port succeeded")
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("shutdown after failed start: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hung after a failed Start")
	}
}
