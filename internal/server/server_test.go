package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/densitymountain/edmstream"
)

// testOptions is a small, fast-initializing engine configuration.
func testOptions() edmstream.Options {
	return edmstream.Options{Radius: 1.5, InitPoints: 100}
}

// startServer builds a clusterer + server, starts it on an ephemeral
// loopback port and registers a cleanup shutdown. Tests that shut
// down explicitly can still rely on the cleanup being a no-op second
// call. Each setup hook runs between New and Start, before any
// request can reach the writer.
func startServer(t *testing.T, opts edmstream.Options, cfg Config, setup ...func(*Server)) (*Server, *edmstream.Clusterer, string) {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	c, err := edmstream.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range setup {
		f(s)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, c, "http://" + s.Addr()
}

// twoBlobPoints builds a deterministic two-cluster stream with
// explicit timestamps.
func twoBlobPoints(n int, seed int64) []map[string]any {
	rng := rand.New(rand.NewSource(seed))
	centers := [][2]float64{{0, 0}, {10, 10}}
	pts := make([]map[string]any, n)
	for i := range pts {
		c := centers[i%2]
		pts[i] = map[string]any{
			"id":     i,
			"vector": []float64{c[0] + rng.NormFloat64()*0.5, c[1] + rng.NormFloat64()*0.5},
			"time":   float64(i) / 1000,
		}
	}
	return pts
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp
}

func TestIngestAssignSnapshotRoundTrip(t *testing.T) {
	_, _, base := startServer(t, testOptions(), Config{})
	pts := twoBlobPoints(4000, 1)

	// Ingest in batches; every request gets one ack per point.
	for i := 0; i < len(pts); i += 500 {
		var ack ingestResponse
		resp := postJSON(t, base+"/v1/ingest", pts[i:i+500], &ack)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
		if ack.Accepted != 500 || len(ack.Cells) != 500 {
			t.Fatalf("ack = accepted %d, %d cells; want 500/500", ack.Accepted, len(ack.Cells))
		}
		for _, id := range ack.Cells {
			if id < 0 {
				t.Fatalf("negative cell ack %d", id)
			}
		}
	}

	// The published snapshot shows the two blobs.
	var snap snapshotResponse
	if resp := getJSON(t, base+"/v1/snapshot", &snap); resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d", resp.StatusCode)
	}
	if len(snap.Clusters) < 2 {
		t.Fatalf("snapshot has %d clusters, want >= 2", len(snap.Clusters))
	}
	if snap.ActiveCells == 0 || snap.Tau <= 0 {
		t.Errorf("snapshot missing engine state: %+v", snap)
	}

	// Assign classifies the two blob centers into different clusters.
	var assign assignResponse
	req := []map[string]any{
		{"vector": []float64{0, 0}},
		{"vector": []float64{10, 10}},
	}
	if resp := postJSON(t, base+"/v1/assign", req, &assign); resp.StatusCode != http.StatusOK {
		t.Fatalf("assign status %d", resp.StatusCode)
	}
	if len(assign.Clusters) != 2 {
		t.Fatalf("assign returned %d ids, want 2", len(assign.Clusters))
	}
	if assign.Clusters[0] < 0 || assign.Clusters[1] < 0 {
		t.Fatalf("blob centers classified as outliers: %v", assign.Clusters)
	}
	if assign.Clusters[0] == assign.Clusters[1] {
		t.Errorf("both blob centers in cluster %d", assign.Clusters[0])
	}

	// Cluster detail round-trip, and 404 for an unknown ID.
	var detail clusterResponse
	url := fmt.Sprintf("%s/v1/clusters/%d", base, snap.Clusters[0].ID)
	if resp := getJSON(t, url, &detail); resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster detail status %d", resp.StatusCode)
	}
	if detail.ID != snap.Clusters[0].ID || len(detail.Members) != snap.Clusters[0].Cells {
		t.Errorf("cluster detail mismatch: %+v vs summary %+v", detail.wireClusterSummary, snap.Clusters[0])
	}
	if len(detail.Members) == 0 || detail.Members[0].Vector == nil {
		t.Errorf("cluster members missing seeds: %+v", detail.Members)
	}
	if resp := getJSON(t, base+"/v1/clusters/999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown cluster status %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, base+"/v1/clusters/notanumber", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-integer cluster id status %d, want 400", resp.StatusCode)
	}

	// Stats: engine counters and coalescer telemetry are populated.
	var stats statsResponse
	if resp := getJSON(t, base+"/v1/stats", &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	if stats.Engine.Points != int64(len(pts)) {
		t.Errorf("engine points = %d, want %d", stats.Engine.Points, len(pts))
	}
	if stats.Server.Coalescer.Batches == 0 || stats.Server.Coalescer.Points != uint64(len(pts)) {
		t.Errorf("coalescer stats wrong: %+v", stats.Server.Coalescer)
	}

	// Healthz.
	if resp := getJSON(t, base+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}

	// Metrics: every endpoint exposes latency quantiles.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(raw)
	for _, endpoint := range []string{"ingest", "assign", "snapshot", "cluster", "stats", "healthz"} {
		want := `edmserved_http_request_duration_seconds{endpoint="` + endpoint + `",quantile="0.99"}`
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
	for _, series := range []string{
		"edmserved_coalescer_batch_points",
		"edmserved_coalescer_batch_wait_seconds",
		"edmserved_coalescer_batches_total",
	} {
		if !strings.Contains(metrics, series) {
			t.Errorf("metrics missing %s", series)
		}
	}
}

func TestIngestNDJSONAndSingleObject(t *testing.T) {
	_, c, base := startServer(t, testOptions(), Config{})

	// NDJSON body.
	var body bytes.Buffer
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&body, `{"vector":[%d,0],"time":%g}`+"\n", i%3, float64(i)/1000)
	}
	resp, err := http.Post(base+"/v1/ingest", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	var ack ingestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ack.Accepted != 10 {
		t.Fatalf("NDJSON ingest: status %d, ack %+v", resp.StatusCode, ack)
	}

	// Single bare object.
	resp, err = http.Post(base+"/v1/ingest", "application/json",
		strings.NewReader(`{"vector":[1,1],"time":0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ack.Accepted != 1 || len(ack.Cells) != 1 {
		t.Fatalf("single-object ingest: status %d, ack %+v", resp.StatusCode, ack)
	}
	if got := c.Stats().Points; got != 11 {
		t.Errorf("engine points = %d, want 11", got)
	}
}

func TestIngestRejectsMalformedBodies(t *testing.T) {
	_, c, base := startServer(t, testOptions(), Config{})
	cases := []string{
		``,                                // empty
		`not json`,                        // garbage
		`42`,                              // not array/object
		`[{"vector":[1,2]}, {"bogus":1}]`, // unknown field
		`[{}]`,                            // neither vector nor tokens
		`[{"vector":[1],"tokens":["a"]}]`, // both
		`[{"vector":[1,2],"time":-5}]`,    // negative time
		`{"vector":[1,2]} {"oops":true}`,  // NDJSON with bad second object
		`[{"vector":[1,2]}`,               // truncated array
	}
	for i, body := range cases {
		resp, err := http.Post(base+"/v1/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d (%q): status %d, want 400", i, body, resp.StatusCode)
		}
	}
	// No malformed request may have committed anything.
	if got := c.Stats().Points; got != 0 {
		t.Errorf("malformed requests committed %d points", got)
	}
}

// TestDecodePointsRejectsDataAfterArray: a JSON array body ends at its
// closing bracket. A second array or stray bytes after it is an error,
// not dropped while the request is acked as accepted; whitespace is
// fine.
func TestDecodePointsRejectsDataAfterArray(t *testing.T) {
	tests := []struct {
		name string
		body string
		ok   bool
	}{
		{"trailing-whitespace", "[{\"vector\":[1]}]\n \t", true},
		{"second-array", `[{"vector":[1]}][{"vector":[2]}]`, false},
		{"object-after-array", "[{\"vector\":[1]}]\n{\"vector\":[2]}", false},
		{"garbage", `[{"vector":[1]}] trailing`, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			pts, err := decodePoints(strings.NewReader(tt.body), 0, 0)
			if !tt.ok {
				if err == nil {
					t.Fatalf("accepted %d points from %q", len(pts), tt.body)
				}
				return
			}
			if err != nil || len(pts) != 1 {
				t.Fatalf("%q: %d points, err %v; want 1 point", tt.body, len(pts), err)
			}
		})
	}
}

func TestAssignBeforeSnapshotPublishes(t *testing.T) {
	_, _, base := startServer(t, testOptions(), Config{})
	var assign assignResponse
	resp := postJSON(t, base+"/v1/assign", []map[string]any{{"vector": []float64{0, 0}}}, &assign)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("assign status %d", resp.StatusCode)
	}
	if len(assign.Clusters) != 1 || assign.Clusters[0] != -1 {
		t.Errorf("assign before any snapshot = %v, want [-1]", assign.Clusters)
	}
}

func TestEventsCursorAndLongPoll(t *testing.T) {
	_, _, base := startServer(t, testOptions(), Config{})

	// Drive past initialization so events exist.
	pts := twoBlobPoints(3000, 2)
	var ack ingestResponse
	postJSON(t, base+"/v1/ingest", pts, &ack)

	var page eventsResponse
	if resp := getJSON(t, base+"/v1/events?cursor=0", &page); resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	if len(page.Events) == 0 || page.Cursor == 0 {
		t.Fatalf("expected events after 3000 points, got %+v", page)
	}
	for _, e := range page.Events {
		if e.Kind == "" {
			t.Errorf("event without kind: %+v", e)
		}
	}

	// Re-polling at the returned cursor is empty and stable.
	var again eventsResponse
	getJSON(t, fmt.Sprintf("%s/v1/events?cursor=%d", base, page.Cursor), &again)
	if len(again.Events) != 0 || again.Cursor != page.Cursor {
		t.Fatalf("cursor not stable: %+v after cursor %d", again, page.Cursor)
	}

	// A cursor far past the end is empty, not an error.
	var past eventsResponse
	if resp := getJSON(t, base+"/v1/events?cursor=999999", &past); resp.StatusCode != http.StatusOK {
		t.Fatalf("past-the-end cursor status %d", resp.StatusCode)
	}
	if len(past.Events) != 0 || past.Cursor != page.Cursor {
		t.Errorf("past-the-end cursor = %+v, want empty at %d", past, page.Cursor)
	}

	// Long-poll: a waiting poll is woken by events from new ingestion
	// (a third blob emerges far from the first two).
	type pollResult struct {
		page eventsResponse
		err  error
	}
	done := make(chan pollResult, 1)
	go func() {
		var p eventsResponse
		resp, err := http.Get(fmt.Sprintf("%s/v1/events?cursor=%d&wait=30s", base, page.Cursor))
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&p)
			resp.Body.Close()
		}
		done <- pollResult{p, err}
	}()
	time.Sleep(50 * time.Millisecond) // let the poll park

	burst := make([]map[string]any, 600)
	for i := range burst {
		burst[i] = map[string]any{
			"vector": []float64{40 + float64(i%3)*0.1, 40},
			"time":   3.0 + float64(i)/1000,
		}
	}
	postJSON(t, base+"/v1/ingest", burst, &ack)

	select {
	case res := <-done:
		if res.err != nil {
			t.Fatalf("long-poll failed: %v", res.err)
		}
		if len(res.page.Events) == 0 || res.page.Cursor <= page.Cursor {
			t.Errorf("long-poll woke without new events: %+v", res.page)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("long-poll never woke despite new events")
	}

	// An explicit zero-wait poll returns immediately even with no news.
	start := time.Now()
	getJSON(t, fmt.Sprintf("%s/v1/events?cursor=%d", base, page.Cursor+100000), &again)
	if time.Since(start) > 2*time.Second {
		t.Error("no-wait poll blocked")
	}
}

// TestConcurrentIngestCoalesces drives concurrent writers and checks
// that the coalescer actually merges requests into multi-request
// batches (the reason the subsystem exists). The writer is stalled in
// its first flush until every other writer has a request queued, so
// the merge does not depend on scheduler timing.
func TestConcurrentIngestCoalesces(t *testing.T) {
	var held <-chan struct{}
	var release func()
	s, c, base := startServer(t, testOptions(), Config{}, func(s *Server) {
		held, release = stallFirstFlush(s.coal)
	})
	t.Cleanup(release)

	const writers = 8
	const perWriter = 20
	const ptsPerReq = 20
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				req := make([]map[string]any, ptsPerReq)
				for j := range req {
					req[j] = map[string]any{
						"vector": []float64{float64(w%4) * 5, float64(i%5) * 5},
						"time":   float64(w*perWriter+i) / 1000,
					}
				}
				raw, _ := json.Marshal(req)
				resp, err := http.Post(base+"/v1/ingest", "application/json", bytes.NewReader(raw))
				if err != nil {
					errs <- err
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("ingest status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	<-held
	waitPending(t, s.coal, writers-1)
	release()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	total := writers * perWriter * ptsPerReq
	if got := c.Stats().Points; got != int64(total) {
		t.Fatalf("engine points = %d, want %d", got, total)
	}
	reqStats := s.coal.batchReqs.Stats()
	if reqStats.WindowMax < writers-1 {
		t.Errorf("the %d requests queued behind a stalled commit were not group-committed (max %g per batch)", writers-1, reqStats.WindowMax)
	}
	if batches := s.coal.batches.Value(); batches >= uint64(writers*perWriter) {
		t.Errorf("coalescer made %d batches for %d requests: nothing coalesced", batches, writers*perWriter)
	}
}
