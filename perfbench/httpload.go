package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"github.com/densitymountain/edmstream"
	"github.com/densitymountain/edmstream/internal/metrics"
)

// Shared pieces of the two HTTP workloads.

const ingestBatch = 128 // points per ingest request

type wirePoint struct {
	ID     int64     `json:"id"`
	Vector []float64 `json:"vector"`
	Time   float64   `json:"time"`
}

type wireProbe struct {
	Vector []float64 `json:"vector"`
}

// warmupBatch is the request size of the set-up's warm-up: a few large
// requests, so set-up time is not mostly coalescer windows and fsyncs.
const warmupBatch = 1280

// renderIngest renders points as ingest request bodies of size points.
// Labels stay with the benchmark: the SUT receives only ids, vectors
// and times.
func renderIngest(pts []edmstream.Point, size int) ([][]byte, error) {
	bodies := make([][]byte, 0, len(pts)/size)
	batch := make([]wirePoint, size)
	for b := 0; b+size <= len(pts); b += size {
		for i := range batch {
			p := pts[b+i]
			batch[i] = wirePoint{ID: p.ID, Vector: p.Vector, Time: p.Time}
		}
		raw, err := json.Marshal(batch)
		if err != nil {
			return nil, fmt.Errorf("rendering an ingest body: %w", err)
		}
		bodies = append(bodies, raw)
	}
	return bodies, nil
}

// renderProbes renders points as assign request bodies of probeBatch
// points.
func renderProbes(pts []edmstream.Point) ([][]byte, error) {
	var bodies [][]byte
	for b := 0; b+probeBatch <= len(pts); b += probeBatch {
		batch := make([]wireProbe, probeBatch)
		for i := range batch {
			batch[i] = wireProbe{Vector: pts[b+i].Vector}
		}
		raw, err := json.Marshal(batch)
		if err != nil {
			return nil, fmt.Errorf("rendering an assign body: %w", err)
		}
		bodies = append(bodies, raw)
	}
	return bodies, nil
}

// newDataDir makes a fresh data directory under the work root.
func newDataDir() (string, error) {
	return os.MkdirTemp(workRoot, "data-*")
}

// setUp starts a SUT on dataDir and feeds it the warm-up bodies in
// order on one connection, returning the SUT and the time from launch
// to the last warm-up ack.
func setUp(dataDir string, traced bool, warm [][]byte) (*sutProc, time.Duration, error) {
	t0 := time.Now()
	p, err := startSUT(dataDir, traced)
	if err != nil {
		return nil, 0, err
	}
	c := newConn(p.base, nil)
	defer c.close()
	if _, err := c.waitOK("/healthz", 30*time.Second); err != nil {
		p.kill()
		return nil, 0, err
	}
	for i, body := range warm {
		st, raw, err := c.do("POST", "/v1/ingest", body, "")
		if err != nil || st != http.StatusOK {
			p.kill()
			return nil, 0, fmt.Errorf("warm-up request %d: status %d, %v: %s", i, st, err, raw)
		}
	}
	return p, time.Since(t0), nil
}

// readPhase classifies the probe bodies passes times on one
// connection and returns the purity of the first pass against the
// labelled points. With a tally, each assign is followed by a snapshot
// read and both are timed; without one it only classifies.
func readPhase(c *conn, probes [][]byte, labelled []edmstream.Point, passes int, tl *tally, ep *episode) (float64, error) {
	var assigned []int
	for pass := 0; pass < passes; pass++ {
		for _, body := range probes {
			t0 := time.Now()
			st, raw, err := c.do("POST", "/v1/assign", body, "assign")
			d := time.Since(t0)
			ok := err == nil && st == http.StatusOK
			if pass == 0 && !ok {
				return 0, fmt.Errorf("assign: status %d, %v", st, err)
			}
			if pass == 0 {
				var resp struct {
					Clusters []int `json:"clusters"`
				}
				if err := json.Unmarshal(raw, &resp); err != nil {
					return 0, fmt.Errorf("decoding an assign response: %w", err)
				}
				assigned = append(assigned, resp.Clusters...)
			}
			if tl == nil {
				continue
			}
			tl.call(ok)
			if ok {
				ep.assign.add(d)
			}
			t0 = time.Now()
			st, _, err = c.do("GET", "/v1/snapshot", nil, "snapshot")
			d = time.Since(t0)
			ok = err == nil && st == http.StatusOK
			tl.call(ok)
			if ok {
				ep.snapshot.add(d)
			}
		}
	}
	p, err := metrics.Purity(labelled, assigned)
	if err != nil {
		return 0, fmt.Errorf("purity: %w", err)
	}
	return p, nil
}

// recoverSUT SIGKILLs the SUT and restarts it on the same directory,
// timing from the kill to the first 200 from /v1/snapshot, and checks
// that the snapshot and the engine stats are byte-identical to their
// values before the kill. It returns the restarted SUT.
func recoverSUT(p *sutProc, dataDir string, traced bool, snap, engine []byte, tl *tally) (*sutProc, error) {
	t0 := time.Now()
	p.kill()
	np, err := startSUT(dataDir, traced)
	if err != nil {
		return nil, err
	}
	c := newConn(np.base, nil)
	defer c.close()
	got, err := c.waitOK("/v1/snapshot", 60*time.Second)
	if err != nil {
		np.kill()
		return nil, err
	}
	tl.recovery = append(tl.recovery, time.Since(t0).Seconds())
	gotEngine, _, err := statsOf(c)
	if err != nil {
		np.kill()
		return nil, err
	}
	if !bytes.Equal(got, snap) || !bytes.Equal(gotEngine, engine) {
		np.kill()
		return nil, fmt.Errorf("gate: after restart the snapshot or engine stats differ from before the kill")
	}
	return np, nil
}

// serverLayers fills the server and wal layer metrics from two
// /metrics scrapes around the measured phase.
func serverLayers(layers map[string]float64, m0, m1 promMetrics, wall time.Duration, points int64) {
	d := func(name string) float64 { return m1[name] - m0[name] }
	mean := func(name string, scale float64) float64 {
		if n := d(name + "_count"); n > 0 {
			return d(name+"_sum") / n * scale
		}
		return 0
	}
	flushMean := mean("edmserved_coalescer_flush_seconds", 1e3)
	// The batch wait runs from the oldest request's enqueue to the end
	// of the flush; the gather wait is that minus the flush.
	layers["server.coalescer_wait_mean_ms"] = mean("edmserved_coalescer_batch_wait_seconds", 1e3) - flushMean
	layers["server.coalescer_flush_mean_ms"] = flushMean
	if wall > 0 {
		layers["server.writer_busy_share"] = d("edmserved_coalescer_flush_seconds_sum") / wall.Seconds()
	}
	layers["server.batch_points_mean"] = mean("edmserved_coalescer_batch_points", 1)
	layers["server.batch_requests_mean"] = mean("edmserved_coalescer_batch_requests", 1)
	layers["server.shed_total"] = d("edmserved_admission_shed_total")
	layers["wal.fsyncs"] = d("edmserved_wal_fsync_seconds_count")
	layers["wal.fsync_mean_ms"] = mean("edmserved_wal_fsync_seconds", 1e3)
	if points > 0 {
		layers["wal.bytes_per_pt"] = d("edmserved_wal_bytes_total") / float64(points)
	}
	layers["wal.checkpoints"] = d("edmserved_wal_checkpoints_total")
	layers["wal.checkpoint_mean_ms"] = mean("edmserved_wal_checkpoint_seconds", 1e3)
}

// traceSpans gathers a traced pass's spans and the coalescer counters
// the precommit estimate needs, across episodes.
type traceSpans struct {
	client, handler []span
	waitMs          float64 // estimated coalescer share of ingest handler time
	points          int64
}

// collect takes the client spans recorded so far and the SUT's handler
// spans. m0 and m1, when set, are /metrics scrapes around an ingest
// phase of points points.
func (t *traceSpans) collect(ctl *conn, tr *tracer, m0, m1 promMetrics, points int64) error {
	hs, err := handlerSpansOf(ctl)
	if err != nil {
		return err
	}
	t.client = append(t.client, tr.take()...)
	t.handler = append(t.handler, hs...)
	if m0 != nil {
		t.waitMs += coalescerShareMs(m0, m1)
		t.points += points
	}
	return nil
}

// store fills the span-derived layer metrics and notes their sample
// counts.
func (t *traceSpans) store(tl *tally) {
	ingestMs := spanLayers(tl, t.client, t.handler)
	if t.points > 0 {
		tl.layers["server.ingest_precommit_us_per_pt"] = (ingestMs - t.waitMs) * 1e3 / float64(t.points)
	}
}

// coalescerShareMs estimates how much of the ingest handlers' time
// between two scrapes was spent in the coalescer: each batch's wait
// (from its oldest request through the flush) times the mean requests
// per batch, which overstates the wait of a batch's later requests.
func coalescerShareMs(m0, m1 promMetrics) float64 {
	d := func(name string) float64 { return m1[name] - m0[name] }
	batches := d("edmserved_coalescer_batch_requests_count")
	if batches <= 0 {
		return 0
	}
	return d("edmserved_coalescer_batch_wait_seconds_sum") * 1e3 * d("edmserved_coalescer_batch_requests_sum") / batches
}

// runtimeLayers fills the runtime layer from two SUT readings.
func runtimeLayers(layers map[string]float64, r0, r1 runtimeStats, points int64) {
	var rd runtimeDelta
	rd.add(r0, r1)
	rd.store(layers, points)
}

// spanLayers derives the client and http layer metrics from the
// client spans and the SUT's handler spans of a traced pass, returning
// the total ingest handler time in milliseconds.
func spanLayers(tl *tally, client, handler []span) float64 {
	byParent := make(map[uint64]span, len(handler))
	for _, h := range handler {
		byParent[h.Parent] = h
	}
	transport := map[string]*timings{}
	handlers := map[string]*timings{}
	for _, c := range client {
		h, ok := byParent[c.ID]
		if !ok || c.Name == "" {
			continue
		}
		if transport[c.Name] == nil {
			transport[c.Name], handlers[c.Name] = &timings{}, &timings{}
		}
		// The two spans come from two processes, so only durations
		// are compared: the client's self time is its duration minus
		// the handler's.
		transport[c.Name].add(c.dur() - h.dur())
		handlers[c.Name].add(h.dur())
	}
	set := func(name string, t *timings, q float64) {
		if t == nil {
			return
		}
		if v, err := t.quantile(q); err == nil {
			tl.layers[name] = v
			tl.notef("%s: %d spans, %d beyond", name, t.n(), beyond(t.n(), q))
		}
	}
	set("client.transport_ingest_p50_ms", transport["ingest"], 0.5)
	set("client.transport_assign_p50_ms", transport["assign"], 0.5)
	set("http.ingest_p50_ms", handlers["ingest"], 0.5)
	set("http.ingest_p99_ms", handlers["ingest"], 0.99)
	set("http.assign_p50_ms", handlers["assign"], 0.5)
	set("http.assign_p99_ms", handlers["assign"], 0.99)
	set("http.snapshot_p50_ms", handlers["snapshot"], 0.5)
	tl.layers["trace.spans"] = float64(len(client) + len(handler))
	return handlers["ingest"].total()
}

// handlerSpansOf fetches and clears the SUT's handler spans.
func handlerSpansOf(ctl *conn) ([]span, error) {
	raw, err := ctl.getOK("/spans")
	if err != nil {
		return nil, err
	}
	var spans []span
	return spans, json.Unmarshal(raw, &spans)
}
