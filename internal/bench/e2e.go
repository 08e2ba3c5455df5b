package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/densitymountain/edmstream"
	"github.com/densitymountain/edmstream/internal/server"
	"github.com/densitymountain/edmstream/internal/stream"
)

// This file holds the end-to-end serving experiment (not in the
// paper): it boots the real edmserved network layer on loopback and
// drives it the way a deployment would be driven — concurrent HTTP
// writers streaming batched ingest while concurrent HTTP readers
// classify points, an events consumer long-polls the evolution
// cursor, and a snapshot poller reads the published clustering. The
// artifact records ingest throughput, assign qps, client-observed
// per-endpoint latency quantiles and the coalescer's batch-size
// distribution, so the network layer's performance trajectory is
// machine-readable across revisions (BENCH_e2e.json).

// E2E topology and workload shape.
const (
	// E2EWriters and E2EReaders are the concurrent HTTP client counts.
	E2EWriters = 2
	E2EReaders = 2
	// e2eIngestBatch is the points per ingest request: small enough
	// that concurrent writers give the coalescer real merging work,
	// large enough to be a sane client batch.
	e2eIngestBatch = 128
	// e2eAssignBatch is the points per assign request.
	e2eAssignBatch = 32
	// e2eWarmup is the pre-measurement stream fed through the same
	// HTTP path: four sweeps of the lattice populates the cells and
	// publishes a first clustering.
	e2eWarmup = 6400
)

// E2EEndpointResult is the client-observed latency summary of one
// endpoint.
type E2EEndpointResult struct {
	Endpoint string `json:"endpoint"`
	Requests int64  `json:"requests"`
	// Quantiles are exact over every request the drivers issued
	// during the measured phase, in microseconds.
	P50Micros float64 `json:"p50_micros"`
	P90Micros float64 `json:"p90_micros"`
	P99Micros float64 `json:"p99_micros"`
	MaxMicros float64 `json:"max_micros"`
}

// E2ECoalescerResult is the server-reported batch formation summary.
type E2ECoalescerResult struct {
	Batches            uint64  `json:"batches"`
	Points             uint64  `json:"points"`
	BatchPointsP50     float64 `json:"batch_points_p50"`
	BatchPointsP90     float64 `json:"batch_points_p90"`
	BatchPointsP99     float64 `json:"batch_points_p99"`
	BatchPointsMax     float64 `json:"batch_points_max"`
	BatchRequestsP50   float64 `json:"batch_requests_p50"`
	BatchRequestsP99   float64 `json:"batch_requests_p99"`
	BatchWaitP50Micros float64 `json:"batch_wait_p50_micros"`
	BatchWaitP99Micros float64 `json:"batch_wait_p99_micros"`
}

// E2EReport is the JSON-serializable outcome of the experiment.
type E2EReport struct {
	Schema  string  `json:"schema"`
	Points  int     `json:"points"`
	Seed    int64   `json:"seed"`
	Rate    float64 `json:"rate"`
	Writers int     `json:"writers"`
	Readers int     `json:"readers"`
	// WallSeconds is the measured-phase duration.
	WallSeconds float64 `json:"wall_seconds"`
	// IngestPoints/IngestPointsPerSec: aggregate writer throughput
	// through the full network path.
	IngestPoints       int64   `json:"ingest_points"`
	IngestPointsPerSec float64 `json:"ingest_points_per_sec"`
	// AssignQueries/AssignQPS: aggregate reader throughput;
	// AssignHitRate is the fraction classified into a cluster.
	AssignQueries int64   `json:"assign_queries"`
	AssignQPS     float64 `json:"assign_qps"`
	AssignHitRate float64 `json:"assign_hit_rate"`
	// EventsPages counts long-poll pages the events consumer read;
	// EventsSeen the events delivered through the cursor.
	EventsPages int64               `json:"events_pages"`
	EventsSeen  int64               `json:"events_seen"`
	Endpoints   []E2EEndpointResult `json:"endpoints"`
	Coalescer   E2ECoalescerResult  `json:"coalescer"`
	GOMAXPROCS  int                 `json:"gomaxprocs"`
	NumCPU      int                 `json:"num_cpu"`
}

// e2eOptions mirrors the serve experiment's engine configuration
// through the public API: grid index, slow decay for a stable
// steady-state density ranking, evolution tracking on so the events
// endpoint has traffic. The wal, overload, dr and tenants drills share
// it for their children and their reference replays.
func e2eOptions(rate float64) edmstream.Options {
	return edmstream.Options{
		Radius:      1.0,
		Rate:        rate,
		Decay:       stream.Decay{A: 0.99999, Lambda: rate},
		Beta:        3e-5,
		Tau:         6.0,
		InitPoints:  500,
		IndexPolicy: edmstream.IndexGrid,
	}
}

// e2eLatencies collects client-observed request durations per
// endpoint, sharded per goroutine and merged at the end.
type e2eLatencies struct {
	mu   sync.Mutex
	data map[string][]float64 // endpoint -> micros
}

func (l *e2eLatencies) add(endpoint string, micros []float64) {
	l.mu.Lock()
	l.data[endpoint] = append(l.data[endpoint], micros...)
	l.mu.Unlock()
}

func (l *e2eLatencies) summarize() []E2EEndpointResult {
	names := make([]string, 0, len(l.data))
	for name := range l.data {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]E2EEndpointResult, 0, len(names))
	for _, name := range names {
		micros := l.data[name]
		if len(micros) == 0 {
			continue
		}
		sort.Float64s(micros)
		out = append(out, E2EEndpointResult{
			Endpoint:  name,
			Requests:  int64(len(micros)),
			P50Micros: nearestRank(micros, 0.50),
			P90Micros: nearestRank(micros, 0.90),
			P99Micros: nearestRank(micros, 0.99),
			MaxMicros: micros[len(micros)-1],
		})
	}
	return out
}

// sinceMicros is the elapsed time since t0 in microseconds.
func sinceMicros(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }

// callOnce issues one request (see roundTrip) with no retry, requires
// a 200 and decodes the JSON response into out.
func callOnce(client *http.Client, url string, body []byte, out any) error {
	status, _, raw, err := roundTrip(client, url, body)
	if err != nil {
		return fmt.Errorf("bench: %s: %w", url, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("bench: %s status %d: %s", url, status, raw)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("bench: %s response: %w", url, err)
	}
	return nil
}

// RunE2E boots the serving daemon on loopback and measures it under
// concurrent HTTP load. s.Points is the measured ingest volume
// (split across the writers); a fixed warm-up precedes measurement.
func RunE2E(s Scale) (E2EReport, error) {
	srv, err := serveInProcess(s.Rate, server.Config{}, nil)
	if err != nil {
		return E2EReport{}, err
	}
	defer srv.close()
	base := srv.url

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        E2EWriters + E2EReaders + 4,
		MaxIdleConnsPerHost: E2EWriters + E2EReaders + 4,
	}}

	// The workload: the serve experiment's density-mountain lattice,
	// pre-rendered to wire-format request bodies so marshalling cost
	// stays out of the measured client loop.
	total := e2eWarmup + s.Points
	pts := ServeStream(total, s.Seed, s.Rate)
	bodies, err := e2eBodies(pts)
	if err != nil {
		return E2EReport{}, err
	}
	warmupBatches := e2eWarmup / e2eIngestBatch

	// Warm-up through the same network path (single writer, ordered).
	// The shared shed-retry helper absorbs any 429/503 the server
	// emits before it settles; transport errors stay fatal.
	if err := ingestAll(client, base, bodies[:warmupBatches]); err != nil {
		return E2EReport{}, fmt.Errorf("bench: warm-up ingest: %w", err)
	}

	lat := &e2eLatencies{data: map[string][]float64{}}
	var ingested, queries, hits, eventsPages, eventsSeen atomic.Int64
	var firstErr atomic.Value // error

	// Writers split the measured batches round-robin.
	writersDone := make(chan struct{})
	var writerWG sync.WaitGroup
	measured := bodies[warmupBatches:]
	begin := time.Now()
	for w := 0; w < E2EWriters; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			micros := make([]float64, 0, len(measured)/E2EWriters+1)
			npts := 0
			for b := w; b < len(measured); b += E2EWriters {
				t0 := time.Now()
				var ack json.RawMessage
				if err := callOnce(client, base+"/v1/ingest", measured[b], &ack); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				micros = append(micros, sinceMicros(t0))
				npts += e2eIngestBatch
			}
			ingested.Add(int64(npts))
			lat.add("ingest", micros)
		}(w)
	}
	go func() { writerWG.Wait(); close(writersDone) }()

	// Every read-side client loops until the writers finish, timing
	// each call under its endpoint's name; pause separates calls
	// outside the timed window.
	var readWG sync.WaitGroup
	drive := func(endpoint string, pause time.Duration, call func() error) {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			micros := make([]float64, 0, 4096)
			for {
				select {
				case <-writersDone:
					lat.add(endpoint, micros)
					return
				default:
				}
				t0 := time.Now()
				if err := call(); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				micros = append(micros, sinceMicros(t0))
				time.Sleep(pause)
			}
		}()
	}

	// Readers classify in-distribution probe points.
	for r := 0; r < E2EReaders; r++ {
		pos := r * 1997 // decorrelate the readers
		drive("assign", 0, func() error {
			probe := make([]map[string]any, e2eAssignBatch)
			for i := range probe {
				probe[i] = map[string]any{"vector": pts[(pos+i*31)%len(pts)].Vector}
			}
			pos += e2eAssignBatch * 31
			body, err := json.Marshal(probe)
			if err != nil {
				return err
			}
			var out struct {
				Clusters []int `json:"clusters"`
			}
			if err := callOnce(client, base+"/v1/assign", body, &out); err != nil {
				return err
			}
			queries.Add(int64(len(out.Clusters)))
			for _, id := range out.Clusters {
				if id >= 0 {
					hits.Add(1)
				}
			}
			return nil
		})
	}
	// One events consumer follows the evolution cursor by long-poll,
	// and one snapshot poller reads the published clustering: the two
	// read-side endpoints a dashboard would hit.
	cursor := uint64(0)
	drive("events", 0, func() error {
		var out struct {
			Cursor uint64            `json:"cursor"`
			Events []json.RawMessage `json:"events"`
		}
		if err := callOnce(client, fmt.Sprintf("%s/v1/events?cursor=%d&wait=100ms", base, cursor), nil, &out); err != nil {
			return err
		}
		cursor = out.Cursor
		eventsPages.Add(1)
		eventsSeen.Add(int64(len(out.Events)))
		return nil
	})
	drive("snapshot", 10*time.Millisecond, func() error {
		var sink json.RawMessage
		return callOnce(client, base+"/v1/snapshot", nil, &sink)
	})

	<-writersDone
	wall := time.Since(begin)
	readWG.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return E2EReport{}, err
	}

	// Server-side accounting: the engine must hold exactly the points
	// the clients sent — the network path may not drop or duplicate.
	stats, err := fetchStats(client, base+"/v1")
	if err != nil {
		return E2EReport{}, err
	}
	wantPoints := int64(e2eWarmup) + ingested.Load()
	if stats.Engine.Points != wantPoints {
		return E2EReport{}, fmt.Errorf("bench: engine holds %d points, clients sent %d: the network path dropped or duplicated work", stats.Engine.Points, wantPoints)
	}

	size := stats.sample("edmserved_coalescer_batch_points")
	reqs := stats.sample("edmserved_coalescer_batch_requests")
	wait := stats.sample("edmserved_coalescer_batch_wait_seconds")
	rep := E2EReport{
		Schema:             "edmstream-e2e/v1",
		Points:             s.Points,
		Seed:               s.Seed,
		Rate:               s.Rate,
		Writers:            E2EWriters,
		Readers:            E2EReaders,
		WallSeconds:        wall.Seconds(),
		IngestPoints:       ingested.Load(),
		IngestPointsPerSec: float64(ingested.Load()) / wall.Seconds(),
		AssignQueries:      queries.Load(),
		AssignQPS:          float64(queries.Load()) / wall.Seconds(),
		EventsPages:        eventsPages.Load(),
		EventsSeen:         eventsSeen.Load(),
		Endpoints:          lat.summarize(),
		Coalescer: E2ECoalescerResult{
			Batches:            uint64(stats.num("edmserved_coalescer_batches_total")),
			Points:             uint64(stats.num("edmserved_coalescer_points_total")),
			BatchPointsP50:     size.P50,
			BatchPointsP90:     size.P90,
			BatchPointsP99:     size.P99,
			BatchPointsMax:     size.WindowMax,
			BatchRequestsP50:   reqs.P50,
			BatchRequestsP99:   reqs.P99,
			BatchWaitP50Micros: wait.P50 * 1e6,
			BatchWaitP99Micros: wait.P99 * 1e6,
		},
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if queries.Load() > 0 {
		rep.AssignHitRate = float64(hits.Load()) / float64(queries.Load())
	}
	return rep, nil
}

// e2eBodies pre-renders the stream as ingest request bodies of
// e2eIngestBatch points each (dropping the tail remainder).
func e2eBodies(pts []stream.Point) ([][]byte, error) {
	nb := len(pts) / e2eIngestBatch
	bodies := make([][]byte, 0, nb)
	type wirePt struct {
		ID     int64     `json:"id"`
		Vector []float64 `json:"vector"`
		Time   float64   `json:"time"`
	}
	batch := make([]wirePt, e2eIngestBatch)
	for b := 0; b < nb; b++ {
		for i := range batch {
			p := pts[b*e2eIngestBatch+i]
			batch[i] = wirePt{ID: p.ID, Vector: p.Vector, Time: p.Time}
		}
		raw, err := json.Marshal(batch)
		if err != nil {
			return nil, fmt.Errorf("bench: rendering ingest body: %w", err)
		}
		bodies = append(bodies, raw)
	}
	return bodies, nil
}

// FormatE2E renders the report for the terminal.
func FormatE2E(rep E2EReport) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "End-to-end serving: edmserved on loopback, %d HTTP writers + %d HTTP readers\n", rep.Writers, rep.Readers)
	fmt.Fprintf(&b, "  (gomaxprocs %d, %d CPUs)\n", rep.GOMAXPROCS, rep.NumCPU)
	fmt.Fprintf(&b, "ingest: %d points in %.2fs = %.0f points/sec through the full network path\n",
		rep.IngestPoints, rep.WallSeconds, rep.IngestPointsPerSec)
	fmt.Fprintf(&b, "assign: %d queries = %.0f qps, hit rate %.4f\n", rep.AssignQueries, rep.AssignQPS, rep.AssignHitRate)
	fmt.Fprintf(&b, "events: %d long-poll pages delivered %d events\n", rep.EventsPages, rep.EventsSeen)
	fmt.Fprintf(&b, "%-10s %10s %12s %12s %12s %12s\n", "endpoint", "requests", "p50(us)", "p90(us)", "p99(us)", "max(us)")
	for _, e := range rep.Endpoints {
		fmt.Fprintf(&b, "%-10s %10d %12.0f %12.0f %12.0f %12.0f\n",
			e.Endpoint, e.Requests, e.P50Micros, e.P90Micros, e.P99Micros, e.MaxMicros)
	}
	fmt.Fprintf(&b, "coalescer: %d batches for %d points; batch size p50/p90/p99/max = %.0f/%.0f/%.0f/%.0f points, requests/batch p50/p99 = %.0f/%.0f, wait p50/p99 = %.0f/%.0f us\n",
		rep.Coalescer.Batches, rep.Coalescer.Points,
		rep.Coalescer.BatchPointsP50, rep.Coalescer.BatchPointsP90, rep.Coalescer.BatchPointsP99, rep.Coalescer.BatchPointsMax,
		rep.Coalescer.BatchRequestsP50, rep.Coalescer.BatchRequestsP99,
		rep.Coalescer.BatchWaitP50Micros, rep.Coalescer.BatchWaitP99Micros)
	return b.String()
}
