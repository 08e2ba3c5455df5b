package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/densitymountain/edmstream"
	"github.com/densitymountain/edmstream/internal/metrics"
	"github.com/densitymountain/edmstream/internal/server"
)

// serve-mixed: an open loop on a fixed schedule over two connections.
// One connection ingests the drifting stream at a fixed rate in
// 128-point requests; the other sends /v1/assign with 32 probes,
// /v1/snapshot and /v1/events catch-up at fixed rates. Every request
// is timed from when it was due, so a stall also counts against the
// requests queued behind it. The SUT serves in memory.
type serveScale struct {
	ingestRate   float64 // points per second
	assignRate   float64 // requests per second
	snapshotRate float64
	eventsRate   float64
	warmupPoints int // fed during set-up, in warmupBatch-point requests
	setups       int // set-ups timed per run (the last one is measured)
}

var serveFull = serveScale{
	ingestRate: 10000, assignRate: 500, snapshotRate: 100, eventsRate: 20,
	warmupPoints: 6400, setups: 3,
}

// op is one scheduled request.
type op struct {
	due   time.Duration // offset from the schedule start
	kind  string        // "ingest", "assign", "snapshot" or "events"
	body  []byte
	probe []edmstream.Point // an assign's points, with their labels
}

// schedule lays out the two connections' requests for the measured
// phase: bodies are the ingest requests in stream order, pts the whole
// stream, warm-up included. Assign probes are 32 points of the last
// ingest batch due before them.
func schedule(sc serveScale, seconds float64, bodies [][]byte, pts []edmstream.Point) (writer, reader []op, err error) {
	ingestEvery := time.Duration(float64(ingestBatch) / sc.ingestRate * float64(time.Second))
	total := time.Duration(seconds * float64(time.Second))
	for i := 0; time.Duration(i)*ingestEvery < total && i < len(bodies); i++ {
		writer = append(writer, op{due: time.Duration(i) * ingestEvery, kind: "ingest", body: bodies[i]})
	}
	add := func(kind string, rate float64) error {
		every := time.Duration(float64(time.Second) / rate)
		for k := 0; time.Duration(k)*every < total; k++ {
			due := time.Duration(k) * every
			o := op{due: due, kind: kind}
			if kind == "assign" {
				// The batch due most recently (the warm-up's end at first).
				b := int(due/ingestEvery) - 1
				off := sc.warmupPoints + b*ingestBatch + (k%(ingestBatch/probeBatch))*probeBatch
				o.probe = pts[off : off+probeBatch]
				probe, err := renderProbes(o.probe)
				if err != nil {
					return err
				}
				o.body = probe[0]
			}
			reader = append(reader, o)
		}
		return nil
	}
	for _, k := range []struct {
		kind string
		rate float64
	}{{"assign", sc.assignRate}, {"snapshot", sc.snapshotRate}, {"events", sc.eventsRate}} {
		if err := add(k.kind, k.rate); err != nil {
			return nil, nil, err
		}
	}
	sort.SliceStable(reader, func(i, j int) bool { return reader[i].due < reader[j].due })
	return writer, reader, nil
}

// sample is one answered request: its kind, when it was due, and its
// latency from then.
type sample struct {
	kind     string
	due, lat time.Duration
}

// sendResult is one connection's outcome.
type sendResult struct {
	answered []sample
	late     timings // send time minus due time
	ok, bad  int64
	acked    [][]byte // ingest bodies acknowledged, in send order
	lastDone time.Time
	// classified holds every answered assign: its points (with their
	// labels) and the clusters the SUT put them in, for purity.
	classified []classified
}

type classified struct {
	due      time.Duration
	points   []edmstream.Point
	clusters []int
}

// serveWindow is the length of the schedule windows whose medians the
// end-to-end metrics take the median of.
const serveWindow = 5 * time.Second

// send runs one connection's schedule.
func send(c *conn, ops []op, start time.Time) *sendResult {
	r := &sendResult{}
	var cursor uint64
	for _, o := range ops {
		due := start.Add(o.due)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		r.late.add(time.Since(due))
		var st int
		var raw []byte
		var err error
		switch o.kind {
		case "ingest":
			st, raw, err = c.do("POST", "/v1/ingest", o.body, o.kind)
		case "assign":
			st, raw, err = c.do("POST", "/v1/assign", o.body, o.kind)
		case "snapshot":
			st, raw, err = c.do("GET", "/v1/snapshot", nil, o.kind)
		case "events":
			st, raw, err = c.do("GET", "/v1/events?cursor="+strconv.FormatUint(cursor, 10), nil, o.kind)
		}
		d := time.Since(due)
		if err != nil || st != http.StatusOK {
			r.bad++
			continue
		}
		r.ok++
		r.answered = append(r.answered, sample{kind: o.kind, due: o.due, lat: d})
		switch o.kind {
		case "ingest":
			r.acked = append(r.acked, o.body)
			r.lastDone = time.Now()
		case "assign":
			var as struct {
				Clusters []int `json:"clusters"`
			}
			if json.Unmarshal(raw, &as) == nil && len(as.Clusters) == len(o.probe) {
				r.classified = append(r.classified, classified{o.due, o.probe, as.Clusters})
			}
		case "events":
			var ev struct {
				Cursor uint64 `json:"cursor"`
			}
			if json.Unmarshal(raw, &ev) == nil {
				cursor = ev.Cursor
			}
		}
	}
	return r
}

func runServeMixed(seed int64, seconds float64, sc serveScale, tl *tally, traced bool) error {
	g := newDriftGen(seed)
	pts := g.fill(nil, sc.warmupPoints+int(seconds*sc.ingestRate)+2*ingestBatch)
	warm, err := renderIngest(pts[:sc.warmupPoints], warmupBatch)
	if err != nil {
		return err
	}
	bodies, err := renderIngest(pts[sc.warmupPoints:], ingestBatch)
	if err != nil {
		return err
	}
	writerOps, readerOps, err := schedule(sc, seconds, bodies, pts)
	if err != nil {
		return err
	}

	// Set-up, several times; the last SUT is the one measured.
	var p *sutProc
	for i := 0; i < sc.setups; i++ {
		if p != nil {
			p.kill()
		}
		var d time.Duration
		if p, d, err = setUp("", traced, warm); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		tl.setup = append(tl.setup, d.Seconds())
	}
	defer p.kill()

	ctl := newConn(p.ctl, nil)
	defer func() { ctl.close() }()
	c := newConn(p.base, nil)
	defer func() { c.close() }()
	r0, err := runtimeOf(ctl, false)
	if err != nil {
		return err
	}
	m0, err := scrape(c)
	if err != nil {
		return err
	}

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	var wres, rres *sendResult
	wg.Add(2)
	go func() {
		defer wg.Done()
		wc := newConn(p.base, tr)
		defer wc.close()
		wres = send(wc, writerOps, start)
	}()
	go func() {
		defer wg.Done()
		rc := newConn(p.base, tr)
		defer rc.close()
		rres = send(rc, readerOps, start)
	}()
	wg.Wait()
	ackedPts := int64(len(wres.acked) * ingestBatch)
	wall := wres.lastDone.Sub(start)
	tl.attempted += wres.ok + wres.bad + rres.ok + rres.bad
	tl.failed += wres.bad + rres.bad
	windows(tl, seconds, append(wres.answered, rres.answered...))

	r1, err := runtimeOf(ctl, true)
	if err != nil {
		return err
	}
	tl.heapMB = append(tl.heapMB, float64(r1.HeapLive)/(1<<20))
	m1, err := scrape(c)
	if err != nil {
		return err
	}
	_, st, err := statsOf(c)
	if err != nil {
		return err
	}
	if want := ackedPts + int64(sc.warmupPoints); st.Points != want {
		return fmt.Errorf("gate: the engine holds %d points, %d were acknowledged", st.Points, want)
	}
	snap, err := c.getOK("/v1/snapshot")
	if err != nil {
		return err
	}
	serverLayers(tl.layers, m0, m1, wall, ackedPts)
	runtimeLayers(tl.layers, r0, r1, ackedPts)
	coreLayers(tl.layers, st, float64(r1.HeapLive))
	var late timings
	late.merge(&wres.late)
	late.merge(&rres.late)
	if v, err := late.quantile(0.99); err == nil {
		tl.layers["client.late_p99_ms"] = v
		tl.notef("sender lateness p99 %.4f ms over %d requests", v, late.n())
	}
	if traced {
		hs, err := handlerSpansOf(ctl)
		if err != nil {
			return err
		}
		ts := &traceSpans{client: tr.take(), handler: hs, waitMs: coalescerShareMs(m0, m1), points: ackedPts}
		ts.store(tl)
	}

	// Gate: an in-process reference server fed the same acknowledged
	// request batches in send order publishes a byte-identical snapshot.
	ref, err := referenceSnapshot(append(append([][]byte(nil), warm...), wres.acked...))
	if err != nil {
		return err
	}
	if !bytes.Equal(ref, snap) {
		return fmt.Errorf("gate: the SUT's final snapshot differs from the in-process reference's")
	}

	purity, err := livePurity(rres.classified)
	if err != nil {
		return err
	}
	tl.purity = append(tl.purity, purity)

	return nil
}

// puritySegment is the stretch of schedule over which live assign
// answers are pooled for one purity figure. Cluster ids persist while
// generator labels split, merge and vanish, so pooling a whole run
// would score id continuity rather than the clustering at any moment.
const puritySegment = time.Second

// livePurity is the mean, over the schedule's one-second segments, of
// the purity of the probes the SUT classified in that segment.
func livePurity(answers []classified) (float64, error) {
	var sum float64
	var n int
	for lo := 0; lo < len(answers); {
		seg := answers[lo].due / puritySegment
		var pts []edmstream.Point
		var ids []int
		hi := lo
		for ; hi < len(answers) && answers[hi].due/puritySegment == seg; hi++ {
			pts = append(pts, answers[hi].points...)
			ids = append(ids, answers[hi].clusters...)
		}
		p, err := metrics.Purity(pts, ids)
		if err != nil {
			return 0, fmt.Errorf("purity of segment %d: %w", seg, err)
		}
		sum += p
		n++
		lo = hi
	}
	if n == 0 {
		return 0, fmt.Errorf("purity: no assign request was answered")
	}
	return sum / float64(n), nil
}

// windows splits the answered requests into serveWindow-long windows
// of the schedule, by due time, one episode each.
func windows(tl *tally, seconds float64, answered []sample) {
	total := time.Duration(seconds * float64(time.Second))
	n := int((total + serveWindow - 1) / serveWindow)
	eps := make([]*episode, n)
	for i := range eps {
		eps[i] = tl.newEpisode()
	}
	events := &timings{}
	for _, a := range answered {
		w := min(int(a.due/serveWindow), n-1)
		e := eps[w]
		switch a.kind {
		case "ingest":
			e.ingest.add(a.lat)
			e.points += ingestBatch
			// A window's ingest time runs from its start to its last ack.
			e.wall = max(e.wall, a.due+a.lat-time.Duration(w)*serveWindow)
		case "assign":
			e.assign.add(a.lat)
		case "snapshot":
			e.snapshot.add(a.lat)
		case "events":
			events.add(a.lat)
		}
	}
	if v, err := events.quantile(0.5); err == nil {
		tl.notef("events catch-up p50 %.4f ms over %d requests", v, events.n())
	}
}

// referenceSnapshot feeds the bodies in order to an in-process server
// with the SUT's engine options (in memory, no coalesce window) and
// returns its /v1/snapshot body.
func referenceSnapshot(bodies [][]byte) ([]byte, error) {
	c, err := edmstream.New(engineOptions())
	if err != nil {
		return nil, err
	}
	cfg := sutConfig("")
	cfg.CoalesceWindow = 0
	s, err := server.New(c, cfg)
	if err != nil {
		return nil, err
	}
	s.StartDetached()
	defer func() {
		_ = s.Shutdown(context.Background())
	}()
	h := s.Handler()
	for i, b := range bodies {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/ingest", bytes.NewReader(b)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("reference ingest %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/snapshot", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("reference snapshot: status %d", rec.Code)
	}
	return rec.Body.Bytes(), nil
}
