package main

import (
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// ingest-durable: two HTTP writers post 128-point batches to
// /v1/ingest as fast as acks return (a closed loop) against a SUT with
// a fresh data directory, fsync on. After the last ack the SUT is
// SIGKILLed and restarted on the same directory, several times, and
// the recovered SUT serves the read phase. Each episode sends a fixed
// number of points, so the state at the kill and the WAL replayed at
// restart do not depend on how fast the ingest ran.
//
// An episode sends 40,960 points, fewer than the default checkpoint
// cadence of 50k, so recovery replays the whole WAL and restores no
// checkpoint: at this revision a checkpoint written right after an
// ingest batch often fails to restore (engine-drift's traced run
// measures how often, as core.checkpoint_restore_fail_share), and a
// restart from such a checkpoint fails outright.
const ingestWriters = 2

// ingestScale sizes one ingest-durable episode.
type ingestScale struct {
	warmupPoints int // fed during set-up, in warmupBatch-point requests
	requests     int // measured requests, split across the writers
	restarts     int // SIGKILL and restart cycles
	probePasses  int // read-phase passes over the final window
	minEpisodes  int
}

var ingestFull = ingestScale{warmupPoints: 6400, requests: 270, restarts: 3, probePasses: 16, minEpisodes: 5}

// runIngestDurable runs episodes until seconds are used up (at least
// minEpisodes). Episodes cycle over minEpisodes streams, and only the
// first cycle reports heap and purity. Traced, it runs minEpisodes+1
// episodes, enough spans for the ten-beyond rule at p99.
func runIngestDurable(seed int64, seconds float64, sc ingestScale, tl *tally, traced bool) error {
	var tr *tracer
	var ts *traceSpans
	if traced {
		tr, ts = newTracer(), &traceSpans{}
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	more := func(ep int) bool {
		if traced {
			return ep <= sc.minEpisodes
		}
		return ep < sc.minEpisodes || time.Now().Before(deadline)
	}
	for ep := 0; more(ep); ep++ {
		heap, purity := len(tl.heapMB), len(tl.purity)
		if err := ingestEpisode(episodeSeed(seed, ep, sc.minEpisodes), sc, tl, tr, ts); err != nil {
			return fmt.Errorf("episode %d: %w", ep, err)
		}
		if ep >= sc.minEpisodes {
			tl.heapMB, tl.purity = tl.heapMB[:heap], tl.purity[:purity]
		}
	}
	if traced {
		ts.store(tl)
	}
	return nil
}

// ingestEpisode runs one episode; tr and ts are nil when untraced.
func ingestEpisode(seed int64, sc ingestScale, tl *tally, tr *tracer, ts *traceSpans) error {
	traced := tr != nil
	g := newDriftGen(seed)
	pts := g.fill(nil, sc.warmupPoints+sc.requests*ingestBatch)
	warm, err := renderIngest(pts[:sc.warmupPoints], warmupBatch)
	if err != nil {
		return err
	}
	measured, err := renderIngest(pts[sc.warmupPoints:], ingestBatch)
	if err != nil {
		return err
	}
	window := pts[len(pts)-probeWindow:]
	probes, err := renderProbes(window)
	if err != nil {
		return err
	}
	dir, err := newDataDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	p, setup, err := setUp(dir, traced, warm)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer func() { p.kill() }()
	tl.setup = append(tl.setup, setup.Seconds())
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

	// Measured phase: the writers take the next body in stream order.
	ep := tl.newEpisode()
	var next, acked atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	begin := time.Now()
	for w := 0; w < ingestWriters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc := newConn(p.base, tr)
			defer wc.close()
			var local timings
			var ok, bad int64
			for {
				i := next.Add(1) - 1
				if i >= int64(len(measured)) {
					break
				}
				t0 := time.Now()
				st, _, err := wc.do("POST", "/v1/ingest", measured[i], "ingest")
				d := time.Since(t0)
				if err == nil && st == http.StatusOK {
					local.add(d)
					acked.Add(ingestBatch)
					ok++
				} else {
					bad++
				}
			}
			mu.Lock()
			ep.ingest.merge(&local)
			tl.attempted += ok + bad
			tl.failed += bad
			mu.Unlock()
		}()
	}
	wg.Wait()
	wall := time.Since(begin)
	ep.wall, ep.points = wall, acked.Load()

	r1, err := runtimeOf(ctl, true)
	if err != nil {
		return err
	}
	tl.heapMB = append(tl.heapMB, float64(r1.HeapLive)/(1<<20))
	m1, err := scrape(c)
	if err != nil {
		return err
	}
	engineRaw, st, err := statsOf(c)
	if err != nil {
		return err
	}
	if want := acked.Load() + int64(sc.warmupPoints); st.Points != want {
		return fmt.Errorf("gate: the engine holds %d points, %d were acknowledged", st.Points, want)
	}
	snap, err := c.getOK("/v1/snapshot")
	if err != nil {
		return err
	}
	serverLayers(tl.layers, m0, m1, wall, acked.Load())
	runtimeLayers(tl.layers, r0, r1, acked.Load())
	coreLayers(tl.layers, st, float64(r1.HeapLive))
	if traced {
		if err := ts.collect(ctl, tr, m0, m1, acked.Load()); err != nil {
			return err
		}
	}

	// Recovery: SIGKILL and restart on the same directory.
	for i := 0; i < sc.restarts; i++ {
		c.close()
		ctl.close()
		np, err := recoverSUT(p, dir, traced, snap, engineRaw, tl)
		if err != nil {
			return fmt.Errorf("restart %d: %w", i, err)
		}
		p = np
		c, ctl = newConn(p.base, nil), newConn(p.ctl, nil)
		if i == 0 {
			m, err := scrape(c)
			if err != nil {
				return err
			}
			tl.layers["wal.recovery_ms"] = m["edmserved_wal_recovery_seconds_x1000"]
			tl.layers["wal.replayed_records"] = m["edmserved_wal_recovered_records"]
		}
	}

	// Read phase against the recovered SUT.
	rc := newConn(p.base, tr)
	defer rc.close()
	purity, err := readPhase(rc, probes, window, sc.probePasses, tl, ep)
	if err != nil {
		return fmt.Errorf("read phase: %w", err)
	}
	tl.purity = append(tl.purity, purity)
	if traced {
		return ts.collect(ctl, tr, nil, nil, 0)
	}
	return nil
}
