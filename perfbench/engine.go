package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"github.com/densitymountain/edmstream"
	"github.com/densitymountain/edmstream/internal/metrics"
)

// engine-drift: the paper's own setting. One goroutine feeds the
// drifting-mountain stream through Clusterer.InsertBatch with default
// Options; there is no HTTP, so core and index do all the work. Each
// episode builds a fresh engine and feeds it a fixed number of points,
// so the state it ends with (and so heap and checkpoint size) does not
// depend on how fast the engine ran.
const (
	engineBatch         = 256
	engineSnapshotEvery = 64 // batches between Snapshot/EventsSince calls
	probeBatch          = 32 // points per assign call
	probeWindow         = 1024
)

// engineScale sizes one engine-drift episode.
type engineScale struct {
	warmupBatches int // batches fed during set-up
	chunks        int // measured chunks of engineSnapshotEvery batches
	probePasses   int // passes over the probe window in the read phase
	restores      int // checkpoint restores timed per episode
}

var engineFull = engineScale{warmupBatches: 20, chunks: 12, probePasses: 32, restores: 3}

// engineEpisodeOut is what one episode leaves for gates and traces.
type engineEpisodeOut struct {
	loopSnap []byte // the published snapshot right after the measured loop
	points   int64  // points fed in the measured loop
}

// timedCall runs f, recording a span under parent when traced, and
// returns its duration.
func timedCall(tr *tracer, parent uint64, name string, f func()) time.Duration {
	id, start := tr.begin()
	t0 := time.Now()
	f()
	d := time.Since(t0)
	tr.end(id, parent, name, start)
	return d
}

// runEngineEpisode runs one episode: set-up (New plus warm-up), the
// measured loop, the checkpoint round trip, and the read phase over
// the final window. workers sets Options.IngestWorkers (0 = default).
func runEngineEpisode(seed int64, workers int, sc engineScale, tl *tally, tr *tracer) (engineEpisodeOut, error) {
	var out engineEpisodeOut
	opts := engineOptions()
	opts.IngestWorkers = workers
	g := newDriftGen(seed)
	root, rootStart := tr.begin()
	defer func() { tr.end(root, 0, "episode", rootStart) }()

	// Set-up: New to ready, plus warm-up.
	warm := g.fill(nil, sc.warmupBatches*engineBatch)
	t0 := time.Now()
	c, err := edmstream.New(opts)
	if err != nil {
		return out, err
	}
	for b := 0; b < sc.warmupBatches; b++ {
		if err := c.InsertBatch(warm[b*engineBatch : (b+1)*engineBatch]); err != nil {
			return out, fmt.Errorf("warm-up: %w", err)
		}
	}
	tl.setup = append(tl.setup, time.Since(t0).Seconds())
	warm = nil

	// Measured loop. Each chunk is generated before its clock starts;
	// runtime counters are read around the timed part only.
	chunk := make([]edmstream.Point, 0, engineSnapshotEvery*engineBatch)
	var cursor uint64
	var rt runtimeDelta
	var puritySum float64
	var probes, unrestorable int
	ep := tl.newEpisode()
	for ch := 0; ch < sc.chunks; ch++ {
		chunk = g.fill(chunk[:0], engineSnapshotEvery*engineBatch)
		rt.begin()
		start := time.Now()
		for b := 0; b < engineSnapshotEvery; b++ {
			batch := chunk[b*engineBatch : (b+1)*engineBatch]
			var ierr error
			d := timedCall(tr, root, "InsertBatch", func() { ierr = c.InsertBatch(batch) })
			tl.call(ierr == nil)
			if ierr != nil {
				return out, fmt.Errorf("InsertBatch: %w", ierr)
			}
			ep.ingest.add(d)
			if tr != nil && b%checkpointProbeEvery == 0 {
				restored, err := checkpointRestores(c, opts)
				if err != nil {
					return out, err
				}
				probes++
				if !restored {
					unrestorable++
				}
			}
		}
		timedCall(tr, root, "Snapshot", func() { c.Snapshot() })
		timedCall(tr, root, "EventsSince", func() { _, cursor = c.EventsSince(cursor) })
		ep.wall += time.Since(start)
		rt.end()
		n := int64(len(chunk))
		ep.points += n
		out.points += n
		// Untimed: how well the clustering follows the drift, as the
		// purity of the chunk's last window.
		w := chunk[len(chunk)-probeWindow:]
		p, err := metrics.Purity(w, c.AssignBatch(w, nil))
		if err != nil {
			return out, fmt.Errorf("purity: %w", err)
		}
		puritySum += p
	}
	tl.purity = append(tl.purity, puritySum/float64(sc.chunks))
	if probes > 0 {
		tl.layers["core.checkpoint_restore_fail_share"] = float64(unrestorable) / float64(probes)
		tl.notef("checkpoints written right after an InsertBatch: %d of %d fail RestoreCheckpoint", unrestorable, probes)
	}
	window := append([]edmstream.Point(nil), chunk[len(chunk)-probeWindow:]...)
	chunk = nil
	if out.loopSnap, err = json.Marshal(c.LastSnapshot()); err != nil {
		return out, err
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tl.heapMB = append(tl.heapMB, float64(ms.HeapAlloc)/(1<<20))
	st := c.Stats()
	rt.store(tl.layers, out.points)
	coreLayers(tl.layers, engineStatsOf(st), float64(ms.HeapAlloc))

	// Recovery: checkpoint the final engine and restore it into fresh
	// ones; the first restore must reproduce the snapshot exactly.
	var ckpt bytes.Buffer
	var werr error
	wd := timedCall(tr, root, "WriteCheckpoint", func() { werr = c.WriteCheckpoint(&ckpt) })
	if werr != nil {
		return out, fmt.Errorf("WriteCheckpoint: %w", werr)
	}
	tl.layers["core.checkpoint_bytes"] = float64(ckpt.Len())
	tl.layers["core.write_checkpoint_ms"] = wd.Seconds() * 1e3
	var restoreMs []float64
	for i := 0; i < sc.restores; i++ {
		var fresh *edmstream.Clusterer
		var rerr error
		d := timedCall(tr, root, "RestoreCheckpoint", func() {
			if fresh, rerr = edmstream.New(opts); rerr == nil {
				rerr = fresh.RestoreCheckpoint(bytes.NewReader(ckpt.Bytes()))
			}
		})
		if rerr != nil {
			return out, fmt.Errorf("RestoreCheckpoint: %w", rerr)
		}
		tl.recovery = append(tl.recovery, d.Seconds())
		restoreMs = append(restoreMs, d.Seconds()*1e3)
		if i == 0 {
			want, _ := json.Marshal(c.Snapshot())
			got, _ := json.Marshal(fresh.Snapshot())
			if !bytes.Equal(want, got) {
				return out, fmt.Errorf("gate: the restored engine's snapshot differs from the checkpointed one")
			}
		}
	}
	tl.layers["core.restore_checkpoint_ms"] = median(restoreMs)

	// Read phase: classify the final window in calls of probeBatch
	// points, interleaved with snapshot reads.
	var assignTotal time.Duration
	for pass := 0; pass < sc.probePasses; pass++ {
		for i := 0; i < probeWindow; i += probeBatch {
			var ids []int
			d := timedCall(tr, root, "AssignBatch", func() { ids = c.AssignBatch(window[i:i+probeBatch], nil) })
			tl.call(len(ids) == probeBatch)
			ep.assign.add(d)
			assignTotal += d
			ep.snapshot.add(timedCall(tr, root, "Snapshot read", func() { c.Snapshot() }))
			tl.call(true)
		}
	}
	tl.layers["index.assign_us_per_pt"] = assignTotal.Seconds() * 1e6 / float64(sc.probePasses*probeWindow)
	return out, nil
}

// checkpointProbeEvery is how many batches apart the traced episode
// checks that a checkpoint written at that moment restores. The
// server checkpoints right after an ingest batch, so this is the
// moment its crash recovery depends on.
const checkpointProbeEvery = 8

// checkpointRestores writes a checkpoint of c and reports whether a
// fresh engine accepts it.
func checkpointRestores(c *edmstream.Clusterer, opts edmstream.Options) (bool, error) {
	var buf bytes.Buffer
	if err := c.WriteCheckpoint(&buf); err != nil {
		return false, fmt.Errorf("WriteCheckpoint: %w", err)
	}
	fresh, err := edmstream.New(opts)
	if err != nil {
		return false, err
	}
	return fresh.RestoreCheckpoint(&buf) == nil, nil
}

// runtimeDelta accumulates Go runtime counters over the timed parts
// of a run in this process.
type runtimeDelta struct {
	at                  runtimeStats
	mallocs, bytes, gcs uint64
	pauseNs             uint64
	cpuNs               int64
}

func (r *runtimeDelta) begin() { r.at = readRuntime(false) }

func (r *runtimeDelta) end() {
	now := readRuntime(false)
	r.add(r.at, now)
}

func (r *runtimeDelta) add(from, to runtimeStats) {
	r.mallocs += to.Mallocs - from.Mallocs
	r.bytes += to.TotalAlloc - from.TotalAlloc
	r.gcs += uint64(to.NumGC - from.NumGC)
	r.pauseNs += to.PauseTotalNs - from.PauseTotalNs
	r.cpuNs += to.CPUNs - from.CPUNs
}

func (r *runtimeDelta) store(layers map[string]float64, points int64) {
	if points <= 0 {
		return
	}
	layers["runtime.allocs_per_pt"] = float64(r.mallocs) / float64(points)
	layers["runtime.alloc_bytes_per_pt"] = float64(r.bytes) / float64(points)
	layers["runtime.gc_cycles"] = float64(r.gcs)
	layers["runtime.gc_pause_total_ms"] = float64(r.pauseNs) / 1e6
	layers["runtime.cpu_ms_per_kpt"] = float64(r.cpuNs) / 1e6 / (float64(points) / 1e3)
}

func engineStatsOf(st edmstream.Stats) engineStats {
	return engineStats{
		Points:               st.Points,
		CellsCreated:         st.CellsCreated,
		ActiveCells:          st.ActiveCells,
		InactiveCells:        st.InactiveCells,
		DependencyCandidates: st.DependencyCandidates,
		FilteredByDensity:    st.FilteredByDensity,
		FilteredByTriangle:   st.FilteredByTriangle,
		SeedCandidates:       st.SeedCandidates,
		SpeculativeRoutes:    st.SpeculativeRoutes,
		SpeculationMisses:    st.SpeculationMisses,
	}
}

// coreLayers fills the core and index counters from engine stats and
// the live heap they were read with.
func coreLayers(layers map[string]float64, st engineStats, heapBytes float64) {
	pts := float64(max(st.Points, 1))
	live := float64(st.ActiveCells + st.InactiveCells)
	layers["core.cells_created"] = float64(st.CellsCreated)
	layers["core.live_cells_end"] = live
	if live > 0 {
		layers["core.heap_bytes_per_live_cell"] = heapBytes / live
	}
	layers["core.dep_candidates_per_pt"] = float64(st.DependencyCandidates) / pts
	examined := st.DependencyCandidates + st.FilteredByDensity + st.FilteredByTriangle
	if examined > 0 {
		layers["core.filtered_share"] = float64(st.FilteredByDensity+st.FilteredByTriangle) / float64(examined)
	}
	if st.SpeculativeRoutes > 0 {
		layers["core.speculation_hit_ratio"] = 1 - float64(st.SpeculationMisses)/float64(st.SpeculativeRoutes)
	}
	layers["index.seed_candidates_per_pt"] = float64(st.SeedCandidates) / pts
}

// runEngineDrift runs engine-drift episodes until the measuring time
// is used up (at least minEpisodes). Traced, it adds one traced
// episode and the IngestWorkers=1 replay of that episode's stream.
func runEngineDrift(seed int64, seconds float64, sc engineScale, minEpisodes int, tl *tally) error {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for ep := 0; ep < minEpisodes || time.Now().Before(deadline); ep++ {
		// Episodes cycle over minEpisodes streams, and only the first
		// cycle reports heap and purity, so those figures do not depend
		// on how many episodes fit in the time.
		keep := ep < minEpisodes
		heap, purity := len(tl.heapMB), len(tl.purity)
		if _, err := runEngineEpisode(episodeSeed(seed, ep, minEpisodes), 0, sc, tl, nil); err != nil {
			return fmt.Errorf("episode %d: %w", ep, err)
		}
		if !keep {
			tl.heapMB, tl.purity = tl.heapMB[:heap], tl.purity[:purity]
		}
	}
	return nil
}

// traceEngineDrift runs one traced episode and its serial replay and
// derives the span-based per-layer metrics.
func traceEngineDrift(seed int64, sc engineScale, tl *tally) error {
	tr := newTracer()
	par, err := runEngineEpisode(seed, 0, sc, tl, tr)
	if err != nil {
		return fmt.Errorf("traced episode: %w", err)
	}
	spans := tr.take()
	serialTr := newTracer()
	ser, err := runEngineEpisode(seed, 1, sc, newTally(), serialTr)
	if err != nil {
		return fmt.Errorf("serial replay: %w", err)
	}
	if !bytes.Equal(par.loopSnap, ser.loopSnap) {
		return fmt.Errorf("gate: the IngestWorkers=1 replay published a different snapshot")
	}
	byName := spansByName(spans)
	serial := spansByName(serialTr.take())
	tl.layers["core.insert_batch_us_per_pt"] = byName["InsertBatch"].total() * 1e3 / float64(par.points)
	tl.layers["core.insert_batch_serial_us_per_pt"] = serial["InsertBatch"].total() * 1e3 / float64(ser.points)
	// One episode calls Snapshot too rarely for a median under the
	// ten-beyond rule; the serial replay makes the same calls.
	snaps := byName["Snapshot"]
	snaps.merge(serial["Snapshot"])
	if v, err := snaps.quantile(0.5); err == nil {
		tl.layers["core.snapshot_p50_us"] = v * 1e3
		tl.notef("core.snapshot_p50_us: %d spans, %d beyond", snaps.n(), beyond(snaps.n(), 0.5))
	}
	tl.notef("core.insert_batch: %d spans, serial replay %d", byName["InsertBatch"].n(), serial["InsertBatch"].n())
	tl.layers["trace.spans"] = float64(len(spans))
	self := selfTimes(spans)
	for _, s := range spans {
		if s.Name == "episode" {
			tl.notef("trace: episode span %.1f ms, self time (loop and generation outside calls) %.1f ms",
				s.dur().Seconds()*1e3, self[s.ID].Seconds()*1e3)
		}
	}
	return nil
}

// spansByName groups span durations by name.
func spansByName(spans []span) map[string]*timings {
	out := map[string]*timings{}
	for _, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &timings{}
			out[s.Name] = t
		}
		t.add(s.dur())
	}
	return out
}
