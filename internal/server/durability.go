package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/densitymountain/edmstream"
	"github.com/densitymountain/edmstream/internal/archive"
	"github.com/densitymountain/edmstream/internal/obs"
	"github.com/densitymountain/edmstream/internal/wal"
)

// durability owns the server's write-ahead log. The coalescer's writer
// goroutine appends every gathered batch and fsyncs BEFORE the batch is
// committed to the engine and acknowledged, so an HTTP 200 means the
// points survive a crash; a checkpoint of the full engine state is
// taken every CheckpointEvery committed points so recovery replays a
// bounded tail.
//
// All mutating methods run on the writer goroutine (or, for close, on
// the Shutdown goroutine after the writer has exited). HTTP handlers
// never touch the log: they read the obs instruments and the immutable
// RecoveryInfo captured at open.
type durability struct {
	log       *wal.ResilientLog
	ckptEvery int
	sinceCkpt int
	recovery  wal.RecoveryInfo
	ckptBuf   bytes.Buffer

	// Recovery-time budget: a checkpoint is also taken when the points
	// appended since the last one would take longer than budget to
	// replay. The estimate uses the replay rate measured during this
	// boot's recovery, falling back to an EMA of the live engine apply
	// rate when recovery replayed nothing.
	budget     time.Duration
	replayRate float64 // points/second measured during recovery; 0 = unmeasured
	applyRate  float64 // EMA of live InsertBatchAssigned points/second

	fsync         obs.Timing
	ckptTime      obs.Timing
	records       *obs.Counter
	bytesTotal    *obs.Counter
	checkpoints   *obs.Counter
	ckptErrors    *obs.Counter
	probeFailures *obs.Counter
	segments      *obs.Gauge
	retries       *obs.Gauge // mirrors the resilient log's retry count (collect)
	reopens       *obs.Gauge // mirrors the resilient log's reopen count (collect)
	budgetCkpts   *obs.Counter
	estReplayMs   *obs.Gauge // estimated replay time of the current tail
	replayRateG   *obs.Gauge // points/second the estimate divides by
	// Recovery outcome, frozen after open (gauges so they export).
	recoverySeconds  *obs.Gauge
	recoveredRecords *obs.Gauge
	droppedBytes     *obs.Gauge
}

// openDurability opens (or creates) the WAL in dir (the stream's
// namespaced corner of DataDir) and brings the clusterer up to date:
// restore the newest valid checkpoint, then replay the log tail
// through the normal batch-ingest path. Engine determinism makes the
// result byte-identical to the uninterrupted run over the acknowledged
// prefix. labels tags every instrument with the owning stream.
func openDurability(c *edmstream.Clusterer, cfg Config, dir, labels string, reg *obs.Registry, ship *archive.Shipper) (*durability, error) {
	begin := time.Now()
	opts := wal.Options{
		Dir:                 dir,
		SegmentBytes:        cfg.WALSegmentBytes,
		NoSync:              cfg.WALNoSync,
		FS:                  cfg.WALFS,
		CompressCheckpoints: cfg.CheckpointCompress,
	}
	if ship != nil {
		opts.OnSegmentSealed = ship.NoteSegmentSealed
		opts.OnCheckpointSaved = ship.NoteCheckpointSaved
	}
	log, err := wal.OpenResilient(opts, wal.RetryPolicy{MaxAttempts: cfg.WALRetryAttempts})
	if err != nil {
		return nil, fmt.Errorf("server: opening WAL in %s: %w", dir, err)
	}
	if ck := log.Checkpoint(); ck != nil {
		if err := c.RestoreCheckpoint(bytes.NewReader(ck)); err != nil {
			log.Close()
			return nil, fmt.Errorf("server: restoring checkpoint from %s: %w", dir, err)
		}
	}
	replayBegin := time.Now()
	replayedPoints := 0
	err = log.Replay(func(seq uint64, payload []byte) error {
		pts, derr := decodeBatchRecord(payload)
		if derr != nil {
			return fmt.Errorf("record %d: %w", seq, derr)
		}
		if ierr := c.InsertBatch(pts); ierr != nil {
			return fmt.Errorf("record %d: replaying batch: %w", seq, ierr)
		}
		replayedPoints += len(pts)
		return nil
	})
	if err != nil {
		log.Close()
		return nil, fmt.Errorf("server: replaying WAL from %s: %w", dir, err)
	}
	var replayRate float64
	if dur := time.Since(replayBegin).Seconds(); replayedPoints > 0 && dur > 0 {
		replayRate = float64(replayedPoints) / dur
	}

	d := &durability{
		log:        log,
		ckptEvery:  cfg.CheckpointEvery,
		budget:     cfg.RecoveryBudget,
		replayRate: replayRate,
		// The replayed tail is NOT yet covered by a checkpoint: seed
		// the counter so the budget (and CheckpointEvery) see it.
		sinceCkpt:        replayedPoints,
		recovery:         log.Info(),
		fsync:            reg.Timing("edmserved_wal_fsync_seconds", labels),
		ckptTime:         reg.Timing("edmserved_wal_checkpoint_seconds", labels),
		records:          reg.Counter("edmserved_wal_records_total", labels),
		bytesTotal:       reg.Counter("edmserved_wal_bytes_total", labels),
		checkpoints:      reg.Counter("edmserved_wal_checkpoints_total", labels),
		ckptErrors:       reg.Counter("edmserved_wal_checkpoint_errors_total", labels),
		probeFailures:    reg.Counter("edmserved_wal_probe_failures_total", labels),
		segments:         reg.Gauge("edmserved_wal_segments", labels),
		retries:          reg.Gauge("edmserved_wal_append_retries", labels),
		reopens:          reg.Gauge("edmserved_wal_reopens", labels),
		budgetCkpts:      reg.Counter("edmserved_wal_budget_checkpoints_total", labels),
		estReplayMs:      reg.Gauge("edmserved_recovery_est_replay_ms", labels),
		replayRateG:      reg.Gauge("edmserved_recovery_replay_points_per_sec", labels),
		recoverySeconds:  reg.Gauge("edmserved_wal_recovery_seconds_x1000", labels),
		recoveredRecords: reg.Gauge("edmserved_wal_recovered_records", labels),
		droppedBytes:     reg.Gauge("edmserved_wal_recovery_dropped_bytes", labels),
	}
	d.segments.Add(int64(log.Stats().Segments))
	d.recoverySeconds.Add(time.Since(begin).Milliseconds())
	d.recoveredRecords.Add(int64(d.recovery.RecordsReplayable))
	d.droppedBytes.Add(d.recovery.DroppedBytes)
	d.replayRateG.Set(int64(replayRate))
	return d, nil
}

// appendBatch logs one gathered batch and makes it durable, riding the
// resilient log's bounded retry-with-backoff loop across transient
// disk faults. Called on the writer goroutine before the batch reaches
// the engine; an error means the retry budget is exhausted, the batch
// must NOT be committed or acknowledged, and the caller flips the
// server into degraded mode.
func (d *durability) appendBatch(pts []edmstream.Point) error {
	payload := encodeBatchRecord(pts)
	begin := time.Now()
	if _, err := d.log.AppendSync(payload); err != nil {
		return err
	}
	d.fsync.Observe(time.Since(begin))
	d.records.Inc()
	d.bytesTotal.Add(uint64(len(payload)))
	d.syncSegmentGauge()
	return nil
}

// probe is one degraded-mode recovery attempt: reopen the WAL
// directory and prove it writable end to end with a fresh engine
// checkpoint (which also supersedes any ambiguous tail record the
// failure left behind, so the log and the engine agree again). Returns
// true when the server may flip back to healthy.
func (d *durability) probe(c *edmstream.Clusterer) bool {
	if err := d.log.Reopen(); err != nil {
		d.probeFailures.Inc()
		return false
	}
	if !d.checkpoint(c) {
		d.probeFailures.Inc()
		return false
	}
	d.sinceCkpt = 0
	return true
}

// noteCommitted runs after a batch was committed to the engine; every
// CheckpointEvery committed points it snapshots the engine into the
// log, bounding the replay tail. A failed checkpoint is counted and
// retried at the next boundary — the log itself still covers
// everything, so durability is not at risk, only recovery time.
//
// With a RecoveryBudget, the boundary is ALSO crossed when the tail's
// estimated replay time (points since the last checkpoint divided by
// the measured replay rate) exceeds the budget: the point-count knob
// bounds checkpoint I/O, the budget bounds restart time, whichever
// bites first wins.
func (d *durability) noteCommitted(c *edmstream.Clusterer, points int) {
	d.sinceCkpt += points
	over := d.sinceCkpt >= d.ckptEvery
	budgetHit := false
	if !over && d.budget > 0 {
		if rate := d.recoveryRate(); rate > 0 {
			est := float64(d.sinceCkpt) / rate
			d.estReplayMs.Set(int64(est * 1000))
			budgetHit = est > d.budget.Seconds()
		}
	}
	if !over && !budgetHit {
		return
	}
	if d.checkpoint(c) {
		if budgetHit {
			d.budgetCkpts.Inc()
		}
		d.sinceCkpt = 0
		d.estReplayMs.Set(0)
	}
}

// recoveryRate is the points-per-second divisor for replay estimates:
// the rate measured during this boot's recovery when it replayed
// anything, otherwise the live apply-rate EMA (replay IS batch apply —
// it runs the same InsertBatch path without HTTP in front).
func (d *durability) recoveryRate() float64 {
	if d.replayRate > 0 {
		return d.replayRate
	}
	return d.applyRate
}

// noteApply feeds the apply-rate EMA from the coalescer's measured
// engine-insert timings. Writer goroutine only.
func (d *durability) noteApply(points int, dur time.Duration) {
	if points <= 0 || dur <= 0 {
		return
	}
	rate := float64(points) / dur.Seconds()
	const alpha = 0.2
	if d.applyRate == 0 {
		d.applyRate = rate
	} else {
		d.applyRate += alpha * (rate - d.applyRate)
	}
	if d.replayRate == 0 {
		d.replayRateG.Set(int64(d.applyRate))
	}
}

// checkpoint snapshots the engine state into the log, reporting
// success.
func (d *durability) checkpoint(c *edmstream.Clusterer) bool {
	begin := time.Now()
	d.ckptBuf.Reset()
	if err := c.WriteCheckpoint(&d.ckptBuf); err != nil {
		d.ckptErrors.Inc()
		return false
	}
	if err := d.log.SaveCheckpoint(d.ckptBuf.Bytes()); err != nil {
		d.ckptErrors.Inc()
		return false
	}
	d.ckptTime.Observe(time.Since(begin))
	d.checkpoints.Inc()
	d.syncSegmentGauge()
	return true
}

func (d *durability) syncSegmentGauge() {
	cur := d.log.Stats().Segments
	if delta := int64(cur) - d.segments.Value(); delta != 0 {
		d.segments.Add(delta)
	}
}

// syncRetryGauges mirrors the resilient log's retry/reopen counters
// into the registry; Server.collect calls it before each render. The
// counters are atomics, so any goroutine may.
func (d *durability) syncRetryGauges() {
	d.retries.Set(int64(d.log.Retries()))
	d.reopens.Set(int64(d.log.Reopens()))
}

// close takes a final checkpoint (so a restart replays nothing) and
// closes the log. Called after the writer goroutine has exited —
// receiving on the coalescer's done channel orders every writer-side
// log operation before this one.
func (d *durability) close(c *edmstream.Clusterer) error {
	if d.sinceCkpt > 0 {
		d.checkpoint(c)
	}
	return d.log.Close()
}

// ---- Batch record codec ----
//
// WAL record payloads are a hand-rolled little-endian encoding of the
// batch's points — no reflection, no maps, deterministic bytes:
//
//	u8  version (1)
//	u32 point count
//	per point:
//	  u64 id, u64 time bits, u64 label (two's complement), u8 kind
//	  kind 0 (vector): u32 dim, dim × u64 float bits
//	  kind 1 (tokens): u32 count, count × (u32 len, bytes), sorted

const batchRecordVersion = 1

const (
	pointKindVector = 0
	pointKindTokens = 1
)

// minPointBytes is the smallest encoded point: id, time and label
// (u64 each), the kind byte and the u32 dimension or token count.
const minPointBytes = 8 + 8 + 8 + 1 + 4

// encodeBatchRecord serializes a batch for the WAL.
func encodeBatchRecord(pts []edmstream.Point) []byte {
	n := 5
	for i := range pts {
		n += minPointBytes
		if pts[i].Tokens != nil {
			for tok := range pts[i].Tokens {
				n += 4 + len(tok)
			}
		} else {
			n += 8 * len(pts[i].Vector)
		}
	}
	buf := make([]byte, 0, n)
	buf = append(buf, batchRecordVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pts)))
	for i := range pts {
		p := &pts[i]
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.ID))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Time))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(p.Label)))
		if p.Tokens != nil {
			buf = append(buf, pointKindTokens)
			toks := p.Tokens.Tokens()
			sort.Strings(toks)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(toks)))
			for _, tok := range toks {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(len(tok)))
				buf = append(buf, tok...)
			}
		} else {
			buf = append(buf, pointKindVector)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Vector)))
			for _, v := range p.Vector {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		}
	}
	return buf
}

// decodeBatchRecord parses a WAL record payload back into points. The
// payload already passed the WAL's CRC, so errors here mean a version
// mismatch or an encoder bug, not disk corruption — but the bounds are
// checked anyway: recovery must never panic on any input.
func decodeBatchRecord(payload []byte) ([]edmstream.Point, error) {
	r := recordReader{buf: payload}
	version, err := r.u8()
	if err != nil {
		return nil, err
	}
	if version != batchRecordVersion {
		return nil, fmt.Errorf("batch record version %d, want %d", version, batchRecordVersion)
	}
	count, err := r.u32()
	if err != nil {
		return nil, err
	}
	// Bound the claimed count by the bytes left before sizing the
	// slice, so a short record cannot allocate for millions of points.
	if int(count) > len(r.buf)/minPointBytes {
		return nil, fmt.Errorf("batch record claims %d points in %d bytes", count, len(r.buf))
	}
	pts := make([]edmstream.Point, count)
	for i := range pts {
		p := &pts[i]
		var id, timeBits, label uint64
		if id, err = r.u64(); err == nil {
			if timeBits, err = r.u64(); err == nil {
				label, err = r.u64()
			}
		}
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		p.ID = int64(id)
		p.Time = math.Float64frombits(timeBits)
		p.Label = int(int64(label))
		kind, err := r.u8()
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		n, err := r.u32()
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		switch kind {
		case pointKindVector:
			if int(n) > len(r.buf)/8+1 {
				return nil, fmt.Errorf("point %d claims %d coordinates in %d bytes", i, n, len(r.buf))
			}
			p.Vector = make([]float64, n)
			for j := range p.Vector {
				bits, err := r.u64()
				if err != nil {
					return nil, fmt.Errorf("point %d coordinate %d: %w", i, j, err)
				}
				p.Vector[j] = math.Float64frombits(bits)
			}
		case pointKindTokens:
			// Every token carries a 4-byte length prefix; bound the
			// claimed count by the bytes left before sizing the set.
			if int(n) > len(r.buf)/4 {
				return nil, fmt.Errorf("point %d claims %d tokens in %d bytes", i, n, len(r.buf))
			}
			p.Tokens = make(edmstream.TokenSet, n)
			for j := 0; j < int(n); j++ {
				tok, err := r.str()
				if err != nil {
					return nil, fmt.Errorf("point %d token %d: %w", i, j, err)
				}
				p.Tokens.Add(tok)
			}
		default:
			return nil, fmt.Errorf("point %d has unknown kind %d", i, kind)
		}
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("batch record has %d trailing bytes", len(r.buf))
	}
	return pts, nil
}

// recordReader is a bounds-checked cursor over a record payload.
type recordReader struct{ buf []byte }

func (r *recordReader) u8() (byte, error) {
	if len(r.buf) < 1 {
		return 0, fmt.Errorf("truncated record")
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v, nil
}

func (r *recordReader) u32() (uint32, error) {
	if len(r.buf) < 4 {
		return 0, fmt.Errorf("truncated record")
	}
	v := binary.LittleEndian.Uint32(r.buf)
	r.buf = r.buf[4:]
	return v, nil
}

func (r *recordReader) u64() (uint64, error) {
	if len(r.buf) < 8 {
		return 0, fmt.Errorf("truncated record")
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v, nil
}

func (r *recordReader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if int(n) > len(r.buf) {
		return "", fmt.Errorf("truncated record")
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s, nil
}
