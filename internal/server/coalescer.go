package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/densitymountain/edmstream"
	"github.com/densitymountain/edmstream/internal/obs"
)

// errDraining is returned to ingest requests that arrive (or are
// still queued unserviced) while the server shuts down.
var errDraining = errors.New("server is draining")

// ingestReq is one HTTP ingest request queued for coalescing.
type ingestReq struct {
	pts []edmstream.Point
	// enqueued is when the request entered the queue; the coalescer
	// reports the oldest request's queue time as the batch wait.
	enqueued time.Time
	// reply receives exactly one ingestReply once the request's
	// points are committed (or the commit failed). Buffered so the
	// coalescer never blocks on a slow or vanished client.
	reply chan ingestReply
}

type ingestReply struct {
	cells []int64
	err   error
}

// coalescer accumulates concurrently arriving ingest requests into
// single InsertBatchAssigned calls under single-writer ownership of
// the clusterer's write path. Its batching policy is group commit:
// each pass takes everything that queued while the previous commit
// (WAL append, fsync, apply) ran, up to maxBatch points, and commits
// it at once. Batches grow exactly when commits are slow enough to
// make them worth having, and a lone request never waits. Each
// request's per-point cell acks are carved out of the batch ack slice
// and delivered on its reply channel.
//
// The writer is no longer a dedicated goroutine: runOne performs one
// bounded pass (gather + flush one batch) and is scheduled through a
// tenant.Pool handle, whose state machine guarantees runOne never runs
// concurrently with itself. Every mutation of the coalescer's owned
// state (carry, reused slices, the engine, the WAL) happens inside
// runOne, so per-stream semantics are exactly the dedicated-goroutine
// ones while N streams share a bounded worker set.
type coalescer struct {
	c        *edmstream.Clusterer
	queue    chan *ingestReq
	maxBatch int

	// wake schedules a runOne pass (the stream's pool-handle Wake).
	// Called by submit after every enqueue and by the janitor to
	// request a degraded-mode probe.
	wake func()

	// probeWanted is the janitor's probe request flag: runOne services
	// it first, under the same single-ownership the probe's WAL and
	// checkpoint writes require.
	probeWanted atomic.Bool

	// carry holds a request dequeued during gather that would push
	// the open batch past maxBatch; it becomes the trigger of the
	// next batch. With per-request point counts capped at maxBatch by
	// the HTTP layer, no committed batch ever exceeds maxBatch points.
	carry *ingestReq

	// stop is closed (once) to begin shutdown: the next runOne pass
	// drains whatever is queued, flushes, and closes done. Requests
	// still queued when the drain finishes get errDraining.
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	doneOnce sync.Once

	// onFlush, when non-nil, runs on the writer goroutine after every
	// committed batch (the server uses it to detect new evolution
	// events and wake long-pollers).
	onFlush func()

	// dur, when non-nil, is the durability subsystem: every gathered
	// batch is appended to the WAL and fsynced before it reaches the
	// engine, and committed point counts drive the checkpoint cadence.
	// Owned by the writer goroutine, like the clusterer.
	dur *durability

	// deg, when non-nil, is the stream's degraded-mode state machine:
	// an exhausted WAL retry budget flips it on (failing the batch and
	// everything queued behind it with errDegraded), and a janitor-
	// requested probe (probeWanted) flips it back off once the log
	// recovers.
	deg *degradedState

	// Telemetry: batch size in points, requests per batch, queue wait
	// of the oldest request in each batch, successful flush latency
	// (the admission estimator's service-time input), and totals.
	batchSize     *obs.Sample
	batchReqs     *obs.Sample
	batchWait     obs.Timing
	flushSeconds  obs.Timing
	batches       *obs.Counter
	pointsTotal   *obs.Counter
	pending       *obs.Gauge
	rejectsTotal  *obs.Counter
	clientCancels *obs.Counter
	// lastFlush is the latest successful flush latency in nanoseconds,
	// so the admission estimator sees a disk that just turned slow
	// before the slow flushes dominate flushSeconds' window.
	lastFlush atomic.Int64

	// Reused across batches so a steady-state flush does not allocate
	// for the concatenation.
	pts  []edmstream.Point
	acks []int64
	reqs []*ingestReq
}

func newCoalescer(c *edmstream.Clusterer, cfg Config, reg *obs.Registry, labels string) *coalescer {
	return &coalescer{
		c:             c,
		queue:         make(chan *ingestReq, cfg.MaxPending),
		maxBatch:      cfg.MaxBatch,
		stop:          make(chan struct{}),
		done:          make(chan struct{}),
		batchSize:     reg.Sample("edmserved_coalescer_batch_points", labels),
		batchReqs:     reg.Sample("edmserved_coalescer_batch_requests", labels),
		batchWait:     reg.Timing("edmserved_coalescer_batch_wait_seconds", labels),
		flushSeconds:  reg.Timing("edmserved_coalescer_flush_seconds", labels),
		batches:       reg.Counter("edmserved_coalescer_batches_total", labels),
		pointsTotal:   reg.Counter("edmserved_coalescer_points_total", labels),
		pending:       reg.Gauge("edmserved_coalescer_pending_requests", labels),
		rejectsTotal:  reg.Counter("edmserved_coalescer_rejects_total", labels),
		clientCancels: reg.Counter("edmserved_coalescer_client_cancels_total", labels),
	}
}

// submit queues one request's pre-validated points and waits for the
// commit ack. It is called from request goroutines; backpressure is a
// blocking send on the bounded queue. After the ack the returned cell
// slice is owned by the caller.
func (co *coalescer) submit(ctx context.Context, pts []edmstream.Point) ([]int64, error) {
	// Fast-fail once shutdown began: without this check the send
	// below could win a race against the closed stop channel and park
	// a request the drain pass has already run past.
	select {
	case <-co.stop:
		co.rejectsTotal.Inc()
		return nil, errDraining
	default:
	}
	req := &ingestReq{pts: pts, enqueued: time.Now(), reply: make(chan ingestReply, 1)}
	select {
	case co.queue <- req:
		co.pending.Add(1)
		if co.wake != nil {
			// Schedule a writer pass; Wake coalesces with a pass already
			// queued or re-arms one in flight, so a burst costs one wake.
			co.wake()
		}
	case <-co.stop:
		co.rejectsTotal.Inc()
		return nil, errDraining
	case <-ctx.Done():
		// A cancelled enqueue commits nothing; count the client-gone
		// case separately from deadline sheds so the operator can tell
		// impatient clients from an overloaded queue.
		if errors.Is(ctx.Err(), context.Canceled) {
			co.clientCancels.Inc()
		}
		return nil, ctx.Err()
	}
	// Once queued, the request is serviced even if the client goes
	// away: the commit is cheap and bounded by the flush cadence, and
	// completing it keeps "acknowledged implies applied" exact.
	select {
	case rep := <-req.reply:
		return rep.cells, rep.err
	case <-co.done:
		// The writer drained and exited; it may have serviced this
		// request just before exiting, so prefer a waiting reply.
		select {
		case rep := <-req.reply:
			return rep.cells, rep.err
		default:
			co.pending.Add(-1)
			co.rejectsTotal.Inc()
			return nil, errDraining
		}
	}
}

// runOne is one writer pass, executed with single-ownership by a
// tenant.Pool worker: service a requested degraded-mode recovery
// probe, then gather and flush at most one batch. It returns true when
// work is already queued behind it, in which case the pool re-queues
// the stream at the tail of the ready queue — round-robin across
// streams, so a hot tenant gets one batch per round and cannot starve
// the rest. Once stop is closed the pass drains everything queued and
// closes done; later wakes are harmless no-ops.
func (co *coalescer) runOne() bool {
	if co.probeWanted.CompareAndSwap(true, false) {
		co.probe()
	}
	select {
	case <-co.stop:
		// Drain: commit everything accepted into the queue (in
		// maxBatch-bounded batches) so no accepted work is dropped;
		// requests arriving later get errDraining from submit.
		for co.commitNext() {
		}
		co.doneOnce.Do(func() { close(co.done) })
		return false
	default:
	}
	if !co.commitNext() {
		return false
	}
	return co.carry != nil || len(co.queue) > 0
}

// commitNext gathers and flushes one batch, triggered by the request
// carried over from the previous batch or else the next queued one.
// It reports false when there was nothing to commit.
func (co *coalescer) commitNext() bool {
	first := co.carry
	co.carry = nil
	if first == nil {
		select {
		case first = <-co.queue:
		default:
			return false
		}
	}
	co.gather(first)
	co.flush()
	return true
}

// probe attempts automatic recovery from degraded mode: reopen the WAL
// directory (recovery repairs whatever the failure left) and prove it
// writable with a fresh checkpoint of the current engine state — which
// also supersedes any ambiguous tail record a failed append may have
// landed. Only a full round-trip flips the server back to healthy.
func (co *coalescer) probe() {
	if co.deg == nil || co.dur == nil || !co.deg.isDegraded() {
		return
	}
	if co.dur.probe(co.c) {
		co.deg.exit()
	}
}

// estimateWait predicts the commit wait a request admitted now would
// see: the queued requests ahead of it, in batches of the observed
// requests-per-batch, each taking the observed flush latency — the
// window median, or the latest flush when that was slower. Called
// from request goroutines; every input is a lock-free instrument.
func (co *coalescer) estimateWait() time.Duration {
	pending := co.pending.Value()
	if pending <= 0 {
		return 0
	}
	fl := co.flushSeconds.Stats()
	if fl.WindowCount == 0 {
		return 0 // no service history yet; the queue-send deadline backstops
	}
	reqsPerBatch := co.batchReqs.Stats().P50
	if reqsPerBatch < 1 {
		reqsPerBatch = 1
	}
	perBatch := max(fl.P50*float64(time.Second), float64(co.lastFlush.Load()))
	batchesAhead := float64(pending)/reqsPerBatch + 1
	return time.Duration(batchesAhead * perBatch)
}

// gather collects requests for one batch: the triggering request,
// then whatever is already queued, up to maxBatch points. It never
// waits for more — under load the queue refills while the previous
// batch commits, which is what makes batches grow. A request that
// would overflow the batch is carried over to trigger the next one.
func (co *coalescer) gather(first *ingestReq) {
	co.reqs = append(co.reqs[:0], first)
	npts := len(first.pts)
	for npts < co.maxBatch {
		select {
		case r := <-co.queue:
			if npts+len(r.pts) > co.maxBatch {
				co.carry = r
				return
			}
			co.reqs = append(co.reqs, r)
			npts += len(r.pts)
		default:
			return
		}
	}
}

// flush commits the gathered requests as one InsertBatchAssigned call
// and hands each request its slice of the acks.
func (co *coalescer) flush() {
	co.pts = co.pts[:0]
	oldest := co.reqs[0].enqueued
	for _, r := range co.reqs {
		co.pts = append(co.pts, r.pts...)
		if r.enqueued.Before(oldest) {
			oldest = r.enqueued
		}
	}
	co.pending.Add(-int64(len(co.reqs)))

	// Durable-before-acknowledged: the batch must be on the log (and,
	// unless WALNoSync, on disk) before the engine applies it and any
	// client sees a 200. A WAL failure fails the whole batch without
	// touching the engine — no client is ever acknowledged for points
	// that would not survive a crash. The retry budget lives inside
	// appendBatch; exhausting it flips the server into degraded mode,
	// and batches flushed while degraded fail fast without touching the
	// sick disk (the probe owns recovery attempts).
	begin := time.Now()
	var acks []int64
	var err error
	if co.dur != nil {
		if co.deg != nil && co.deg.isDegraded() {
			err = errDegraded
		} else if aerr := co.dur.appendBatch(co.pts); aerr != nil {
			if co.deg != nil {
				co.deg.enter(aerr)
			}
			err = fmt.Errorf("%w (%v)", errDegraded, aerr)
		}
	}
	if err == nil {
		insertBegin := time.Now()
		acks, err = co.c.InsertBatchAssigned(co.pts, co.acks[:0])
		co.acks = acks
		if err == nil && co.dur != nil {
			// The pure engine-apply time (no WAL, no fsync) feeds the
			// recovery-budget estimator: replay is this same work.
			co.dur.noteApply(len(co.pts), time.Since(insertBegin))
		}
	}

	co.batches.Inc()
	co.batchSize.Observe(float64(len(co.pts)))
	co.batchReqs.Observe(float64(len(co.reqs)))
	co.batchWait.Observe(time.Since(oldest))
	if err == nil {
		// Only successful flushes feed the admission estimator: a
		// degraded fast-fail takes microseconds and would talk the
		// estimate down exactly when the server cannot serve.
		took := time.Since(begin)
		co.flushSeconds.Observe(took)
		co.lastFlush.Store(int64(took))
		co.pointsTotal.Add(uint64(len(co.pts)))
		if co.dur != nil {
			co.dur.noteCommitted(co.c, len(co.pts))
		}
	}

	off := 0
	for _, r := range co.reqs {
		rep := ingestReply{err: err}
		if err == nil {
			// Owned copy: co.acks is reused by the next batch.
			rep.cells = append([]int64(nil), acks[off:off+len(r.pts)]...)
		}
		off += len(r.pts)
		r.reply <- rep
	}
	// Zero the request pointers so the reused backing array does not
	// pin request payloads until the slots happen to be overwritten.
	clear(co.reqs)
	co.reqs = co.reqs[:0]

	if co.onFlush != nil {
		co.onFlush()
	}
}

// beginShutdown signals the writer to drain on its next pass. It
// returns immediately; the caller must Wake the stream's handle so a
// pass actually runs, then wait on done. Safe to call repeatedly.
func (co *coalescer) beginShutdown() {
	co.stopOnce.Do(func() { close(co.stop) })
}
