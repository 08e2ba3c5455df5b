package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/densitymountain/edmstream"
	"github.com/densitymountain/edmstream/internal/obs"
)

// stallFirstFlush parks co's writer inside its first flush — after
// that batch is acked, before the pass ends — until release is called,
// so requests submitted meanwhile queue up behind a commit in
// progress. held is closed once the writer is parked. Install it
// before the writer first runs; release is idempotent.
func stallFirstFlush(co *coalescer) (held <-chan struct{}, release func()) {
	h, r := make(chan struct{}), make(chan struct{})
	var once sync.Once
	next := co.onFlush
	co.onFlush = func() {
		once.Do(func() {
			close(h)
			<-r
		})
		if next != nil {
			next()
		}
	}
	return h, sync.OnceFunc(func() { close(r) })
}

// waitPending waits until at least n accepted requests await commit
// in co (queued, or carried over to the next batch).
func waitPending(t *testing.T, co *coalescer, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for co.pending.Value() < int64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests pending, want %d", co.pending.Value(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupCommitTakesEverythingQueued pins the coalescer's batching
// policy without relying on timing: requests that queue while a commit
// is in progress are committed together by the next pass, as one batch
// of at most MaxBatch points, in arrival order, each with its own
// acks; a request that would overflow MaxBatch starts the batch after.
func TestGroupCommitTakesEverythingQueued(t *testing.T) {
	const ptsPerReq = 4
	const behind = 6 // requests that fit one batch; one more overflows it
	c, err := edmstream.New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MaxBatch: behind*ptsPerReq + ptsPerReq/2}.withDefaults()
	co := newCoalescer(c, cfg, obs.NewRegistry(), "")
	held, release := stallFirstFlush(co)
	t.Cleanup(release)

	// Request i sits far from every other request, so it seeds its own
	// cell and its acks name the order the engine saw it in.
	reqPoints := func(i int) []edmstream.Point {
		pts := make([]edmstream.Point, ptsPerReq)
		for j := range pts {
			pts[j] = edmstream.Point{Vector: []float64{float64(i) * 20, float64(j) * 0.1}, Time: float64(i)}
		}
		return pts
	}
	type reply struct {
		cells []int64
		err   error
	}
	const total = behind + 2 // the stalled request, the group, the overflow
	replies := make([]chan reply, total)
	submit := func(i int) {
		replies[i] = make(chan reply, 1)
		go func() {
			cells, err := co.submit(context.Background(), reqPoints(i))
			replies[i] <- reply{cells, err}
		}()
	}

	// Request 0's commit stalls the writer inside its flush.
	submit(0)
	waitPending(t, co, 1)
	passMore := make(chan bool, 1)
	go func() { passMore <- co.runOne() }()
	<-held

	// Everything else queues behind it, one at a time so the arrival
	// order is known.
	for i := 1; i < total; i++ {
		submit(i)
		waitPending(t, co, i)
	}
	release()
	if !<-passMore {
		t.Fatal("stalled pass reported no queued work behind it")
	}

	// The next pass takes every queued request that fits: one batch.
	if !co.runOne() {
		t.Fatal("group pass reported no carried-over request")
	}
	if got := co.batches.Value(); got != 2 {
		t.Fatalf("batches after the group pass = %d, want 2", got)
	}
	if st := co.batchReqs.Stats(); st.Sum != 1+behind {
		t.Fatalf("group batch carried %g requests, want %d", st.Sum-1, behind)
	}
	if st := co.batchSize.Stats(); st.WindowMax != behind*ptsPerReq {
		t.Fatalf("group batch carried %g points, want %d", st.WindowMax, behind*ptsPerReq)
	}
	// The overflowing request was carried over and commits alone.
	if co.runOne() {
		t.Fatal("overflow pass reported more queued work")
	}
	if got := co.batches.Value(); got != 3 {
		t.Fatalf("batches after the overflow pass = %d, want 3", got)
	}

	// Each request got its own acks, identical to committing the
	// requests one by one in arrival order.
	ref, err := edmstream.New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	for i := 0; i < total; i++ {
		rep := <-replies[i]
		if rep.err != nil {
			t.Fatalf("request %d: %v", i, rep.err)
		}
		want, err := ref.InsertBatchAssigned(reqPoints(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.cells) != ptsPerReq {
			t.Fatalf("request %d: %d acks, want %d", i, len(rep.cells), ptsPerReq)
		}
		for j := range want {
			if rep.cells[j] != want[j] {
				t.Fatalf("request %d ack %d = %d, want %d (arrival order lost?)", i, j, rep.cells[j], want[j])
			}
		}
		if rep.cells[0] <= prev {
			t.Fatalf("request %d seeded cell %d after cell %d: committed out of arrival order", i, rep.cells[0], prev)
		}
		prev = rep.cells[0]
	}
	if got, want := c.Stats().Points, int64(total*ptsPerReq); got != want {
		t.Fatalf("engine points = %d, want %d", got, want)
	}
}

// TestEstimateWaitSeesSlowFlushAtOnce: a disk that turns slow must
// raise the admission estimate with the first slow flush, not once
// slow flushes outnumber the fast ones in the window — group commit
// makes many fast flushes under light load, which would otherwise keep
// the median fast for seconds.
func TestEstimateWaitSeesSlowFlushAtOnce(t *testing.T) {
	c, err := edmstream.New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	co := newCoalescer(c, Config{}.withDefaults(), obs.NewRegistry(), "")
	for range 200 {
		co.flushSeconds.Observe(time.Millisecond)
		co.batchReqs.Observe(1)
	}
	co.pending.Add(1)
	co.lastFlush.Store(int64(time.Millisecond))
	if got, want := co.estimateWait(), 2*time.Millisecond; got != want {
		t.Fatalf("healthy estimate = %v, want %v (one batch ahead plus its own)", got, want)
	}
	co.lastFlush.Store(int64(60 * time.Millisecond))
	if got, want := co.estimateWait(), 120*time.Millisecond; got != want {
		t.Fatalf("estimate after a slow flush = %v, want %v", got, want)
	}
}

// TestDrainCommitsEverythingQueued pins the shutdown drain: once stop
// is closed, a single writer pass commits every accepted request, in
// batches of at most MaxBatch points, acks each one, and closes done;
// a request submitted after that gets errDraining.
func TestDrainCommitsEverythingQueued(t *testing.T) {
	const ptsPerReq = 3
	const queued = 7
	c, err := edmstream.New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Two requests fit one batch, so the drain needs four batches.
	cfg := Config{MaxBatch: 2 * ptsPerReq}.withDefaults()
	co := newCoalescer(c, cfg, obs.NewRegistry(), "")

	reqPoints := func(i int) []edmstream.Point {
		pts := make([]edmstream.Point, ptsPerReq)
		for j := range pts {
			pts[j] = edmstream.Point{Vector: []float64{float64(i) * 20, float64(j) * 0.1}, Time: float64(i)}
		}
		return pts
	}
	errs := make(chan error, queued)
	for i := range queued {
		go func() {
			cells, err := co.submit(context.Background(), reqPoints(i))
			if err == nil && len(cells) != ptsPerReq {
				err = fmt.Errorf("request %d: %d acks, want %d", i, len(cells), ptsPerReq)
			}
			errs <- err
		}()
	}
	// No writer has run yet, so every request is still queued.
	waitPending(t, co, queued)

	co.beginShutdown()
	if co.runOne() {
		t.Fatal("drain pass reported queued work behind it")
	}
	select {
	case <-co.done:
	default:
		t.Fatal("drain pass did not close done")
	}
	for range queued {
		if err := <-errs; err != nil {
			t.Fatalf("queued request not committed by the drain: %v", err)
		}
	}
	if got, want := co.batches.Value(), uint64((queued+1)/2); got != want {
		t.Fatalf("drain committed %d batches, want %d", got, want)
	}
	if st := co.batchSize.Stats(); st.WindowMax > float64(cfg.MaxBatch) {
		t.Fatalf("drain batch carried %g points, over MaxBatch %d", st.WindowMax, cfg.MaxBatch)
	}
	if got, want := c.Stats().Points, int64(queued*ptsPerReq); got != want {
		t.Fatalf("engine points = %d, want %d", got, want)
	}
	if got := co.pending.Value(); got != 0 {
		t.Fatalf("%d requests still pending after the drain", got)
	}

	if _, err := co.submit(context.Background(), reqPoints(queued)); !errors.Is(err, errDraining) {
		t.Fatalf("submit after the drain: err = %v, want errDraining", err)
	}
}
