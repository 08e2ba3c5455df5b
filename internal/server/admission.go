package server

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/densitymountain/edmstream/internal/obs"
)

// errDegraded is returned to ingest requests while the server sits in
// WAL-failure degraded mode: reads keep serving, writes are refused
// with a machine-readable 503 until the recovery probe reopens the log.
var errDegraded = errors.New("server is degraded: write-ahead log unavailable, ingest suspended")

// Machine-readable rejection reasons carried in errorResponse.Reason so
// clients can branch without parsing prose. See the README runbook for
// the retry guidance each one implies.
const (
	reasonOverloaded    = "overloaded"     // 429: retry after Retry-After
	reasonDegraded      = "degraded"       // 503: WAL down, recovery probe running
	reasonDraining      = "draining"       // 503: shutting down, go elsewhere
	reasonUnknownStream = "unknown_stream" // 404: stream never created; POST ingest creates it
)

// admission is the ingest admission controller plus the read-path
// concurrency guard. The ingest rule: estimate the commit wait a
// request admitted now would see — queued requests divided by the
// observed requests-per-batch, times the observed flush latency (the
// window median, or the latest flush when that was slower) — and
// shed with 429 + Retry-After when the estimate exceeds the configured
// deadline. The estimate uses only live inputs (the pending gauge) and
// short-window distributions, so it tracks the queue as it drains and
// stops shedding on its own; admitted requests additionally carry the
// deadline as a context timeout on the queue send, the backstop for a
// cold start with no flush history yet.
type admission struct {
	deadline time.Duration

	// readSem bounds concurrently served read requests; its capacity
	// is MaxReadConcurrency.
	readSem chan struct{}

	estWait      *obs.Sample
	shedEstimate *obs.Counter
	shedTimeout  *obs.Counter
	shedDegraded *obs.Counter
	shedReads    *obs.Counter
}

func newAdmission(cfg Config, reg *obs.Registry) *admission {
	return &admission{
		deadline:     cfg.IngestDeadline,
		readSem:      make(chan struct{}, cfg.MaxReadConcurrency),
		estWait:      reg.Sample("edmserved_admission_estimated_wait_seconds", ""),
		shedEstimate: reg.Counter("edmserved_admission_shed_total", `reason="est_wait"`),
		shedTimeout:  reg.Counter("edmserved_admission_shed_total", `reason="queue_full"`),
		shedDegraded: reg.Counter("edmserved_admission_shed_total", `reason="degraded"`),
		shedReads:    reg.Counter("edmserved_admission_shed_total", `reason="read_concurrency"`),
	}
}

// degradedState is the WAL-failure degraded mode, owned by the writer
// goroutine (enter/exit) with an atomic mirror the HTTP handlers read.
// The state machine has two states and two edges:
//
//	healthy --[durable append exhausts its retry budget]--> degraded
//	degraded --[probe: WAL reopen + checkpoint succeed]--> healthy
//
// While degraded, ingest is refused at the door with 503 + reason
// "degraded" (and batches already queued fail the same way), reads and
// /healthz keep serving, and the writer goroutine probes the log
// directory every DegradedProbeInterval.
type degradedState struct {
	flag  atomic.Bool
	cause atomic.Pointer[string]
	since atomic.Int64 // unix nanos of the last enter

	gauge     *obs.Gauge
	entered   *obs.Counter
	recovered *obs.Counter
}

func newDegradedState(reg *obs.Registry, labels string) *degradedState {
	return &degradedState{
		gauge:     reg.Gauge("edmserved_degraded", labels),
		entered:   reg.Counter("edmserved_degraded_entered_total", labels),
		recovered: reg.Counter("edmserved_degraded_recovered_total", labels),
	}
}

func (d *degradedState) isDegraded() bool { return d.flag.Load() }

// reason returns the stored cause of the current (or last) degradation.
func (d *degradedState) reason() string {
	if s := d.cause.Load(); s != nil {
		return *s
	}
	return ""
}

// enter flips into degraded mode. Writer goroutine only.
func (d *degradedState) enter(cause error) {
	msg := cause.Error()
	d.cause.Store(&msg)
	d.since.Store(time.Now().UnixNano())
	if d.flag.CompareAndSwap(false, true) {
		d.entered.Inc()
		d.gauge.Add(1)
	}
}

// exit flips back to healthy. Writer goroutine only.
func (d *degradedState) exit() {
	if d.flag.CompareAndSwap(true, false) {
		d.recovered.Inc()
		d.gauge.Add(-1)
	}
}

// retryAfterSeconds turns a wait estimate into a Retry-After value,
// clamped to [1, 30] so clients neither hammer nor give up.
func retryAfterSeconds(est time.Duration) int {
	s := int(math.Ceil(est.Seconds()))
	if s < 1 {
		s = 1
	}
	if s > 30 {
		s = 30
	}
	return s
}

// shedError writes a load-shedding rejection: the Retry-After header
// plus a JSON body with the machine-readable reason and the same hint
// mirrored, so both header-aware and body-only clients get it.
func shedError(w http.ResponseWriter, status int, err error, reason string, retryAfter int) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	writeJSON(w, status, errorResponse{
		Error:             err.Error(),
		Reason:            reason,
		RetryAfterSeconds: retryAfter,
	})
}

// readGuard wraps a read handler with the bounded-concurrency
// semaphore: a request that cannot take a slot immediately is shed
// with 429 rather than queued — the reader's retry is cheaper than a
// pile of parked goroutines on a saturated process.
func (s *Server) readGuard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.adm.readSem <- struct{}{}:
			defer func() { <-s.adm.readSem }()
			h(w, r)
		default:
			s.adm.shedReads.Inc()
			shedError(w, http.StatusTooManyRequests,
				fmt.Errorf("read concurrency limit (%d) reached", cap(s.adm.readSem)),
				reasonOverloaded, 1)
		}
	}
}
