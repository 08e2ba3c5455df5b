package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/densitymountain/edmstream"
	"github.com/densitymountain/edmstream/internal/server"
	"github.com/densitymountain/edmstream/internal/wal"
)

// This file holds the overload chaos drill: a real child edmserved
// process on a deliberately slow disk is driven at several times its
// ingest capacity while the disk dies and comes back, and the
// resilience layer must hold its contract — every 200-acked point
// survives a graceful drain and restart, every refused request is a
// clean 429/503 with a Retry-After hint, the server degrades and
// recovers automatically, and nothing is silently dropped
// (BENCH_overload.json).

const (
	// overloadChildEnv marks a process as the overload drill's serving
	// child; cmd/edmbench and the bench test binary divert to
	// RunOverloadChild when it is set, before any flag parsing.
	overloadChildEnv = "EDMBENCH_OVERLOAD_CHILD"
	// overloadSlowSync is the baseline injected fsync stall: the slow
	// disk that pins the child's ingest capacity low enough for the
	// parent to overload it 4x from ordinary goroutines.
	overloadSlowSync = 40 * time.Millisecond
	// overloadPtsPerReq is the points per ingest request; small so
	// admission decisions happen at request, not batch, granularity.
	overloadPtsPerReq = 16
	// overloadWriters is the closed-loop writer count of the overload
	// phase (the calibration phase uses 2).
	overloadWriters = 16
	// overloadWarmup covers the engine's InitPoints so the DP-Tree is
	// built before any measurement.
	overloadWarmup = 1024
)

// OverloadReport is the JSON-serializable outcome of the drill.
type OverloadReport struct {
	Schema           string  `json:"schema"`
	Seed             int64   `json:"seed"`
	PointsPerRequest int     `json:"points_per_request"`
	Writers          int     `json:"writers"`
	SlowSyncMillis   float64 `json:"slow_sync_millis"`

	// CapacityPointsPerSec is the calibrated goodput of 2 polite
	// writers against the slow disk; OfferedPointsPerSec is what the
	// overload phase threw at the server, OverloadFactor their ratio
	// (the drill requires >= 4).
	CapacityPointsPerSec float64 `json:"capacity_points_per_sec"`
	OfferedPointsPerSec  float64 `json:"offered_points_per_sec"`
	OverloadFactor       float64 `json:"overload_factor"`

	// GoodputPointsPerSec is the acknowledged-point rate the server
	// sustained through the overload phase (faults included).
	GoodputPointsPerSec float64 `json:"goodput_points_per_sec"`
	WallSeconds         float64 `json:"wall_seconds"`
	AckedRequests       int64   `json:"acked_requests"`
	AckedPoints         int64   `json:"acked_points"`
	Shed429             int64   `json:"shed_429"`
	Shed503             int64   `json:"shed_503"`
	// ShedRate is shed requests over all overload-phase requests.
	ShedRate float64 `json:"shed_rate"`
	// Accepted-request latency quantiles (microseconds): what a
	// request that made it through admission paid end to end.
	AcceptedP50Micros float64 `json:"accepted_p50_micros"`
	AcceptedP99Micros float64 `json:"accepted_p99_micros"`

	// DegradedSeconds is how long the server sat in degraded mode;
	// RecoverySeconds the lag from the disk healing to the server
	// reporting healthy again (the probe's detection latency).
	DegradedSeconds   float64 `json:"degraded_seconds"`
	RecoverySeconds   float64 `json:"recovery_seconds"`
	DegradedEntered   uint64  `json:"degraded_entered"`
	DegradedRecovered uint64  `json:"degraded_recovered"`

	// TotalAckedPoints counts every 200 across all phases;
	// RecoveredPoints is what a restarted child holds after the
	// graceful drain — the drill requires them EQUAL.
	TotalAckedPoints int64 `json:"total_acked_points"`
	RecoveredPoints  int64 `json:"recovered_points"`

	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
}

// overloadStatsBody is the slice of GET /v1/stats the drill consumes.
type overloadStatsBody struct {
	Engine struct {
		Points int64 `json:"Points"`
	} `json:"engine"`
	Server struct {
		Degraded  bool `json:"degraded"`
		Admission struct {
			DegradedEntered   uint64 `json:"degraded_entered"`
			DegradedRecovered uint64 `json:"degraded_recovered"`
		} `json:"admission"`
	} `json:"server"`
}

func overloadStats(client *http.Client, base string) (overloadStatsBody, error) {
	raw, err := getShedRetry(client, base+"/v1/stats", 4, 10*time.Millisecond, time.Second, nil)
	if err != nil {
		return overloadStatsBody{}, err
	}
	var st overloadStatsBody
	if err := json.Unmarshal(raw, &st); err != nil {
		return overloadStatsBody{}, fmt.Errorf("bench: stats response: %w", err)
	}
	return st, nil
}

// overloadBodies pre-renders ingest bodies WITHOUT ids or times (the
// server stamps its own monotone stream clock), so the writers can
// cycle them indefinitely.
func overloadBodies(seed int64, rate float64) ([][]byte, error) {
	pts := ServeStream(64*overloadPtsPerReq, seed, rate)
	type wirePt struct {
		Vector []float64 `json:"vector"`
	}
	bodies := make([][]byte, 0, len(pts)/overloadPtsPerReq)
	batch := make([]wirePt, overloadPtsPerReq)
	for b := 0; b+overloadPtsPerReq <= len(pts); b += overloadPtsPerReq {
		for i := range batch {
			batch[i] = wirePt{Vector: pts[b+i].Vector}
		}
		raw, err := json.Marshal(batch)
		if err != nil {
			return nil, fmt.Errorf("bench: rendering overload body: %w", err)
		}
		bodies = append(bodies, raw)
	}
	return bodies, nil
}

// RunOverload drives the overload drill end to end. s supplies the
// seed and rate; the traffic volume is governed by the drill's phases,
// not s.Points.
func RunOverload(s Scale) (OverloadReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return OverloadReport{}, fmt.Errorf("bench: locating own executable for the overload child: %w", err)
	}
	base, err := os.MkdirTemp("", "edmbench-overload-")
	if err != nil {
		return OverloadReport{}, err
	}
	defer os.RemoveAll(base)
	dataDir := filepath.Join(base, "data")
	addrFile := filepath.Join(base, "addr")

	bodies, err := overloadBodies(s.Seed, s.Rate)
	if err != nil {
		return OverloadReport{}, err
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        overloadWriters + 4,
		MaxIdleConnsPerHost: overloadWriters + 4,
	}}

	startChild := func() (*benchChild, error) {
		return startBenchChild(exe, []string{
			overloadChildEnv + "=1",
			"EDMBENCH_OVERLOAD_DIR=" + dataDir,
			"EDMBENCH_OVERLOAD_ADDR_FILE=" + addrFile,
			fmt.Sprintf("EDMBENCH_OVERLOAD_RATE=%g", s.Rate),
			fmt.Sprintf("EDMBENCH_OVERLOAD_SLOW_MS=%d", overloadSlowSync.Milliseconds()),
		}, addrFile)
	}
	child, err := startChild()
	if err != nil {
		return OverloadReport{}, err
	}
	childUp := true
	defer func() {
		if childUp {
			_ = child.cmd.Process.Kill()
			<-child.wait
		}
	}()
	url := "http://" + child.addr

	rep := OverloadReport{
		Schema:           "edmstream-overload/v1",
		Seed:             s.Seed,
		PointsPerRequest: overloadPtsPerReq,
		Writers:          overloadWriters,
		SlowSyncMillis:   float64(overloadSlowSync.Milliseconds()),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		NumCPU:           runtime.NumCPU(),
	}
	var totalAcked atomic.Int64 // points acked across every phase

	// Warm-up: one polite writer past InitPoints.
	for sent := 0; sent < overloadWarmup; sent += overloadPtsPerReq {
		if _, err := postShedRetry(client, url+"/v1/ingest", bodies[(sent/overloadPtsPerReq)%len(bodies)], 8, 10*time.Millisecond, time.Second, nil); err != nil {
			return rep, fmt.Errorf("bench: overload warm-up: %w", err)
		}
		totalAcked.Add(overloadPtsPerReq)
	}

	// Calibration: 2 polite writers for a short window fix the slow
	// disk's sustainable goodput — the capacity the overload phase
	// must exceed 4x.
	calibrated, err := overloadClosedLoop(client, url, bodies, 2, 900*time.Millisecond)
	if err != nil {
		return rep, err
	}
	totalAcked.Add(calibrated.ackedPoints)
	if calibrated.wall <= 0 || calibrated.ackedPoints == 0 {
		return rep, errors.New("bench: calibration measured no goodput")
	}
	rep.CapacityPointsPerSec = float64(calibrated.ackedPoints) / calibrated.wall.Seconds()

	// Overload phase: saturating writers, and mid-phase the disk dies
	// (SIGUSR1) and later heals back to merely slow (SIGUSR2).
	stop := make(chan struct{})
	res := newOverloadCounters()
	var writerErr atomic.Value
	var wg sync.WaitGroup
	begin := time.Now()
	for w := 0; w < overloadWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := overloadWriter(client, url, bodies, int64(w), stop, res); err != nil {
				writerErr.CompareAndSwap(nil, err)
			}
		}(w)
	}
	fail := func(err error) (OverloadReport, error) {
		close(stop)
		wg.Wait()
		return rep, err
	}

	// Let pure overload sheds accumulate against a healthy-but-slow
	// disk before any fault.
	if err := waitUntil(10*time.Second, 10*time.Millisecond, "a 429 overload shed", func() (bool, error) {
		return res.shed429.Load() > 0 && time.Since(begin) > 600*time.Millisecond, nil
	}); err != nil {
		return fail(err)
	}

	// The disk dies.
	if err := child.cmd.Process.Signal(syscall.SIGUSR1); err != nil {
		return fail(fmt.Errorf("bench: arming the disk fault: %w", err))
	}
	var tDegraded time.Time
	if err := waitUntil(10*time.Second, 10*time.Millisecond, "the server to report degraded", func() (bool, error) {
		st, err := overloadStats(client, url)
		if err != nil {
			return false, err
		}
		if st.Server.Degraded {
			tDegraded = time.Now()
		}
		return st.Server.Degraded, nil
	}); err != nil {
		return fail(err)
	}
	time.Sleep(400 * time.Millisecond) // collect degraded-mode 503s

	// The disk heals (back to merely slow); the recovery probe must
	// notice without a restart.
	tClear := time.Now()
	if err := child.cmd.Process.Signal(syscall.SIGUSR2); err != nil {
		return fail(fmt.Errorf("bench: clearing the disk fault: %w", err))
	}
	var tRecovered time.Time
	if err := waitUntil(15*time.Second, 10*time.Millisecond, "the server to recover", func() (bool, error) {
		st, err := overloadStats(client, url)
		if err != nil {
			return false, err
		}
		if !st.Server.Degraded {
			tRecovered = time.Now()
		}
		return !st.Server.Degraded, nil
	}); err != nil {
		return fail(err)
	}
	rep.DegradedSeconds = tRecovered.Sub(tDegraded).Seconds()
	rep.RecoverySeconds = tRecovered.Sub(tClear).Seconds()

	// Post-recovery goodput: at least one fresh ack proves the
	// recovered server commits again.
	ackedAtRecovery := res.ackedReqs.Load()
	if err := waitUntil(15*time.Second, 10*time.Millisecond, "a post-recovery ack", func() (bool, error) {
		return res.ackedReqs.Load() > ackedAtRecovery, nil
	}); err != nil {
		return fail(err)
	}

	close(stop)
	wg.Wait()
	wall := time.Since(begin)
	if err, _ := writerErr.Load().(error); err != nil {
		return rep, err
	}

	ackedPts := res.ackedReqs.Load() * overloadPtsPerReq
	totalAcked.Add(ackedPts)
	attempts := res.ackedReqs.Load() + res.shed429.Load() + res.shed503.Load()
	rep.WallSeconds = wall.Seconds()
	rep.AckedRequests = res.ackedReqs.Load()
	rep.AckedPoints = ackedPts
	rep.Shed429 = res.shed429.Load()
	rep.Shed503 = res.shed503.Load()
	rep.ShedRate = float64(rep.Shed429+rep.Shed503) / float64(attempts)
	rep.GoodputPointsPerSec = float64(ackedPts) / wall.Seconds()
	rep.OfferedPointsPerSec = float64(attempts*overloadPtsPerReq) / wall.Seconds()
	rep.OverloadFactor = rep.OfferedPointsPerSec / rep.CapacityPointsPerSec
	rep.AcceptedP50Micros, rep.AcceptedP99Micros = res.quantiles()

	st, err := overloadStats(client, url)
	if err != nil {
		return rep, err
	}
	rep.DegradedEntered = st.Server.Admission.DegradedEntered
	rep.DegradedRecovered = st.Server.Admission.DegradedRecovered

	// Contract checks on the traffic the drill just produced.
	if rep.OverloadFactor < 4 {
		return rep, fmt.Errorf("bench: offered load only %.1fx capacity (%.0f vs %.0f points/sec); the drill needs >= 4x", rep.OverloadFactor, rep.OfferedPointsPerSec, rep.CapacityPointsPerSec)
	}
	if rep.Shed429 == 0 {
		return rep, errors.New("bench: overload produced no 429 sheds")
	}
	if rep.Shed503 == 0 {
		return rep, errors.New("bench: the degraded window produced no 503 sheds")
	}
	if rep.DegradedEntered == 0 || rep.DegradedRecovered == 0 {
		return rep, fmt.Errorf("bench: degraded transitions missing: entered=%d recovered=%d", rep.DegradedEntered, rep.DegradedRecovered)
	}

	// Graceful drain: SIGTERM must exit 0 with every queued request
	// serviced.
	if err := child.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return rep, err
	}
	if err := <-child.wait; err != nil {
		childUp = false
		return rep, fmt.Errorf("bench: graceful drain under overload: %v", err)
	}
	childUp = false

	// The ledger check: a restarted child must hold EXACTLY the acked
	// points — an ack that did not survive is data loss, a surplus is
	// a shed or failed request that silently committed.
	rep.TotalAckedPoints = totalAcked.Load()
	child2, err := startChild()
	if err != nil {
		return rep, fmt.Errorf("bench: restarting after the drill: %w", err)
	}
	defer func() {
		_ = child2.cmd.Process.Signal(syscall.SIGTERM)
		<-child2.wait
	}()
	st2, err := overloadStats(client, "http://"+child2.addr)
	if err != nil {
		return rep, err
	}
	rep.RecoveredPoints = st2.Engine.Points
	if rep.RecoveredPoints != rep.TotalAckedPoints {
		return rep, fmt.Errorf("bench: restarted server holds %d points but %d were acknowledged: the overload drill leaked or lost work", rep.RecoveredPoints, rep.TotalAckedPoints)
	}
	return rep, nil
}

// overloadCounters aggregates the writers' outcomes.
type overloadCounters struct {
	ackedReqs atomic.Int64
	shed429   atomic.Int64
	shed503   atomic.Int64

	mu     sync.Mutex
	micros []float64 // accepted-request latencies
}

func newOverloadCounters() *overloadCounters {
	return &overloadCounters{micros: make([]float64, 0, 4096)}
}

func (o *overloadCounters) observe(micros float64) {
	o.mu.Lock()
	o.micros = append(o.micros, micros)
	o.mu.Unlock()
}

func (o *overloadCounters) quantiles() (p50, p99 float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.micros) == 0 {
		return 0, 0
	}
	sort.Float64s(o.micros)
	rank := func(q float64) float64 {
		idx := int(q*float64(len(o.micros))) - 1
		if idx < 0 {
			idx = 0
		}
		return o.micros[idx]
	}
	return rank(0.50), rank(0.99)
}

// overloadWriter is one closed-loop client: it counts acks and sheds,
// verifies every shed carries a Retry-After hint and a parseable
// reason, and backs off briefly on rejection (briefly on purpose —
// the drill's job is to overload, the server's job is to survive it).
func overloadWriter(client *http.Client, url string, bodies [][]byte, seed int64, stop <-chan struct{}, res *overloadCounters) error {
	rng := rand.New(rand.NewSource(seed))
	attempt := 0
	for i := 0; ; i++ {
		select {
		case <-stop:
			return nil
		default:
		}
		t0 := time.Now()
		status, header, raw, err := doPost(client, url+"/v1/ingest", bodies[rng.Intn(len(bodies))])
		if err != nil {
			return fmt.Errorf("bench: overload ingest transport: %w", err)
		}
		switch {
		case status == http.StatusOK:
			res.ackedReqs.Add(1)
			res.observe(float64(time.Since(t0).Nanoseconds()) / 1e3)
			attempt = 0
		case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
			shed := parseShed(status, header, raw)
			if shed.RetryAfterSeconds < 1 {
				return fmt.Errorf("bench: %d shed without a Retry-After hint: %s", status, raw)
			}
			if shed.Reason == "" {
				return fmt.Errorf("bench: %d shed without a machine-readable reason: %s", status, raw)
			}
			if status == http.StatusTooManyRequests {
				res.shed429.Add(1)
			} else {
				res.shed503.Add(1)
			}
			attempt++
			time.Sleep(backoffDelay(attempt, 2*time.Millisecond, 10*time.Millisecond, rng))
		default:
			return fmt.Errorf("bench: overload ingest status %d: %s", status, raw)
		}
	}
}

// closedLoopResult is one timed closed-loop traffic window.
type closedLoopResult struct {
	ackedPoints int64
	wall        time.Duration
}

// overloadClosedLoop runs n polite writers (shared shed-retry helper,
// generous backoff) for the given duration and reports acked points.
func overloadClosedLoop(client *http.Client, url string, bodies [][]byte, n int, d time.Duration) (closedLoopResult, error) {
	stop := make(chan struct{})
	var acked atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	begin := time.Now()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 101))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := postShedRetry(client, url+"/v1/ingest", bodies[(w+i)%len(bodies)], 8, 5*time.Millisecond, 250*time.Millisecond, rng); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				acked.Add(overloadPtsPerReq)
			}
		}(w)
	}
	time.Sleep(d)
	close(stop)
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return closedLoopResult{}, fmt.Errorf("bench: calibration ingest: %w", err)
	}
	return closedLoopResult{ackedPoints: acked.Load(), wall: time.Since(begin)}, nil
}

// RunOverloadChild is the overload drill's serving child: a durable
// edmserved on an injected slow disk, with tight admission settings
// so the parent can force every shedding path. SIGUSR1 kills the disk
// (sticky sync failure), SIGUSR2 heals it back to merely slow,
// SIGTERM drains gracefully.
func RunOverloadChild() error {
	dir := os.Getenv("EDMBENCH_OVERLOAD_DIR")
	addrFile := os.Getenv("EDMBENCH_OVERLOAD_ADDR_FILE")
	if dir == "" || addrFile == "" {
		return errors.New("bench: EDMBENCH_OVERLOAD_DIR and EDMBENCH_OVERLOAD_ADDR_FILE are required in child mode")
	}
	rate, err := strconv.ParseFloat(os.Getenv("EDMBENCH_OVERLOAD_RATE"), 64)
	if err != nil {
		return fmt.Errorf("bench: EDMBENCH_OVERLOAD_RATE: %w", err)
	}
	slowMS, err := strconv.Atoi(os.Getenv("EDMBENCH_OVERLOAD_SLOW_MS"))
	if err != nil {
		return fmt.Errorf("bench: EDMBENCH_OVERLOAD_SLOW_MS: %w", err)
	}
	slow := wal.Fault{Op: "sync", Sticky: true, Delay: time.Duration(slowMS) * time.Millisecond}
	dead := wal.Fault{Op: "sync", Sticky: true}

	ffs := wal.NewFaultFS(nil)
	ffs.Inject(slow)
	c, err := edmstream.New(e2eOptions(rate))
	if err != nil {
		return err
	}
	srv, err := server.New(c, server.Config{
		Addr:                  "127.0.0.1:0",
		DataDir:               dir,
		WALFS:                 ffs,
		MaxBatch:              4 * overloadPtsPerReq,
		MaxPending:            8,
		IngestDeadline:        100 * time.Millisecond,
		DegradedProbeInterval: 100 * time.Millisecond,
		WALRetryAttempts:      2,
		CheckpointEvery:       1 << 20,
	})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	if err := publishAddr(addrFile, srv.Addr()); err != nil {
		return err
	}

	ch := make(chan os.Signal, 4)
	signal.Notify(ch, syscall.SIGTERM, syscall.SIGINT, syscall.SIGUSR1, syscall.SIGUSR2)
	for sig := range ch {
		switch sig {
		case syscall.SIGUSR1:
			ffs.Inject(dead)
		case syscall.SIGUSR2:
			ffs.Inject(slow)
		default:
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			return srv.Shutdown(ctx)
		}
	}
	return nil
}

// FormatOverload renders the report for the terminal.
func FormatOverload(rep OverloadReport) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "Overload drill: %d writers vs a slow disk (%.0fms fsync), mid-run disk death and recovery\n",
		rep.Writers, rep.SlowSyncMillis)
	fmt.Fprintf(&b, "  (gomaxprocs %d, %d CPUs, %d-point requests)\n", rep.GOMAXPROCS, rep.NumCPU, rep.PointsPerRequest)
	fmt.Fprintf(&b, "capacity %.0f points/sec; offered %.0f (%.1fx); goodput under overload %.0f\n",
		rep.CapacityPointsPerSec, rep.OfferedPointsPerSec, rep.OverloadFactor, rep.GoodputPointsPerSec)
	fmt.Fprintf(&b, "acked %d requests (%d points); shed %d x 429 + %d x 503 (%.1f%% of requests, all with Retry-After)\n",
		rep.AckedRequests, rep.AckedPoints, rep.Shed429, rep.Shed503, rep.ShedRate*100)
	fmt.Fprintf(&b, "accepted-request latency p50/p99 = %.0f/%.0f us\n", rep.AcceptedP50Micros, rep.AcceptedP99Micros)
	fmt.Fprintf(&b, "degraded for %.2fs; recovered %.2fs after the disk healed (entered %d, recovered %d)\n",
		rep.DegradedSeconds, rep.RecoverySeconds, rep.DegradedEntered, rep.DegradedRecovered)
	fmt.Fprintf(&b, "ledger: %d acked points total, %d recovered after drain+restart (exact)\n",
		rep.TotalAckedPoints, rep.RecoveredPoints)
	return b.String()
}

// WriteOverloadJSON writes the machine-readable artifact.
func WriteOverloadJSON(path string, rep OverloadReport) error {
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshaling overload report: %w", err)
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("bench: writing %s: %w", path, err)
	}
	return nil
}
