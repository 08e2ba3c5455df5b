package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/densitymountain/edmstream"
	"github.com/densitymountain/edmstream/internal/server"
	"github.com/densitymountain/edmstream/internal/stream"
)

// This file holds the durability experiment: what the WAL's
// fsync-before-ack costs, and what it buys. Phase one measures ingest
// throughput through durable edmserved instances with the fsync on
// and off (WALNoSync), so the group-commit amortization of the
// coalescer is machine-readable across revisions (BENCH_wal.json).
// Phase two is the crash drill: a child edmserved process is SIGKILLed
// mid-traffic, restarted on the same WAL directory, and must come back
// holding every acknowledged point — verified byte-for-byte against a
// fresh engine fed the same prefix, which only determinism plus the
// checkpoint+replay equivalence (internal/wal, internal/server tests)
// make possible.

const (
	// walWarmup is the pre-measurement stream: enough to initialize
	// the DP-Tree (InitPoints 500) and publish a first clustering.
	walWarmup = 1024
	// walWriters is the concurrent HTTP writer count of the
	// throughput phase; concurrency is what lets one fsync cover
	// several requests (group commit through the coalescer).
	walWriters = 2
	// walCheckpointEvery keeps the checkpoint cadence dense enough
	// that the kill lands between checkpoints and recovery exercises
	// both the checkpoint restore and the tail replay.
	walCheckpointEvery = 1000
	// walChildEnv marks a process as the kill-and-restart child.
	// cmd/edmbench and the bench test binary both divert to
	// RunWALChild when it is set, before any flag parsing.
	walChildEnv = "EDMBENCH_WAL_CHILD"
)

// WALThroughputResult is one durability mode's ingest measurement.
type WALThroughputResult struct {
	// Mode is "fsync" (the default durable path: every acknowledged
	// batch is on disk) or "nosync" (WALNoSync: the log is written
	// but acknowledgments do not wait for the disk).
	Mode           string  `json:"mode"`
	Points         int64   `json:"points"`
	WallSeconds    float64 `json:"wall_seconds"`
	PointsPerSec   float64 `json:"points_per_sec"`
	WALRecords     uint64  `json:"wal_records"`
	WALBytes       uint64  `json:"wal_bytes"`
	Checkpoints    uint64  `json:"checkpoints"`
	FsyncP50Micros float64 `json:"fsync_p50_micros"`
	FsyncP99Micros float64 `json:"fsync_p99_micros"`
}

// WALKillResult is the outcome of the kill-and-restart drill.
type WALKillResult struct {
	// AckedPoints is how many points had received an HTTP 200 before
	// the SIGKILL; the durability contract is that every one of them
	// survives. RecoveredPoints is what the restarted server holds —
	// at least AckedPoints, at most the sent total (a batch that was
	// fsynced but whose response never reached the client also
	// survives; that is allowed, losing an acked batch is not).
	AckedPoints     int64 `json:"acked_points"`
	RecoveredPoints int64 `json:"recovered_points"`
	// ReplayedRecords and HasCheckpoint describe the recovery the
	// restarted child reported: records replayed from the log tail on
	// top of the newest checkpoint.
	ReplayedRecords int  `json:"replayed_records"`
	HasCheckpoint   bool `json:"has_checkpoint"`
	// SnapshotIdentical records that the restarted server's published
	// clustering is byte-identical to a fresh engine fed the same
	// recovered prefix (the run errors out when it is not).
	SnapshotIdentical bool `json:"snapshot_identical"`
	// PostRestartPoints is the engine size after the restarted server
	// accepted fresh traffic (liveness: recovery yields a server, not
	// a read-only museum).
	PostRestartPoints int64 `json:"post_restart_points"`
}

// WALReport is the JSON-serializable outcome of the experiment.
type WALReport struct {
	Schema      string                `json:"schema"`
	Points      int                   `json:"points"`
	Seed        int64                 `json:"seed"`
	Rate        float64               `json:"rate"`
	IngestBatch int                   `json:"ingest_batch"`
	Throughput  []WALThroughputResult `json:"throughput"`
	// NoSyncSpeedup is nosync over fsync points/sec: the price of the
	// durability guarantee on this machine's disk.
	NoSyncSpeedup float64       `json:"nosync_speedup"`
	Kill          WALKillResult `json:"kill_restart"`
	GOMAXPROCS    int           `json:"gomaxprocs"`
	NumCPU        int           `json:"num_cpu"`
}

// walPost sends one pre-rendered ingest body and requires a 200.
// Shed responses retry through the shared backoff helper; transport
// errors stay immediate, which is what lets the kill drill see the
// SIGKILL as a failed request instead of replaying (and duplicating)
// an ambiguous batch.
func walPost(client *http.Client, base string, body []byte) error {
	_, err := postShedRetry(client, base+"/v1/ingest", body, 4, 10*time.Millisecond, time.Second, nil)
	return err
}

// walGet fetches one endpoint's raw body and requires a 200.
func walGet(client *http.Client, base, path string) ([]byte, error) {
	return getShedRetry(client, base+path, 4, 10*time.Millisecond, time.Second, nil)
}

// walStatsBody is the slice of GET /v1/stats the experiment consumes
// (the wire contract, like any other client).
type walStatsBody struct {
	Engine struct {
		Points int64 `json:"Points"`
	} `json:"engine"`
	Server struct {
		Durability *struct {
			Records     uint64  `json:"records"`
			Bytes       uint64  `json:"bytes"`
			Checkpoints uint64  `json:"checkpoints"`
			Segments    int64   `json:"segments"`
			NoSync      bool    `json:"no_sync"`
			FsyncP50Sec float64 `json:"fsync_p50_seconds"`
			FsyncP99Sec float64 `json:"fsync_p99_seconds"`
			Recovery    struct {
				HasCheckpoint   bool  `json:"has_checkpoint"`
				RecordsReplayed int   `json:"records_replayed"`
				DroppedBytes    int64 `json:"dropped_bytes"`
			} `json:"recovery"`
		} `json:"durability"`
	} `json:"server"`
}

func walStats(client *http.Client, base string) (walStatsBody, error) {
	raw, err := walGet(client, base, "/v1/stats")
	if err != nil {
		return walStatsBody{}, err
	}
	var st walStatsBody
	if err := json.Unmarshal(raw, &st); err != nil {
		return walStatsBody{}, fmt.Errorf("bench: stats response: %w", err)
	}
	return st, nil
}

// RunWAL measures the durable ingest path and runs the kill-and-
// restart drill. s.Points is the measured ingest volume per
// throughput mode (rounded down to whole batches) and the traffic
// pool of the drill.
func RunWAL(s Scale) (WALReport, error) {
	const liveBatches = 2
	measuredBatches := s.Points / e2eIngestBatch
	if measuredBatches < 4 {
		return WALReport{}, fmt.Errorf("bench: the wal experiment needs at least %d points, got %d", 4*e2eIngestBatch, s.Points)
	}
	warmupBatches := walWarmup / e2eIngestBatch
	total := (warmupBatches + measuredBatches + liveBatches) * e2eIngestBatch
	pts := ServeStream(total, s.Seed, s.Rate)
	bodies, err := e2eBodies(pts)
	if err != nil {
		return WALReport{}, err
	}

	rep := WALReport{
		Schema:      "edmstream-wal/v1",
		Points:      measuredBatches * e2eIngestBatch,
		Seed:        s.Seed,
		Rate:        s.Rate,
		IngestBatch: e2eIngestBatch,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
	}
	for _, noSync := range []bool{false, true} {
		res, err := runWALThroughput(noSync, s, bodies[:warmupBatches+measuredBatches], warmupBatches)
		if err != nil {
			return WALReport{}, err
		}
		rep.Throughput = append(rep.Throughput, res)
	}
	if rep.Throughput[0].PointsPerSec > 0 {
		rep.NoSyncSpeedup = rep.Throughput[1].PointsPerSec / rep.Throughput[0].PointsPerSec
	}

	kill, err := runWALKill(s, pts, bodies, warmupBatches, liveBatches)
	if err != nil {
		return WALReport{}, err
	}
	rep.Kill = kill
	return rep, nil
}

// runWALThroughput drives one durable in-process server with
// concurrent writers and reports the measured ingest rate plus the
// server's WAL accounting.
func runWALThroughput(noSync bool, s Scale, bodies [][]byte, warmupBatches int) (WALThroughputResult, error) {
	mode := "fsync"
	if noSync {
		mode = "nosync"
	}
	dir, err := os.MkdirTemp("", "edmbench-wal-")
	if err != nil {
		return WALThroughputResult{}, err
	}
	defer os.RemoveAll(dir)

	c, err := edmstream.New(e2eOptions(s.Rate))
	if err != nil {
		return WALThroughputResult{}, fmt.Errorf("bench: building clusterer: %w", err)
	}
	srv, err := server.New(c, server.Config{
		Addr:            "127.0.0.1:0",
		DataDir:         dir,
		WALNoSync:       noSync,
		CheckpointEvery: walCheckpointEvery,
	})
	if err != nil {
		return WALThroughputResult{}, fmt.Errorf("bench: building %s server: %w", mode, err)
	}
	if err := srv.Start(); err != nil {
		return WALThroughputResult{}, fmt.Errorf("bench: starting %s server: %w", mode, err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	base := "http://" + srv.Addr()
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        walWriters + 2,
		MaxIdleConnsPerHost: walWriters + 2,
	}}

	for b := 0; b < warmupBatches; b++ {
		if err := walPost(client, base, bodies[b]); err != nil {
			return WALThroughputResult{}, fmt.Errorf("bench: %s warm-up: %w", mode, err)
		}
	}

	measured := bodies[warmupBatches:]
	var firstErr atomic.Value // error
	var npts atomic.Int64
	var wg sync.WaitGroup
	begin := time.Now()
	for w := 0; w < walWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := w; b < len(measured); b += walWriters {
				if err := walPost(client, base, measured[b]); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				npts.Add(e2eIngestBatch)
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(begin)
	if err, _ := firstErr.Load().(error); err != nil {
		return WALThroughputResult{}, fmt.Errorf("bench: %s ingest: %w", mode, err)
	}

	st, err := walStats(client, base)
	if err != nil {
		return WALThroughputResult{}, err
	}
	d := st.Server.Durability
	if d == nil {
		return WALThroughputResult{}, fmt.Errorf("bench: %s server reports no durability section — WAL not wired in", mode)
	}
	if d.NoSync != noSync {
		return WALThroughputResult{}, fmt.Errorf("bench: %s server reports no_sync=%v", mode, d.NoSync)
	}
	return WALThroughputResult{
		Mode:           mode,
		Points:         npts.Load(),
		WallSeconds:    wall.Seconds(),
		PointsPerSec:   float64(npts.Load()) / wall.Seconds(),
		WALRecords:     d.Records,
		WALBytes:       d.Bytes,
		Checkpoints:    d.Checkpoints,
		FsyncP50Micros: d.FsyncP50Sec * 1e6,
		FsyncP99Micros: d.FsyncP99Sec * 1e6,
	}, nil
}

// startWALChild re-execs this binary in child mode on the given WAL
// directory and waits for it to report its bound address. The child
// writes the addr file only after server.New returns — that is, after
// recovery — so a returned child has finished recovering.
func startWALChild(exe, dataDir, addrFile string, rate float64) (*benchChild, error) {
	return startBenchChild(exe, []string{
		walChildEnv + "=1",
		"EDMBENCH_WAL_DIR=" + dataDir,
		"EDMBENCH_WAL_ADDR_FILE=" + addrFile,
		fmt.Sprintf("EDMBENCH_WAL_RATE=%g", rate),
		fmt.Sprintf("EDMBENCH_WAL_CHECKPOINT_EVERY=%d", walCheckpointEvery),
	}, addrFile)
}

// runWALKill is the crash drill: SIGKILL a durable child mid-traffic,
// restart it on the same WAL directory, and verify the recovered
// state is exactly the acknowledged prefix — byte-identical to a
// fresh engine fed that prefix directly.
func runWALKill(s Scale, pts []stream.Point, bodies [][]byte, warmupBatches, liveBatches int) (WALKillResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return WALKillResult{}, fmt.Errorf("bench: locating own executable for the wal child: %w", err)
	}
	base, err := os.MkdirTemp("", "edmbench-wal-kill-")
	if err != nil {
		return WALKillResult{}, err
	}
	defer os.RemoveAll(base)
	dataDir := filepath.Join(base, "data")
	addrFile := filepath.Join(base, "addr")
	client := &http.Client{}

	child, err := startWALChild(exe, dataDir, addrFile, s.Rate)
	if err != nil {
		return WALKillResult{}, err
	}

	// One sequential writer: with requests strictly one at a time the
	// acknowledged set is always an exact prefix of the stream, which
	// is what makes the reference replay below well-defined.
	send := bodies[:len(bodies)-liveBatches]
	killAfter := int64(warmupBatches + (len(send)-warmupBatches)/2)
	var acked atomic.Int64
	var killIssued atomic.Bool
	var writerErr error
	threshold := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, body := range send {
			if err := walPost(client, "http://"+child.addr, body); err != nil {
				// The error after the SIGKILL is the crash happening
				// mid-request — expected. Before it, it is a failure.
				if !killIssued.Load() {
					writerErr = err
				}
				return
			}
			if acked.Add(1) == killAfter {
				close(threshold)
			}
		}
	}()
	select {
	case <-threshold:
	case <-done:
	}
	killIssued.Store(true)
	_ = child.cmd.Process.Kill() // SIGKILL: no flush, no goodbye
	<-child.wait
	<-done
	if writerErr != nil {
		return WALKillResult{}, fmt.Errorf("bench: ingest before the kill: %w", writerErr)
	}
	ackedPoints := acked.Load() * e2eIngestBatch

	// Restart on the same directory; startWALChild returning means
	// recovery completed.
	child2, err := startWALChild(exe, dataDir, addrFile, s.Rate)
	if err != nil {
		return WALKillResult{}, fmt.Errorf("bench: restarting after the kill: %w", err)
	}
	defer func() {
		if child2 != nil {
			_ = child2.cmd.Process.Kill()
			<-child2.wait
		}
	}()
	base2 := "http://" + child2.addr
	st, err := walStats(client, base2)
	if err != nil {
		return WALKillResult{}, err
	}
	recovered := st.Engine.Points
	res := WALKillResult{AckedPoints: ackedPoints, RecoveredPoints: recovered}
	if st.Server.Durability != nil {
		res.ReplayedRecords = st.Server.Durability.Recovery.RecordsReplayed
		res.HasCheckpoint = st.Server.Durability.Recovery.HasCheckpoint
	}

	// The contract: every acknowledged point survived; nothing beyond
	// the sent stream appeared; only whole batches exist.
	if recovered < ackedPoints {
		return res, fmt.Errorf("bench: crash recovery lost acknowledged points: %d acked, %d recovered", ackedPoints, recovered)
	}
	if max := int64(len(send)) * e2eIngestBatch; recovered > max {
		return res, fmt.Errorf("bench: crash recovery invented points: %d recovered, only %d ever sent", recovered, max)
	}
	if recovered%e2eIngestBatch != 0 {
		return res, fmt.Errorf("bench: crash recovery kept a partial batch: %d points is not a multiple of %d", recovered, e2eIngestBatch)
	}

	// Byte-identical equivalence: a fresh engine fed the recovered
	// prefix directly must publish the same clustering the restarted
	// server serves.
	ref, err := edmstream.New(e2eOptions(s.Rate))
	if err != nil {
		return res, fmt.Errorf("bench: building reference clusterer: %w", err)
	}
	for b := 0; b < int(recovered)/e2eIngestBatch; b++ {
		if err := ref.InsertBatch(pts[b*e2eIngestBatch : (b+1)*e2eIngestBatch]); err != nil {
			return res, fmt.Errorf("bench: reference replay: %w", err)
		}
	}
	refSrv, err := server.New(ref, server.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		return res, fmt.Errorf("bench: building reference server: %w", err)
	}
	if err := refSrv.Start(); err != nil {
		return res, fmt.Errorf("bench: starting reference server: %w", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = refSrv.Shutdown(ctx)
	}()
	childSnap, err := walGet(client, base2, "/v1/snapshot")
	if err != nil {
		return res, err
	}
	refSnap, err := walGet(client, "http://"+refSrv.Addr(), "/v1/snapshot")
	if err != nil {
		return res, err
	}
	if !bytes.Equal(childSnap, refSnap) {
		return res, fmt.Errorf("bench: recovered clustering diverges from a fresh engine fed the same %d points (%d vs %d snapshot bytes)", recovered, len(childSnap), len(refSnap))
	}
	res.SnapshotIdentical = true

	// Liveness: the recovered server keeps serving writes.
	for _, body := range bodies[len(bodies)-liveBatches:] {
		if err := walPost(client, base2, body); err != nil {
			return res, fmt.Errorf("bench: post-restart ingest: %w", err)
		}
	}
	st2, err := walStats(client, base2)
	if err != nil {
		return res, err
	}
	res.PostRestartPoints = st2.Engine.Points
	if want := recovered + int64(liveBatches)*e2eIngestBatch; res.PostRestartPoints != want {
		return res, fmt.Errorf("bench: post-restart engine holds %d points, want %d", res.PostRestartPoints, want)
	}

	// Graceful exit this time: SIGTERM must drain and return 0.
	_ = child2.cmd.Process.Signal(syscall.SIGTERM)
	if err := <-child2.wait; err != nil {
		child2 = nil
		return res, fmt.Errorf("bench: graceful shutdown after recovery: %v", err)
	}
	child2 = nil
	return res, nil
}

// RunWALChild is the kill-and-restart child: a durable edmserved
// instance on an ephemeral loopback port, configured through
// EDMBENCH_WAL_* environment variables. It writes its bound address
// to the addr file only after server.New returned — after recovery —
// so the parent's poll on that file doubles as a recovery barrier.
// Then it waits to be SIGKILLed (the crash) or SIGTERMed (the
// graceful verification pass).
func RunWALChild() error {
	dir := os.Getenv("EDMBENCH_WAL_DIR")
	addrFile := os.Getenv("EDMBENCH_WAL_ADDR_FILE")
	if dir == "" || addrFile == "" {
		return errors.New("bench: EDMBENCH_WAL_DIR and EDMBENCH_WAL_ADDR_FILE are required in child mode")
	}
	rate, err := strconv.ParseFloat(os.Getenv("EDMBENCH_WAL_RATE"), 64)
	if err != nil {
		return fmt.Errorf("bench: EDMBENCH_WAL_RATE: %w", err)
	}
	ckptEvery, err := strconv.Atoi(os.Getenv("EDMBENCH_WAL_CHECKPOINT_EVERY"))
	if err != nil {
		return fmt.Errorf("bench: EDMBENCH_WAL_CHECKPOINT_EVERY: %w", err)
	}

	c, err := edmstream.New(e2eOptions(rate))
	if err != nil {
		return err
	}
	srv, err := server.New(c, server.Config{
		Addr:            "127.0.0.1:0",
		DataDir:         dir,
		CheckpointEvery: ckptEvery,
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

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGTERM, syscall.SIGINT)
	<-ch
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// FormatWAL renders the report for the terminal.
func FormatWAL(rep WALReport) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "Durability: WAL fsync-before-ack cost and kill-and-restart recovery\n")
	fmt.Fprintf(&b, "  (gomaxprocs %d, %d CPUs, %d writers, %d-point batches, checkpoint every %d points)\n",
		rep.GOMAXPROCS, rep.NumCPU, walWriters, rep.IngestBatch, walCheckpointEvery)
	fmt.Fprintf(&b, "%-8s %10s %9s %12s %12s %10s %22s\n",
		"mode", "points", "wall(s)", "points/sec", "wal records", "wal MiB", "fsync p50/p99 (us)")
	for _, t := range rep.Throughput {
		fmt.Fprintf(&b, "%-8s %10d %9.2f %12.0f %12d %10.2f %11.0f/%-10.0f\n",
			t.Mode, t.Points, t.WallSeconds, t.PointsPerSec,
			t.WALRecords, float64(t.WALBytes)/(1<<20), t.FsyncP50Micros, t.FsyncP99Micros)
	}
	fmt.Fprintf(&b, "nosync/fsync speedup: %.2fx (what the durability guarantee costs on this disk)\n", rep.NoSyncSpeedup)
	k := rep.Kill
	fmt.Fprintf(&b, "kill-and-restart: SIGKILL mid-traffic, restart on the same WAL directory\n")
	fmt.Fprintf(&b, "  acked %d points before the kill; recovered %d (checkpoint %v + %d replayed records)\n",
		k.AckedPoints, k.RecoveredPoints, k.HasCheckpoint, k.ReplayedRecords)
	fmt.Fprintf(&b, "  recovered clustering byte-identical to an uninterrupted run: %v\n", k.SnapshotIdentical)
	fmt.Fprintf(&b, "  post-restart ingest accepted; engine at %d points, graceful drain clean\n", k.PostRestartPoints)
	return b.String()
}

// WriteWALJSON writes the machine-readable artifact.
func WriteWALJSON(path string, rep WALReport) error {
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshaling wal report: %w", err)
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("bench: writing %s: %w", path, err)
	}
	return nil
}
