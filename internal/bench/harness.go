package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"github.com/densitymountain/edmstream"
	"github.com/densitymountain/edmstream/internal/archive"
	"github.com/densitymountain/edmstream/internal/server"
	"github.com/densitymountain/edmstream/internal/stream"
	"github.com/densitymountain/edmstream/internal/wal"
)

// This file is the scenario harness the serving drills (e2e, wal,
// overload, dr, tenants) share: one re-exec'd child process, one
// in-process server helper, one view of /v1/stats, one "recovered ==
// solo replay" ledger verifier and one artifact writer. Each drill file
// keeps only its scenario — traffic, fault schedule and assertions.

// ChildEnv marks a process as a drill's serving child and carries its
// JSON-encoded spec. cmd/edmbench and the bench test binary both divert
// to RunChild when it is set, before any flag parsing.
const ChildEnv = "EDMBENCH_CHILD"

// childSpec is everything a drill child needs that is not a constant
// of this binary.
type childSpec struct {
	Drill    string  `json:"drill"`
	DataDir  string  `json:"data_dir"`
	Remote   string  `json:"remote,omitempty"`
	AddrFile string  `json:"addr_file"`
	Rate     float64 `json:"rate"`
	Restore  bool    `json:"restore,omitempty"`
}

// childConfig builds a drill child's server configuration from the
// drill's constants, plus the fault toggle SIGUSR1 (on) and SIGUSR2
// (off) drive — nil for drills without a fault schedule.
func childConfig(spec childSpec) (server.Config, func(on bool), error) {
	cfg := server.Config{DataDir: spec.DataDir}
	switch spec.Drill {
	case "wal":
		cfg.CheckpointEvery = walCheckpointEvery
		return cfg, nil, nil
	case "overload":
		// A slow disk pins ingest capacity low; SIGUSR1 kills it
		// (sticky sync failure), SIGUSR2 heals it back to merely slow.
		// Tight admission settings let the parent force every shedding
		// path.
		slow := wal.Fault{Op: "sync", Sticky: true, Delay: overloadSlowSync}
		dead := wal.Fault{Op: "sync", Sticky: true}
		ffs := wal.NewFaultFS(nil)
		ffs.Inject(slow)
		cfg.WALFS = ffs
		cfg.MaxBatch = 4 * overloadPtsPerReq
		cfg.MaxPending = 8
		cfg.IngestDeadline = 100 * time.Millisecond
		cfg.DegradedProbeInterval = 100 * time.Millisecond
		cfg.WALRetryAttempts = 2
		cfg.CheckpointEvery = 1 << 20
		return cfg, func(on bool) {
			if on {
				ffs.Inject(dead)
			} else {
				ffs.Inject(slow)
			}
		}, nil
	case "dr":
		// Flaky from the first byte: every 5th upload dies after leaving
		// a 64-byte truncated object behind, every 4th download fails
		// once. SIGUSR1/SIGUSR2 turn a total outage on and off.
		inner, err := archive.NewDirStore(spec.Remote)
		if err != nil {
			return cfg, nil, err
		}
		fstore := archive.NewFaultStore(inner)
		fstore.Inject(
			archive.Fault{Op: "put", After: 3, Every: 5, Partial: 64},
			archive.Fault{Op: "get", After: 1, Every: 4},
		)
		cfg.WALSegmentBytes = drSegmentBytes
		cfg.CheckpointEvery = drCheckpointEvery
		cfg.ArchiveStore = fstore
		cfg.ArchiveQueue = 16
		cfg.ArchiveRetryBase = 20 * time.Millisecond
		cfg.ArchiveRetryMax = 250 * time.Millisecond
		cfg.ArchiveResync = 150 * time.Millisecond
		cfg.CheckpointCompress = true
		cfg.RecoveryBudget = drBudget
		cfg.RestoreFromArchive = spec.Restore
		return cfg, fstore.SetOutage, nil
	case "tenants":
		// A multi-tenant engine factory under a tight memory budget with
		// a hot sweep cadence, so eviction churns while traffic runs.
		cfg.CheckpointEvery = walCheckpointEvery
		cfg.MemoryBudget = tenantBudget()
		cfg.EvictIdleAfter = tenantEvictIdle
		cfg.SweepInterval = tenantSweepInterval
		cfg.NewEngine = func() (*edmstream.Clusterer, error) { return edmstream.New(e2eOptions(spec.Rate)) }
		return cfg, nil, nil
	}
	return cfg, nil, fmt.Errorf("bench: unknown drill child %q", spec.Drill)
}

// RunChild is every drill's serving child: a durable edmserved on an
// ephemeral loopback port, configured by the spec in ChildEnv. It
// publishes its bound address only after server.New returned — after
// any restore and recovery — so the parent's poll on the addr file
// doubles as a recovery barrier. Then it waits: SIGUSR1/SIGUSR2 toggle
// the drill's fault, SIGTERM/SIGINT drain, and SIGKILL is the crash.
func RunChild() error {
	var spec childSpec
	if err := json.Unmarshal([]byte(os.Getenv(ChildEnv)), &spec); err != nil {
		return fmt.Errorf("bench: %s: %w", ChildEnv, err)
	}
	if spec.DataDir == "" || spec.AddrFile == "" {
		return fmt.Errorf("bench: %s needs data_dir and addr_file", ChildEnv)
	}
	cfg, toggle, err := childConfig(spec)
	if err != nil {
		return err
	}
	srv, err := serveInProcess(spec.Rate, cfg, nil)
	if err != nil {
		return err
	}
	if err := publishAddr(spec.AddrFile, srv.srv.Addr()); err != nil {
		return err
	}

	ch := make(chan os.Signal, 4)
	signal.Notify(ch, syscall.SIGTERM, syscall.SIGINT, syscall.SIGUSR1, syscall.SIGUSR2)
	for sig := range ch {
		switch sig {
		case syscall.SIGUSR1, syscall.SIGUSR2:
			if toggle != nil {
				toggle(sig == syscall.SIGUSR1)
			}
		default:
			return srv.close()
		}
	}
	return nil
}

// publishAddr atomically writes a child's bound address to the file
// the parent polls (write-then-rename: the parent never reads a torn
// file).
func publishAddr(addrFile, addr string) error {
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, addrFile)
}

// newChildSpec lays out a fresh temp directory for one drill's
// children (data dir, remote dir and addr file inside it) and returns
// the spec plus the directory's cleanup.
func newChildSpec(drill string, rate float64) (childSpec, func(), error) {
	base, err := os.MkdirTemp("", "edmbench-"+drill+"-")
	if err != nil {
		return childSpec{}, nil, err
	}
	return childSpec{
		Drill:    drill,
		DataDir:  filepath.Join(base, "data"),
		Remote:   filepath.Join(base, "remote"),
		AddrFile: filepath.Join(base, "addr"),
		Rate:     rate,
	}, func() { os.RemoveAll(base) }, nil
}

// benchChild is a re-exec'd copy of the current binary running
// RunChild.
type benchChild struct {
	cmd *exec.Cmd
	url string // "http://" + bound address
	// wait receives cmd.Wait's result exactly once; exited records
	// that it was received.
	wait   chan error
	exited bool
}

// startChild re-execs this binary as spec's drill child and waits for
// it to publish its address — that is, for its recovery to finish.
func startChild(spec childSpec) (*benchChild, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("bench: locating own executable for the %s child: %w", spec.Drill, err)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	_ = os.Remove(spec.AddrFile)
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), ChildEnv+"="+string(raw))
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: starting child: %w", err)
	}
	ch := &benchChild{cmd: cmd, wait: make(chan error, 1)}
	go func() { ch.wait <- cmd.Wait() }()

	deadline := time.Now().Add(30 * time.Second)
	for {
		if addr, err := os.ReadFile(spec.AddrFile); err == nil && len(addr) > 0 {
			ch.url = "http://" + string(addr)
			return ch, nil
		}
		if time.Now().After(deadline) {
			ch.kill()
			return nil, errors.New("bench: child did not report an address within 30s")
		}
		select {
		case err := <-ch.wait:
			return nil, fmt.Errorf("bench: child exited before binding: %v", err)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// kill SIGKILLs the child — no flush, no goodbye — and reaps it. It is
// a no-op once the child has exited, so it doubles as the deferred
// cleanup.
func (c *benchChild) kill() {
	if c.exited {
		return
	}
	_ = c.cmd.Process.Kill()
	<-c.wait
	c.exited = true
}

// drain SIGTERMs the child and requires it to exit 0: a graceful drain
// that services every queued request.
func (c *benchChild) drain() error {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	err := <-c.wait
	c.exited = true
	if err != nil {
		return fmt.Errorf("bench: graceful drain: %v", err)
	}
	return nil
}

// inProcServer is an in-process server on an ephemeral loopback port.
type inProcServer struct {
	srv *server.Server
	url string
}

// serveInProcess boots a server (cfg.Addr is overridden) around a
// fresh engine with the drills' options, first fed pts directly in
// e2eIngestBatch-point InsertBatch calls.
func serveInProcess(rate float64, cfg server.Config, pts []stream.Point) (*inProcServer, error) {
	c, err := edmstream.New(e2eOptions(rate))
	if err != nil {
		return nil, fmt.Errorf("bench: building clusterer: %w", err)
	}
	for b := 0; b+e2eIngestBatch <= len(pts); b += e2eIngestBatch {
		if err := c.InsertBatch(pts[b : b+e2eIngestBatch]); err != nil {
			return nil, fmt.Errorf("bench: preloading the engine: %w", err)
		}
	}
	cfg.Addr = "127.0.0.1:0"
	srv, err := server.New(c, cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: building server: %w", err)
	}
	if err := srv.Start(); err != nil {
		return nil, fmt.Errorf("bench: starting server: %w", err)
	}
	return &inProcServer{srv: srv, url: "http://" + srv.Addr()}, nil
}

// close drains the server.
func (s *inProcServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// drillStats is the union of the GET /v1/stats fields the drills read.
// The server's type is unexported; the drills consume the wire
// contract like any other client.
type drillStats struct {
	Engine edmstream.Stats `json:"engine"`
	Server struct {
		Degraded  bool `json:"degraded"`
		Admission struct {
			DegradedEntered   uint64 `json:"degraded_entered"`
			DegradedRecovered uint64 `json:"degraded_recovered"`
		} `json:"admission"`
		Coalescer struct {
			Batches          uint64  `json:"batches"`
			Points           uint64  `json:"points"`
			BatchPointsP50   float64 `json:"batch_points_p50"`
			BatchPointsP90   float64 `json:"batch_points_p90"`
			BatchPointsP99   float64 `json:"batch_points_p99"`
			BatchPointsMax   float64 `json:"batch_points_max"`
			BatchRequestsP50 float64 `json:"batch_requests_p50"`
			BatchRequestsP99 float64 `json:"batch_requests_p99"`
			BatchWaitP50Sec  float64 `json:"batch_wait_p50_seconds"`
			BatchWaitP99Sec  float64 `json:"batch_wait_p99_seconds"`
		} `json:"coalescer"`
		Durability *struct {
			Records              uint64  `json:"records"`
			Bytes                uint64  `json:"bytes"`
			Checkpoints          uint64  `json:"checkpoints"`
			NoSync               bool    `json:"no_sync"`
			FsyncP50Sec          float64 `json:"fsync_p50_seconds"`
			FsyncP99Sec          float64 `json:"fsync_p99_seconds"`
			BudgetCheckpoints    uint64  `json:"budget_checkpoints"`
			ReplayPointsPerSec   int64   `json:"replay_points_per_sec"`
			CheckpointCompressed bool    `json:"checkpoint_compressed"`
			Recovery             struct {
				HasCheckpoint   bool `json:"has_checkpoint"`
				RecordsReplayed int  `json:"records_replayed"`
			} `json:"recovery"`
		} `json:"durability"`
		Archive *struct {
			ShippedBytes         uint64               `json:"shipped_bytes"`
			ReadBytes            uint64               `json:"read_bytes"`
			Failed               uint64               `json:"failed"`
			Retried              uint64               `json:"retried"`
			LagObjects           int64                `json:"lag_objects"`
			Lagging              bool                 `json:"lagging"`
			ShippedThroughSeq    uint64               `json:"shipped_through_seq"`
			ShippedCheckpointSeq uint64               `json:"shipped_checkpoint_seq"`
			Restore              *archive.RestoreInfo `json:"restore"`
		} `json:"archive"`
		Tenancy struct {
			WriterPool int    `json:"writer_pool"`
			Evictions  uint64 `json:"evictions"`
			Revivals   uint64 `json:"revivals"`
		} `json:"tenancy"`
	} `json:"server"`
}

// fetchStats reads one stream's stats: streamURL is a base URL plus
// "/v1" for the default stream or "/v1/<name>" for a named one.
func fetchStats(client *http.Client, streamURL string) (drillStats, error) {
	var st drillStats
	raw, err := shedRetry(client, streamURL+"/stats", nil, stdRetry)
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return st, fmt.Errorf("bench: stats response: %w", err)
	}
	return st, nil
}

// awaitStats polls the stream's stats (see fetchStats) every 10ms
// until cond holds, and returns the stats that satisfied it.
func awaitStats(client *http.Client, streamURL string, timeout time.Duration, what string, cond func(drillStats) (bool, error)) (drillStats, error) {
	var st drillStats
	err := waitUntil(timeout, 10*time.Millisecond, what, func() (bool, error) {
		var err error
		if st, err = fetchStats(client, streamURL); err != nil {
			return false, err
		}
		return cond(st)
	})
	return st, err
}

// ingestAll posts the bodies to url's default stream one at a time,
// in order, each with the standard shed retry.
func ingestAll(client *http.Client, url string, bodies [][]byte) error {
	for b, body := range bodies {
		if _, err := shedRetry(client, url+"/v1/ingest", body, stdRetry); err != nil {
			return fmt.Errorf("batch %d: %w", b, err)
		}
	}
	return nil
}

// ingestLive is the liveness check after a restart: the recovered
// server at url accepts the spare bodies, and its engine grows by
// exactly those points. It returns the engine size afterwards.
func ingestLive(client *http.Client, url string, bodies [][]byte, recovered int64) (int64, error) {
	if err := ingestAll(client, url, bodies); err != nil {
		return 0, fmt.Errorf("bench: post-restart ingest: %w", err)
	}
	st, err := fetchStats(client, url+"/v1")
	if err != nil {
		return 0, err
	}
	if want := recovered + int64(len(bodies))*e2eIngestBatch; st.Engine.Points != want {
		return st.Engine.Points, fmt.Errorf("bench: post-restart engine holds %d points, want %d", st.Engine.Points, want)
	}
	return st.Engine.Points, nil
}

// verifyReplay is the "recovered == solo replay" ledger check shared
// by the wal, dr and tenants drills. The stream at streamURL (see
// fetchStats) must hold whole e2eIngestBatch batches, lo <= recovered
// <= hi points, and publish a snapshot byte-identical to a fresh engine
// fed exactly that prefix of pts through InsertBatch, with identical
// engine statistics — the drill's crash, restore or eviction churn was
// invisible to its state. The statistics catch what the snapshot can
// miss: the published clustering only refreshes at the engine's
// cadence, so a prefix short by a batch can publish the same one. It
// returns the recovered point count, also alongside an error.
func verifyReplay(client *http.Client, streamURL string, pts []stream.Point, rate float64, lo, hi int64) (int64, error) {
	st, err := fetchStats(client, streamURL)
	if err != nil {
		return 0, err
	}
	recovered := st.Engine.Points
	switch {
	case recovered%e2eIngestBatch != 0:
		return recovered, fmt.Errorf("bench: %s kept a partial batch: %d points is not a multiple of %d", streamURL, recovered, e2eIngestBatch)
	case recovered < lo:
		return recovered, fmt.Errorf("bench: %s lost points it must keep: %d recovered, at least %d required", streamURL, recovered, lo)
	case recovered > hi:
		return recovered, fmt.Errorf("bench: %s invented points: %d recovered, at most %d possible", streamURL, recovered, hi)
	}

	refSrv, err := serveInProcess(rate, server.Config{}, pts[:recovered])
	if err != nil {
		return recovered, err
	}
	defer refSrv.close()
	childSnap, err := shedRetry(client, streamURL+"/snapshot", nil, stdRetry)
	if err != nil {
		return recovered, err
	}
	refSnap, err := shedRetry(client, refSrv.url+"/v1/snapshot", nil, stdRetry)
	if err != nil {
		return recovered, err
	}
	if !bytes.Equal(childSnap, refSnap) {
		return recovered, fmt.Errorf("bench: %s clustering diverges from a fresh engine fed the same %d points (%d vs %d snapshot bytes)",
			streamURL, recovered, len(childSnap), len(refSnap))
	}
	refSt, err := fetchStats(client, refSrv.url+"/v1")
	if err != nil {
		return recovered, err
	}
	if refSt.Engine != st.Engine {
		return recovered, fmt.Errorf("bench: %s engine statistics diverge from a fresh engine fed the same %d points:\n  recovered %+v\n  reference %+v",
			streamURL, recovered, st.Engine, refSt.Engine)
	}
	return recovered, nil
}

// nearestRank is the nearest-rank q-quantile of sorted samples: the
// ceil(q·n)-th smallest (0 for no samples).
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(idx, 0)]
}

// marshalArtifact renders a report the way every BENCH_*.json artifact
// is stored: two-space indented JSON with a trailing newline.
func marshalArtifact(v any) ([]byte, error) {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// WriteJSON writes a report as its machine-readable artifact at path.
func WriteJSON(path string, v any) error {
	raw, err := marshalArtifact(v)
	if err != nil {
		return fmt.Errorf("bench: marshaling %s: %w", path, err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("bench: writing %s: %w", path, err)
	}
	return nil
}
