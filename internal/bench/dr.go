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
	"strings"
	"syscall"
	"time"

	"github.com/densitymountain/edmstream"
	"github.com/densitymountain/edmstream/internal/archive"
	"github.com/densitymountain/edmstream/internal/server"
)

// This file holds the disaster-recovery drill: a durable child
// edmserved ships its WAL to a deliberately flaky object store
// (periodic upload failures with visible partial-upload debris,
// periodic download failures, and a full outage window mid-run) while
// a sequential writer ingests. The archive contract under test: a
// remote outage NEVER fails or blocks an acknowledged ingest — the
// server only reports archive-lagging — and after the local data
// directory is destroyed outright, a fresh child restores from the
// remote, recovers a whole-batch prefix of the acknowledged stream
// covering everything the archive had shipped, serves a clustering
// byte-identical to a fresh engine fed that prefix, and does it all
// inside the recovery-time budget (BENCH_recovery.json).

const (
	// drChildEnv marks a process as the disaster drill's serving child;
	// cmd/edmbench and the bench test binary divert to RunDRChild when
	// it is set, before any flag parsing.
	drChildEnv = "EDMBENCH_DR_CHILD"
	// drCheckpointEvery keeps checkpoints dense enough that the remote
	// holds one well before the outage, so the restore exercises both
	// the checkpoint download and the segment tail replay.
	drCheckpointEvery = 2000
	// drSegmentBytes keeps WAL segments small enough that every drill
	// phase — including the short outage window at CI scale — seals
	// and ships several.
	drSegmentBytes = 16 << 10
	// drBudget is the recovery-time budget handed to both children:
	// the full restart of the second child — download, validate,
	// replay, bind — must come in under it.
	drBudget = 5 * time.Second
	// drLiveBatches is the post-restore liveness traffic.
	drLiveBatches = 2
)

// DRReport is the JSON-serializable outcome of the drill.
type DRReport struct {
	Schema      string  `json:"schema"`
	Points      int     `json:"points"`
	Seed        int64   `json:"seed"`
	Rate        float64 `json:"rate"`
	IngestBatch int     `json:"ingest_batch"`

	// AckedPoints is every point 200-acked across all phases before
	// the kill; OutageAckedPoints the subset acked while the remote
	// was fully down (the never-block contract: each one was a clean
	// 200 with zero retries).
	AckedPoints       int64 `json:"acked_points"`
	OutageAckedPoints int64 `json:"outage_acked_points"`

	// Archive accounting at the moment of the kill. ArchivedThroughSeq
	// is the sealed-segment high-water mark the remote held; every WAL
	// record below it must be recoverable. CompressionRatio is
	// shipped-over-read bytes for the gzip'd uploads.
	ArchivedThroughSeq uint64  `json:"archived_through_seq"`
	ArchiveFailed      uint64  `json:"archive_failed_uploads"`
	ArchiveRetried     uint64  `json:"archive_upload_retries"`
	CompressionRatio   float64 `json:"compression_ratio"`

	// The disaster: SIGKILL plus rm -rf of the data directory, then a
	// restore-from-archive restart. RecoveredPoints is what the
	// restored child holds — whole batches only, at most AckedPoints,
	// at least what the archive had sealed.
	RecoveredPoints    int64   `json:"recovered_points"`
	RestoreCheckpoints int     `json:"restore_checkpoints"`
	RestoreSegments    int     `json:"restore_segments"`
	RestoreBytes       int64   `json:"restore_bytes"`
	RestoreBadObjects  int     `json:"restore_bad_objects"`
	RestoreRetried     int     `json:"restore_retried"`
	RestoreSeconds     float64 `json:"restore_seconds"`

	// RestartWallSeconds is the full disaster restart — process start
	// to bound address — which the drill requires under
	// RecoveryBudgetSeconds.
	RestartWallSeconds    float64 `json:"restart_wall_seconds"`
	RecoveryBudgetSeconds float64 `json:"recovery_budget_seconds"`
	BudgetCheckpoints     uint64  `json:"budget_checkpoints"`
	ReplayPointsPerSec    int64   `json:"replay_points_per_sec"`

	// SnapshotIdentical records that the restored clustering is
	// byte-identical to a fresh engine fed the recovered prefix.
	SnapshotIdentical bool  `json:"snapshot_identical"`
	PostRestartPoints int64 `json:"post_restart_points"`

	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
}

// drStatsBody is the slice of GET /v1/stats the drill consumes.
type drStatsBody struct {
	Engine struct {
		Points int64 `json:"Points"`
	} `json:"engine"`
	Server struct {
		Durability *struct {
			BudgetCheckpoints    uint64 `json:"budget_checkpoints"`
			ReplayPointsPerSec   int64  `json:"replay_points_per_sec"`
			CheckpointCompressed bool   `json:"checkpoint_compressed"`
		} `json:"durability"`
		Archive *struct {
			Shipped              uint64               `json:"shipped"`
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
	} `json:"server"`
}

func drStats(client *http.Client, base string) (drStatsBody, error) {
	raw, err := getShedRetry(client, base+"/v1/stats", 4, 10*time.Millisecond, time.Second, nil)
	if err != nil {
		return drStatsBody{}, err
	}
	var st drStatsBody
	if err := json.Unmarshal(raw, &st); err != nil {
		return drStatsBody{}, fmt.Errorf("bench: stats response: %w", err)
	}
	return st, nil
}

// startDRChild re-execs this binary as the disaster drill's durable
// serving child. The addr file is written only after server.New
// returned — after any restore and recovery — so the parent's poll on
// it doubles as a recovery barrier, and its wall time is the restart
// the budget judges.
func startDRChild(exe, dataDir, remoteDir, addrFile string, rate float64, restore bool) (*benchChild, error) {
	restoreFlag := "0"
	if restore {
		restoreFlag = "1"
	}
	return startBenchChild(exe, []string{
		drChildEnv + "=1",
		"EDMBENCH_DR_DIR=" + dataDir,
		"EDMBENCH_DR_REMOTE=" + remoteDir,
		"EDMBENCH_DR_ADDR_FILE=" + addrFile,
		fmt.Sprintf("EDMBENCH_DR_RATE=%g", rate),
		fmt.Sprintf("EDMBENCH_DR_BUDGET_MS=%d", drBudget.Milliseconds()),
		"EDMBENCH_DR_RESTORE=" + restoreFlag,
	}, addrFile)
}

// RunDR drives the disaster-recovery drill end to end. s.Points is
// the acknowledged traffic pool (rounded down to whole batches).
func RunDR(s Scale) (DRReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return DRReport{}, fmt.Errorf("bench: locating own executable for the dr child: %w", err)
	}
	base, err := os.MkdirTemp("", "edmbench-dr-")
	if err != nil {
		return DRReport{}, err
	}
	defer os.RemoveAll(base)
	dataDir := filepath.Join(base, "data")
	remoteDir := filepath.Join(base, "remote")
	addrFile := filepath.Join(base, "addr")

	measuredBatches := s.Points / e2eIngestBatch
	if measuredBatches < 8 {
		return DRReport{}, fmt.Errorf("bench: the dr drill needs at least %d points, got %d", 8*e2eIngestBatch, s.Points)
	}
	warmupBatches := walWarmup / e2eIngestBatch
	total := (warmupBatches + measuredBatches + drLiveBatches) * e2eIngestBatch
	pts := ServeStream(total, s.Seed, s.Rate)
	bodies, err := e2eBodies(pts)
	if err != nil {
		return DRReport{}, err
	}
	// Phase split of the measured batches: half against the flaky-but-
	// up remote, a quarter during the total outage, the rest after the
	// heal so the shipper's catch-up runs under fresh traffic.
	outageStart := warmupBatches + measuredBatches/2
	outageEnd := outageStart + measuredBatches/4
	killAt := warmupBatches + measuredBatches

	rep := DRReport{
		Schema:                "edmstream-dr/v1",
		Points:                measuredBatches * e2eIngestBatch,
		Seed:                  s.Seed,
		Rate:                  s.Rate,
		IngestBatch:           e2eIngestBatch,
		RecoveryBudgetSeconds: drBudget.Seconds(),
		GOMAXPROCS:            runtime.GOMAXPROCS(0),
		NumCPU:                runtime.NumCPU(),
	}
	client := &http.Client{}

	child, err := startDRChild(exe, dataDir, remoteDir, addrFile, s.Rate, false)
	if err != nil {
		return rep, err
	}
	childUp := true
	defer func() {
		if childUp {
			_ = child.cmd.Process.Kill()
			<-child.wait
		}
	}()
	url := "http://" + child.addr

	// One sequential writer: with requests strictly one at a time the
	// acknowledged set is always an exact whole-batch prefix of the
	// stream, which is what makes the reference replay well-defined.
	acked := 0
	post := func(b int) error {
		if err := walPost(client, url, bodies[b]); err != nil {
			return fmt.Errorf("bench: dr ingest (batch %d): %w", b, err)
		}
		acked++
		return nil
	}

	// Phase 1: flaky remote (periodic failed and partial uploads, the
	// shipper retries through all of it).
	for b := 0; b < outageStart; b++ {
		if err := post(b); err != nil {
			return rep, err
		}
	}
	if err := waitUntil(30*time.Second, 10*time.Millisecond, "the archive to hold a checkpoint and sealed segments", func() (bool, error) {
		st, err := drStats(client, url)
		if err != nil {
			return false, err
		}
		a := st.Server.Archive
		return a != nil && a.ShippedCheckpointSeq > 0 && a.ShippedThroughSeq > 0, nil
	}); err != nil {
		return rep, err
	}

	// Phase 2: total remote outage. Every ingest must still be a clean
	// first-try 200 — local durability is the ack authority, the
	// archive only reports lag.
	if err := child.cmd.Process.Signal(syscall.SIGUSR1); err != nil {
		return rep, fmt.Errorf("bench: arming the remote outage: %w", err)
	}
	for b := outageStart; b < outageEnd; b++ {
		status, _, raw, err := doPost(client, url+"/v1/ingest", bodies[b])
		if err != nil {
			return rep, fmt.Errorf("bench: ingest during the remote outage: %w", err)
		}
		if status != http.StatusOK {
			return rep, fmt.Errorf("bench: the remote outage failed an ingest ack: batch %d got %d: %s", b, status, raw)
		}
		acked++
	}
	rep.OutageAckedPoints = int64(outageEnd-outageStart) * e2eIngestBatch
	if err := waitUntil(30*time.Second, 10*time.Millisecond, "the server to report archive-lagging", func() (bool, error) {
		st, err := drStats(client, url)
		if err != nil {
			return false, err
		}
		a := st.Server.Archive
		if a == nil || !a.Lagging || a.Failed == 0 {
			return false, nil
		}
		raw, err := getShedRetry(client, url+"/healthz", 4, 10*time.Millisecond, time.Second, nil)
		if err != nil {
			return false, err
		}
		return strings.Contains(string(raw), "archive-lagging"), nil
	}); err != nil {
		return rep, err
	}

	// Phase 3: the remote heals (back to merely flaky); the shipper
	// must catch up to zero lag on its own while traffic continues.
	if err := child.cmd.Process.Signal(syscall.SIGUSR2); err != nil {
		return rep, fmt.Errorf("bench: healing the remote: %w", err)
	}
	for b := outageEnd; b < killAt; b++ {
		if err := post(b); err != nil {
			return rep, err
		}
	}
	var preKill drStatsBody
	if err := waitUntil(30*time.Second, 10*time.Millisecond, "the shipper to catch up after the outage", func() (bool, error) {
		st, err := drStats(client, url)
		if err != nil {
			return false, err
		}
		a := st.Server.Archive
		if a == nil || a.Lagging || a.LagObjects != 0 {
			return false, nil
		}
		preKill = st
		return true, nil
	}); err != nil {
		return rep, err
	}
	rep.AckedPoints = int64(acked) * e2eIngestBatch
	a := preKill.Server.Archive
	rep.ArchivedThroughSeq = a.ShippedThroughSeq
	rep.ArchiveFailed = a.Failed
	rep.ArchiveRetried = a.Retried
	if a.ReadBytes > 0 {
		rep.CompressionRatio = float64(a.ShippedBytes) / float64(a.ReadBytes)
	}
	if a.Failed == 0 || a.Retried == 0 {
		return rep, fmt.Errorf("bench: the flaky remote never exercised the retry path: failed=%d retried=%d", a.Failed, a.Retried)
	}
	if a.ShippedBytes >= a.ReadBytes {
		return rep, fmt.Errorf("bench: compressed shipping did not shrink the stream: shipped %d bytes of %d read", a.ShippedBytes, a.ReadBytes)
	}
	if preKill.Server.Durability == nil || !preKill.Server.Durability.CheckpointCompressed {
		return rep, errors.New("bench: the child does not report compressed checkpoints")
	}

	// The disaster: SIGKILL, then the data directory is destroyed
	// outright. The remote archive is all that survives.
	_ = child.cmd.Process.Kill()
	<-child.wait
	childUp = false
	if err := os.RemoveAll(dataDir); err != nil {
		return rep, fmt.Errorf("bench: destroying the data directory: %w", err)
	}

	t0 := time.Now()
	child2, err := startDRChild(exe, dataDir, remoteDir, addrFile, s.Rate, true)
	if err != nil {
		return rep, fmt.Errorf("bench: restore-from-archive restart: %w", err)
	}
	rep.RestartWallSeconds = time.Since(t0).Seconds()
	defer func() {
		if child2 != nil {
			_ = child2.cmd.Process.Kill()
			<-child2.wait
		}
	}()
	url2 := "http://" + child2.addr

	st2, err := drStats(client, url2)
	if err != nil {
		return rep, err
	}
	recovered := st2.Engine.Points
	rep.RecoveredPoints = recovered
	a2 := st2.Server.Archive
	if a2 == nil || a2.Restore == nil {
		return rep, errors.New("bench: the restored child reports no restore info — RestoreFromArchive did not run")
	}
	rep.RestoreCheckpoints = a2.Restore.Checkpoints
	rep.RestoreSegments = a2.Restore.Segments
	rep.RestoreBytes = a2.Restore.Bytes
	rep.RestoreBadObjects = a2.Restore.BadObjects
	rep.RestoreRetried = a2.Restore.Retried
	rep.RestoreSeconds = a2.Restore.DurationSeconds
	if st2.Server.Durability != nil {
		rep.BudgetCheckpoints = st2.Server.Durability.BudgetCheckpoints
		rep.ReplayPointsPerSec = st2.Server.Durability.ReplayPointsPerSec
	}

	// The recovery contract: whole batches only, nothing beyond what
	// was acknowledged, nothing less than what the archive had sealed.
	if recovered%e2eIngestBatch != 0 {
		return rep, fmt.Errorf("bench: restore kept a partial batch: %d points is not a multiple of %d", recovered, e2eIngestBatch)
	}
	if recovered > rep.AckedPoints {
		return rep, fmt.Errorf("bench: restore invented points: %d recovered, only %d acknowledged", recovered, rep.AckedPoints)
	}
	if sealed := int64(rep.ArchivedThroughSeq-1) * e2eIngestBatch; recovered < sealed {
		return rep, fmt.Errorf("bench: restore lost archived records: %d points recovered, the archive had sealed through %d", recovered, sealed)
	}
	if rep.RestoreCheckpoints == 0 || rep.RestoreSegments == 0 {
		return rep, fmt.Errorf("bench: restore downloaded %d checkpoints and %d segments; the drill needs both paths exercised", rep.RestoreCheckpoints, rep.RestoreSegments)
	}
	if rep.RestartWallSeconds >= drBudget.Seconds() {
		return rep, fmt.Errorf("bench: disaster restart took %.2fs, over the %.0fs recovery budget", rep.RestartWallSeconds, drBudget.Seconds())
	}

	// Byte-identical equivalence: a fresh engine fed the recovered
	// prefix directly must publish the same clustering the restored
	// server serves.
	ref, err := edmstream.New(e2eOptions(s.Rate))
	if err != nil {
		return rep, fmt.Errorf("bench: building reference clusterer: %w", err)
	}
	for b := 0; b < int(recovered)/e2eIngestBatch; b++ {
		if err := ref.InsertBatch(pts[b*e2eIngestBatch : (b+1)*e2eIngestBatch]); err != nil {
			return rep, fmt.Errorf("bench: reference replay: %w", err)
		}
	}
	refSrv, err := server.New(ref, server.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		return rep, fmt.Errorf("bench: building reference server: %w", err)
	}
	if err := refSrv.Start(); err != nil {
		return rep, fmt.Errorf("bench: starting reference server: %w", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = refSrv.Shutdown(ctx)
	}()
	childSnap, err := walGet(client, url2, "/v1/snapshot")
	if err != nil {
		return rep, err
	}
	refSnap, err := walGet(client, "http://"+refSrv.Addr(), "/v1/snapshot")
	if err != nil {
		return rep, err
	}
	if !bytes.Equal(childSnap, refSnap) {
		return rep, fmt.Errorf("bench: restored clustering diverges from a fresh engine fed the same %d points (%d vs %d snapshot bytes)", recovered, len(childSnap), len(refSnap))
	}
	rep.SnapshotIdentical = true

	// Liveness: the restored server keeps serving writes.
	for _, body := range bodies[len(bodies)-drLiveBatches:] {
		if err := walPost(client, url2, body); err != nil {
			return rep, fmt.Errorf("bench: post-restore ingest: %w", err)
		}
	}
	st3, err := drStats(client, url2)
	if err != nil {
		return rep, err
	}
	rep.PostRestartPoints = st3.Engine.Points
	if want := recovered + int64(drLiveBatches)*e2eIngestBatch; rep.PostRestartPoints != want {
		return rep, fmt.Errorf("bench: post-restore engine holds %d points, want %d", rep.PostRestartPoints, want)
	}

	// Graceful exit: SIGTERM must drain and return 0.
	_ = child2.cmd.Process.Signal(syscall.SIGTERM)
	if err := <-child2.wait; err != nil {
		child2 = nil
		return rep, fmt.Errorf("bench: graceful shutdown after the restore: %v", err)
	}
	child2 = nil
	return rep, nil
}

// RunDRChild is the disaster drill's serving child: a durable
// edmserved shipping compressed checkpoints and sealed segments to a
// fault-injected object store. The remote is flaky by construction —
// periodic upload failures that leave truncated partial-upload debris
// visible, and periodic download failures — and SIGUSR1/SIGUSR2 turn
// a total outage on and off. SIGTERM drains gracefully.
func RunDRChild() error {
	dir := os.Getenv("EDMBENCH_DR_DIR")
	remote := os.Getenv("EDMBENCH_DR_REMOTE")
	addrFile := os.Getenv("EDMBENCH_DR_ADDR_FILE")
	if dir == "" || remote == "" || addrFile == "" {
		return errors.New("bench: EDMBENCH_DR_DIR, EDMBENCH_DR_REMOTE and EDMBENCH_DR_ADDR_FILE are required in child mode")
	}
	rate, err := strconv.ParseFloat(os.Getenv("EDMBENCH_DR_RATE"), 64)
	if err != nil {
		return fmt.Errorf("bench: EDMBENCH_DR_RATE: %w", err)
	}
	budgetMS, err := strconv.Atoi(os.Getenv("EDMBENCH_DR_BUDGET_MS"))
	if err != nil {
		return fmt.Errorf("bench: EDMBENCH_DR_BUDGET_MS: %w", err)
	}
	restore := os.Getenv("EDMBENCH_DR_RESTORE") == "1"

	inner, err := archive.NewDirStore(remote)
	if err != nil {
		return err
	}
	fstore := archive.NewFaultStore(inner)
	// Flaky from the first byte: every 5th upload dies after leaving a
	// 64-byte truncated object behind, every 4th download fails once.
	fstore.Inject(
		archive.Fault{Op: "put", After: 3, Every: 5, Partial: 64},
		archive.Fault{Op: "get", After: 1, Every: 4},
	)

	c, err := edmstream.New(e2eOptions(rate))
	if err != nil {
		return err
	}
	srv, err := server.New(c, server.Config{
		Addr:            "127.0.0.1:0",
		DataDir:         dir,
		WALSegmentBytes: drSegmentBytes,
		CheckpointEvery: drCheckpointEvery,

		ArchiveStore:       fstore,
		ArchiveQueue:       16,
		ArchiveRetryBase:   20 * time.Millisecond,
		ArchiveRetryMax:    250 * time.Millisecond,
		ArchiveResync:      150 * time.Millisecond,
		CheckpointCompress: true,
		RecoveryBudget:     time.Duration(budgetMS) * time.Millisecond,
		RestoreFromArchive: restore,
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
			fstore.SetOutage(true)
		case syscall.SIGUSR2:
			fstore.SetOutage(false)
		default:
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			return srv.Shutdown(ctx)
		}
	}
	return nil
}

// FormatDR renders the report for the terminal.
func FormatDR(rep DRReport) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "Disaster-recovery drill: flaky remote archive, total outage, rm -rf, restore\n")
	fmt.Fprintf(&b, "  (gomaxprocs %d, %d CPUs, %d-point batches, checkpoint every %d points, %v budget)\n",
		rep.GOMAXPROCS, rep.NumCPU, rep.IngestBatch, drCheckpointEvery, time.Duration(rep.RecoveryBudgetSeconds*float64(time.Second)))
	fmt.Fprintf(&b, "acked %d points (%d of them during the total remote outage, every one a first-try 200)\n",
		rep.AckedPoints, rep.OutageAckedPoints)
	fmt.Fprintf(&b, "archive at kill time: sealed through seq %d; %d failed uploads, %d retries; gzip ratio %.2f\n",
		rep.ArchivedThroughSeq, rep.ArchiveFailed, rep.ArchiveRetried, rep.CompressionRatio)
	fmt.Fprintf(&b, "restore: %d checkpoints + %d segments = %.1f KiB in %.2fs (%d bad objects skipped, %d download retries)\n",
		rep.RestoreCheckpoints, rep.RestoreSegments, float64(rep.RestoreBytes)/1024, rep.RestoreSeconds, rep.RestoreBadObjects, rep.RestoreRetried)
	fmt.Fprintf(&b, "recovered %d points (<= acked, >= archived) in %.2fs restart, under the %.0fs budget\n",
		rep.RecoveredPoints, rep.RestartWallSeconds, rep.RecoveryBudgetSeconds)
	fmt.Fprintf(&b, "  replay %d points/sec, %d budget-triggered checkpoints\n", rep.ReplayPointsPerSec, rep.BudgetCheckpoints)
	fmt.Fprintf(&b, "restored clustering byte-identical to an uninterrupted run: %v\n", rep.SnapshotIdentical)
	fmt.Fprintf(&b, "post-restore ingest accepted; engine at %d points, graceful drain clean\n", rep.PostRestartPoints)
	return b.String()
}

// WriteDRJSON writes the machine-readable artifact.
func WriteDRJSON(path string, rep DRReport) error {
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshaling dr report: %w", err)
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("bench: writing %s: %w", path, err)
	}
	return nil
}
