package bench

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/densitymountain/edmstream/internal/wal"
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

// RunDR drives the disaster-recovery drill end to end. s.Points is
// the acknowledged traffic pool (rounded down to whole batches).
func RunDR(s Scale) (DRReport, error) {
	spec, cleanup, err := newChildSpec("dr", s.Rate)
	if err != nil {
		return DRReport{}, err
	}
	defer cleanup()

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

	child, err := startChild(spec)
	if err != nil {
		return rep, err
	}
	defer child.kill()
	url := child.url

	// One sequential writer: with requests strictly one at a time the
	// acknowledged set is always an exact whole-batch prefix of the
	// stream, which is what makes the reference replay well-defined.
	// Any failed ack ends the drill, so by the kill every batch before
	// killAt is acknowledged.
	//
	// Phase 1: flaky remote (periodic failed and partial uploads, the
	// shipper retries through all of it).
	if err := ingestAll(client, url, bodies[:outageStart]); err != nil {
		return rep, fmt.Errorf("bench: dr ingest: %w", err)
	}
	if _, err := awaitStats(client, url+"/v1", 30*time.Second, "the archive to hold a checkpoint and sealed segments", func(st drillStats) (bool, error) {
		return st.num("edmserved_archive_shipped_checkpoint_seq") > 0 && st.num("edmserved_archive_shipped_through_seq") > 0, nil
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
		status, _, raw, err := roundTrip(client, url+"/v1/ingest", bodies[b])
		if err != nil {
			return rep, fmt.Errorf("bench: ingest during the remote outage: %w", err)
		}
		if status != http.StatusOK {
			return rep, fmt.Errorf("bench: the remote outage failed an ingest ack: batch %d got %d: %s", b, status, raw)
		}
	}
	rep.OutageAckedPoints = int64(outageEnd-outageStart) * e2eIngestBatch
	if _, err := awaitStats(client, url+"/v1", 30*time.Second, "the server to report archive-lagging", func(st drillStats) (bool, error) {
		if st.num("edmserved_archive_lagging") == 0 || st.num("edmserved_archive_failed_uploads") == 0 {
			return false, nil
		}
		raw, err := shedRetry(client, url+"/healthz", nil, stdRetry)
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
	if err := ingestAll(client, url, bodies[outageEnd:killAt]); err != nil {
		return rep, fmt.Errorf("bench: dr ingest after the outage: %w", err)
	}
	preKill, err := awaitStats(client, url+"/v1", 30*time.Second, "the shipper to catch up after the outage", func(st drillStats) (bool, error) {
		_, shipping := st.Metrics["edmserved_archive_lagging"]
		return shipping && st.num("edmserved_archive_lagging") == 0 && st.num("edmserved_archive_lag_objects") == 0, nil
	})
	if err != nil {
		return rep, err
	}
	rep.AckedPoints = int64(killAt) * e2eIngestBatch
	rep.ArchivedThroughSeq = uint64(preKill.num("edmserved_archive_shipped_through_seq"))
	rep.ArchiveFailed = uint64(preKill.num("edmserved_archive_failed_uploads"))
	rep.ArchiveRetried = uint64(preKill.num("edmserved_archive_upload_retries"))
	shippedBytes, readBytes := preKill.num("edmserved_archive_shipped_bytes"), preKill.num("edmserved_archive_read_bytes")
	if readBytes > 0 {
		rep.CompressionRatio = shippedBytes / readBytes
	}
	if rep.ArchiveFailed == 0 || rep.ArchiveRetried == 0 {
		return rep, fmt.Errorf("bench: the flaky remote never exercised the retry path: failed=%d retried=%d", rep.ArchiveFailed, rep.ArchiveRetried)
	}
	if shippedBytes >= readBytes {
		return rep, fmt.Errorf("bench: compressed shipping did not shrink the stream: shipped %.0f bytes of %.0f read", shippedBytes, readBytes)
	}

	// The disaster: SIGKILL, then the data directory is destroyed
	// outright. The remote archive is all that survives. Before it goes,
	// its checkpoints must be the compressed variant.
	child.kill()
	if err := checkCompressedCheckpoints(spec.DataDir); err != nil {
		return rep, err
	}
	if err := os.RemoveAll(spec.DataDir); err != nil {
		return rep, fmt.Errorf("bench: destroying the data directory: %w", err)
	}

	spec.Restore = true
	t0 := time.Now()
	child2, err := startChild(spec)
	if err != nil {
		return rep, fmt.Errorf("bench: restore-from-archive restart: %w", err)
	}
	rep.RestartWallSeconds = time.Since(t0).Seconds()
	defer child2.kill()
	url2 := child2.url

	st2, err := fetchStats(client, url2+"/v1")
	if err != nil {
		return rep, err
	}
	restore := st2.Status.Restore
	if restore == nil {
		return rep, errors.New("bench: the restored child reports no restore info — RestoreFromArchive did not run")
	}
	rep.RestoreCheckpoints = restore.Checkpoints
	rep.RestoreSegments = restore.Segments
	rep.RestoreBytes = restore.Bytes
	rep.RestoreBadObjects = restore.BadObjects
	rep.RestoreRetried = restore.Retried
	rep.RestoreSeconds = restore.DurationSeconds
	rep.BudgetCheckpoints = uint64(st2.num("edmserved_wal_budget_checkpoints_total"))
	rep.ReplayPointsPerSec = int64(st2.num("edmserved_recovery_replay_points_per_sec"))

	if rep.RestoreCheckpoints == 0 || rep.RestoreSegments == 0 {
		return rep, fmt.Errorf("bench: restore downloaded %d checkpoints and %d segments; the drill needs both paths exercised", rep.RestoreCheckpoints, rep.RestoreSegments)
	}
	if rep.RestartWallSeconds >= drBudget.Seconds() {
		return rep, fmt.Errorf("bench: disaster restart took %.2fs, over the %.0fs recovery budget", rep.RestartWallSeconds, drBudget.Seconds())
	}

	// The recovery contract: whole batches only, nothing less than what
	// the archive had sealed, nothing beyond what was acknowledged, and
	// a clustering byte-identical to a fresh engine fed the recovered
	// prefix directly.
	sealed := int64(rep.ArchivedThroughSeq-1) * e2eIngestBatch
	rep.RecoveredPoints, err = verifyReplay(client, url2+"/v1", pts, s.Rate, sealed, rep.AckedPoints)
	if err != nil {
		return rep, err
	}
	rep.SnapshotIdentical = true

	// Liveness: the restored server keeps serving writes.
	if rep.PostRestartPoints, err = ingestLive(client, url2, bodies[len(bodies)-drLiveBatches:], rep.RecoveredPoints); err != nil {
		return rep, err
	}

	// Graceful exit: SIGTERM must drain and return 0.
	return rep, child2.drain()
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

// checkCompressedCheckpoints requires the data directory to hold at
// least one checkpoint, every one of them the compressed variant.
func checkCompressedCheckpoints(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("bench: inspecting the data directory: %w", err)
	}
	found := 0
	for _, e := range entries {
		if _, ok := wal.ParseCheckpointFileName(e.Name()); !ok {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return fmt.Errorf("bench: reading checkpoint: %w", err)
		}
		if !wal.CheckpointCompressed(data) {
			return fmt.Errorf("bench: checkpoint %s is not compressed", e.Name())
		}
		found++
	}
	if found == 0 {
		return errors.New("bench: the data directory holds no checkpoint")
	}
	return nil
}
