package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/densitymountain/edmstream"
	"github.com/densitymountain/edmstream/internal/archive"
	"github.com/densitymountain/edmstream/internal/obs"
)

// ingestN posts n deterministic single-point requests and fails the
// test on any non-200.
func ingestN(t *testing.T, base string, n, offset int) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := offset + i
		body := fmt.Sprintf(`[{"vector":[%d,%d],"time":%g}]`, k%13*3, k%7*3, float64(k)/100)
		resp, err := http.Post(base+"/v1/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("ingest %d: %v", k, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: status %d, want 200", k, resp.StatusCode)
		}
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return string(raw)
}

func defaultStats(t *testing.T, base string) statsBody {
	t.Helper()
	var st statsBody
	if err := json.Unmarshal([]byte(getBody(t, base+"/v1/stats")), &st); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	return st
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestArchiveOutageNeverFailsIngest is the tentpole contract: with the
// remote hard-down, every ingest still acks 200, /healthz stays "ok"
// with an archive-lagging detail line, and after the heal the shipper
// catches the remote up on its own.
func TestArchiveOutageNeverFailsIngest(t *testing.T) {
	inner, err := archive.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store := archive.NewFaultStore(inner)
	store.SetOutage(true) // born into an outage

	_, _, base := startServer(t, testOptions(), Config{
		DataDir:          t.TempDir(),
		WALSegmentBytes:  4 << 10,
		CheckpointEvery:  200,
		ArchiveStore:     store,
		ArchiveRetryBase: time.Millisecond,
		ArchiveRetryMax:  10 * time.Millisecond,
		ArchiveResync:    20 * time.Millisecond,
	})

	// Enough ingest to seal several segments and cross a checkpoint
	// boundary — all while the remote refuses every byte.
	ingestN(t, base, 250, 0)

	waitCond(t, "archive lag to surface", func() bool {
		st := defaultStats(t, base)
		return metricNum(t, st, "edmserved_archive_failed_uploads") > 0 && metricNum(t, st, "edmserved_archive_lagging") == 1
	})
	if body := getBody(t, base+"/healthz"); !strings.HasPrefix(body, "ok\n") || !strings.Contains(body, "archive-lagging") {
		t.Fatalf("healthz during outage = %q, want ok + archive-lagging detail", body)
	}

	store.SetOutage(false)
	waitCond(t, "shipper to catch up after heal", func() bool {
		st := defaultStats(t, base)
		return metricNum(t, st, "edmserved_archive_lagging") == 0 && metricNum(t, st, "edmserved_archive_lag_records") == 0 &&
			metricNum(t, st, "edmserved_archive_shipped_objects") > 0
	})
	if body := getBody(t, base+"/healthz"); strings.Contains(body, "archive-lagging") {
		t.Fatalf("healthz still lagging after catch-up: %q", body)
	}
	// The archive gauges export too.
	if m := getBody(t, base+"/metrics"); !strings.Contains(m, "edmserved_archive_shipped_objects") ||
		!strings.Contains(m, `edmserved_archive_lag_records{stream="default"} 0`) {
		t.Fatalf("metrics missing archive series:\n%s", m)
	}
}

// TestRestoreFromArchiveRoundTrip is the disaster path end to end: a
// durable server ships to the archive (compressed), its data dir is
// destroyed, and a fresh server restores from the archive into a state
// whose snapshot is byte-identical.
func TestRestoreFromArchiveRoundTrip(t *testing.T) {
	store, err := archive.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		DataDir:            t.TempDir(),
		WALSegmentBytes:    4 << 10,
		CheckpointEvery:    150,
		CheckpointCompress: true,
		ArchiveStore:       store,
		ArchiveRetryBase:   time.Millisecond,
		ArchiveRetryMax:    10 * time.Millisecond,
		ArchiveResync:      20 * time.Millisecond,
	}
	s1, _, base1 := startServer(t, testOptions(), cfg)
	ingestN(t, base1, 400, 0)
	snap1 := getBody(t, base1+"/v1/snapshot")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Total local loss: the second server starts with a brand-new empty
	// directory and only the archive to go on.
	cfg2 := cfg
	cfg2.DataDir = t.TempDir()
	cfg2.RestoreFromArchive = true
	_, _, base2 := startServer(t, testOptions(), cfg2)
	snap2 := getBody(t, base2+"/v1/snapshot")
	if snap1 != snap2 {
		t.Fatalf("restored snapshot differs from the acknowledged one:\n%s\nvs\n%s", snap1, snap2)
	}
	st := defaultStats(t, base2).Status
	if st.Restore == nil || st.Restore.Checkpoints == 0 {
		t.Fatalf("stats carry no restore info: %+v", st)
	}
	// The restored server keeps serving: new ingest works and its WAL
	// ships onward.
	ingestN(t, base2, 20, 400)
}

// TestRestoreFromArchiveDefersToLocalState: RestoreFromArchive over a
// directory that already holds WAL state must not clobber it — the
// restore is skipped and the local log recovers as usual.
func TestRestoreFromArchiveDefersToLocalState(t *testing.T) {
	store, err := archive.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := Config{
		DataDir:          dir,
		ArchiveStore:     store,
		ArchiveRetryBase: time.Millisecond,
		ArchiveResync:    20 * time.Millisecond,
	}
	s1, _, base1 := startServer(t, testOptions(), cfg)
	ingestN(t, base1, 50, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	cfg.RestoreFromArchive = true // same dir, now with local state
	s2, _, base2 := startServer(t, testOptions(), cfg)
	st := defaultStats(t, base2).Status
	if !st.RestoreSkipped || st.Restore != nil {
		t.Fatalf("restore should have deferred to local state: %+v", st)
	}
	if got := s2.RecoveryInfo(); !got.HasCheckpoint && got.RecordsReplayable == 0 {
		t.Fatalf("local recovery found nothing: %+v", got)
	}
}

// TestRecoveryBudgetForcesCheckpoint drives the budget boundary with an
// injected replay rate: 600 points at 1000 pts/s estimate to 0.6s of
// replay, over a 500ms budget, so a checkpoint fires long before the
// point-count cadence would.
func TestRecoveryBudgetForcesCheckpoint(t *testing.T) {
	c, err := edmstream.New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		DataDir:         t.TempDir(),
		CheckpointEvery: 1 << 30, // the point-count cadence never bites
		RecoveryBudget:  500 * time.Millisecond,
	}.withDefaults()
	d, err := openDurability(c, cfg, cfg.DataDir, "", obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.log.Close()
	d.replayRate = 1000

	d.noteCommitted(c, 400) // est 0.4s — under budget
	if got := d.budgetCkpts.Value(); got != 0 {
		t.Fatalf("budget checkpoint fired at 0.4s estimate: %d", got)
	}
	if d.sinceCkpt != 400 {
		t.Fatalf("sinceCkpt = %d, want 400", d.sinceCkpt)
	}
	d.noteCommitted(c, 200) // est 0.6s — over budget
	if got := d.budgetCkpts.Value(); got != 1 {
		t.Fatalf("budget checkpoints = %d, want 1", got)
	}
	if d.sinceCkpt != 0 || d.checkpoints.Value() != 1 {
		t.Fatalf("checkpoint did not reset the tail: sinceCkpt=%d ckpts=%d", d.sinceCkpt, d.checkpoints.Value())
	}

	// Without a measured replay rate the live apply EMA is the divisor.
	d.replayRate = 0
	d.noteApply(1000, time.Second) // 1000 pts/s
	d.noteCommitted(c, 700)        // est 0.7s — over budget again
	if got := d.budgetCkpts.Value(); got != 2 {
		t.Fatalf("budget checkpoints with EMA rate = %d, want 2", got)
	}
}

// TestArchiveConfigValidation pins the new knobs' validation rules.
func TestArchiveConfigValidation(t *testing.T) {
	dir := t.TempDir()
	bad := []Config{
		{ArchiveURL: dir},                                     // archive without DataDir
		{DataDir: dir, RestoreFromArchive: true},              // restore without archive
		{DataDir: dir, ArchiveQueue: 8},                       // shipper knob without archive
		{DataDir: dir, ArchiveRetryBase: time.Second},         // shipper knob without archive
		{CheckpointCompress: true},                            // compress without DataDir
		{RecoveryBudget: time.Second},                         // budget without DataDir
		{DataDir: dir, ArchiveURL: dir, ArchiveQueue: -1},     // negative queue
		{DataDir: dir, ArchiveURL: dir, ArchiveRetryBase: -1}, // negative backoff
		{DataDir: dir, ArchiveURL: dir, ArchiveResync: -1},    // negative resync
		{DataDir: dir, RecoveryBudget: -1},                    // negative budget
		{DataDir: dir, ArchiveURL: dir, ArchiveRetryBase: time.Second, ArchiveRetryMax: time.Millisecond}, // max < base
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated but should not have: %+v", i, cfg)
		}
	}
	good := Config{DataDir: dir, ArchiveURL: dir, RecoveryBudget: 30 * time.Second, CheckpointCompress: true, RestoreFromArchive: true}
	if err := good.Validate(); err != nil {
		t.Fatalf("good archive config rejected: %v", err)
	}
	// Defaults fill only when an archive is configured.
	if got := good.withDefaults(); got.ArchiveQueue != defaultArchiveQueue || got.ArchiveResync != defaultArchiveResync {
		t.Fatalf("archive defaults not filled: %+v", got)
	}
	if got := (Config{DataDir: dir}).withDefaults(); got.ArchiveQueue != 0 || got.ArchiveRetryBase != 0 {
		t.Fatalf("archive defaults leaked into an archiveless config: %+v", got)
	}
}

// TestArchiveShutdownDrainShipsFinalCheckpoint: a graceful shutdown's
// final checkpoint reaches the remote via the close-time drain, so the
// archive ends the session consistent with the acknowledged state.
func TestArchiveShutdownDrainShipsFinalCheckpoint(t *testing.T) {
	store, err := archive.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, _, base := startServer(t, testOptions(), Config{
		DataDir:          t.TempDir(),
		ArchiveStore:     store,
		ArchiveRetryBase: time.Millisecond,
		ArchiveResync:    20 * time.Millisecond,
	})
	ingestN(t, base, 30, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	keys, err := store.List("ckpt/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) == 0 {
		t.Fatal("no checkpoint reached the remote by shutdown")
	}
	// A restore from this remote must reproduce the full acknowledged
	// state with no local directory at all.
	restored := t.TempDir()
	if _, err := archive.Restore(store, restored); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	c2 := recoverFresh(t, testOptions(), restored)
	if got := c2.Stats().Points; got != 30 {
		t.Fatalf("restored engine has %d points, want 30", got)
	}
}
