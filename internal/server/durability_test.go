package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/densitymountain/edmstream"
	"github.com/densitymountain/edmstream/internal/obs"
)

// recoverFresh builds a fresh clusterer and recovers it from the WAL
// directory exactly the way a restarted server would.
func recoverFresh(t *testing.T, opts edmstream.Options, dir string) *edmstream.Clusterer {
	t.Helper()
	c, err := edmstream.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	d, err := openDurability(c, Config{DataDir: dir}.withDefaults(), dir, "", obs.NewRegistry(), nil)
	if err != nil {
		t.Fatalf("recovering from %s: %v", dir, err)
	}
	if err := d.log.Close(); err != nil {
		t.Fatalf("closing recovered log: %v", err)
	}
	return c
}

// checkpointBytes serializes an engine's complete state; two engines
// with equal bytes are indistinguishable.
func checkpointBytes(t *testing.T, c *edmstream.Clusterer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteCheckpoint(&buf); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	return buf.Bytes()
}

// TestGracefulShutdownDurableAckOnDisk is the durable-mode variant of
// TestGracefulShutdownDropsNoAcceptedIngest: writers hammer ingest
// while the server shuts down, and afterwards every acknowledged point
// must be recoverable FROM DISK by a fresh process — the ack contract
// upgrades from "applied" to "durable". The recovered engine must not
// merely hold the right count: its serialized state must be
// byte-identical to the live engine's.
func TestGracefulShutdownDurableAckOnDisk(t *testing.T) {
	dir := t.TempDir()
	s, c, base := startServer(t, testOptions(), Config{
		DataDir:         dir,
		CheckpointEvery: 500,
	})

	const writers = 4
	const ptsPerReq = 25
	var acceptedPts atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := make([]map[string]any, ptsPerReq)
				for j := range req {
					req[j] = map[string]any{
						"vector": []float64{float64(w) * 3, float64(i%7) * 3},
						"time":   float64(i) / 1000,
					}
				}
				raw, _ := json.Marshal(req)
				resp, err := http.Post(base+"/v1/ingest", "application/json", bytes.NewReader(raw))
				if err != nil {
					return
				}
				var ack ingestResponse
				decodeErr := json.NewDecoder(resp.Body).Decode(&ack)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					if decodeErr != nil {
						t.Errorf("200 with undecodable ack: %v", decodeErr)
						return
					}
					acceptedPts.Add(int64(ack.Accepted))
				case http.StatusServiceUnavailable:
				default:
					t.Errorf("unexpected ingest status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}

	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	close(stop)
	wg.Wait()

	want := acceptedPts.Load()
	if want == 0 {
		t.Fatal("test proved nothing: no request was acknowledged before shutdown")
	}
	if got := c.Stats().Points; got != want {
		t.Fatalf("live engine holds %d points but %d were acknowledged", got, want)
	}

	recovered := recoverFresh(t, testOptions(), dir)
	if got := recovered.Stats().Points; got != want {
		t.Fatalf("recovered engine holds %d points but %d were acknowledged: an acknowledged ingest did not survive on disk", got, want)
	}
	if !bytes.Equal(checkpointBytes(t, recovered), checkpointBytes(t, c)) {
		t.Fatal("recovered engine state differs from the live engine over the same acknowledged stream")
	}
}

// TestServerCrashRecoveryEquivalence models the crash (not the
// graceful exit): after a burst of acknowledged ingest the WAL
// directory is copied as-is — no final checkpoint, exactly what a
// SIGKILL would leave, since every acknowledged batch was fsynced —
// and a fresh engine recovered from the copy must be byte-identical
// to the live one.
func TestServerCrashRecoveryEquivalence(t *testing.T) {
	dir := t.TempDir()
	s, c, base := startServer(t, testOptions(), Config{
		DataDir:         dir,
		CheckpointEvery: 150, // several checkpoints plus a live tail
	})

	pts := twoBlobPoints(600, 1)
	for i := 0; i < len(pts); i += 50 {
		var ack ingestResponse
		resp := postJSON(t, base+"/v1/ingest", pts[i:i+50], &ack)
		if resp.StatusCode != http.StatusOK || ack.Accepted != 50 {
			t.Fatalf("ingest chunk %d: status %d, accepted %d", i/50, resp.StatusCode, ack.Accepted)
		}
	}

	// Freeze the crash image while the server is still running (no
	// writes are in flight: every request above was acknowledged, and
	// acknowledged means fsynced).
	crashDir := t.TempDir() + "/image"
	if err := os.CopyFS(crashDir, os.DirFS(dir)); err != nil {
		t.Fatalf("copying WAL dir: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	recovered := recoverFresh(t, testOptions(), crashDir)
	if got, want := recovered.Stats(), c.Stats(); got != want {
		t.Fatalf("recovered stats differ:\n  recovered %+v\n  live      %+v", got, want)
	}
	if !bytes.Equal(checkpointBytes(t, recovered), checkpointBytes(t, c)) {
		t.Fatal("crash-recovered engine state differs from the live engine")
	}

	// The graceful path through the original dir recovers identically.
	regraceful := recoverFresh(t, testOptions(), dir)
	if !bytes.Equal(checkpointBytes(t, regraceful), checkpointBytes(t, c)) {
		t.Fatal("shutdown-recovered engine state differs from the live engine")
	}
}

// TestStatsReportsDurability: /v1/stats carries the WAL section when
// (and only when) the server runs with a data dir.
func TestStatsReportsDurability(t *testing.T) {
	_, _, base := startServer(t, testOptions(), Config{DataDir: t.TempDir()})
	var ack ingestResponse
	postJSON(t, base+"/v1/ingest", twoBlobPoints(50, 2), &ack)
	if ack.Accepted != 50 {
		t.Fatalf("setup ingest: %+v", ack)
	}
	var stats statsResponse
	getJSON(t, base+"/v1/stats", &stats)
	d := stats.Server.Durability
	if d == nil {
		t.Fatal("durable server reports no durability stats")
	}
	if d.Records == 0 || d.Bytes == 0 || d.Segments == 0 {
		t.Fatalf("durability stats look idle after 50 acknowledged points: %+v", d)
	}
	if d.Recovery.HasCheckpoint || d.Recovery.RecordsReplayed != 0 {
		t.Fatalf("fresh dir should recover nothing: %+v", d.Recovery)
	}

	_, _, base2 := startServer(t, testOptions(), Config{})
	var stats2 statsResponse
	getJSON(t, base2+"/v1/stats", &stats2)
	if stats2.Server.Durability != nil {
		t.Fatal("in-memory server reports durability stats")
	}
}

// TestServerRecoveryAcrossRestart boots a second server on the same
// data dir and keeps ingesting: the recovered instance serves reads
// immediately and its recovery info reaches /v1/stats.
func TestServerRecoveryAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, c1, base1 := startServer(t, testOptions(), Config{DataDir: dir, CheckpointEvery: 100})
	var ack ingestResponse
	postJSON(t, base1+"/v1/ingest", twoBlobPoints(400, 3), &ack)
	if ack.Accepted != 400 {
		t.Fatalf("first-life ingest: %+v", ack)
	}
	snap1 := c1.LastSnapshot()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	s2, c2, base2 := startServer(t, testOptions(), Config{DataDir: dir, CheckpointEvery: 100})
	if got := c2.Stats().Points; got != 400 {
		t.Fatalf("restarted server recovered %d points, want 400", got)
	}
	if !s2.RecoveryInfo().HasCheckpoint {
		t.Fatalf("restart found no checkpoint after a graceful shutdown: %+v", s2.RecoveryInfo())
	}
	// The published snapshot (the read path) survived the restart.
	snap2 := c2.LastSnapshot()
	if snap2.Time != snap1.Time || len(snap2.Clusters) != len(snap1.Clusters) {
		t.Fatalf("recovered snapshot differs: time %v vs %v, %d vs %d clusters",
			snap2.Time, snap1.Time, len(snap2.Clusters), len(snap1.Clusters))
	}
	// And the second life keeps ingesting on the same stream.
	postJSON(t, base2+"/v1/ingest", twoBlobPoints(100, 4), &ack)
	if ack.Accepted != 100 {
		t.Fatalf("second-life ingest: %+v", ack)
	}
	if got := c2.Stats().Points; got != 500 {
		t.Fatalf("engine holds %d points after the second life, want 500", got)
	}
}

// TestDurabilityConfigValidation covers the new Config fields.
func TestDurabilityConfigValidation(t *testing.T) {
	bad := []Config{
		{WALSegmentBytes: -1},
		{CheckpointEvery: -5},
		{WALNoSync: true}, // no DataDir to skip syncing
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d (%+v) validated but should not", i, cfg)
		}
	}
	good := Config{DataDir: t.TempDir(), WALNoSync: true, WALSegmentBytes: 1 << 20, CheckpointEvery: 10}
	if err := good.Validate(); err != nil {
		t.Errorf("valid durable config rejected: %v", err)
	}
	if got := (Config{}).withDefaults().CheckpointEvery; got != defaultCheckpointEvery {
		t.Errorf("CheckpointEvery default = %d, want %d", got, defaultCheckpointEvery)
	}
}

// TestBatchRecordCodec round-trips vector, token and labeled points
// through the WAL record encoding, and rejects truncations at every
// length — a decoder panic during recovery would turn a benign torn
// record into a crash loop.
func TestBatchRecordCodec(t *testing.T) {
	pts := []edmstream.Point{
		{ID: 1, Vector: []float64{1.5, -2.25, 0}, Label: 3, Time: 0.75},
		{ID: -9, Vector: []float64{0.125}, Label: edmstream.NoLabel, Time: 123.5},
		{ID: 42, Tokens: edmstream.NewTokenSet("gamma", "alpha", "beta"), Label: 0, Time: 2},
		{ID: 0, Tokens: edmstream.NewTokenSet(""), Label: -7, Time: 0},
	}
	raw := encodeBatchRecord(pts)
	got, err := decodeBatchRecord(raw)
	if err != nil {
		t.Fatalf("decodeBatchRecord: %v", err)
	}
	if len(got) != len(pts) {
		t.Fatalf("decoded %d points, want %d", len(got), len(pts))
	}
	for i := range pts {
		if !samePoint(pts[i], got[i]) {
			t.Fatalf("point %d differs after the round trip:\n  %+v\n  %+v", i, pts[i], got[i])
		}
	}
	// Deterministic bytes: re-encoding the decoded batch is identical
	// (token sets are maps; the codec must sort).
	if !bytes.Equal(encodeBatchRecord(got), raw) {
		t.Fatal("batch record encoding is not deterministic")
	}
	// Every truncation errors cleanly.
	for cut := 0; cut < len(raw); cut++ {
		if _, err := decodeBatchRecord(raw[:cut]); err == nil {
			t.Fatalf("decodeBatchRecord accepted a record truncated to %d bytes", cut)
		}
	}
	if _, err := decodeBatchRecord(append(raw[:len(raw):len(raw)], 0)); err == nil {
		t.Fatal("decodeBatchRecord accepted trailing garbage")
	}
}

// TestBatchRecordRejectsHugeTokenCount: a record claiming far more
// tokens than its bytes can hold (each token needs a 4-byte length
// prefix) is an error, not a multi-gigabyte TokenSet allocation. The
// 40-byte record claims 16M tokens for one point.
func TestBatchRecordRejectsHugeTokenCount(t *testing.T) {
	rec := []byte{batchRecordVersion}
	rec = binary.LittleEndian.AppendUint32(rec, 1) // one point
	rec = append(rec, make([]byte, 24)...)         // id, time, label
	rec = append(rec, pointKindTokens)
	rec = binary.LittleEndian.AppendUint32(rec, 0x01000000) // token count
	rec = binary.LittleEndian.AppendUint32(rec, 2)          // first token
	rec = append(rec, "ab"...)
	if len(rec) != 40 {
		t.Fatalf("record is %d bytes, want 40", len(rec))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeBatchRecord(rec)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decodeBatchRecord accepted a record claiming 16M tokens in 40 bytes")
	}
	// The truncation is caught either way; what must not happen is
	// sizing a set for the claimed count first.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("decoding the 40-byte record allocated %d bytes", alloc)
	}
}

// TestBatchRecordRejectsHugePointCount: a record claiming more points
// than its bytes can hold (each point needs at least minPointBytes) is
// an error, not an allocation of 56 bytes per claimed point. The 1 MiB
// record claims 1,048,000 points, which would fit a one-byte-per-point
// bound but not a 29-byte one.
func TestBatchRecordRejectsHugePointCount(t *testing.T) {
	rec := make([]byte, 1<<20)
	rec[0] = batchRecordVersion
	binary.LittleEndian.PutUint32(rec[1:], 1_048_000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeBatchRecord(rec)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decodeBatchRecord accepted a 1 MiB record claiming 1,048,000 points")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 2<<20 {
		t.Fatalf("decoding the 1 MiB record allocated %d bytes", alloc)
	}
}

// TestBatchRecordMinimalPointsAtBound: the point-count bound is exact.
// A record packed with minimal points (minPointBytes each: no
// coordinates, or an empty token set) decodes at the count its bytes
// hold, and the same bytes claiming one point more fail the bound
// rather than a later read.
func TestBatchRecordMinimalPointsAtBound(t *testing.T) {
	tests := []struct {
		name  string
		point edmstream.Point
	}{
		{"vector", edmstream.Point{ID: 1, Vector: []float64{}, Label: edmstream.NoLabel}},
		{"tokens", edmstream.Point{ID: 2, Tokens: edmstream.NewTokenSet(), Label: 4, Time: 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			// 32 points: enough that a bound one byte looser or tighter
			// than minPointBytes changes the outcome.
			pts := make([]edmstream.Point, 32)
			for i := range pts {
				pts[i] = tt.point
			}
			rec := encodeBatchRecord(pts)
			if got, want := len(rec)-5, len(pts)*minPointBytes; got != want {
				t.Fatalf("%d minimal points encode to %d bytes, want %d", len(pts), got, want)
			}
			got, err := decodeBatchRecord(rec)
			if err != nil {
				t.Fatalf("record of %d minimal points rejected: %v", len(pts), err)
			}
			if len(got) != len(pts) {
				t.Fatalf("decoded %d points, want %d", len(got), len(pts))
			}
			for i := range pts {
				if !samePoint(pts[i], got[i]) {
					t.Fatalf("point %d differs after the round trip:\n  %+v\n  %+v", i, pts[i], got[i])
				}
			}
			binary.LittleEndian.PutUint32(rec[1:], uint32(len(pts)+1))
			if _, err := decodeBatchRecord(rec); err == nil || !strings.Contains(err.Error(), "claims") {
				t.Fatalf("claiming %d points in the bytes of %d: err = %v, want the count bound", len(pts)+1, len(pts), err)
			}
		})
	}
}

// TestBatchRecordRejectsMalformed: malformed records that a round trip
// cannot tell apart from good ones are errors, and none of them
// allocates for what it claims before failing.
func TestBatchRecordRejectsMalformed(t *testing.T) {
	wrongVersion := encodeBatchRecord([]edmstream.Point{{ID: 1, Vector: []float64{1, 2}}})
	wrongVersion[0] = batchRecordVersion + 1
	tests := []struct {
		name string
		rec  []byte
	}{
		{"wrong-version", wrongVersion},
		{"unknown-kind", onePointRecord(7, 0)},
		{"huge-dimension", onePointRecord(pointKindVector, 1_000_000, make([]byte, 8)...)},
		{"token-past-bytes", onePointRecord(pointKindTokens, 1, 100, 0, 0, 0, 'a', 'b')},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			pts, err := decodeBatchRecord(tt.rec)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("accepted %d points from a malformed record", len(pts))
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
				t.Fatalf("decoding the %d-byte record allocated %d bytes", len(tt.rec), alloc)
			}
		})
	}
}
