package archive

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/densitymountain/edmstream/internal/wal"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// appendRecords appends n synced ~100-byte records.
func appendRecords(t *testing.T, l *wal.Log, n int) {
	t.Helper()
	payload := make([]byte, 100)
	for i := 0; i < n; i++ {
		payload[0] = byte(i)
		if _, err := l.Append(payload); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
		if err := l.Sync(); err != nil {
			t.Fatalf("Sync(%d): %v", i, err)
		}
	}
}

func TestShipperShipsSealsAndCheckpoints(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewDirStore: %v", err)
	}
	// Build shipper and WAL over the SAME directory.
	walDir := t.TempDir()
	ship, err := NewShipper(ShipperOptions{Dir: walDir, Store: store, RetryBase: time.Millisecond, RetryMax: 10 * time.Millisecond, ResyncEvery: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewShipper: %v", err)
	}
	l, err := wal.Open(wal.Options{
		Dir:               walDir,
		SegmentBytes:      1 << 10,
		OnSegmentSealed:   ship.NoteSegmentSealed,
		OnCheckpointSaved: ship.NoteCheckpointSaved,
	})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	defer l.Close()
	ship.Start()

	appendRecords(t, l, 60) // several rotations at 1 KiB segments
	waitFor(t, "sealed segments shipped", func() bool { return ship.Stats().Shipped >= 2 })

	if err := l.SaveCheckpoint([]byte("engine state")); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	waitFor(t, "checkpoint shipped", func() bool { return ship.Stats().ShippedCheckpointSeq == 61 })
	// After the checkpoint ships, the remote prune mirrors the local
	// one: covered segments and older checkpoints disappear.
	waitFor(t, "remote pruned to checkpoint coverage", func() bool {
		keys, err := store.List("")
		if err != nil {
			return false
		}
		ckpts, oldSegs := 0, 0
		for _, k := range keys {
			if strings.HasPrefix(k, ckptKeyPrefix) {
				ckpts++
			}
			if strings.HasPrefix(k, segKeyPrefix) && k < segKeyPrefix+"wal-0000000000000030" {
				oldSegs++
			}
		}
		return ckpts == 1 && oldSegs <= 1
	})
	st := ship.Stats()
	if st.Lagging || st.LagRecords != 0 || st.Failed != 0 {
		t.Fatalf("healthy shipper reports lag: %+v", st)
	}
	if err := ship.Close(5 * time.Second); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestShipperRetriesFlakyStoreAndReportsLag(t *testing.T) {
	inner, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewDirStore: %v", err)
	}
	store := NewFaultStore(inner)
	walDir := t.TempDir()
	ship, err := NewShipper(ShipperOptions{Dir: walDir, Store: store, RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond, ResyncEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewShipper: %v", err)
	}
	l, err := wal.Open(wal.Options{
		Dir:             walDir,
		SegmentBytes:    1 << 10,
		OnSegmentSealed: ship.NoteSegmentSealed,
	})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	defer l.Close()

	store.SetOutage(true)
	ship.Start()
	appendRecords(t, l, 40)
	waitFor(t, "failures recorded during outage", func() bool {
		st := ship.Stats()
		return st.Failed > 0 && st.Lagging && st.LagRecords > 0
	})

	store.SetOutage(false)
	waitFor(t, "catch-up after heal", func() bool {
		st := ship.Stats()
		return !st.Lagging && st.LagRecords == 0 && st.Shipped >= 2
	})
	if st := ship.Stats(); st.Retried == 0 {
		t.Fatalf("no retries recorded across an outage: %+v", st)
	}
	if err := ship.Close(5 * time.Second); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestShipperQueueOverflowHealsByResync(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewDirStore: %v", err)
	}
	walDir := t.TempDir()
	ship, err := NewShipper(ShipperOptions{Dir: walDir, Store: store, QueueLen: 1, RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond, ResyncEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewShipper: %v", err)
	}
	l, err := wal.Open(wal.Options{
		Dir:             walDir,
		SegmentBytes:    1 << 10,
		OnSegmentSealed: ship.NoteSegmentSealed,
	})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	defer l.Close()

	// Not started yet: the 1-slot queue overflows and notifications
	// drop — but never block the writer.
	appendRecords(t, l, 60)
	if st := ship.Stats(); st.Dropped == 0 {
		t.Fatalf("expected dropped notifications with a 1-slot queue, got %+v", st)
	}
	ship.Start()
	waitFor(t, "resync repairs the dropped notifications", func() bool {
		keys, err := store.List(segKeyPrefix)
		if err != nil {
			return false
		}
		return len(keys) >= 3 && !ship.Lagging()
	})
	if err := ship.Close(5 * time.Second); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestShipperCompressesSegments(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewDirStore: %v", err)
	}
	walDir := t.TempDir()
	ship, err := NewShipper(ShipperOptions{Dir: walDir, Store: store, Compress: true, RetryBase: time.Millisecond, ResyncEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewShipper: %v", err)
	}
	l, err := wal.Open(wal.Options{
		Dir:             walDir,
		SegmentBytes:    1 << 10,
		OnSegmentSealed: ship.NoteSegmentSealed,
	})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	defer l.Close()
	ship.Start()
	appendRecords(t, l, 60)
	waitFor(t, "compressed segments shipped", func() bool { return ship.Stats().Shipped >= 2 })
	keys, err := store.List(segKeyPrefix)
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	for _, k := range keys {
		if !strings.HasSuffix(k, gzSuffix) {
			t.Fatalf("segment %q shipped uncompressed despite Compress", k)
		}
	}
	st := ship.Stats()
	if st.ShippedBytes >= st.ReadBytes {
		t.Fatalf("no compression gain: shipped %d read %d", st.ShippedBytes, st.ReadBytes)
	}
	if err := ship.Close(5 * time.Second); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestShipperDeletesSiblingVariant covers the Compress toggle: a
// shipper re-uploading a segment under its new key must remove the old
// variant, so a restore never finds both and has to arbitrate.
func TestShipperDeletesSiblingVariant(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewDirStore: %v", err)
	}
	walDir := t.TempDir()
	// The previous incarnation ran with Compress on and shipped this
	// segment gzipped; this one runs with Compress off.
	const segName = "wal-0000000000000001.log"
	if err := os.WriteFile(filepath.Join(walDir, segName), []byte("sealed segment bytes"), 0o644); err != nil {
		t.Fatalf("writing local segment: %v", err)
	}
	if err := store.Put(segKeyPrefix+segName+gzSuffix, []byte("stale gz body")); err != nil {
		t.Fatalf("planting stale variant: %v", err)
	}
	ship, err := NewShipper(ShipperOptions{Dir: walDir, Store: store, RetryBase: time.Millisecond, ResyncEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewShipper: %v", err)
	}
	ship.Start()
	ship.NoteSegmentSealed(segName, 6)
	waitFor(t, "segment shipped plain", func() bool { return ship.Stats().Shipped >= 1 })
	if err := ship.Close(5 * time.Second); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := store.Get(segKeyPrefix + segName); err != nil {
		t.Fatalf("plain variant missing after ship: %v", err)
	}
	if _, err := store.Get(segKeyPrefix + segName + gzSuffix); !errors.Is(err, ErrNotExist) {
		t.Fatalf("stale gz variant survived the ship (err %v)", err)
	}
}

// TestShipperLagClearsWhenIdle: once every notified task is done, the
// reported lag age is zero. A notification whose task the shipper
// finished before the notifier recorded its enqueue time used to leave
// that time behind, so LagSeconds grew on an idle shipper. Missing
// files make each task finish at once, which is when that race hits.
func TestShipperLagClearsWhenIdle(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewDirStore: %v", err)
	}
	ship, err := NewShipper(ShipperOptions{Dir: t.TempDir(), Store: store, ResyncEvery: time.Hour})
	if err != nil {
		t.Fatalf("NewShipper: %v", err)
	}
	ship.Start()
	defer ship.Close(time.Second)
	for i := 1; i <= 300; i++ {
		ship.NoteSegmentSealed(fmt.Sprintf("wal-%016x.log", i), uint64(i+1))
		waitFor(t, "the shipper to go idle", func() bool { return ship.Stats().LagObjects == 0 })
		deadline := time.Now().Add(time.Second)
		for ship.Stats().LagSeconds != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("notification %d: idle shipper reports %.3fs of lag", i, ship.Stats().LagSeconds)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
