package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// compressiblePayload is a checkpoint body with enough redundancy that
// gzip visibly shrinks it.
func compressiblePayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i / 64)
	}
	return p
}

// ckptFile returns the path of the single checkpoint file in dir.
func ckptFile(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var found string
	for _, ent := range entries {
		if _, ok := ParseCheckpointFileName(ent.Name()); ok {
			if found != "" {
				t.Fatalf("more than one checkpoint file: %s and %s", found, ent.Name())
			}
			found = ent.Name()
		}
	}
	if found == "" {
		t.Fatal("no checkpoint file found")
	}
	return filepath.Join(dir, found)
}

// TestCompressedCheckpointRoundTrip proves the gzip checkpoint variant
// is transparent: a reader WITHOUT the option restores it bit-for-bit,
// and the on-disk file is smaller than the uncompressed payload.
func TestCompressedCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	recs := payloads(15)
	state := compressiblePayload(8 << 10)

	l, err := Open(Options{Dir: dir, CompressCheckpoints: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendAll(t, l, recs[:10])
	if err := l.SaveCheckpoint(state); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	appendAll(t, l, recs[10:])
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	raw, err := os.ReadFile(ckptFile(t, dir))
	if err != nil {
		t.Fatalf("reading checkpoint file: %v", err)
	}
	if !bytes.Equal(raw[:8], ckptMagicGz[:]) || !CheckpointCompressed(raw) {
		t.Fatalf("checkpoint magic = %q, want %q", raw[:8], ckptMagicGz[:])
	}
	plain := append(append([]byte(nil), ckptMagic[:]...), raw[8:]...)
	if CheckpointCompressed(plain) || CheckpointCompressed(raw[:7]) {
		t.Fatal("CheckpointCompressed accepts a plain or truncated checkpoint")
	}
	if len(raw) >= ckptHeaderLen+len(state) {
		t.Fatalf("compressed checkpoint is %d bytes, not smaller than the %d-byte payload", len(raw), len(state))
	}

	// The reopening log does NOT set CompressCheckpoints: the format is
	// self-describing via the magic, not an option handshake.
	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if !re.Info().HasCheckpoint {
		t.Fatalf("compressed checkpoint not loaded: %+v", re.Info())
	}
	if !bytes.Equal(re.Checkpoint(), state) {
		t.Fatal("restored checkpoint payload differs from the saved one")
	}
	_, tail := collect(t, re)
	if len(tail) != 5 {
		t.Fatalf("replayed %d tail records, want 5", len(tail))
	}
	for i, p := range tail {
		if !bytes.Equal(p, recs[10+i]) {
			t.Fatalf("tail record %d differs", i)
		}
	}
}

// TestCompressedCheckpointCorruption proves a damaged gzip body is
// rejected exactly like damage to a plain checkpoint: the file is
// skipped and removed, and recovery falls back to replaying the log.
func TestCompressedCheckpointCorruption(t *testing.T) {
	dir := t.TempDir()
	recs := payloads(15)

	l, err := Open(Options{Dir: dir, CompressCheckpoints: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendAll(t, l, recs[:10])
	if err := l.SaveCheckpoint(compressiblePayload(8 << 10)); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	appendAll(t, l, recs[10:])
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	ckpt := ckptFile(t, dir)
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("reading checkpoint: %v", err)
	}
	raw[ckptHeaderLen+len(raw[ckptHeaderLen:])/2] ^= 0x40
	if err := os.WriteFile(ckpt, raw, 0o644); err != nil {
		t.Fatalf("writing corruption: %v", err)
	}

	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen over corruption: %v", err)
	}
	defer re.Close()
	info := re.Info()
	if info.HasCheckpoint || info.CheckpointsSkipped != 1 {
		t.Fatalf("corrupt compressed checkpoint not skipped: %+v", info)
	}
	// The open segment was never pruned, so the full stream replays.
	_, got := collect(t, re)
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records after checkpoint loss, want %d", len(got), len(recs))
	}
}

// TestSealAndCheckpointCallbacks pins the shipper hooks: every rotation
// reports the sealed segment's name and coverage, and a checkpoint save
// reports the published file once it is durable.
func TestSealAndCheckpointCallbacks(t *testing.T) {
	dir := t.TempDir()
	type event struct {
		name    string
		through uint64
	}
	var sealed, saved []event

	l, err := Open(Options{
		Dir:          dir,
		SegmentBytes: 1 << 10,
		OnSegmentSealed: func(name string, through uint64) {
			sealed = append(sealed, event{name, through})
		},
		OnCheckpointSaved: func(name string, nextSeq uint64) {
			saved = append(saved, event{name, nextSeq})
		},
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	recs := payloads(200)
	appendAll(t, l, recs)
	if len(sealed) == 0 {
		t.Fatal("no seal callbacks despite forced rotation")
	}
	var prev uint64
	for i, ev := range sealed {
		seq, ok := ParseSegmentFileName(ev.name)
		if !ok {
			t.Fatalf("seal %d reported unparseable name %q", i, ev.name)
		}
		if ev.through <= seq || ev.through <= prev || ev.through > uint64(len(recs))+1 {
			t.Fatalf("seal %d (%q) has implausible coverage %d (segment first %d, previous %d)", i, ev.name, ev.through, seq, prev)
		}
		prev = ev.through
	}

	if err := l.SaveCheckpoint([]byte("state")); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	if len(saved) != 1 {
		t.Fatalf("%d checkpoint callbacks, want 1", len(saved))
	}
	// Sequence numbers are 1-based: after 200 appends the first
	// uncovered sequence is 201.
	next := uint64(len(recs)) + 1
	if want := ckptName(next); saved[0].name != want || saved[0].through != next {
		t.Fatalf("checkpoint callback = %+v, want name %s through %d", saved[0], want, next)
	}
	if _, err := os.Stat(filepath.Join(dir, saved[0].name)); err != nil {
		t.Fatalf("callback fired for a checkpoint that is not on disk: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestParseFileNames pins the exported name parsers the archive layer
// keys its remote layout on.
func TestParseFileNames(t *testing.T) {
	if seq, ok := ParseSegmentFileName(segName(0xabcd)); !ok || seq != 0xabcd {
		t.Fatalf("ParseSegmentFileName(segName(0xabcd)) = %d, %v", seq, ok)
	}
	if seq, ok := ParseCheckpointFileName(ckptName(7)); !ok || seq != 7 {
		t.Fatalf("ParseCheckpointFileName(ckptName(7)) = %d, %v", seq, ok)
	}
	for _, bad := range []string{
		"", "wal-.log", "wal-zz.log", "ckpt-0000000000000007.log",
		"wal-0000000000000007.ckpt", segName(1) + ".tmp", "x" + segName(1),
	} {
		if _, ok := ParseSegmentFileName(bad); ok {
			t.Fatalf("ParseSegmentFileName(%q) accepted", bad)
		}
		if _, ok := ParseCheckpointFileName(bad); ok {
			t.Fatalf("ParseCheckpointFileName(%q) accepted", bad)
		}
	}
}

// unsortedFS inverts the listing order, modeling a filesystem whose
// directory enumeration has no ordering guarantee.
type unsortedFS struct{ OSFS }

func (unsortedFS) ReadDir(name string) ([]os.DirEntry, error) {
	entries, err := os.ReadDir(name)
	if err != nil {
		return nil, err
	}
	for i, j := 0, len(entries)-1; i < j; i, j = i+1, j-1 {
		entries[i], entries[j] = entries[j], entries[i]
	}
	return entries, nil
}

// TestReadDirSorted pins the FS contract recovery depends on: both the
// OS filesystem and the fault wrapper return name-sorted entries, even
// when the wrapped filesystem does not.
func TestReadDirSorted(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"c.log", "a.log", "b.log"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatalf("writing %s: %v", name, err)
		}
	}
	check := func(label string, fs FS) {
		t.Helper()
		entries, err := fs.ReadDir(dir)
		if err != nil {
			t.Fatalf("%s.ReadDir: %v", label, err)
		}
		for i := 1; i < len(entries); i++ {
			if entries[i-1].Name() > entries[i].Name() {
				t.Fatalf("%s.ReadDir out of order: %s before %s", label, entries[i-1].Name(), entries[i].Name())
			}
		}
		if len(entries) != 3 {
			t.Fatalf("%s.ReadDir returned %d entries, want 3", label, len(entries))
		}
	}
	check("OSFS", OSFS{})
	check("FaultFS(unsorted)", NewFaultFS(unsortedFS{}))
}
