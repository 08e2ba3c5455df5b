package archive

import (
	"bytes"
	"compress/gzip"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/densitymountain/edmstream/internal/wal"
)

// walFiles writes a small log — records, a checkpoint, a tail — and
// returns its segment and checkpoint files by name.
func walFiles(f *testing.F, compress bool) (segs, ckpts map[string][]byte) {
	f.Helper()
	dir := f.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir, SegmentBytes: 256, CompressCheckpoints: compress})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if i == 8 {
			if err := l.SaveCheckpoint([]byte("engine state")); err != nil {
				f.Fatal(err)
			}
		}
		if _, err := l.Append(bytes.Repeat([]byte{byte(i)}, 40)); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	segs, ckpts = map[string][]byte{}, map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		if _, ok := wal.ParseSegmentFileName(e.Name()); ok {
			segs[e.Name()] = data
		} else if _, ok := wal.ParseCheckpointFileName(e.Name()); ok {
			ckpts[e.Name()] = data
		}
	}
	if len(segs) < 2 || len(ckpts) == 0 {
		f.Fatalf("seed log has %d segments and %d checkpoints", len(segs), len(ckpts))
	}
	return segs, ckpts
}

func gzipBytes(data []byte) []byte {
	var b bytes.Buffer
	zw := gzip.NewWriter(&b)
	_, _ = zw.Write(data)
	_ = zw.Close()
	return b.Bytes()
}

// FuzzRestore: a disaster restore from a remote holding two fuzzed
// objects (keys and bytes, plain or .gz) never panics, writes nothing
// but validly named WAL files, and only inside the data directory.
// wal.Open then recovers the result and replays it without error.
func FuzzRestore(f *testing.F) {
	segs, ckpts := walFiles(f, false)
	_, gzCkpts := walFiles(f, true)
	segNames := slices.Sorted(maps.Keys(segs))
	segName, segName2 := segNames[0], segNames[1]
	ckptName := slices.Sorted(maps.Keys(ckpts))[0]
	seg, seg2, ckpt := segs[segName], segs[segName2], ckpts[ckptName]
	gzSeg := gzipBytes(seg)
	for _, s := range []struct {
		key1  string
		data1 []byte
		key2  string
		data2 []byte
	}{
		{segKeyPrefix + segName, seg, segKeyPrefix + segName2, seg2},                                         // valid plain segments
		{segKeyPrefix + segName + gzSuffix, gzSeg, ckptKeyPrefix + ckptName, ckpt},                           // gzipped segment + checkpoint
		{ckptKeyPrefix + ckptName, gzCkpts[ckptName], segKeyPrefix + segName, seg},                           // compressed checkpoint
		{segKeyPrefix + segName + gzSuffix, gzSeg[:len(gzSeg)/2], segKeyPrefix + segName2, seg2},             // truncated gzip debris
		{segKeyPrefix + segName, seg[:len(seg)-5], segKeyPrefix + segName + gzSuffix, gzSeg},                 // plain and .gz variants, different lengths
		{ckptKeyPrefix + ckptName, ckpt[:len(ckpt)/2], segKeyPrefix + segName, seg},                          // torn checkpoint
		{segKeyPrefix + segName, []byte("not a segment"), ckptKeyPrefix + ckptName, []byte("garbage")},       // bad magic
		{segKeyPrefix + "wal-zzzz.log", seg, "foreign/object", []byte("x")},                                  // bad name, foreign key
		{segKeyPrefix + "../" + segName, seg, ckptKeyPrefix + "../../escape.ckpt", ckpt},                     // path traversal
		{segKeyPrefix + "sub/" + segName, seg, segKeyPrefix + segName + ".restore-tmp", seg},                 // nested and temp-looking names
		{segKeyPrefix + segName + gzSuffix, []byte("\x1f\x8b\x08garbage"), segKeyPrefix + segName, []byte{}}, // bad gzip header, empty object
	} {
		f.Add(s.key1, s.data1, s.key2, s.data2)
	}
	f.Fuzz(func(t *testing.T, key1 string, data1 []byte, key2 string, data2 []byte) {
		base := t.TempDir()
		remote, dir := filepath.Join(base, "remote"), filepath.Join(base, "data")
		store, err := NewDirStore(remote)
		if err != nil {
			t.Fatal(err)
		}
		// A key the store refuses (empty, escaping its root, clashing
		// with a directory) is simply not on the remote.
		_ = store.Put(key1, data1)
		_ = store.Put(key2, data2)

		_, _ = Restore(store, dir)

		top, err := os.ReadDir(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range top {
			if e.Name() != "remote" && e.Name() != "data" {
				t.Fatalf("restore wrote %q outside the data directory", e.Name())
			}
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			_, seg := wal.ParseSegmentFileName(e.Name())
			_, ck := wal.ParseCheckpointFileName(e.Name())
			if !e.Type().IsRegular() || !(seg || ck) {
				t.Fatalf("restore left %q (mode %v) in the data directory", e.Name(), e.Type())
			}
		}

		// Whatever survived, local recovery repairs it to a consistent
		// prefix rather than failing on it.
		l, err := wal.Open(wal.Options{Dir: dir})
		if err != nil {
			t.Fatalf("wal.Open on the restored directory: %v", err)
		}
		defer l.Close()
		if err := l.Replay(func(uint64, []byte) error { return nil }); err != nil {
			t.Fatalf("replaying the restored directory: %v", err)
		}
	})
}
