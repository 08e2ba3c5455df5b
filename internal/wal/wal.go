package wal

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const (
	segPrefix  = "wal-"
	segExt     = ".log"
	ckptPrefix = "ckpt-"
	ckptExt    = ".ckpt"
	tmpExt     = ".tmp"

	segHeaderLen  = 16 // magic(8) + first record sequence number(8)
	recHeaderLen  = 4  // payload length prefix
	recTrailerLen = 4  // CRC-32 of seq+payload
	recSeqLen     = 8

	ckptHeaderLen = 28 // magic(8) + nextSeq(8) + payload length(8) + CRC-32(4)

	// defaultSegmentBytes is the rotation threshold: 64 MiB keeps
	// recovery scans and prune deletions bounded without churning
	// files.
	defaultSegmentBytes = 64 << 20

	// maxRecordBytes bounds a record length a reader will believe;
	// anything larger is treated as corruption, not an allocation
	// request.
	maxRecordBytes = 1 << 31
)

var (
	segMagic  = [8]byte{'E', 'D', 'M', 'W', 'A', 'L', '0', '1'}
	ckptMagic = [8]byte{'E', 'D', 'M', 'W', 'C', 'K', '0', '1'}
	// ckptMagicGz marks the compressed checkpoint variant: the header
	// keeps the UNCOMPRESSED payload length and CRC, the body is the
	// gzipped payload. Readers accept both variants regardless of the
	// CompressCheckpoints option, so the flag can be toggled mid-life.
	ckptMagicGz = [8]byte{'E', 'D', 'M', 'W', 'C', 'K', 'G', 'Z'}

	// ErrClosed is returned by operations on a closed log.
	ErrClosed = errors.New("wal: log is closed")
)

// Options configures a Log.
type Options struct {
	// Dir is the WAL directory. Required; created if missing.
	Dir string
	// SegmentBytes is the size at which a segment is rotated. Zero
	// means the default 64 MiB.
	SegmentBytes int64
	// NoSync disables fsync on Append/Sync and segment rotation: the
	// throughput mode where an acknowledgement only promises the data
	// reached the kernel. Checkpoints are always synced — they are
	// rare and written atomically.
	NoSync bool
	// FS is the filesystem to run on; nil means the real one. Tests
	// inject FaultFS here.
	FS FS
	// CompressCheckpoints writes checkpoints gzip-compressed (the
	// header CRC still covers the uncompressed payload, so corruption
	// detection is unchanged). Either variant is always readable.
	CompressCheckpoints bool
	// OnSegmentSealed, when non-nil, is called on the owner goroutine
	// after a segment is finished by rotation, with the segment's file
	// name and the first sequence number NOT in it. The archive
	// shipper hangs its upload queue here; the hook must not block.
	OnSegmentSealed func(name string, through uint64)
	// OnCheckpointSaved, when non-nil, is called on the owner goroutine
	// after a checkpoint is durably published, with its file name and
	// the first sequence number it does not cover.
	OnCheckpointSaved func(name string, nextSeq uint64)
}

// RecoveryInfo reports what Open found, recovered and dropped. The
// serving daemon logs it and exports it through /v1/stats so an
// operator can see exactly what a crash cost.
type RecoveryInfo struct {
	// HasCheckpoint reports whether a valid checkpoint was loaded.
	HasCheckpoint bool
	// CheckpointSeq is the first record sequence number NOT covered by
	// the loaded checkpoint (meaningful when HasCheckpoint).
	CheckpointSeq uint64
	// CheckpointsSkipped counts newer checkpoint files that failed
	// validation and were bypassed (and removed).
	CheckpointsSkipped int
	// SegmentsScanned counts the log segments examined.
	SegmentsScanned int
	// RecordsReplayable counts the valid records past the checkpoint
	// (the tail Replay will deliver).
	RecordsReplayable int
	// RecordsSkipped counts valid records already covered by the
	// checkpoint.
	RecordsSkipped int
	// TruncatedSegment names the segment whose torn/corrupt tail was
	// cut back to the last valid record ("" when the log was clean).
	TruncatedSegment string
	// DroppedBytes is the total size of invalid data discarded: the
	// truncated tail plus any unreachable later segments.
	DroppedBytes int64
	// DroppedSegments counts whole segments discarded because they sat
	// past a corruption boundary.
	DroppedSegments int
}

// String renders the recovery outcome in one log line.
func (r RecoveryInfo) String() string {
	ck := "no checkpoint"
	if r.HasCheckpoint {
		ck = fmt.Sprintf("checkpoint through seq %d", r.CheckpointSeq-1)
	}
	s := fmt.Sprintf("wal: %s, %d segment(s), %d record(s) to replay", ck, r.SegmentsScanned, r.RecordsReplayable)
	if r.CheckpointsSkipped > 0 {
		s += fmt.Sprintf(", %d corrupt checkpoint(s) skipped", r.CheckpointsSkipped)
	}
	if r.DroppedBytes > 0 || r.DroppedSegments > 0 {
		s += fmt.Sprintf(", dropped %d invalid byte(s)", r.DroppedBytes)
		if r.TruncatedSegment != "" {
			s += " (truncated " + r.TruncatedSegment + ")"
		}
		if r.DroppedSegments > 0 {
			s += fmt.Sprintf(" and %d unreachable segment(s)", r.DroppedSegments)
		}
	}
	return s
}

// Stats is the log's operational telemetry, read by the owner
// goroutine and exported through internal/obs.
type Stats struct {
	// Segments is the number of live segment files.
	Segments int
	// OpenSegmentBytes is the size of the segment being appended to.
	OpenSegmentBytes int64
	// AppendedRecords and AppendedBytes count Append calls and their
	// payload bytes since Open.
	AppendedRecords uint64
	AppendedBytes   uint64
	// Syncs counts fsyncs issued on the open segment.
	Syncs uint64
	// CheckpointSeq is the first sequence number not covered by the
	// newest checkpoint (0 when none exists).
	CheckpointSeq uint64
	// NextSeq is the sequence number the next Append will get.
	NextSeq uint64
}

type segMeta struct {
	firstSeq uint64
	name     string
}

type replayRec struct {
	seq     uint64
	payload []byte
}

// Log is a segmented write-ahead log with checkpoints. Records are
// framed [len u32][seq u64][payload][crc32(seq+payload) u32] inside
// segments that open with a magic header naming their first sequence
// number; sequence numbers are contiguous across segments, so recovery
// can prove it saw every acknowledged record.
//
// All methods must be called from a single owner goroutine (the
// serving daemon's coalescer writer); none of them block on anything
// but the filesystem.
type Log struct {
	fs      FS
	dir     string
	segSize int64
	noSync  bool

	// Append state. cur is nil until the first append after Open (or
	// after a rotation); tail describes the segment appends may
	// continue into.
	cur      File
	curName  string
	curSize  int64
	curDirty bool
	tailOK   bool
	tailName string
	tailSize int64

	nextSeq  uint64
	ckptNext uint64
	ckptBuf  []byte

	segments  []segMeta
	ckptFiles []segMeta // firstSeq field holds the checkpoint's nextSeq

	replay   []replayRec
	replayed bool

	info   RecoveryInfo
	closed bool
	// wedged is set by a failed record write: the on-disk tail is in an
	// unknown state (possibly torn), so every further mutation fails
	// until the log is reopened and recovery repairs the tail.
	wedged error

	appended      uint64
	appendedBytes uint64
	syncs         uint64

	compressCkpt bool
	onSealed     func(name string, through uint64)
	onCkptSaved  func(name string, nextSeq uint64)

	buf []byte
}

// Open scans the WAL directory, loads the newest valid checkpoint
// (falling back across corrupt ones), validates every segment record,
// truncates a torn tail back to the last valid record and removes
// unreachable later segments. It never fails on corruption — damage is
// repaired and reported through RecoveryInfo — only on filesystem
// errors. After Open, read the checkpoint with Checkpoint, stream the
// tail with Replay, then append.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	l := &Log{
		fs:           opts.FS,
		dir:          opts.Dir,
		segSize:      opts.SegmentBytes,
		noSync:       opts.NoSync,
		nextSeq:      1,
		ckptNext:     1,
		compressCkpt: opts.CompressCheckpoints,
		onSealed:     opts.OnSegmentSealed,
		onCkptSaved:  opts.OnCheckpointSaved,
	}
	if l.fs == nil {
		l.fs = OSFS{}
	}
	if l.segSize <= 0 {
		l.segSize = defaultSegmentBytes
	}
	if err := l.fs.MkdirAll(l.dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating directory: %w", err)
	}

	entries, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: listing directory: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		switch {
		case strings.HasSuffix(name, tmpExt):
			// An interrupted checkpoint write; the rename never
			// happened, so it holds nothing durable.
			_ = l.fs.Remove(filepath.Join(l.dir, name))
		case strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segExt):
			seq, perr := parseSeq(name, segPrefix, segExt)
			if perr != nil {
				continue
			}
			l.segments = append(l.segments, segMeta{firstSeq: seq, name: name})
		case strings.HasPrefix(name, ckptPrefix) && strings.HasSuffix(name, ckptExt):
			seq, perr := parseSeq(name, ckptPrefix, ckptExt)
			if perr != nil {
				continue
			}
			l.ckptFiles = append(l.ckptFiles, segMeta{firstSeq: seq, name: name})
		}
	}
	sort.Slice(l.segments, func(a, b int) bool { return l.segments[a].firstSeq < l.segments[b].firstSeq })
	sort.Slice(l.ckptFiles, func(a, b int) bool { return l.ckptFiles[a].firstSeq < l.ckptFiles[b].firstSeq })

	if err := l.loadCheckpoint(); err != nil {
		return nil, err
	}
	if err := l.scanSegments(); err != nil {
		return nil, err
	}
	return l, nil
}

func parseSeq(name, prefix, ext string) (uint64, error) {
	return strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), ext), 16, 64)
}

func segName(seq uint64) string  { return fmt.Sprintf("%s%016x%s", segPrefix, seq, segExt) }
func ckptName(seq uint64) string { return fmt.Sprintf("%s%016x%s", ckptPrefix, seq, ckptExt) }

// ParseSegmentFileName reports whether name is a WAL segment file and,
// if so, the sequence number of its first record. Exported for the
// archive layer, which mirrors the directory's naming remotely.
func ParseSegmentFileName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segExt) {
		return 0, false
	}
	seq, err := parseSeq(name, segPrefix, segExt)
	return seq, err == nil
}

// ParseCheckpointFileName reports whether name is a checkpoint file
// and, if so, the first sequence number it does not cover.
func ParseCheckpointFileName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptExt) {
		return 0, false
	}
	seq, err := parseSeq(name, ckptPrefix, ckptExt)
	return seq, err == nil
}

// loadCheckpoint tries checkpoint files newest-first, keeping the
// first that validates and removing the corrupt ones it bypassed.
func (l *Log) loadCheckpoint() error {
	for i := len(l.ckptFiles) - 1; i >= 0; i-- {
		meta := l.ckptFiles[i]
		payload, err := l.readCheckpointFile(meta)
		if err != nil {
			l.info.CheckpointsSkipped++
			_ = l.fs.Remove(filepath.Join(l.dir, meta.name))
			l.ckptFiles = append(l.ckptFiles[:i], l.ckptFiles[i+1:]...)
			continue
		}
		l.ckptBuf = payload
		l.ckptNext = meta.firstSeq
		l.nextSeq = meta.firstSeq
		l.info.HasCheckpoint = true
		l.info.CheckpointSeq = meta.firstSeq
		return nil
	}
	return nil
}

func (l *Log) readCheckpointFile(meta segMeta) ([]byte, error) {
	f, err := l.fs.OpenFile(filepath.Join(l.dir, meta.name), os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if len(data) < ckptHeaderLen {
		return nil, fmt.Errorf("wal: checkpoint %s is truncated at %d bytes", meta.name, len(data))
	}
	compressed := false
	switch string(data[:8]) {
	case string(ckptMagic[:]):
	case string(ckptMagicGz[:]):
		compressed = true
	default:
		return nil, fmt.Errorf("wal: checkpoint %s has bad magic", meta.name)
	}
	nextSeq := binary.LittleEndian.Uint64(data[8:16])
	if nextSeq != meta.firstSeq {
		return nil, fmt.Errorf("wal: checkpoint %s names seq %d but holds %d", meta.name, meta.firstSeq, nextSeq)
	}
	n := binary.LittleEndian.Uint64(data[16:24])
	if n > maxRecordBytes {
		return nil, fmt.Errorf("wal: checkpoint %s claims an absurd payload length %d", meta.name, n)
	}
	sum := binary.LittleEndian.Uint32(data[24:28])
	payload := data[ckptHeaderLen:]
	if compressed {
		// The header describes the UNCOMPRESSED payload; a truncated or
		// corrupt gzip body fails here and the checkpoint is skipped
		// like any other damage.
		zr, zerr := gzip.NewReader(bytes.NewReader(payload))
		if zerr != nil {
			return nil, fmt.Errorf("wal: checkpoint %s gzip header: %w", meta.name, zerr)
		}
		plain, rerr := io.ReadAll(io.LimitReader(zr, maxRecordBytes+1))
		if cerr := zr.Close(); rerr == nil {
			rerr = cerr
		}
		if rerr != nil {
			return nil, fmt.Errorf("wal: checkpoint %s decompressing: %w", meta.name, rerr)
		}
		payload = plain
	}
	if int64(n) != int64(len(payload)) {
		return nil, fmt.Errorf("wal: checkpoint %s has payload length %d but %d bytes", meta.name, n, len(payload))
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("wal: checkpoint %s CRC mismatch (stored %08x, computed %08x)", meta.name, sum, got)
	}
	return payload, nil
}

// scanSegments validates every record of every segment in order,
// collects the tail past the checkpoint for Replay, truncates at the
// first invalid record and drops everything beyond it.
func (l *Log) scanSegments() error {
	valid := true // records so far form a contiguous valid prefix
	var expect uint64
	for i := 0; i < len(l.segments); i++ {
		meta := l.segments[i]
		if !valid {
			// Past a corruption boundary: these records may be missing
			// predecessors, so they cannot be replayed.
			l.dropSegment(i)
			i--
			continue
		}
		l.info.SegmentsScanned++
		path := filepath.Join(l.dir, meta.name)
		f, err := l.fs.OpenFile(path, os.O_RDONLY, 0)
		if err != nil {
			return fmt.Errorf("wal: opening segment %s: %w", meta.name, err)
		}
		data, err := io.ReadAll(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("wal: reading segment %s: %w", meta.name, err)
		}

		// Sequence numbers start at 1 (0 is the scan's "no record yet"
		// sentinel), so a segment naming first seq 0 is not one Append
		// wrote.
		headerOK := len(data) >= segHeaderLen && string(data[:8]) == string(segMagic[:]) &&
			binary.LittleEndian.Uint64(data[8:16]) == meta.firstSeq && meta.firstSeq != 0
		if headerOK && expect != 0 && meta.firstSeq != expect {
			// A sequence gap between segments normally proves the later
			// one unreachable — unless the checkpoint covers the gap
			// entirely, i.e. the later segment starts at or below
			// ckptNext. Two paths leave a stale pre-checkpoint segment in
			// front of such a gap: a torn tail truncated below the
			// checkpoint boundary (appends restart in a fresh segment at
			// ckptNext while the stale tail stays on disk until the next
			// prune), and an archive restore that brings back a segment
			// whose remote copy outlived the prune of its neighbours.
			// Neither may cost the later segments' acknowledged records.
			if expect < meta.firstSeq && meta.firstSeq <= l.ckptNext {
				expect = meta.firstSeq
			} else {
				headerOK = false
			}
		}
		if !headerOK {
			// Bad or discontiguous header: nothing in this segment is
			// provably part of the acknowledged prefix.
			valid = false
			l.dropSegment(i)
			i--
			continue
		}
		if expect == 0 {
			expect = meta.firstSeq
		}

		off := segHeaderLen
		for off < len(data) {
			rec, n, ok := parseRecord(data[off:], expect)
			if !ok {
				valid = false
				break
			}
			if expect >= l.ckptNext {
				l.replay = append(l.replay, replayRec{seq: expect, payload: append([]byte(nil), rec...)})
				l.info.RecordsReplayable++
			} else {
				l.info.RecordsSkipped++
			}
			expect++
			off += n
		}
		if !valid {
			// Torn or corrupt tail: cut the segment back to its valid
			// prefix and keep appending there.
			l.info.TruncatedSegment = meta.name
			l.info.DroppedBytes += int64(len(data) - off)
			if err := l.fs.Truncate(path, int64(off)); err != nil {
				return fmt.Errorf("wal: truncating %s to %d bytes: %w", meta.name, off, err)
			}
			l.tailOK, l.tailName, l.tailSize = true, meta.name, int64(off)
		} else if i == len(l.segments)-1 {
			l.tailOK, l.tailName, l.tailSize = true, meta.name, int64(len(data))
		}
	}

	if expect > l.nextSeq {
		l.nextSeq = expect
	}
	// A checkpoint newer than every surviving record: appends restart
	// at the checkpoint's sequence number, which cannot continue the
	// tail segment (there would be a gap inside it).
	if l.tailOK && expect != 0 && expect < l.nextSeq {
		l.tailOK = false
	}
	return nil
}

// dropSegment removes segment i from disk and the live list.
func (l *Log) dropSegment(i int) {
	meta := l.segments[i]
	path := filepath.Join(l.dir, meta.name)
	if f, err := l.fs.OpenFile(path, os.O_RDONLY, 0); err == nil {
		if data, rerr := io.ReadAll(f); rerr == nil {
			l.info.DroppedBytes += int64(len(data))
		}
		_ = f.Close()
	}
	_ = l.fs.Remove(path)
	l.info.DroppedSegments++
	l.segments = append(l.segments[:i], l.segments[i+1:]...)
}

// parseRecord validates one record at the head of data, expecting the
// given sequence number. It returns the payload view, the total
// framed size and whether the record is valid.
func parseRecord(data []byte, expectSeq uint64) ([]byte, int, bool) {
	if len(data) < recHeaderLen {
		return nil, 0, false
	}
	n := binary.LittleEndian.Uint32(data[:recHeaderLen])
	if n < recSeqLen || int64(n) >= maxRecordBytes {
		return nil, 0, false
	}
	// Framing arithmetic stays in int64: on 32-bit platforms a hostile
	// length near the bound would overflow int into a negative slice
	// index, and recovery must never panic on corrupt input.
	total64 := int64(recHeaderLen) + int64(n) + int64(recTrailerLen)
	if int64(len(data)) < total64 {
		return nil, 0, false
	}
	total := int(total64)
	body := data[recHeaderLen : recHeaderLen+int(n)]
	sum := binary.LittleEndian.Uint32(data[recHeaderLen+int(n):])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, 0, false
	}
	if binary.LittleEndian.Uint64(body[:recSeqLen]) != expectSeq {
		return nil, 0, false
	}
	return body[recSeqLen:], total, true
}

// Info returns what recovery found.
func (l *Log) Info() RecoveryInfo { return l.info }

// Checkpoint returns the newest valid checkpoint payload, or nil when
// none exists. The slice is owned by the log; treat it as read-only.
func (l *Log) Checkpoint() []byte { return l.ckptBuf }

// Replay streams the valid records past the checkpoint, in sequence
// order, to fn. It must run (once) before the first Append; fn's
// error aborts the replay and is returned.
func (l *Log) Replay(fn func(seq uint64, payload []byte) error) error {
	if l.closed {
		return ErrClosed
	}
	for _, rec := range l.replay {
		if err := fn(rec.seq, rec.payload); err != nil {
			return err
		}
	}
	l.replay = nil
	l.replayed = true
	return nil
}

// Append writes one record and returns its sequence number. The
// record is in the page cache when Append returns; call Sync before
// acknowledging it as durable.
func (l *Log) Append(payload []byte) (uint64, error) {
	if l.closed {
		return 0, ErrClosed
	}
	if l.wedged != nil {
		return 0, l.wedged
	}
	recSize := int64(recHeaderLen + recSeqLen + len(payload) + recTrailerLen)
	if l.cur != nil && l.curSize+recSize > l.segSize && l.curSize > segHeaderLen {
		if err := l.rotate(); err != nil {
			return 0, err
		}
	}
	if l.cur == nil {
		if err := l.openForAppend(); err != nil {
			return 0, err
		}
	}

	n := recSeqLen + len(payload)
	need := recHeaderLen + n + recTrailerLen
	if cap(l.buf) < need {
		l.buf = make([]byte, 0, need*2)
	}
	buf := l.buf[:need]
	binary.LittleEndian.PutUint32(buf[:4], uint32(n))
	binary.LittleEndian.PutUint64(buf[4:12], l.nextSeq)
	copy(buf[12:], payload)
	binary.LittleEndian.PutUint32(buf[12+len(payload):], crc32.ChecksumIEEE(buf[4:12+len(payload)]))

	if _, err := l.cur.Write(buf); err != nil {
		// The write may have landed partially (a torn record): the
		// file is no longer in a state this writer can reason about.
		// Recovery truncates it; this handle is done.
		l.closeCur()
		l.wedged = fmt.Errorf("wal: appending record %d: %w", l.nextSeq, err)
		return 0, l.wedged
	}
	l.curSize += recSize
	l.curDirty = true
	seq := l.nextSeq
	l.nextSeq++
	l.appended++
	l.appendedBytes += uint64(len(payload))
	return seq, nil
}

// Sync makes every appended record durable (no-op under NoSync, and
// when nothing was written since the last sync).
func (l *Log) Sync() error {
	if l.closed {
		return ErrClosed
	}
	if l.wedged != nil {
		return l.wedged
	}
	if l.noSync || !l.curDirty || l.cur == nil {
		return nil
	}
	if err := l.cur.Sync(); err != nil {
		return fmt.Errorf("wal: syncing segment %s: %w", l.curName, err)
	}
	l.curDirty = false
	l.syncs++
	return nil
}

// SyncTail fsyncs the segment the next append would continue, even
// when this handle has not written to it yet. The resilient wrapper
// calls it after a reopen when a previous handle appended a record but
// failed the fsync: recovery proved the record is intact in the tail,
// it just is not provably durable. No-op under NoSync or when no tail
// segment exists.
func (l *Log) SyncTail() error {
	if l.closed {
		return ErrClosed
	}
	if l.wedged != nil {
		return l.wedged
	}
	if l.noSync {
		return nil
	}
	if l.cur == nil {
		if !l.tailOK {
			return nil
		}
		if err := l.openForAppend(); err != nil {
			return err
		}
		l.curDirty = true
	}
	return l.Sync()
}

// openForAppend opens the segment the next record belongs in: the
// surviving tail segment when the sequence numbers continue it, a
// fresh segment otherwise.
func (l *Log) openForAppend() error {
	if l.tailOK {
		f, err := l.fs.OpenFile(filepath.Join(l.dir, l.tailName), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("wal: reopening segment %s: %w", l.tailName, err)
		}
		l.cur, l.curName, l.curSize = f, l.tailName, l.tailSize
		l.tailOK = false
		return nil
	}
	name := segName(l.nextSeq)
	f, err := l.fs.OpenFile(filepath.Join(l.dir, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment %s: %w", name, err)
	}
	var header [segHeaderLen]byte
	copy(header[:8], segMagic[:])
	binary.LittleEndian.PutUint64(header[8:16], l.nextSeq)
	if _, err := f.Write(header[:]); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: writing segment header %s: %w", name, err)
	}
	if !l.noSync {
		if err := l.fs.SyncDir(l.dir); err != nil {
			_ = f.Close()
			return fmt.Errorf("wal: syncing directory after creating %s: %w", name, err)
		}
	}
	l.cur, l.curName, l.curSize = f, name, segHeaderLen
	l.curDirty = true
	l.segments = append(l.segments, segMeta{firstSeq: l.nextSeq, name: name})
	return nil
}

// rotate finishes the open segment (synced unless NoSync) so the next
// append starts a new one, then notifies the seal hook: the segment's
// contents are final from here on (only a checkpoint prune removes it).
func (l *Log) rotate() error {
	if err := l.Sync(); err != nil {
		return err
	}
	sealed := l.curName
	if err := l.closeCur(); err != nil {
		return err
	}
	if l.onSealed != nil && sealed != "" {
		l.onSealed(sealed, l.nextSeq)
	}
	return nil
}

func (l *Log) closeCur() error {
	if l.cur == nil {
		return nil
	}
	err := l.cur.Close()
	l.cur = nil
	l.curDirty = false
	if err != nil {
		return fmt.Errorf("wal: closing segment %s: %w", l.curName, err)
	}
	return nil
}

// SaveCheckpoint atomically persists a checkpoint covering every
// record appended so far (write to a temporary file, fsync, rename,
// fsync the directory — always synced, even under NoSync), then prunes
// the segments and older checkpoints it supersedes. After a crash,
// recovery loads this checkpoint and replays only records appended
// after this call.
func (l *Log) SaveCheckpoint(payload []byte) error {
	if l.closed {
		return ErrClosed
	}
	if l.wedged != nil {
		return l.wedged
	}
	covered := l.nextSeq
	final := ckptName(covered)
	tmp := final + tmpExt
	tmpPath := filepath.Join(l.dir, tmp)

	f, err := l.fs.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating checkpoint %s: %w", tmp, err)
	}
	// The length and CRC always describe the uncompressed payload, so
	// the corruption checks are identical across both variants.
	magic := ckptMagic
	body := payload
	if l.compressCkpt {
		var zbuf bytes.Buffer
		zw := gzip.NewWriter(&zbuf)
		if _, zerr := zw.Write(payload); zerr == nil && zw.Close() == nil {
			magic = ckptMagicGz
			body = zbuf.Bytes()
		}
	}
	var header [ckptHeaderLen]byte
	copy(header[:8], magic[:])
	binary.LittleEndian.PutUint64(header[8:16], covered)
	binary.LittleEndian.PutUint64(header[16:24], uint64(len(payload)))
	binary.LittleEndian.PutUint32(header[24:28], crc32.ChecksumIEEE(payload))
	_, err = f.Write(header[:])
	if err == nil {
		_, err = f.Write(body)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = l.fs.Remove(tmpPath)
		return fmt.Errorf("wal: writing checkpoint %s: %w", tmp, err)
	}
	if err := l.fs.Rename(tmpPath, filepath.Join(l.dir, final)); err != nil {
		_ = l.fs.Remove(tmpPath)
		return fmt.Errorf("wal: publishing checkpoint %s: %w", final, err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return fmt.Errorf("wal: syncing directory after checkpoint %s: %w", final, err)
	}

	l.ckptNext = covered
	l.ckptFiles = append(l.ckptFiles, segMeta{firstSeq: covered, name: final})
	l.prune()
	if l.onCkptSaved != nil {
		l.onCkptSaved(final, covered)
	}
	return nil
}

// prune removes checkpoints older than the newest and segments whose
// records are all covered by it. Failures are ignored — a leftover
// file costs disk space, not correctness, and the next checkpoint
// retries.
func (l *Log) prune() {
	for len(l.ckptFiles) > 1 {
		old := l.ckptFiles[0]
		if old.firstSeq >= l.ckptNext {
			break
		}
		_ = l.fs.Remove(filepath.Join(l.dir, old.name))
		l.ckptFiles = l.ckptFiles[1:]
	}
	// A segment is removable when the NEXT segment starts at or below
	// the checkpoint boundary (so every record here is covered) — the
	// open segment never is.
	for len(l.segments) > 1 && l.segments[1].firstSeq <= l.ckptNext {
		seg := l.segments[0]
		if seg.name == l.curName && l.cur != nil {
			break
		}
		if l.tailOK && seg.name == l.tailName {
			break
		}
		_ = l.fs.Remove(filepath.Join(l.dir, seg.name))
		l.segments = l.segments[1:]
	}
}

// Stats returns the log's operational counters.
func (l *Log) Stats() Stats {
	return Stats{
		Segments:         len(l.segments),
		OpenSegmentBytes: l.curSize,
		AppendedRecords:  l.appended,
		AppendedBytes:    l.appendedBytes,
		Syncs:            l.syncs,
		CheckpointSeq:    l.ckptNext,
		NextSeq:          l.nextSeq,
	}
}

// Close syncs (unless NoSync) and closes the open segment. The log is
// unusable afterwards. A clean close also fires the seal hook for the
// final segment — it will never grow again, so the archive shipper can
// replace any stale tail copy with the complete one.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.cur != nil && l.curDirty && !l.noSync {
		if serr := l.cur.Sync(); serr != nil {
			err = fmt.Errorf("wal: syncing segment %s on close: %w", l.curName, serr)
		}
	}
	sealed := ""
	if l.cur != nil {
		sealed = l.curName
	}
	if cerr := l.closeCur(); err == nil {
		err = cerr
	}
	if err == nil && l.onSealed != nil && sealed != "" {
		l.onSealed(sealed, l.nextSeq)
	}
	return err
}
