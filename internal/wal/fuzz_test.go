package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// frameRecord builds the on-disk framing of one record the way Append
// writes it: length of seq+payload, seq, payload, CRC of seq+payload.
func frameRecord(seq uint64, payload []byte) []byte {
	rec := binary.LittleEndian.AppendUint32(nil, uint32(recSeqLen+len(payload)))
	rec = binary.LittleEndian.AppendUint64(rec, seq)
	rec = append(rec, payload...)
	return binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(rec[recHeaderLen:]))
}

// FuzzParseRecord: the record parser never panics, and a record it
// accepts lies within the input and is exactly the framing of its
// payload under the expected sequence number — so recovery keeps only
// records Append could have written.
func FuzzParseRecord(f *testing.F) {
	valid := frameRecord(7, []byte("payload"))
	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 0xff
	short := binary.LittleEndian.AppendUint32(nil, recSeqLen-1) // length below the seq field
	short = append(short, make([]byte, 16)...)
	huge := binary.LittleEndian.AppendUint32(nil, maxRecordBytes) // length at the corruption bound
	huge = append(huge, make([]byte, 16)...)
	seeds := []struct {
		data []byte
		seq  uint64
	}{
		{valid, 7},
		{frameRecord(0, nil), 0}, // empty payload
		{append(append([]byte(nil), valid...), valid...), 7}, // a second record follows
		{valid, 8},                // sequence mismatch
		{badCRC, 7},               // CRC mismatch
		{valid[:3], 7},            // truncated header
		{valid[:len(valid)-1], 7}, // length past the bytes left
		{short, 0},
		{huge, 0},
	}
	for _, s := range seeds {
		f.Add(s.data, s.seq)
	}
	f.Fuzz(func(t *testing.T, data []byte, seq uint64) {
		payload, total, ok := parseRecord(data, seq)
		if !ok {
			return
		}
		if total <= 0 || total > len(data) {
			t.Fatalf("accepted record of %d bytes in %d bytes of input", total, len(data))
		}
		if !bytes.Equal(frameRecord(seq, payload), data[:total]) {
			t.Fatalf("accepted record is not the framing of its payload")
		}
	})
}

// segmentFile builds a segment file the way Append writes one: the
// magic header naming headerSeq, then one framed record per payload
// numbered from firstSeq.
func segmentFile(headerSeq, firstSeq uint64, payloads ...string) []byte {
	data := append([]byte(nil), segMagic[:]...)
	data = binary.LittleEndian.AppendUint64(data, headerSeq)
	for i, p := range payloads {
		data = append(data, frameRecord(firstSeq+uint64(i), []byte(p))...)
	}
	return data
}

// FuzzOpenSegment: recovery of one fuzzed segment file, named for a
// fuzzed first sequence number, never panics and never errors — Open
// repairs corruption instead of failing on it. Replay yields
// consecutive sequence numbers starting at the name's first seq, and
// the repaired directory reopens to the same records with nothing
// left to drop.
func FuzzOpenSegment(f *testing.F) {
	valid := segmentFile(5, 5, "a", "bb", "ccc")
	badMagic := append([]byte(nil), valid...)
	badMagic[0] ^= 0xff
	crcFlip := append([]byte(nil), valid...)
	crcFlip[segHeaderLen+len(frameRecord(5, []byte("a")))+recHeaderLen+recSeqLen] ^= 0x01 // "bb"'s payload
	f.Add(valid, uint64(5))
	f.Add(badMagic, uint64(5))
	f.Add(segmentFile(6, 5, "a", "bb"), uint64(5)) // header seq does not match the name
	f.Add(valid[:len(valid)-3], uint64(5))         // torn last record
	f.Add(crcFlip, uint64(5))
	f.Add(valid[:segHeaderLen], uint64(5))         // header only
	f.Add(segmentFile(0, 0, "a", "bb"), uint64(0)) // seq 0 is never written (TestSegmentNamedSeqZeroDropped)
	f.Fuzz(func(t *testing.T, data []byte, first uint64) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(first)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func() ([]uint64, [][]byte, RecoveryInfo) {
			l, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatalf("Open failed on a corrupt segment: %v", err)
			}
			defer l.Close()
			seqs, payloads := collect(t, l)
			return seqs, payloads, l.Info()
		}
		seqs, payloads, _ := open()
		for i, seq := range seqs {
			if seq != first+uint64(i) {
				t.Fatalf("replayed seqs %v from a segment named for seq %d", seqs, first)
			}
		}
		seqs2, payloads2, info2 := open()
		if fmt.Sprint(seqs2) != fmt.Sprint(seqs) || !slices.EqualFunc(payloads2, payloads, bytes.Equal) {
			t.Fatalf("reopen replayed %v, first open %v", seqs2, seqs)
		}
		if info2.DroppedBytes != 0 {
			t.Fatalf("reopen of the repaired directory dropped %d bytes: %v", info2.DroppedBytes, info2)
		}
	})
}
