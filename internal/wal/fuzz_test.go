package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
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
