package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"testing"

	"github.com/densitymountain/edmstream/internal/distance"
	"github.com/densitymountain/edmstream/internal/stream"
)

// ckptEnvelope wraps a gob payload in a valid checkpoint header (magic,
// length, CRC), so fuzzed payloads get past the CRC and reach the gob
// decoder and restore.
func ckptEnvelope(payload []byte) []byte {
	out := append([]byte(nil), ckptMagic[:]...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// ckptTestConfig configures the engines behind the checkpoint fuzz
// seeds and the bad-cell-ID cases.
var ckptTestConfig = Config{Radius: 0.8, Tau: 2.5, InitPoints: 50, EvolutionInterval: 0.25, SweepInterval: 0.2}

// encodedCheckpoint ingests pts into a fresh engine under cfg and
// returns its checkpoint bytes.
func encodedCheckpoint(tb testing.TB, cfg Config, pts []stream.Point) []byte {
	tb.Helper()
	e, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := e.InsertBatch(pts); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.EncodeCheckpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzRestoreCheckpoint: decoding a checkpoint — the call behind
// Clusterer.RestoreCheckpoint — returns an error or a restored engine
// and never panics, whatever the bytes. With wrap set the input is
// taken as the gob payload and given a valid envelope.
func FuzzRestoreCheckpoint(f *testing.F) {
	cfg := ckptTestConfig
	encode := func(cfg Config, pts []stream.Point) []byte { return encodedCheckpoint(f, cfg, pts) }
	vectors := burstyStream(3, 400, 3, 0.2)
	tokens := make([]stream.Point, 80)
	for i := range tokens {
		tokens[i] = stream.Point{ID: int64(i), Tokens: distance.NewTokenSet("a", string(rune('b'+i%3))), Time: float64(i) / 1000}
	}
	valid := encode(cfg, vectors)
	const header = 20
	badMagic := append([]byte(nil), valid...)
	badMagic[0] ^= 0xff
	tooLong := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(tooLong[8:], maxCheckpointBytes+1)
	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 0xff
	other := cfg
	other.Radius = 0.9
	seeds := []struct {
		data []byte
		wrap bool
	}{
		{valid, false},
		{valid[header:], true},             // the same state through the wrapper
		{encode(cfg, vectors[:20]), false}, // before initialization
		{encode(cfg, nil), false},          // no points at all
		{encode(cfg, tokens), false},       // token stream on the linear index
		{encode(other, vectors), false},    // configuration mismatch
		{badMagic, false},
		{valid[:10], false},           // truncated header
		{tooLong, false},              // payload length past the limit
		{valid[:len(valid)-1], false}, // payload past the bytes left
		{badCRC, false},
		{[]byte("not a gob stream"), true},
	}
	for _, s := range seeds {
		f.Add(s.data, s.wrap)
	}
	f.Fuzz(func(t *testing.T, data []byte, wrap bool) {
		if wrap {
			data = ckptEnvelope(data)
		}
		e, err := DecodeCheckpoint(cfg, bytes.NewReader(data))
		if err == nil && e == nil {
			t.Fatal("DecodeCheckpoint returned neither an engine nor an error")
		}
	})
}

// TestCheckpointRejectsBadCellIDs: a CRC-valid checkpoint whose cell
// IDs cannot index the slab — negative, repeated, out of order, or at
// or past NextCellID — or whose cell counters disagree is an error,
// not an index panic or a slab grown to the claimed ID.
func TestCheckpointRejectsBadCellIDs(t *testing.T) {
	cfg := ckptTestConfig
	valid := encodedCheckpoint(t, cfg, burstyStream(3, 400, 3, 0.2))
	cases := map[string]func(st *ckptState){
		"negative":        func(st *ckptState) { st.Cells[0].ID = -1 },
		"repeated":        func(st *ckptState) { st.Cells[1].ID = st.Cells[0].ID },
		"out-of-order":    func(st *ckptState) { st.Cells[0].ID, st.Cells[1].ID = st.Cells[1].ID, st.Cells[0].ID },
		"past-next":       func(st *ckptState) { st.Cells[len(st.Cells)-1].ID = st.NextCellID },
		"huge":            func(st *ckptState) { st.Cells[len(st.Cells)-1].ID = 1 << 40 },
		"next-vs-created": func(st *ckptState) { st.NextCellID = 1 << 40 },
		"created-vs-points": func(st *ckptState) {
			st.NextCellID = st.Stats.Points + 1
			st.Stats.CellsCreated = st.NextCellID
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			var st ckptState
			if err := gob.NewDecoder(bytes.NewReader(valid[20:])).Decode(&st); err != nil {
				t.Fatal(err)
			}
			mutate(&st)
			var payload bytes.Buffer
			if err := gob.NewEncoder(&payload).Encode(&st); err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeCheckpoint(cfg, bytes.NewReader(ckptEnvelope(payload.Bytes()))); err == nil {
				t.Fatal("DecodeCheckpoint accepted the checkpoint")
			}
		})
	}
}
