package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"udpsim/internal/isa"
	"udpsim/internal/workload"
)

// mustStream opens src's replay cursor at its recorded salt.
func mustStream(t testing.TB, src *Source) workload.Stream {
	t.Helper()
	st, err := src.Stream(src.Salt())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// claimingMax rewrites every record-chunk header of a v2 trace to claim
// chunkRecordsMax records. The CRC covers only the payload, so only the
// decoded count can expose the lie.
func claimingMax(t testing.TB, data []byte) []byte {
	t.Helper()
	pre, chunks := v2chunks(t, data)
	out := append([]byte{}, pre...)
	for _, c := range chunks {
		c = append([]byte{}, c...)
		if c[0] == chunkRecords {
			binary.LittleEndian.PutUint32(c[5:9], chunkRecordsMax)
		}
		out = append(out, c...)
	}
	return out
}

// strayPCTrace is a trace of the tiny profile's image whose only record
// sits at pc.
func strayPCTrace(t testing.TB, pc isa.Addr) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter2(&buf, workload.MustGenerate(tinyProfile()), 0, EncBinary)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Record{PC: pc, Target: pc + isa.InstrBytes}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRecordIs24Bytes pins the resident cost of a decoded record, which
// sizes every trace replay's memory.
func TestRecordIs24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(record{}); got != 24 {
		t.Errorf("record is %d bytes, want 24", got)
	}
}

// TestSourceRecordsSizedOnce checks that a load allocates the record
// array at its exact length across chunks.
func TestSourceRecordsSizedOnce(t *testing.T) {
	const n = recordsPerChunk + 3_000
	src, err := LoadSourceBytes("tiny", recordTiny(t, 0, n))
	if err != nil {
		t.Fatal(err)
	}
	if len(src.recs) != n || cap(src.recs) != n {
		t.Errorf("records have len %d, cap %d; want both %d", len(src.recs), cap(src.recs), n)
	}
}

// TestLoadSourceAllocBound holds a trace load to the arrays it keeps.
// Loading an xgboost recording may allocate its image and record arrays,
// the compressed file once more (each chunk's payload is read into a
// buffer of its own) and 2 MiB for the rest: the decompressor, the image
// decode window and the record chunks' inflate buffer, which grows by
// doubling to one chunk's ~330 KB and is reused (~1 MB in all).
// Inflating the 852k-instruction image into a buffer before decoding
// it, as a load once did, takes ~8 MB more, and ~24 MB with growth.
func TestLoadSourceAllocBound(t *testing.T) {
	const records = 80_000
	var buf bytes.Buffer
	if err := RecordN2(&buf, workload.MustByName("xgboost"), 1, records); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	src, err := LoadSourceBytes("xgboost", data)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	kept := uint64(len(src.prog.StaticCode()))*uint64(unsafe.Sizeof(isa.StaticInstr{})) +
		uint64(cap(src.recs))*uint64(unsafe.Sizeof(record{}))
	bound := kept + uint64(len(data)) + 2<<20
	got := after.TotalAlloc - before.TotalAlloc
	if got > bound {
		t.Errorf("LoadSourceBytes allocated %d bytes for %d kept in image and records and a %d-byte file (bound %d)",
			got, kept, len(data), bound)
	}
}

// TestSourceRejectsStrayPC checks that a record whose PC is not an
// instruction of the embedded image fails the load with a *FormatError
// naming its record chunk.
func TestSourceRejectsStrayPC(t *testing.T) {
	size := isa.Addr(workload.MustGenerate(tinyProfile()).Size())
	for _, pc := range []isa.Addr{0, workload.ImageBase - isa.InstrBytes, workload.ImageBase + 1, workload.ImageBase + size*isa.InstrBytes} {
		_, err := LoadSourceBytes("stray", strayPCTrace(t, pc))
		var fe *FormatError
		if !errors.As(err, &fe) || fe.Chunk != 1 || !strings.Contains(fe.Reason, "outside the embedded image") {
			t.Errorf("pc %#x: want a chunk-1 *FormatError for a pc outside the image, got %v", uint64(pc), err)
		}
	}
}

// TestSourceLyingRecordCount checks that a record chunk claiming
// chunkRecordsMax records in 398 compressed bytes fails with a
// *FormatError, and that the load sizes its records by the payload, not
// the claim: honoring the claim would take 24 MiB, the payload allows
// about 9.4 MiB.
func TestSourceLyingRecordCount(t *testing.T) {
	const bound = 16 << 20
	if chunkRecordsMax*unsafe.Sizeof(record{}) <= bound {
		t.Fatal("the claim fits under the bound; the case tests nothing")
	}
	data := claimingMax(t, recordTiny(t, 0, 200))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadSourceBytes("lying", data)
	runtime.ReadMemStats(&after)
	var fe *FormatError
	if !errors.As(err, &fe) || fe.Chunk != 1 {
		t.Fatalf("want a chunk-1 *FormatError, got %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= bound {
		t.Errorf("rejecting the trace allocated %d bytes, want under %d", grew, bound)
	}
}

// TestRecordedImageKeepsStaticCounts checks that a recorded image
// reports the cond, indirect and call counts and the function entries
// of the Program it was recorded from, so `trace inspect`'s image line
// describes the recording's code.
func TestRecordedImageKeepsStaticCounts(t *testing.T) {
	want := workload.MustGenerate(tinyProfile())
	src, err := LoadSourceBytes("tiny", recordTiny(t, 0, 1_000))
	if err != nil {
		t.Fatal(err)
	}
	got, err := src.Image()
	if err != nil {
		t.Fatal(err)
	}
	if got.NumCond != want.NumCond || got.NumIndirect != want.NumIndirect || got.NumCalls != want.NumCalls {
		t.Errorf("image counts cond/indirect/calls = %d/%d/%d, recorded program %d/%d/%d",
			got.NumCond, got.NumIndirect, got.NumCalls, want.NumCond, want.NumIndirect, want.NumCalls)
	}
	if !slices.Equal(got.FuncEntries, want.FuncEntries) {
		t.Errorf("image has %d function entries, recorded program %d (or their addresses differ)",
			len(got.FuncEntries), len(want.FuncEntries))
	}
}
