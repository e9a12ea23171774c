package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
	"strings"
	"testing"

	"udpsim/internal/isa"
	"udpsim/internal/workload"
)

// recordTiny captures n instructions of the tiny profile as a v2 trace.
func recordTiny(t testing.TB, salt, n uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := RecordN2(&buf, tinyProfile(), salt, n); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestV2RoundtripAgainstExecutor replays a recorded binary trace against the
// live executor it was captured from.
func TestV2RoundtripAgainstExecutor(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		p := tinyProfile()
		const n = 30_000
		data := recordTiny(t, 5, n)
		r, err := NewReader2(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if r.Workload() != p.Name || r.img.seed != p.Seed || r.Salt() != 5 {
			t.Errorf("header: %s/%#x/%d", r.Workload(), r.img.seed, r.Salt())
		}
		prog := workload.MustGenerate(p)
		live := workload.NewExecutor(prog, 5)
		for i := 0; i < n; i++ {
			rec, err := r.Read()
			if err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			want := live.Next()
			if rec.PC != want.PC() || rec.Taken != want.Taken || rec.Target != want.Target || rec.DataAddr != want.DataAddr {
				t.Fatalf("record %d: %+v vs live %+v", i, rec, want)
			}
		}
		if _, err := r.Read(); err != io.EOF {
			t.Errorf("expected EOF, got %v", err)
		}
		if r.count != n {
			t.Errorf("reader counted %d records", r.count)
		}
	})
}

// TestV2MultiChunk crosses the writer's 65536-record chunk boundary and
// checks the binary delta state survives it.
func TestV2MultiChunk(t *testing.T) {
	const n = recordsPerChunk + 5_000
	data := recordTiny(t, 0, n)
	r, err := NewReader2(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	prog := workload.MustGenerate(tinyProfile())
	live := workload.NewExecutor(prog, 0)
	for i := uint64(0); i < n; i++ {
		rec, err := r.Read()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if want := live.Next(); rec.PC != want.PC() {
			t.Fatalf("record %d: PC %v vs live %v (chunk-boundary delta state lost?)", i, rec.PC, want.PC())
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

// TestV2ImageRoundtrip verifies the embedded image of every app profile
// reconstructs the exact static code and entry the generator produced.
// -short covers only the tiny profile instead of every full-size image.
func TestV2ImageRoundtrip(t *testing.T) {
	profiles := workload.All()
	if testing.Short() {
		profiles = []workload.Profile{tinyProfile()}
	}
	for _, p := range profiles {
		t.Run(p.Name, func(t *testing.T) {
			want := workload.MustGenerate(p)
			var buf bytes.Buffer
			w, err := NewWriter2(&buf, want, 3, EncBinary)
			if err != nil {
				t.Fatal(err)
			}
			exec := workload.NewExecutor(want, 3)
			for i := 0; i < 10; i++ {
				d := exec.Next()
				if err := w.Write(Record{PC: d.PC(), Target: d.Target, DataAddr: d.DataAddr, Taken: d.Taken}); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			r, err := NewReader2(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if r.Workload() != p.Name || r.img.seed != p.Seed || r.Salt() != 3 {
				t.Errorf("header: %s/%#x/%d", r.Workload(), r.img.seed, r.Salt())
			}
			got, err := r.Image()
			if err != nil {
				t.Fatal(err)
			}
			if got.Entry() != want.Entry() {
				t.Errorf("entry %v vs %v", got.Entry(), want.Entry())
			}
			gc, wc := got.StaticCode(), want.StaticCode()
			if len(gc) != len(wc) {
				t.Fatalf("code size %d vs %d", len(gc), len(wc))
			}
			for i := range gc {
				// Site indexes the generator's behaviour metadata,
				// which a trace does not carry.
				w := wc[i]
				w.Site = 0
				if gc[i] != w {
					t.Fatalf("static instr %d: %+v vs %+v", i, gc[i], w)
				}
			}
		})
	}
}

// gzipBytes compresses b as one gzip member at level.
func gzipBytes(b []byte, level int) ([]byte, error) {
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, level)
	if err != nil {
		return nil, err
	}
	if _, err := zw.Write(b); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// imageTrace frames raw as the (gzipped) image payload of an otherwise
// empty binary-encoded trace.
func imageTrace(t testing.TB, raw []byte) []byte {
	t.Helper()
	payload, err := gzipBytes(raw, gzip.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	bw.WriteString(Magic2)
	bw.WriteByte(byte(EncBinary))
	var end [8]byte
	if err := writeChunk(bw, chunkImage, 0, payload); err != nil {
		t.Fatal(err)
	}
	if err := writeChunk(bw, chunkEnd, 0, end[:]); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeImage parses a binary image payload held in memory, as
// NewReader2 does one read from its decompressor.
func decodeImage(b []byte) (*image, error) {
	return readImage(&imageStream{b: b, total: uint64(len(b)), eof: true}, uint64(len(b)))
}

// lyingImage is an image payload whose header claims count
// instructions but which holds the bytes of only one.
func lyingImage(count uint64) []byte {
	b := []byte{imageVersion, 0, 0, 0, 0} // version, empty name, seed, salt, entry
	b = binary.AppendUvarint(b, count)
	return append(b, 0, 0, 0)
}

// TestV2ImageLyingCount checks that a few-byte image claiming millions
// of instructions is rejected before the reader allocates for them.
func TestV2ImageLyingCount(t *testing.T) {
	for _, count := range []uint64{imageInstrsMax, imageInstrsMax + 1} {
		data := imageTrace(t, lyingImage(count))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := NewReader2(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		var fe *FormatError
		if !errors.As(err, &fe) || fe.Chunk != 0 {
			t.Fatalf("count %d: want a chunk-0 *FormatError, got %v", count, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("count %d: rejecting the image allocated %d bytes", count, grew)
		}
	}
}

// wideOperandImages are one-instruction image payloads whose operands
// an isa.StaticInstr cannot hold: a target or a data address at 4 GiB,
// and an instruction with both a target and a data address.
func wideOperandImages() []struct {
	name string
	raw  []byte
} {
	instr := func(class isa.Class, kind isa.BranchKind, flags byte) []byte {
		return []byte{imageVersion, 0, 0, 0, 0, 1, byte(class), byte(kind), flags}
	}
	tooFar := int64(isa.MaxAddr + 1 - workload.ImageBase)
	both := binary.AppendVarint(instr(isa.ClassBranch, isa.BranchCond, imageHasTarget|imageHasData), 64)
	return []struct {
		name string
		raw  []byte
	}{
		{"target at 4 GiB", binary.AppendVarint(instr(isa.ClassBranch, isa.BranchUncond, imageHasTarget), tooFar)},
		{"data at 4 GiB", binary.AppendUvarint(instr(isa.ClassLoad, isa.BranchNone, imageHasData), uint64(isa.MaxAddr)+1)},
		{"target and data", binary.AppendUvarint(both, 0x1000_0000)},
	}
}

// TestV2ImageRejectsWideOperands checks that an image naming an address
// at or above 4 GiB, or giving one instruction both a target and a data
// address, fails with a chunk-0 *FormatError, alone and inside a trace.
// The largest address that fits still decodes.
func TestV2ImageRejectsWideOperands(t *testing.T) {
	for _, c := range wideOperandImages() {
		_, err := decodeImage(c.raw)
		var fe *FormatError
		if !errors.As(err, &fe) || fe.Chunk != 0 {
			t.Errorf("%s: decodeImage: want a chunk-0 *FormatError, got %v", c.name, err)
		}
		if fe := wantFormatError(t, imageTrace(t, c.raw)); fe.Chunk != 0 {
			t.Errorf("%s: trace rejected at chunk %d, want 0", c.name, fe.Chunk)
		}
	}
	top := []byte{imageVersion, 0, 0, 0, 0, 1, byte(isa.ClassLoad), byte(isa.BranchNone), imageHasData}
	img, err := decodeImage(binary.AppendUvarint(top, uint64(isa.MaxAddr)))
	if err != nil {
		t.Fatal(err)
	}
	if got := img.code[0].DataAddr(); got != isa.MaxAddr {
		t.Errorf("data address %v decoded as %v", isa.MaxAddr, got)
	}
}

// TestV2RejectsJSONImage checks that a trace recorded with the earlier
// JSON image chunk fails with a *FormatError that asks for a
// re-recording.
func TestV2RejectsJSONImage(t *testing.T) {
	raw := []byte(`{"name":"fixture","seed":0,"salt":0,"entry":4194304,"code":[{"c":0},{"c":3,"b":1,"t":4194304}]}`)
	fe := wantFormatError(t, imageTrace(t, raw))
	if fe.Chunk != 0 || !strings.Contains(fe.Reason, "re-record") {
		t.Errorf("JSON image rejected as %v, want chunk 0 asking to re-record", fe)
	}
}

// BenchmarkLoadSourceBytes decodes a fixed recording of 160k records of
// the full xgboost image, the load every trace replay pays. It reports
// the same time per record and per embedded image instruction.
func BenchmarkLoadSourceBytes(b *testing.B) {
	const records = 160_000
	var buf bytes.Buffer
	if err := RecordN2(&buf, workload.MustByName("xgboost"), 1, records); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	instrs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := LoadSourceBytes("xgboost", data)
		if err != nil {
			b.Fatal(err)
		}
		instrs = len(src.prog.StaticCode())
	}
	ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(ns/records, "ns/record")
	b.ReportMetric(ns/float64(instrs), "ns/image-instr")
}

// readAll drains a reader, returning the terminal error (nil for EOF).
func readAll(r *Reader2) error {
	for {
		if _, err := r.Read(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// wantFormatError opens data and expects decoding to fail with a
// *FormatError (at open or while draining), never a panic.
func wantFormatError(t *testing.T, data []byte) *FormatError {
	t.Helper()
	r, err := NewReader2(bytes.NewReader(data))
	if err == nil {
		err = readAll(r)
	}
	if err == nil {
		t.Fatal("corrupt trace decoded cleanly")
	}
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("error is not a *FormatError: %v", err)
	}
	return fe
}

// v2chunks splits a v2 trace into its preamble (magic + encoding byte)
// and framed chunks, using only the on-disk framing.
func v2chunks(t testing.TB, data []byte) (preamble []byte, chunks [][]byte) {
	t.Helper()
	const pre = len(Magic2) + 1
	preamble = data[:pre]
	rest := data[pre:]
	for len(rest) > 0 {
		if len(rest) < 13 {
			t.Fatalf("trailing %d bytes are not a chunk header", len(rest))
		}
		n := binary.LittleEndian.Uint32(rest[1:5])
		end := 13 + int(n)
		chunks = append(chunks, rest[:end])
		rest = rest[end:]
	}
	return preamble, chunks
}

func TestV2Corruption(t *testing.T) {
	valid := recordTiny(t, 0, recordsPerChunk+2_000) // image + 2 record chunks + end

	t.Run("truncated-header", func(t *testing.T) {
		fe := wantFormatError(t, valid[:len(valid)-6]) // end chunk header cut short
		if !errors.Is(fe, io.ErrUnexpectedEOF) {
			t.Errorf("truncation does not unwrap to ErrUnexpectedEOF: %v", fe)
		}
	})
	t.Run("truncated-payload", func(t *testing.T) {
		pre, chunks := v2chunks(t, valid)
		data := append(append([]byte{}, pre...), chunks[0][:len(chunks[0])-10]...)
		fe := wantFormatError(t, data)
		if !errors.Is(fe, io.ErrUnexpectedEOF) {
			t.Errorf("payload truncation does not unwrap to ErrUnexpectedEOF: %v", fe)
		}
	})
	t.Run("bit-flip", func(t *testing.T) {
		data := append([]byte{}, valid...)
		data[len(data)/2] ^= 0x40 // lands in a record payload
		wantFormatError(t, data)
	})
	t.Run("length-lying", func(t *testing.T) {
		pre, chunks := v2chunks(t, valid)
		bad := append([]byte{}, chunks[1]...)
		// Claim more payload than follows; CRC updated so the lie is
		// caught by framing, not checksum.
		binary.LittleEndian.PutUint32(bad[1:5], uint32(len(bad)-13)+999)
		data := append(append([]byte{}, pre...), chunks[0]...)
		data = append(data, bad...)
		wantFormatError(t, data)
	})
	t.Run("implausible-length", func(t *testing.T) {
		pre, chunks := v2chunks(t, valid)
		bad := append([]byte{}, chunks[1]...)
		binary.LittleEndian.PutUint32(bad[1:5], chunkPayloadMax+1)
		data := append(append([]byte{}, pre...), chunks[0]...)
		data = append(data, bad...)
		fe := wantFormatError(t, data)
		if fe.Chunk != 1 {
			t.Errorf("failure attributed to chunk %d, want 1", fe.Chunk)
		}
	})
	t.Run("implausible-record-count", func(t *testing.T) {
		pre, chunks := v2chunks(t, valid)
		bad := append([]byte{}, chunks[1]...)
		binary.LittleEndian.PutUint32(bad[5:9], chunkRecordsMax+1)
		binary.LittleEndian.PutUint32(bad[9:13], crc32.ChecksumIEEE(bad[13:]))
		data := append(append([]byte{}, pre...), chunks[0]...)
		data = append(data, bad...)
		wantFormatError(t, data)
	})
	t.Run("lost-chunk", func(t *testing.T) {
		pre, chunks := v2chunks(t, valid)
		if len(chunks) != 4 {
			t.Fatalf("expected image+2 record+end chunks, got %d", len(chunks))
		}
		// Drop the second record chunk: every remaining chunk is
		// internally valid, so only the end-chunk total can notice.
		data := append([]byte{}, pre...)
		data = append(data, chunks[0]...)
		data = append(data, chunks[1]...)
		data = append(data, chunks[3]...)
		fe := wantFormatError(t, data)
		if !bytes.Contains([]byte(fe.Reason), []byte("count mismatch")) {
			t.Errorf("lost chunk not caught by trailer count: %v", fe)
		}
	})
	t.Run("garbage-after-magic", func(t *testing.T) {
		data := append([]byte(Magic2), 0)
		data = append(data, []byte("pure garbage, not a chunk at all")...)
		wantFormatError(t, data)
	})
}

func TestV2BadPreamble(t *testing.T) {
	if _, err := NewReader2(bytes.NewReader([]byte("UDPT9\n\x00"))); err == nil {
		t.Error("bad magic accepted")
	}
	// Byte 1 was the JSONL record encoding.
	for _, pre := range []string{Magic2 + "\x7f", Magic2 + "\x01"} {
		_, err := NewReader2(bytes.NewReader([]byte(pre)))
		if err == nil || !strings.Contains(err.Error(), "encoding") {
			t.Errorf("encoding byte %#x: want an error naming the encoding, got %v", pre[len(Magic2)], err)
		}
	}
}

func TestV2WriteAfterFlushFails(t *testing.T) {
	prog := workload.MustGenerate(tinyProfile())
	w, err := NewWriter2(io.Discard, prog, 0, EncBinary)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Record{}); err == nil {
		t.Error("write after flush succeeded")
	}
}

func TestV2CompressionDensity(t *testing.T) {
	const n = 50_000
	data := recordTiny(t, 0, n)
	// The embedded image has a fixed cost; amortized over a real
	// recording the per-record cost stays a few bytes.
	perInstr := float64(len(data)) / n
	if perInstr > 8 {
		t.Errorf("%.2f bytes/instr — chunked delta compression broken", perInstr)
	}
}

func TestSourceLoadAndStream(t *testing.T) {
	const n = 5_000
	data := recordTiny(t, 7, n)
	src, err := LoadSourceBytes("tiny", data)
	if err != nil {
		t.Fatal(err)
	}
	if src.Name() != "tiny" || src.Salt() != 7 || src.Len() != n {
		t.Errorf("source: %s/%d/%d", src.Name(), src.Salt(), src.Len())
	}
	if len(src.SHA256()) != 64 || src.Key() != "trace:"+src.SHA256() {
		t.Errorf("key: %s", src.Key())
	}
	if _, err := src.Stream(8); err == nil {
		t.Error("stream at a foreign salt accepted")
	}
	st, err := src.Stream(7)
	if err != nil {
		t.Fatal(err)
	}
	prog := workload.MustGenerate(tinyProfile())
	live := workload.NewExecutor(prog, 7)
	for i := 0; i < n; i++ {
		a, b := st.Next(), live.Next()
		if a.PC() != b.PC() || a.Taken != b.Taken || a.Target != b.Target || a.DataAddr != b.DataAddr {
			t.Fatalf("stream mismatch at %d", i)
		}
		if a.Seq != uint64(i+1) {
			t.Fatalf("Seq %d at %d", a.Seq, i)
		}
		if a.Static == nil {
			t.Fatalf("record %d has no static context", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic past end of trace")
		}
	}()
	st.Next()
}

func TestSourceRejectsEmptyTrace(t *testing.T) {
	data := recordTiny(t, 0, 1)
	pre, chunks := v2chunks(t, data)
	// Image + end(total 0): structurally valid, zero records.
	var end [8]byte
	var hdr [13]byte
	hdr[0] = chunkEnd
	binary.LittleEndian.PutUint32(hdr[1:5], 8)
	binary.LittleEndian.PutUint32(hdr[9:13], crc32.ChecksumIEEE(end[:]))
	empty := append(append([]byte{}, pre...), chunks[0]...)
	empty = append(empty, hdr[:]...)
	empty = append(empty, end[:]...)
	if _, err := LoadSourceBytes("empty", empty); err == nil {
		t.Error("empty trace loaded as a source")
	}
}
