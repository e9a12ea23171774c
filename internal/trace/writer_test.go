package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"runtime"
	"testing"

	"udpsim/internal/workload"
)

// gzipMembers counts the gzip members of payload.
func gzipMembers(t testing.TB, payload []byte) int {
	t.Helper()
	src := bytes.NewReader(payload)
	zr, err := gzip.NewReader(src)
	if err != nil {
		t.Fatal(err)
	}
	zr.Multistream(false)
	n := 0
	for {
		if _, err := io.Copy(io.Discard, zr); err != nil {
			t.Fatal(err)
		}
		n++
		if err := zr.Reset(src); err == io.EOF {
			return n
		} else if err != nil {
			t.Fatal(err)
		}
		zr.Multistream(false)
	}
}

// reframe rebuilds a v2 trace chunk by chunk: each image or record
// payload is decompressed and handed to recompress, whose result
// becomes the chunk's new payload. The end chunk passes through.
func reframe(t testing.TB, data []byte, recompress func(typ byte, raw []byte) []byte) []byte {
	t.Helper()
	pre, chunks := v2chunks(t, data)
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	bw.Write(pre)
	for _, c := range chunks {
		typ, payload := c[0], c[13:]
		if typ == chunkEnd {
			bw.Write(c)
			continue
		}
		raw, err := new(Reader2).gunzip(payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeChunk(bw, typ, binary.LittleEndian.Uint32(c[5:9]), recompress(typ, raw)); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// legacyLayout re-compresses a trace the way writers before the
// segmented image did: the image as one gzip member at BestSpeed,
// record chunks at the default level. The decompressed bytes, and so
// the trace's content, are unchanged.
func legacyLayout(t testing.TB, data []byte) []byte {
	return reframe(t, data, func(typ byte, raw []byte) []byte {
		level := gzip.DefaultCompression
		if typ == chunkImage {
			level = gzip.BestSpeed
		}
		z, err := gzipBytes(raw, level)
		if err != nil {
			t.Fatal(err)
		}
		return z
	})
}

// smallMembers re-compresses a trace's image as one gzip member per 64
// instructions, so even a small image spans many members.
func smallMembers(t testing.TB, data []byte) []byte {
	return reframe(t, data, func(typ byte, raw []byte) []byte {
		if typ != chunkImage {
			z, err := gzipBytes(raw, gzip.BestSpeed)
			if err != nil {
				t.Fatal(err)
			}
			return z
		}
		img, err := decodeImage(raw)
		if err != nil {
			t.Fatal(err)
		}
		return gzipImage(img, 64)
	})
}

// TestV2ImageMembers checks that the image chunk is one gzip member per
// imageSegmentInstrs instructions and that the reader decompresses the
// members to exactly the single-pass header+instructions encoding. A
// 64-instruction segment size puts many members on every image, -short
// included, which covers only the tiny profile.
func TestV2ImageMembers(t *testing.T) {
	profiles := workload.All()
	if testing.Short() {
		profiles = []workload.Profile{tinyProfile()}
	}
	for _, p := range profiles {
		t.Run(p.Name, func(t *testing.T) {
			prog := workload.MustGenerate(p)
			img := programImage(prog, 3)
			want := appendImage(nil, img)
			var buf bytes.Buffer
			w, err := NewWriter2(&buf, prog, 3, EncBinary)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			_, chunks := v2chunks(t, buf.Bytes())
			payload := chunks[0][13:]
			segments := (len(img.code) + imageSegmentInstrs - 1) / imageSegmentInstrs
			if got := gzipMembers(t, payload); got != segments {
				t.Errorf("image chunk holds %d gzip members, want %d", got, segments)
			}
			got, err := new(Reader2).gunzip(payload)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("image chunk decompresses to %d bytes that differ from the %d-byte single-pass encoding", len(got), len(want))
			}

			small := gzipImage(img, 64)
			if got := gzipMembers(t, small); got != (len(img.code)+63)/64 {
				t.Errorf("64-instruction segments: %d members for %d instrs", got, len(img.code))
			}
			if got, err := new(Reader2).gunzip(small); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("64-instruction members decompress to %d bytes (err %v), want the %d-byte single-pass encoding", len(got), err, len(want))
			}
		})
	}
}

// TestV2BytesIndependentOfGOMAXPROCS records the same trace with one
// and with four image workers: the bytes must be identical. The
// postgres image spans two segments.
func TestV2BytesIndependentOfGOMAXPROCS(t *testing.T) {
	p := workload.MustByName("postgres")
	record := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var buf bytes.Buffer
		if err := RecordN2(&buf, p, 1, 2_000); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one, four := record(1), record(4)
	_, chunks := v2chunks(t, one)
	if got := gzipMembers(t, chunks[0][13:]); got < 2 {
		t.Fatalf("postgres image is %d gzip member(s); the test needs several", got)
	}
	if !bytes.Equal(one, four) {
		t.Errorf("trace bytes differ: %d bytes at GOMAXPROCS(1), %d at GOMAXPROCS(4)", len(one), len(four))
	}
}

// TestV2LoadsEveryImageLayout loads one recording in three
// compressions — as written, in the layout writers used before the
// segmented image (one image member at BestSpeed, record chunks at the
// default level), and with a 64-instruction member per image segment —
// and requires the same image and records from each.
func TestV2LoadsEveryImageLayout(t *testing.T) {
	data := recordTiny(t, 2, recordsPerChunk+3_000)
	want, err := LoadSourceBytes("tiny", data)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		data    []byte
		members int
	}{
		{"legacy", legacyLayout(t, data), 1},
		{"small-members", smallMembers(t, data), (want.prog.Size() + 63) / 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if bytes.Equal(tc.data, data) {
				t.Fatal("layout is byte-identical to the writer's own; the case tests nothing")
			}
			_, chunks := v2chunks(t, tc.data)
			if got := gzipMembers(t, chunks[0][13:]); got != tc.members {
				t.Fatalf("image chunk holds %d gzip members, want %d", got, tc.members)
			}
			got, err := LoadSourceBytes("tiny", tc.data)
			if err != nil {
				t.Fatal(err)
			}
			gp, wp := got.prog.Profile(), want.prog.Profile()
			if got.Salt() != want.Salt() || got.prog.Entry() != want.prog.Entry() || gp.Name != wp.Name || gp.Seed != wp.Seed {
				t.Errorf("header: %s/%#x salt %d entry %v, want %s/%#x salt %d entry %v",
					gp.Name, gp.Seed, got.Salt(), got.prog.Entry(), wp.Name, wp.Seed, want.Salt(), want.prog.Entry())
			}
			gc, wc := got.prog.StaticCode(), want.prog.StaticCode()
			if len(gc) != len(wc) {
				t.Fatalf("image has %d instrs, want %d", len(gc), len(wc))
			}
			for i := range gc {
				if gc[i] != wc[i] {
					t.Fatalf("static instr %d: %+v, want %+v", i, gc[i], wc[i])
				}
			}
			if got.Len() != want.Len() {
				t.Fatalf("%d records, want %d", got.Len(), want.Len())
			}
			gs, ws := mustStream(t, got), mustStream(t, want)
			for i := uint64(0); i < got.Len(); i++ {
				g, w := gs.Next(), ws.Next()
				if g.PC() != w.PC() || g.Taken != w.Taken || g.Target != w.Target || g.DataAddr != w.DataAddr || g.Seq != w.Seq {
					t.Fatalf("record %d: %+v, want %+v", i, g, w)
				}
			}
		})
	}
}

// BenchmarkWriter2 records the full xgboost image plus 160k records,
// the encode half of BenchmarkLoadSourceBytes. It reports the same
// time per record and per embedded image instruction.
func BenchmarkWriter2(b *testing.B) {
	const records = 160_000
	prog := workload.MustGenerate(workload.MustByName("xgboost"))
	exec := workload.NewExecutor(prog, 1)
	recs := make([]Record, records)
	for i := range recs {
		d := exec.Next()
		recs[i] = Record{PC: d.PC(), Target: d.Target, DataAddr: d.DataAddr, Taken: d.Taken}
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		w, err := NewWriter2(&buf, prog, 1, EncBinary)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(ns/records, "ns/record")
	b.ReportMetric(ns/float64(prog.Size()), "ns/image-instr")
}
