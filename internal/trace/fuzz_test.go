package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"udpsim/internal/isa"
	"udpsim/internal/workload"
)

// traceSeeds are the fuzz seeds for the UDPT2 decoders: a valid trace,
// the same trace with a many-member image and with the former JSONL
// encoding byte, and truncated, bit-flipped, length-lying and
// count-lying ones. valid is the trace they derive from.
func traceSeeds(f *testing.F) (valid []byte, seeds [][]byte) {
	p := workload.MustByName("postgres")
	p.Funcs = 20
	p.DispatchTargets = 10
	var buf bytes.Buffer
	if err := RecordN2(&buf, p, 0, 200); err != nil {
		f.Fatal(err)
	}
	valid = buf.Bytes()
	jsonlByte := append([]byte{}, valid...)
	jsonlByte[len(Magic2)] = 1
	flipped := append([]byte{}, valid...)
	flipped[len(flipped)/2] ^= 0x10
	// Length-lying chunk header: huge claimed payload.
	lying := append([]byte{}, valid[:len(Magic2)+1+13]...)
	for i := len(Magic2) + 2; i < len(Magic2)+1+5; i++ {
		lying[i] = 0xff
	}
	return valid, [][]byte{
		valid,
		jsonlByte,
		smallMembers(f, valid), // image as many gzip members
		valid[:len(valid)/2],   // truncated
		[]byte(Magic2),         // preamble only
		[]byte("not a trace at all, definitely"),
		flipped,
		lying,
		// Image header claiming imageInstrsMax instructions in a few
		// bytes.
		imageTrace(f, lyingImage(imageInstrsMax)),
	}
}

// FuzzReader2 feeds arbitrary bytes to the UDPT2 decoder: whatever the
// chunk headers claim, it must never panic or allocate unboundedly, and
// every rejection must be a structured error (*FormatError past the
// preamble). (Seeds run as part of the normal test suite;
// `go test -fuzz=FuzzReader2 ./internal/trace` explores further.)
func FuzzReader2(f *testing.F) {
	_, seeds := traceSeeds(f)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader2(bytes.NewReader(data))
		if err != nil {
			return // rejected preamble/image: fine, as long as it's an error
		}
		count := uint64(0)
		for {
			_, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				var fe *FormatError
				if !errors.As(err, &fe) {
					t.Errorf("body rejection is not a *FormatError: %v", err)
				}
				break
			}
			count++
			if count > 1_000_000 {
				t.Fatal("decoder runaway")
			}
		}
		if r.count != count {
			t.Errorf("reader counted %d records, decoded %d", r.count, count)
		}
	})
}

// FuzzLoadSourceBytes feeds arbitrary bytes to the trace loader: it
// must return a Source or an error, never panic, and a Source it
// returns must replay all Len() records, each an image instruction, in
// sequence.
func FuzzLoadSourceBytes(f *testing.F) {
	valid, seeds := traceSeeds(f)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Add(claimingMax(f, valid))
	f.Add(strayPCTrace(f, workload.ImageBase-isa.InstrBytes))
	for _, c := range wideOperandImages() {
		f.Add(imageTrace(f, c.raw))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src, err := LoadSourceBytes("fuzz", data)
		if err != nil {
			return
		}
		st := mustStream(t, src)
		for i := uint64(0); i < src.Len(); i++ {
			d := st.Next()
			if d.Seq != i+1 || src.prog.InstrAt(d.PC()) != d.Static {
				t.Fatalf("record %d of %d replays as %+v", i, src.Len(), d)
			}
		}
	})
}

// FuzzRoundtrip checks that any PC/flag sequence encodes and decodes
// identically.
func FuzzRoundtrip(f *testing.F) {
	f.Add(uint32(0x400000), uint32(0x400100), true)
	f.Add(uint32(0), uint32(4), false)
	f.Add(uint32(1<<31), uint32(12), true)
	prog := workload.MustGenerate(tinyProfile())
	f.Fuzz(func(t *testing.T, pc, tgt uint32, taken bool) {
		rec := Record{
			PC:     isa.Addr(pc) &^ 3,
			Target: isa.Addr(tgt) &^ 3,
			Taken:  taken,
		}
		if got := roundtrip(t, prog, []Record{rec})[0]; got != encoded(rec) {
			t.Errorf("roundtrip %+v → %+v", encoded(rec), got)
		}
	})
}

// FuzzImage feeds arbitrary bytes to the image payload decoder: it must
// reject them with a *FormatError or return an image that re-encodes to
// exactly the same bytes.
func FuzzImage(f *testing.F) {
	prog := fixtureProgram(f)
	valid := appendImage(nil, &image{name: "fixture", seed: 1 << 40, salt: 3, entry: prog.Entry(), code: prog.StaticCode()})
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(lyingImage(imageInstrsMax))
	f.Add([]byte(`{"name":"fixture","code":[]}`))
	f.Add([]byte{imageVersion, 0x80, 0x00, 0, 0, 0, 0}) // padded name length
	// Flagged target and data address that decode to 0, which encodes
	// as "absent".
	branch := []byte{imageVersion, 0, 0, 0, 0, 1, byte(isa.ClassBranch), byte(isa.BranchUncond), imageHasTarget}
	f.Add(binary.AppendVarint(branch, -int64(workload.ImageBase)))
	f.Add([]byte{imageVersion, 0, 0, 0, 0, 1, byte(isa.ClassLoad), byte(isa.BranchNone), imageHasData, 0})
	for _, c := range wideOperandImages() {
		f.Add(c.raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := decodeImage(data)
		if err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Errorf("rejection is not a *FormatError: %v", err)
			}
			return
		}
		if got := appendImage(nil, img); !bytes.Equal(got, data) {
			t.Errorf("image re-encodes to %x, decoded from %x", got, data)
		}
	})
}
