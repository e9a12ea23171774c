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

// FuzzReader2 feeds arbitrary bytes to the UDPT2 decoder: whatever the
// chunk headers claim, it must never panic or allocate unboundedly, and
// every rejection must be a structured error (*FormatError past the
// preamble). (Seeds run as part of the normal test suite;
// `go test -fuzz=FuzzReader2 ./internal/trace` explores further.)
func FuzzReader2(f *testing.F) {
	p := workload.MustByName("postgres")
	p.Funcs = 20
	p.DispatchTargets = 10
	var validBin, validJSONL bytes.Buffer
	if err := RecordN2(&validBin, p, 0, 200, EncBinary); err != nil {
		f.Fatal(err)
	}
	if err := RecordN2(&validJSONL, p, 0, 200, EncJSONL); err != nil {
		f.Fatal(err)
	}
	f.Add(validBin.Bytes())
	f.Add(validJSONL.Bytes())
	f.Add(smallMembers(f, validBin.Bytes()))   // image as many gzip members
	f.Add(validBin.Bytes()[:validBin.Len()/2]) // truncated
	f.Add([]byte(Magic2))                      // preamble only
	f.Add([]byte("not a trace at all, definitely"))
	flipped := append([]byte{}, validBin.Bytes()...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	// Length-lying chunk header: huge claimed payload.
	lying := append([]byte{}, validBin.Bytes()[:len(Magic2)+1+13]...)
	for i := len(Magic2) + 2; i < len(Magic2)+1+5; i++ {
		lying[i] = 0xff
	}
	f.Add(lying)
	// Image header claiming imageInstrsMax instructions in a few bytes.
	f.Add(imageTrace(f, lyingImage(imageInstrsMax)))

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
		if r.Count() != count {
			t.Errorf("Count() = %d, decoded %d", r.Count(), count)
		}
	})
}

// FuzzRoundtrip checks that any PC/flag sequence encodes and decodes
// identically in both record encodings.
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
		for _, enc := range []Encoding{EncBinary, EncJSONL} {
			if got := roundtrip(t, prog, enc, []Record{rec})[0]; got != encoded(rec, enc) {
				t.Errorf("%v roundtrip %+v → %+v", enc, encoded(rec, enc), got)
			}
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
