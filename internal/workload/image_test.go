package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"udpsim/internal/isa"
)

// imageDigest hashes everything Generate decides about an image: every
// instruction's PC, Class, Branch, Target and DataAddr; Entry,
// FuncEntries, DispatchPC and the static counts; and all cond and
// indirect metadata in PC order. Two programs with equal digests walk,
// execute and trace-record identically.
func imageDigest(pr *Program) string {
	h := sha256.New()
	var buf []byte
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	flush := func() {
		h.Write(buf)
		buf = buf[:0]
	}

	u64(uint64(len(pr.code)))
	u64(uint64(pr.Entry()))
	u64(uint64(pr.DispatchPC()))
	u64(uint64(pr.NumCond))
	u64(uint64(pr.NumIndirect))
	u64(uint64(pr.NumCalls))
	u64(uint64(len(pr.FuncEntries)))
	for _, a := range pr.FuncEntries {
		u64(uint64(a))
	}
	u64(uint64(len(pr.condTab)))
	u64(uint64(len(pr.indirectTab)))
	flush()
	for i := range pr.code {
		si := &pr.code[i]
		u64(uint64(si.PC()))
		buf = append(buf, byte(si.Class), byte(si.Branch))
		u64(uint64(si.Target()))
		u64(uint64(si.DataAddr()))
		if m := pr.CondMetaAt(si.PC()); m != nil {
			buf = append(buf, 'c', byte(m.Behavior))
			u64(uint64(m.Idx))
			f64(m.PTaken)
			u64(uint64(m.Period))
			u64(m.PatternBits)
			u64(uint64(m.Trip))
			u64(uint64(m.TripJitter))
		}
		if m := pr.IndirectMetaAt(si.PC()); m != nil {
			buf = append(buf, 'i')
			u64(uint64(len(m.Targets)))
			for _, a := range m.Targets {
				u64(uint64(a))
			}
			u64(uint64(len(m.Cum)))
			for _, c := range m.Cum {
				f64(c)
			}
		}
		if len(buf) >= 1<<16 {
			flush()
		}
	}
	flush()
	return hex.EncodeToString(h.Sum(nil))
}

// imageDigests pins the SHA-256 of every profile's generated image. An
// edit to the generator that changes any emitted instruction, address or
// behaviour draw changes a digest here; an edit meant to be a pure
// speed-up must leave every line alone.
var imageDigests = map[string]string{
	"mysql":                "d925d766ddf8cdac603d84749e6e9cfdda17aec9ba99368a125274b9d0959044",
	"postgres":             "dca4e9d321997c89267778f042640e6a8e63b98b88e96f567f8c295eacb95d8e",
	"clang":                "cc0047770fe84bcb433c900609c107d492c79946b87f1e2b3cf066d010aecc35",
	"gcc":                  "04e3944004338935c4af51deac4602d7f34bf701b32f7462254a4825d2ca972b",
	"drupal":               "875450e19addf712350523887fecda9e746d9c7d3aa68ee8f754b567f15db81d",
	"verilator":            "796765cdb29153b6e21a8343568f817fa1c8618df52473517bb03bde9460ff33",
	"mongodb":              "0779e96ec0f874218da16a880bcc362cab5b90887af24ec9318837cefac4d890",
	"tomcat":               "66372bcd0a752bdfb70561b544d4b84cd9ffae3c6367141a014b4f87fc6e84f6",
	"xgboost":              "0f5f1cfb161d605f5cde4370c03128ad685538a0001856a681b7eb5b8412b590",
	"mediawiki":            "dabd4d0cc2e3e35d1e7908ce12e40439f3e11b68d7a0b167f9c200cb7fee7299",
	"interpreter-dispatch": "cc3d83e3ffb66e2dfba81280745414699f3a638634cd1dd7a21919c94c912a3e",
	"jit-churn":            "2a3dd272b43d2628f9b9fc1f8e85ca2fab23c9c91a0ff7c3e9e9325bfe3dc367",
	"rpc-storm":            "5b47cf22e6faab37d9f2d968da76dd0908e6c6493477f13a72e9c8f8a79ec3e6",
}

// TestImageDigestPinned guards that image generation is byte-for-byte
// stable for the paper's ten apps and the extended corpus.
func TestImageDigestPinned(t *testing.T) {
	profiles := append(All(), Extras()...)
	if testing.Short() {
		profiles = []Profile{MustByName("postgres"), MustByName("rpc-storm")}
	}
	for _, p := range profiles {
		got := imageDigest(MustGenerate(p))
		if want := imageDigests[p.Name]; got != want {
			t.Errorf("%s: image digest %s, want %s", p.Name, got, want)
		}
	}
}

// TestGenerateAllocBound holds image generation to one exact-size code
// array: Generate(xgboost) may allocate less than twice its final image
// bytes in total (the array once, plus the behaviour metadata), which a
// builder that regrows the array by append cannot meet. Every profile's
// kept image must carry no spare capacity.
func TestGenerateAllocBound(t *testing.T) {
	p := MustByName("xgboost")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	prog := MustGenerate(p)
	runtime.ReadMemStats(&after)
	imageBytes := uint64(prog.Size()) * uint64(unsafe.Sizeof(isa.StaticInstr{}))
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2*imageBytes {
		t.Errorf("Generate(%s) allocated %d bytes for a %d-byte image (%.2fx, want < 2x)",
			p.Name, got, imageBytes, float64(got)/float64(imageBytes))
	}

	profiles := append(All(), Extras()...)
	if testing.Short() {
		profiles = []Profile{MustByName("postgres"), MustByName("rpc-storm")}
	}
	for _, p := range profiles {
		prog := MustGenerate(p)
		if c, n := cap(prog.StaticCode()), prog.Size(); c != n {
			t.Errorf("%s: image cap %d, len %d", p.Name, c, n)
		}
	}
}

// TestGenerateShardInvariant checks that the build pass lays out the
// same image however many shards it is split into: every built-in
// profile and the tiny test profile, built at 2, 3 and 8 shards, match
// the one-shard build in code, site tables, function entries, static
// counts, entry and dispatch PC.
func TestGenerateShardInvariant(t *testing.T) {
	profiles := append(append(All(), Extras()...), tinyProfile())
	for _, p := range profiles {
		want, err := generate(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 3, 8} {
			got, err := generate(p, shards)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range []struct {
				what string
				same bool
			}{
				{"code", slices.Equal(got.code, want.code)},
				{"cond sites", slices.Equal(got.condTab, want.condTab)},
				{"indirect sites", reflect.DeepEqual(got.indirectTab, want.indirectTab)},
				{"function entries", slices.Equal(got.FuncEntries, want.FuncEntries)},
				{"static counts", got.NumCond == want.NumCond && got.NumIndirect == want.NumIndirect && got.NumCalls == want.NumCalls},
				{"entry", got.entry == want.entry},
				{"dispatch pc", got.dispatchPC == want.dispatchPC},
			} {
				if !d.same {
					t.Errorf("%s at %d shards: %s differ from the one-shard build", p.Name, shards, d.what)
				}
			}
		}
	}
}
