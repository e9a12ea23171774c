package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"udpsim/internal/isa"
	"udpsim/internal/workload"
)

// Source is a fully decoded UDPT2 trace presented as a workload.Source:
// the embedded image plus the recorded dynamic stream, keyed by the
// SHA-256 of the trace file content. LoadSourceBytes decodes the whole
// trace up front, so Stream()s replay with zero allocation per
// instruction (the Machine.Step zero-alloc invariant) and random access
// (frontend's ring-free direct oracle mode) is an index.
//
// Each record is held in 24 bytes: the index of its instruction in the
// image and the three fields the run resolved. The replay cursor
// rebuilds the 40-byte isa.DynInstr from them, with a Static pointer
// into the shared image and Seq from the record's position, so a
// 10M-instruction region takes 240 MB. The record array is allocated
// once, at its exact length, from the chunk headers' record counts; a
// hostile header cannot claim more records than its chunk's compressed
// payload can inflate to. A record whose PC is outside the image is a
// *FormatError (Writer2 never writes one).
//
// A load costs about 110 ns per embedded image instruction plus 65 ns
// per record on a 2-core x86-64 host: BenchmarkLoadSourceBytes, 160k
// records of the 852k-instruction xgboost image, takes ~0.1 s, most of
// it the image.
type Source struct {
	name string
	sha  string // hex SHA-256 of the raw file content
	salt uint64
	prog *workload.Program
	recs []record
}

// record is one decoded trace record. The instruction's image index
// stands in for DynInstr.Static, and Seq is the record's position plus
// one, so neither is stored.
type record struct {
	idx      uint32
	taken    bool
	target   isa.Addr
	dataAddr isa.Addr
}

var _ workload.Source = (*Source)(nil)

// LoadSource reads and decodes a UDPT2 trace file. The default name is
// the file's base name without extension; override with SetName.
func LoadSource(path string) (*Source, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	return LoadSourceBytes(name, data)
}

// LoadSourceBytes decodes a UDPT2 trace from memory.
func LoadSourceBytes(name string, data []byte) (*Source, error) {
	sum := sha256.Sum256(data)
	r, err := NewReader2(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	prog, err := r.Image()
	if err != nil {
		return nil, err
	}
	recs := make([]record, claimedRecords(data))
	n := 0
	for ; ; n++ {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		idx, ok := prog.Index(rec.PC)
		if !ok {
			return nil, &FormatError{Chunk: r.chunk - 1, Reason: fmt.Sprintf("record %d: pc %#x is outside the embedded image", n, uint64(rec.PC))}
		}
		if n == len(recs) {
			return nil, &FormatError{Chunk: r.chunk - 1, Reason: fmt.Sprintf("more than the %d records the chunk headers claim", n)}
		}
		recs[n] = record{idx: uint32(idx), taken: rec.Taken, target: rec.Target, dataAddr: rec.DataAddr}
	}
	if n == 0 {
		return nil, fmt.Errorf("trace: %s holds no records", name)
	}
	return &Source{
		name: name,
		sha:  hex.EncodeToString(sum[:]),
		salt: r.Salt(),
		prog: prog,
		recs: recs[:n],
	}, nil
}

// deflateRatioMax is the most a deflate stream can inflate: 258 bytes
// for every two bits.
const deflateRatioMax = 1032

// claimedRecords sums the record counts the record-chunk headers of a
// trace claim, walking only the framing: from the chunk after the image,
// which NewReader2 has accepted, up to the first chunk that is not a
// plausible record chunk. Every record decodes from at least one byte,
// so a chunk is credited with no more records than deflateRatioMax
// times its compressed payload. For a valid trace the sum is the exact
// record count, which the end chunk's total must also equal.
func claimedRecords(data []byte) int {
	b := data[len(Magic2)+1:]
	b = b[chunkHeaderLen+int(binary.LittleEndian.Uint32(b[1:5])):]
	total := 0
	for len(b) >= chunkHeaderLen && b[0] == chunkRecords {
		n, records := binary.LittleEndian.Uint32(b[1:5]), binary.LittleEndian.Uint32(b[5:9])
		if n > chunkPayloadMax || records > chunkRecordsMax || uint64(n) > uint64(len(b)-chunkHeaderLen) {
			break
		}
		total += int(min(uint64(records), deflateRatioMax*uint64(n)))
		b = b[chunkHeaderLen+int(n):]
	}
	return total
}

// Name returns the workload label.
func (s *Source) Name() string { return s.name }

// SetName overrides the workload label (descriptors name their traces).
func (s *Source) SetName(name string) { s.name = name }

// SHA256 returns the hex content hash.
func (s *Source) SHA256() string { return s.sha }

// Key returns the cache identity, "trace:" + content hash.
func (s *Source) Key() string { return "trace:" + s.sha }

// Salt returns the executor salt the trace was recorded at.
func (s *Source) Salt() uint64 { return s.salt }

// Len returns the number of recorded instructions.
func (s *Source) Len() uint64 { return uint64(len(s.recs)) }

// Image returns the embedded static image (shared across machines).
func (s *Source) Image() (*workload.Program, error) { return s.prog, nil }

// Stream returns a fresh replay cursor. A trace is one recording, so
// only the recorded salt is valid: simpoint fan-out over a trace is a
// configuration error caught here rather than a silently wrong stream.
func (s *Source) Stream(seedSalt uint64) (workload.Stream, error) {
	if seedSalt != s.salt {
		return nil, fmt.Errorf("trace: %s was recorded at salt %d; cannot replay at salt %d (traces support a single simpoint)",
			s.name, s.salt, seedSalt)
	}
	return &sourceStream{recs: s.recs, code: s.prog.StaticCode(), name: s.name}, nil
}

// sourceStream replays the decoded records. It implements both the
// sequential frontend.InstrSource protocol (Next) and random access
// (At), which puts the oracle in ring-free direct mode. It has no
// cancellation of its own: a run stops between strides of the machine's
// cycle loop (sim.Machine.RunCtx), whatever feeds the oracle.
type sourceStream struct {
	recs []record
	code []isa.StaticInstr // the shared image the records index
	pos  uint64
	name string
}

// At implements frontend.RandomAccessSource.
func (s *sourceStream) At(i uint64) isa.DynInstr {
	if i >= uint64(len(s.recs)) {
		panic(fmt.Sprintf("trace: %s replay past end of trace (%d records, want %d); record a longer region (simulation length + oracle runahead margin)",
			s.name, len(s.recs), i+1))
	}
	r := &s.recs[i]
	return isa.DynInstr{
		Static:   &s.code[r.idx],
		Taken:    r.taken,
		Target:   r.target,
		DataAddr: r.dataAddr,
		Seq:      i + 1, // Seq is 1-based, matching the executor
	}
}

// Next implements frontend.InstrSource.
func (s *sourceStream) Next() isa.DynInstr {
	d := s.At(s.pos)
	s.pos++
	return d
}

// RunAhead is the slack, in records, a trace must hold past the end of
// the replayed region: the frontend's oracle fetches ahead of
// retirement, up to frontend.OracleWindow instructions.
const RunAhead = 10_000

// FitRegion sizes the measured region for replaying a trace of length
// records after warmup instructions, leaving RunAhead records spare:
// it returns instrs, cut down to the longest region that fits, or that
// longest region when instrs is 0. It fails when warmup and the margin
// leave no room at all.
func FitRegion(length, warmup, instrs uint64) (uint64, error) {
	if length <= warmup+RunAhead {
		return 0, fmt.Errorf("trace: %d records leave no measured region after %d warmup and the %d-record run-ahead margin",
			length, warmup, RunAhead)
	}
	if room := length - warmup - RunAhead; instrs == 0 || instrs > room {
		return room, nil
	}
	return instrs, nil
}
