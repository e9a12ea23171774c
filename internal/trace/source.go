package trace

import (
	"bytes"
	"crypto/sha256"
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
// SHA-256 of the trace file content. Decoding happens once at load —
// the stream is materialized into a flat []isa.DynInstr whose Static
// pointers alias the shared image, so Stream()s replay with zero
// allocation per instruction (the Machine.Step zero-alloc invariant)
// and random access (frontend's ring-free direct oracle mode) is an
// index.
type Source struct {
	name string
	sha  string // hex SHA-256 of the raw file content
	salt uint64
	prog *workload.Program
	recs []isa.DynInstr
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
	var recs []isa.DynInstr
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, isa.DynInstr{
			Static:   prog.InstrAt(rec.PC),
			Taken:    rec.Taken,
			Target:   rec.Target,
			DataAddr: rec.DataAddr,
			Seq:      uint64(len(recs)) + 1, // Seq is 1-based, matching the executor
		})
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("trace: %s holds no records", name)
	}
	return &Source{
		name: name,
		sha:  hex.EncodeToString(sum[:]),
		salt: r.Salt(),
		prog: prog,
		recs: recs,
	}, nil
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
	return &sourceStream{recs: s.recs, name: s.name}, nil
}

// sourceStream replays the materialized records. It implements both the
// sequential frontend.InstrSource protocol (Next) and random access
// (At), which puts the oracle in ring-free direct mode. It has no
// cancellation of its own: a run stops between strides of the machine's
// cycle loop (sim.Machine.RunCtx), whatever feeds the oracle.
type sourceStream struct {
	recs []isa.DynInstr
	pos  uint64
	name string
}

// At implements frontend.RandomAccessSource.
func (s *sourceStream) At(i uint64) isa.DynInstr {
	if i >= uint64(len(s.recs)) {
		panic(fmt.Sprintf("trace: %s replay past end of trace (%d records, want %d); record a longer region (simulation length + oracle runahead margin)",
			s.name, len(s.recs), i+1))
	}
	return s.recs[i]
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
