package workload

import (
	"fmt"
	"sync"

	"udpsim/internal/isa"
)

// A Tape records the architectural (on-path) instruction stream of one
// executor exactly once and replays it to any number of readers — the
// substrate of batched lockstep simulation, where K config variants
// sweep over one workload image and would otherwise each re-execute the
// identical deterministic stream. Records live in fixed-size chunks;
// chunks every reader has fully moved past (beyond any possible rewind)
// are released, so memory stays proportional to the cursor spread of
// the reader group rather than the run length.
//
// Readers must all be created (Reader) before any of them starts
// consuming; a reader joining after trimming has begun would start
// inside released history.
const (
	tapeChunkShift = 14
	tapeChunkSize  = 1 << tapeChunkShift // instructions per chunk
	tapeChunkMask  = tapeChunkSize - 1

	// tapeRewindWindow is how far below its high-water mark a reader may
	// re-read (a frontend recovery rewinds its oracle cursor). It must be
	// at least frontend's oracleWindow (1<<13); workload cannot import
	// frontend, so the bound is restated here and pinned by a test in
	// the frontend package against the exported alias below.
	tapeRewindWindow = 1 << 13
)

// TapeRewindWindow exports the reader retention bound for cross-package
// consistency tests (it must cover frontend.OracleWindow).
const TapeRewindWindow = tapeRewindWindow

// Tape is the shared recording. All mutable state is guarded by mu;
// readers touch it only on chunk boundaries (once per 16Ki
// instructions), so contention between lockstepped machines is
// negligible.
type Tape struct {
	mu      sync.Mutex
	src     Stream
	chunks  [][]isa.DynInstr // chunks[c] covers [c<<shift, (c+1)<<shift); nil once trimmed
	trimmed int              // chunks below this index are released
	readers []*TapeReader
}

// NewTape starts a tape over a fresh executor for (prog, seedSalt) —
// the same stream NewExecutor(prog, seedSalt) would produce.
func NewTape(prog *Program, seedSalt uint64) *Tape {
	return &Tape{src: NewExecutor(prog, seedSalt)}
}

// Reader registers a new reader at position 0. Must be called before
// any reader consumes far enough to trim (enforced by panic).
func (t *Tape) Reader() *TapeReader {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.trimmed > 0 {
		panic("workload: Tape.Reader after trimming began; create all readers up front")
	}
	r := &TapeReader{t: t}
	t.readers = append(t.readers, r)
	return r
}

// EnsureAhead pre-records the stream through absolute position i, so
// subsequent At calls up to i allocate nothing (the zero-alloc step
// invariant: batch schedulers call this once per scheduling slice,
// outside the measured cycle loop).
func (t *Tape) EnsureAhead(i uint64) {
	t.mu.Lock()
	t.extendLocked(int(i >> tapeChunkShift))
	t.mu.Unlock()
}

// extendLocked records chunks through index c.
func (t *Tape) extendLocked(c int) {
	for len(t.chunks) <= c {
		chunk := make([]isa.DynInstr, tapeChunkSize)
		for j := range chunk {
			chunk[j] = t.src.Next()
		}
		t.chunks = append(t.chunks, chunk)
	}
}

// maybeTrimLocked releases chunks no live reader can reach again: every
// position below min over readers of (high-water − rewind window).
func (t *Tape) maybeTrimLocked() {
	lo := ^uint64(0)
	for _, r := range t.readers {
		if r.closed {
			continue
		}
		var m uint64
		if r.hw > tapeRewindWindow {
			m = r.hw - tapeRewindWindow
		}
		if m < lo {
			lo = m
		}
	}
	if lo == ^uint64(0) {
		return // no live readers; the whole tape is about to be dropped
	}
	for c := t.trimmed; c < int(lo>>tapeChunkShift); c++ {
		t.chunks[c] = nil
		t.trimmed = c + 1
	}
}

// LiveChunks reports how many chunks are currently resident (for tests
// asserting that trimming bounds memory).
func (t *Tape) LiveChunks() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.chunks) - t.trimmed
}

// A TapeReader replays the tape to one consumer. It implements both the
// sequential frontend.InstrSource protocol (Next) and random access
// (At), which the oracle stream uses directly to avoid re-buffering
// records it can already address.
type TapeReader struct {
	t         *Tape
	chunkBase uint64 // absolute position of chunk[0]
	chunk     []isa.DynInstr
	pos       uint64 // next sequential position (Next)
	hw        uint64 // high-water: 1 + max position observed at a chunk switch; guarded by t.mu
	closed    bool   // guarded by t.mu
}

// At returns the record at absolute position i. The fast path is a
// bounds check into the current chunk; crossing a chunk boundary (in
// either direction — recoveries rewind) takes the tape lock. Reading
// below high-water − window panics: that history may be trimmed.
func (r *TapeReader) At(i uint64) isa.DynInstr {
	if off := i - r.chunkBase; off < uint64(len(r.chunk)) {
		return r.chunk[off]
	}
	return r.slowAt(i)
}

func (r *TapeReader) slowAt(i uint64) isa.DynInstr {
	t := r.t
	t.mu.Lock()
	if r.hw > tapeRewindWindow && i < r.hw-tapeRewindWindow {
		hw := r.hw
		t.mu.Unlock()
		panic(fmt.Sprintf("workload: tape rewind beyond window (want %d, high-water %d)", i, hw))
	}
	c := int(i >> tapeChunkShift)
	t.extendLocked(c)
	if i >= r.hw {
		r.hw = i + 1
	}
	chunk := t.chunks[c]
	r.chunkBase = uint64(c) << tapeChunkShift
	r.chunk = chunk
	t.maybeTrimLocked()
	t.mu.Unlock()
	return chunk[i&tapeChunkMask]
}

// Next returns the record at the sequential cursor and advances it
// (the frontend.InstrSource protocol).
func (r *TapeReader) Next() isa.DynInstr {
	d := r.At(r.pos)
	r.pos++
	return d
}

// Close retires the reader: its high-water mark no longer holds back
// trimming. Safe to call more than once.
func (r *TapeReader) Close() {
	t := r.t
	t.mu.Lock()
	if !r.closed {
		r.closed = true
		t.maybeTrimLocked()
	}
	t.mu.Unlock()
}
