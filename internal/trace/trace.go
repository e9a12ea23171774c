// Package trace records and replays dynamic instruction streams, the
// equivalent of the paper's DynamoRIO / Intel PT trace methodology: a
// trace captures "a precise continuous sequence of dynamically executed
// basic blocks and memory addresses" (Section III-A) which the
// simulator's trace-driven frontend replays. It also implements
// simpoint-style representative-region selection over basic-block
// vectors.
//
// Traces are bound to a workload profile: the static program image is
// regenerated deterministically from the profile recorded in the trace
// header, and the trace holds only dynamic outcomes.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"udpsim/internal/isa"
	"udpsim/internal/workload"
)

// Magic identifies trace files ("UDPT" + version).
const Magic = "UDPT1\n"

// Record is one dynamic instruction outcome; Static context is
// recovered from the program image at replay.
type Record struct {
	PC       isa.Addr
	Target   isa.Addr // resolved next PC
	DataAddr isa.Addr // loads/stores
	Taken    bool
}

// Writer streams records to an io.Writer with delta+varint compression:
// consecutive PCs are usually sequential, so the common record costs a
// few bytes.
type Writer struct {
	w      *bufio.Writer
	lastPC isa.Addr
	count  uint64
	closed bool
}

// header is serialized at the start of every trace.
type header struct {
	Name string
	Seed uint64
	Salt uint64
}

// NewWriter begins a trace for a program generated from the given
// profile and executor salt.
func NewWriter(w io.Writer, p workload.Profile, salt uint64) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(Magic); err != nil {
		return nil, err
	}
	h := header{Name: p.Name, Seed: p.Seed, Salt: salt}
	if err := writeString(bw, h.Name); err != nil {
		return nil, err
	}
	var buf [binary.MaxVarintLen64]byte
	for _, v := range []uint64{h.Seed, h.Salt} {
		n := binary.PutUvarint(buf[:], v)
		if _, err := bw.Write(buf[:n]); err != nil {
			return nil, err
		}
	}
	return &Writer{w: bw}, nil
}

// flags encode which fields follow the PC delta.
const (
	flagTaken   = 1 << 0
	flagHasData = 1 << 1
	flagHasTgt  = 1 << 2 // target differs from fall-through
	flagSeqPC   = 1 << 3 // pc == lastPC + 4 (no delta follows)
)

// Write appends one record.
func (w *Writer) Write(r Record) error {
	if w.closed {
		return errors.New("trace: write on closed writer")
	}
	var flags byte
	if r.Taken {
		flags |= flagTaken
	}
	if r.DataAddr != 0 {
		flags |= flagHasData
	}
	fallThrough := r.PC + isa.InstrBytes
	if r.Target != 0 && r.Target != fallThrough {
		flags |= flagHasTgt
	}
	seq := r.PC == w.lastPC+isa.InstrBytes
	if seq {
		flags |= flagSeqPC
	}
	if err := w.w.WriteByte(flags); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	if !seq {
		n := binary.PutVarint(buf[:], int64(r.PC)-int64(w.lastPC))
		if _, err := w.w.Write(buf[:n]); err != nil {
			return err
		}
	}
	if flags&flagHasTgt != 0 {
		n := binary.PutVarint(buf[:], int64(r.Target)-int64(r.PC))
		if _, err := w.w.Write(buf[:n]); err != nil {
			return err
		}
	}
	if flags&flagHasData != 0 {
		n := binary.PutUvarint(buf[:], uint64(r.DataAddr))
		if _, err := w.w.Write(buf[:n]); err != nil {
			return err
		}
	}
	w.lastPC = r.PC
	w.count++
	return nil
}

// Count returns the number of records written.
func (w *Writer) Count() uint64 { return w.count }

// Flush finishes the trace.
func (w *Writer) Flush() error {
	w.closed = true
	return w.w.Flush()
}

// Reader decodes a trace.
type Reader struct {
	r      *bufio.Reader
	h      header
	lastPC isa.Addr
	count  uint64
}

// NewReader opens a trace stream and validates its header.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	name, err := readString(br)
	if err != nil {
		return nil, err
	}
	seed, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	salt, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	return &Reader{r: br, h: header{Name: name, Seed: seed, Salt: salt}}, nil
}

// Workload returns the traced workload's name.
func (r *Reader) Workload() string { return r.h.Name }

// Seed returns the traced profile's generation seed.
func (r *Reader) Seed() uint64 { return r.h.Seed }

// Salt returns the executor salt the trace was recorded with.
func (r *Reader) Salt() uint64 { return r.h.Salt }

// Count returns records decoded so far.
func (r *Reader) Count() uint64 { return r.count }

// Read decodes the next record; io.EOF at end of trace.
func (r *Reader) Read() (Record, error) {
	flags, err := r.r.ReadByte()
	if err != nil {
		return Record{}, err
	}
	var rec Record
	if flags&flagSeqPC != 0 {
		rec.PC = r.lastPC + isa.InstrBytes
	} else {
		d, err := binary.ReadVarint(r.r)
		if err != nil {
			return Record{}, corrupt(err)
		}
		rec.PC = isa.Addr(int64(r.lastPC) + d)
	}
	rec.Taken = flags&flagTaken != 0
	if flags&flagHasTgt != 0 {
		d, err := binary.ReadVarint(r.r)
		if err != nil {
			return Record{}, corrupt(err)
		}
		rec.Target = isa.Addr(int64(rec.PC) + d)
	} else {
		rec.Target = rec.PC + isa.InstrBytes
	}
	if flags&flagHasData != 0 {
		v, err := binary.ReadUvarint(r.r)
		if err != nil {
			return Record{}, corrupt(err)
		}
		rec.DataAddr = isa.Addr(v)
	}
	// v1 has no per-record integrity check, but the writer never emits
	// a zero target (Target 0 encodes as fall-through); a delta chain
	// landing there is corruption, not data.
	if rec.Target == 0 {
		return Record{}, fmt.Errorf("trace: corrupt record %d: zero target", r.count+1)
	}
	r.lastPC = rec.PC
	r.count++
	return rec, nil
}

func corrupt(err error) error {
	if errors.Is(err, io.EOF) {
		return fmt.Errorf("trace: truncated record: %w", io.ErrUnexpectedEOF)
	}
	return err
}

// RecordN captures n instructions of a workload execution into w.
func RecordN(w io.Writer, p workload.Profile, salt uint64, n uint64) error {
	prog, err := workload.Generate(p)
	if err != nil {
		return err
	}
	exec := workload.NewExecutor(prog, salt)
	tw, err := NewWriter(w, p, salt)
	if err != nil {
		return err
	}
	for i := uint64(0); i < n; i++ {
		d := exec.Next()
		if err := tw.Write(Record{
			PC:       d.PC(),
			Target:   d.Target,
			DataAddr: d.DataAddr,
			Taken:    d.Taken,
		}); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// Replayer adapts a trace to the frontend's InstrSource: it resolves
// each record's static context from the (regenerated) program image.
// Reading past the end of the trace is a caller error (traces must be
// sized to the simulation, plus the oracle's runahead window) and
// panics rather than silently wrapping around. Cancellation is the
// machine's: sim.Machine.RunCtx polls its context between strides of
// the cycle loop.
type Replayer struct {
	prog *workload.Program
	r    *Reader
	seq  uint64
}

// NewReplayer builds a replayer over a program image matching the
// trace's profile.
func NewReplayer(prog *workload.Program, r *Reader) (*Replayer, error) {
	if prog.Profile().Name != r.Workload() || prog.Profile().Seed != r.Seed() {
		return nil, fmt.Errorf("trace: image %s/seed %#x does not match trace %s/seed %#x",
			prog.Profile().Name, prog.Profile().Seed, r.Workload(), r.Seed())
	}
	return &Replayer{prog: prog, r: r}, nil
}

// Next implements frontend.InstrSource.
func (rp *Replayer) Next() isa.DynInstr {
	rec, err := rp.r.Read()
	if err != nil {
		panic(fmt.Sprintf("trace: replay past end of trace (%d records): %v", rp.r.Count(), err))
	}
	rp.seq++
	return isa.DynInstr{
		Static:   rp.prog.InstrAt(rec.PC),
		Taken:    rec.Taken,
		Target:   rec.Target,
		DataAddr: rec.DataAddr,
		Seq:      rp.seq,
	}
}

func writeString(w *bufio.Writer, s string) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(s)))
	if _, err := w.Write(buf[:n]); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

func readString(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<16 {
		return "", fmt.Errorf("trace: implausible string length %d", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}
