package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"udpsim/internal/isa"
	"udpsim/internal/workload"
)

// UDPT2 is the self-contained trace format: a trace embeds the static
// code layout itself, so any (pc, target, taken) stream — including one
// captured from a real binary — replays without the generator. The
// layout is
//
//	"UDPT2\n" <encoding byte> <image chunk> <record chunk>* <end chunk>
//
// where every chunk is independently framed and checksummed:
//
//	type byte ('I'/'R'/'E')
//	uint32le payload length
//	uint32le record count   (records in this chunk; 0 for 'I'/'E')
//	uint32le CRC-32 (IEEE) of the payload
//	payload
//
// so a truncated, bit-flipped, or length-lying file fails with a
// structured *FormatError at the damaged chunk instead of decoding
// garbage. Image and record payloads are gzip-compressed; the encoding
// byte selects how records serialize inside their payload — binary
// (flags plus delta varints) or JSONL (one JSON object per record,
// greppable). The 'E' chunk carries the total record count, catching
// whole-chunk truncation at a chunk boundary that per-chunk checksums
// cannot see.
const Magic2 = "UDPT2\n"

// Encoding selects the record serialization inside chunk payloads.
type Encoding byte

// Record encodings.
const (
	EncBinary Encoding = 0 // flags + delta varints, gzipped
	EncJSONL  Encoding = 1 // one JSON object per record, gzipped
)

// ParseEncoding maps the CLI spelling to an Encoding.
func ParseEncoding(s string) (Encoding, error) {
	switch s {
	case "binary", "":
		return EncBinary, nil
	case "jsonl":
		return EncJSONL, nil
	}
	return 0, fmt.Errorf("trace: unknown encoding %q (want binary or jsonl)", s)
}

func (e Encoding) String() string {
	switch e {
	case EncBinary:
		return "binary"
	case EncJSONL:
		return "jsonl"
	}
	return fmt.Sprintf("encoding(%d)", byte(e))
}

// Framing limits: a reader never allocates more than these per chunk,
// whatever the header claims, so hostile lengths cannot OOM.
const (
	chunkPayloadMax   = 1 << 26 // 64 MiB compressed payload
	chunkRecordsMax   = 1 << 20 // records per chunk
	imageInstrsMax    = 1 << 24 // static instructions in the embedded image
	recordsPerChunk   = 1 << 16 // writer's chunk granularity
	decompressedLimit = 1 << 28 // 256 MiB decompressed image/chunk bound
)

// Chunk type bytes.
const (
	chunkImage   = 'I'
	chunkRecords = 'R'
	chunkEnd     = 'E'
)

// FormatError is the structured decode failure: which chunk (0-based,
// counting the image chunk) broke and why. It wraps the underlying
// cause, so errors.Is(err, io.ErrUnexpectedEOF) distinguishes
// truncation from corruption.
type FormatError struct {
	Chunk  int
	Reason string
	Err    error
}

func (e *FormatError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("trace: chunk %d: %s: %v", e.Chunk, e.Reason, e.Err)
	}
	return fmt.Sprintf("trace: chunk %d: %s", e.Chunk, e.Reason)
}

func (e *FormatError) Unwrap() error { return e.Err }

// imageJSON is the embedded static code layout. PC and FallThrough are
// implicit (code is dense from workload.ImageBase in layout order), so
// each instruction costs only its class, branch kind, and the optional
// target/data address.
type imageJSON struct {
	Name  string       `json:"name"`
	Seed  uint64       `json:"seed"`
	Salt  uint64       `json:"salt"`
	Entry uint64       `json:"entry"`
	Code  []imageInstr `json:"code"`
}

type imageInstr struct {
	C uint8  `json:"c"`
	B uint8  `json:"b,omitempty"`
	T uint64 `json:"t,omitempty"`
	D uint64 `json:"d,omitempty"`
}

// recordJSON is one EncJSONL record line.
type recordJSON struct {
	PC       uint64 `json:"pc"`
	Target   uint64 `json:"tgt"`
	DataAddr uint64 `json:"da,omitempty"`
	Taken    bool   `json:"tk,omitempty"`
}

// writeChunk frames and emits one chunk.
func writeChunk(w *bufio.Writer, typ byte, records uint32, payload []byte) error {
	var hdr [13]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], records)
	binary.LittleEndian.PutUint32(hdr[9:13], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// gzipBytes compresses b.
func gzipBytes(b []byte) ([]byte, error) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(b); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// gunzipBytes decompresses b with an allocation bound.
func gunzipBytes(b []byte, limit int64) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(io.LimitReader(zr, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(out)) > limit {
		return nil, fmt.Errorf("decompressed payload exceeds %d bytes", limit)
	}
	return out, zr.Close()
}

// Writer2 streams a UDPT2 trace: the image chunk up front, records in
// fixed-count framed chunks, and a trailing count chunk on Flush.
type Writer2 struct {
	w      *bufio.Writer
	enc    Encoding
	lastPC isa.Addr // binary delta state, carried across chunks
	buf    bytes.Buffer
	inBuf  uint32
	count  uint64
	closed bool
	err    error
}

// NewWriter2 begins a v2 trace embedding prog's static image. The salt
// is recorded so replay can validate against a config's SeedSalt.
func NewWriter2(w io.Writer, prog *workload.Program, salt uint64, enc Encoding) (*Writer2, error) {
	if enc != EncBinary && enc != EncJSONL {
		return nil, fmt.Errorf("trace: unknown encoding %d", enc)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(Magic2); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(byte(enc)); err != nil {
		return nil, err
	}
	code := prog.StaticCode()
	img := imageJSON{
		Name:  prog.Profile().Name,
		Seed:  prog.Profile().Seed,
		Salt:  salt,
		Entry: uint64(prog.Entry()),
		Code:  make([]imageInstr, len(code)),
	}
	for i := range code {
		img.Code[i] = imageInstr{
			C: uint8(code[i].Class),
			B: uint8(code[i].Branch),
			T: uint64(code[i].Target),
			D: uint64(code[i].DataAddr),
		}
	}
	raw, err := json.Marshal(&img)
	if err != nil {
		return nil, err
	}
	payload, err := gzipBytes(raw)
	if err != nil {
		return nil, err
	}
	if err := writeChunk(bw, chunkImage, 0, payload); err != nil {
		return nil, err
	}
	return &Writer2{w: bw, enc: enc}, nil
}

// Write appends one record.
func (w *Writer2) Write(r Record) error {
	if w.closed {
		return errors.New("trace: write on closed writer")
	}
	if w.err != nil {
		return w.err
	}
	switch w.enc {
	case EncBinary:
		w.writeBinary(r)
	case EncJSONL:
		line, err := json.Marshal(recordJSON{
			PC:       uint64(r.PC),
			Target:   uint64(r.Target),
			DataAddr: uint64(r.DataAddr),
			Taken:    r.Taken,
		})
		if err != nil {
			w.err = err
			return err
		}
		w.buf.Write(line)
		w.buf.WriteByte('\n')
	}
	w.count++
	w.inBuf++
	if w.inBuf >= recordsPerChunk {
		return w.flushChunk()
	}
	return nil
}

// writeBinary serializes one record as a flags byte plus varints:
// consecutive PCs are usually sequential, so the common record costs a
// few bytes.
func (w *Writer2) writeBinary(r Record) {
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
	w.buf.WriteByte(flags)
	var buf [binary.MaxVarintLen64]byte
	if !seq {
		n := binary.PutVarint(buf[:], int64(r.PC)-int64(w.lastPC))
		w.buf.Write(buf[:n])
	}
	if flags&flagHasTgt != 0 {
		n := binary.PutVarint(buf[:], int64(r.Target)-int64(r.PC))
		w.buf.Write(buf[:n])
	}
	if flags&flagHasData != 0 {
		n := binary.PutUvarint(buf[:], uint64(r.DataAddr))
		w.buf.Write(buf[:n])
	}
	w.lastPC = r.PC
}

// flushChunk compresses and frames the buffered records.
func (w *Writer2) flushChunk() error {
	if w.inBuf == 0 {
		return nil
	}
	payload, err := gzipBytes(w.buf.Bytes())
	if err != nil {
		w.err = err
		return err
	}
	if err := writeChunk(w.w, chunkRecords, w.inBuf, payload); err != nil {
		w.err = err
		return err
	}
	w.buf.Reset()
	w.inBuf = 0
	return nil
}

// Count returns the number of records written.
func (w *Writer2) Count() uint64 { return w.count }

// Flush finishes the trace: final record chunk, the end chunk with the
// total count, and the underlying buffer.
func (w *Writer2) Flush() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if err := w.flushChunk(); err != nil {
		return err
	}
	var total [8]byte
	binary.LittleEndian.PutUint64(total[:], w.count)
	if err := writeChunk(w.w, chunkEnd, 0, total[:]); err != nil {
		w.err = err
		return err
	}
	return w.w.Flush()
}

// Reader2 decodes a UDPT2 trace. The image chunk is decoded eagerly at
// open (so a corrupt image fails fast); record chunks stream.
type Reader2 struct {
	r   *bufio.Reader
	enc Encoding

	name  string
	seed  uint64
	salt  uint64
	entry isa.Addr
	code  []isa.StaticInstr

	chunk    int // index of the next chunk to read (image chunk was 0)
	lastPC   isa.Addr
	count    uint64
	pending  []byte // decompressed records of the current chunk
	pendLeft uint32 // records remaining in pending
	done     bool   // end chunk seen and verified
}

// NewReader2 opens a v2 trace and decodes its embedded image.
func NewReader2(r io.Reader) (*Reader2, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(Magic2))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != Magic2 {
		return nil, fmt.Errorf("trace: bad magic %q (want %q)", magic, Magic2)
	}
	encB, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("trace: reading encoding: %w", err)
	}
	enc := Encoding(encB)
	if enc != EncBinary && enc != EncJSONL {
		return nil, fmt.Errorf("trace: unknown encoding byte %d", encB)
	}
	rd := &Reader2{r: br, enc: enc}
	typ, records, payload, err := rd.readChunk()
	if err != nil {
		return nil, err
	}
	if typ != chunkImage {
		return nil, &FormatError{Chunk: 0, Reason: fmt.Sprintf("expected image chunk, got %q", typ)}
	}
	if records != 0 {
		return nil, &FormatError{Chunk: 0, Reason: "image chunk claims records"}
	}
	raw, err := gunzipBytes(payload, decompressedLimit)
	if err != nil {
		return nil, &FormatError{Chunk: 0, Reason: "image decompress", Err: err}
	}
	var img imageJSON
	if err := json.Unmarshal(raw, &img); err != nil {
		return nil, &FormatError{Chunk: 0, Reason: "image decode", Err: err}
	}
	if len(img.Code) > imageInstrsMax {
		return nil, &FormatError{Chunk: 0, Reason: fmt.Sprintf("implausible image size %d instrs", len(img.Code))}
	}
	rd.name, rd.seed, rd.salt = img.Name, img.Seed, img.Salt
	rd.entry = isa.Addr(img.Entry)
	rd.code = make([]isa.StaticInstr, len(img.Code))
	for i, ci := range img.Code {
		pc := workload.ImageBase + isa.Addr(i*isa.InstrBytes)
		rd.code[i] = isa.StaticInstr{
			PC:          pc,
			Class:       isa.Class(ci.C),
			Branch:      isa.BranchKind(ci.B),
			Target:      isa.Addr(ci.T),
			FallThrough: pc + isa.InstrBytes,
			DataAddr:    isa.Addr(ci.D),
		}
	}
	rd.chunk = 1
	return rd, nil
}

// readChunk reads and CRC-verifies one framed chunk.
func (r *Reader2) readChunk() (typ byte, records uint32, payload []byte, err error) {
	var hdr [13]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, 0, nil, &FormatError{Chunk: r.chunk, Reason: "truncated chunk header", Err: io.ErrUnexpectedEOF}
		}
		return 0, 0, nil, &FormatError{Chunk: r.chunk, Reason: "chunk header", Err: err}
	}
	typ = hdr[0]
	n := binary.LittleEndian.Uint32(hdr[1:5])
	records = binary.LittleEndian.Uint32(hdr[5:9])
	sum := binary.LittleEndian.Uint32(hdr[9:13])
	if typ != chunkImage && typ != chunkRecords && typ != chunkEnd {
		return 0, 0, nil, &FormatError{Chunk: r.chunk, Reason: fmt.Sprintf("unknown chunk type %#x", typ)}
	}
	if n > chunkPayloadMax {
		return 0, 0, nil, &FormatError{Chunk: r.chunk, Reason: fmt.Sprintf("implausible payload length %d", n)}
	}
	if records > chunkRecordsMax {
		return 0, 0, nil, &FormatError{Chunk: r.chunk, Reason: fmt.Sprintf("implausible record count %d", records)}
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r.r, payload); err != nil {
		return 0, 0, nil, &FormatError{Chunk: r.chunk, Reason: "truncated payload", Err: io.ErrUnexpectedEOF}
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return 0, 0, nil, &FormatError{Chunk: r.chunk, Reason: fmt.Sprintf("checksum mismatch (got %#x, want %#x)", got, sum)}
	}
	return typ, records, payload, nil
}

// Workload returns the traced workload's name.
func (r *Reader2) Workload() string { return r.name }

// Seed returns the recorded generation seed (0 for external captures).
func (r *Reader2) Seed() uint64 { return r.seed }

// Salt returns the executor salt the trace was recorded at.
func (r *Reader2) Salt() uint64 { return r.salt }

// Encoding returns the record encoding.
func (r *Reader2) Encoding() Encoding { return r.enc }

// Count returns records decoded so far.
func (r *Reader2) Count() uint64 { return r.count }

// Image reconstructs the embedded static image as a Program.
func (r *Reader2) Image() (*workload.Program, error) {
	return workload.NewProgramFromImage(
		workload.Profile{Name: r.name, Seed: r.seed}, r.entry, r.code)
}

// Read decodes the next record; io.EOF at a verified end of trace.
func (r *Reader2) Read() (Record, error) {
	for r.pendLeft == 0 {
		if r.done {
			return Record{}, io.EOF
		}
		typ, records, payload, err := r.readChunk()
		if err != nil {
			return Record{}, err
		}
		c := r.chunk
		r.chunk++
		switch typ {
		case chunkEnd:
			if len(payload) != 8 {
				return Record{}, &FormatError{Chunk: c, Reason: "malformed end chunk"}
			}
			if total := binary.LittleEndian.Uint64(payload); total != r.count {
				return Record{}, &FormatError{Chunk: c,
					Reason: fmt.Sprintf("record count mismatch: trailer says %d, decoded %d (chunk lost?)", total, r.count)}
			}
			r.done = true
			return Record{}, io.EOF
		case chunkRecords:
			if records == 0 {
				return Record{}, &FormatError{Chunk: c, Reason: "empty record chunk"}
			}
			raw, err := gunzipBytes(payload, decompressedLimit)
			if err != nil {
				return Record{}, &FormatError{Chunk: c, Reason: "record decompress", Err: err}
			}
			r.pending = raw
			r.pendLeft = records
		default:
			return Record{}, &FormatError{Chunk: c, Reason: fmt.Sprintf("unexpected chunk type %q", typ)}
		}
	}
	rec, err := r.decodeOne()
	if err != nil {
		return Record{}, &FormatError{Chunk: r.chunk - 1, Reason: "record decode", Err: err}
	}
	r.pendLeft--
	r.count++
	return rec, nil
}

// decodeOne consumes one record from the pending buffer.
func (r *Reader2) decodeOne() (Record, error) {
	switch r.enc {
	case EncJSONL:
		i := bytes.IndexByte(r.pending, '\n')
		if i < 0 {
			return Record{}, io.ErrUnexpectedEOF
		}
		var rj recordJSON
		if err := json.Unmarshal(r.pending[:i], &rj); err != nil {
			return Record{}, err
		}
		r.pending = r.pending[i+1:]
		return Record{
			PC:       isa.Addr(rj.PC),
			Target:   isa.Addr(rj.Target),
			DataAddr: isa.Addr(rj.DataAddr),
			Taken:    rj.Taken,
		}, nil
	default: // EncBinary
		buf := bytes.NewReader(r.pending)
		rec, err := r.decodeBinary(buf)
		if err != nil {
			return Record{}, err
		}
		r.pending = r.pending[len(r.pending)-buf.Len():]
		return rec, nil
	}
}

// decodeBinary mirrors Writer2.writeBinary.
func (r *Reader2) decodeBinary(br *bytes.Reader) (Record, error) {
	flags, err := br.ReadByte()
	if err != nil {
		return Record{}, io.ErrUnexpectedEOF
	}
	var rec Record
	if flags&flagSeqPC != 0 {
		rec.PC = r.lastPC + isa.InstrBytes
	} else {
		d, err := binary.ReadVarint(br)
		if err != nil {
			return Record{}, io.ErrUnexpectedEOF
		}
		rec.PC = isa.Addr(int64(r.lastPC) + d)
	}
	rec.Taken = flags&flagTaken != 0
	if flags&flagHasTgt != 0 {
		d, err := binary.ReadVarint(br)
		if err != nil {
			return Record{}, io.ErrUnexpectedEOF
		}
		rec.Target = isa.Addr(int64(rec.PC) + d)
	} else {
		rec.Target = rec.PC + isa.InstrBytes
	}
	if flags&flagHasData != 0 {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return Record{}, io.ErrUnexpectedEOF
		}
		rec.DataAddr = isa.Addr(v)
	}
	r.lastPC = rec.PC
	return rec, nil
}

// RecordN2 captures n instructions of a workload execution as a v2
// trace.
func RecordN2(w io.Writer, p workload.Profile, salt uint64, n uint64, enc Encoding) error {
	prog, err := workload.Generate(p)
	if err != nil {
		return err
	}
	exec := workload.NewExecutor(prog, salt)
	tw, err := NewWriter2(w, prog, salt, enc)
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
