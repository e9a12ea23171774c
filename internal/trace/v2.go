package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

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
// byte names how records serialize inside their payload, and the one
// encoding is EncBinary (flags plus delta varints). The writer
// compresses at BestSpeed. The image payload is a multi-member gzip
// stream: one member per segment of imageSegmentInstrs instructions
// (the header rides in the first), so segments compress in parallel;
// gzip readers decompress the members as one stream, and a
// single-member image, as older writers made, reads the same. The 'E'
// chunk carries the total record count, catching whole-chunk truncation
// at a chunk boundary that per-chunk checksums cannot see.
//
// The image payload is binary too:
//
//	version byte (imageVersion)
//	uvarint name length, name bytes
//	uvarint seed, salt, entry, instruction count
//	per instruction, in layout order:
//	  class byte, branch-kind byte, presence-flags byte
//	  varint Target−PC   (only when Target is nonzero)
//	  uvarint DataAddr   (only when DataAddr is nonzero)
//
// PC and FallThrough are implicit: code is dense from
// workload.ImageBase. Every instruction costs at least three bytes,
// which bounds the count a payload can honestly claim. Traces recorded
// before the binary image carried a JSON image (its payload starts
// with '{'); the reader rejects them with a *FormatError asking for a
// re-recording.
const Magic2 = "UDPT2\n"

// Encoding is the preamble byte that names the record serialization
// inside chunk payloads.
type Encoding byte

// EncBinary is the record encoding: flags plus delta varints, gzipped.
// Readers reject every other byte, among them 1, a former JSONL
// encoding.
const EncBinary Encoding = 0

// encodingError rejects a preamble encoding byte other than EncBinary.
func encodingError(e Encoding) error {
	return fmt.Errorf("trace: unsupported record encoding %d (only %d, binary, is read; re-record the trace)", byte(e), byte(EncBinary))
}

// Framing limits: a reader never allocates more than these per chunk,
// whatever the header claims, so hostile lengths cannot OOM.
const (
	chunkPayloadMax   = 1 << 26 // 64 MiB compressed payload
	chunkRecordsMax   = 1 << 20 // records per chunk
	imageInstrsMax    = 1 << 24 // static instructions in the embedded image
	recordsPerChunk   = 1 << 16 // writer's chunk granularity
	decompressedLimit = 1 << 28 // 256 MiB decompressed image/chunk bound
	imageInstrMinLen  = 3       // class, branch-kind and flags bytes
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

// imageVersion is the first byte of the image payload.
const imageVersion = 1

// Image presence flags: which optional fields follow an instruction's
// three fixed bytes.
const (
	imageHasTarget = 1 << 0
	imageHasData   = 1 << 1
)

// image is the embedded static code layout.
type image struct {
	name  string
	seed  uint64
	salt  uint64
	entry isa.Addr
	code  []isa.StaticInstr
}

// programImage is the image a trace of prog recorded at salt embeds.
func programImage(prog *workload.Program, salt uint64) *image {
	return &image{
		name:  prog.Profile().Name,
		seed:  prog.Profile().Seed,
		salt:  salt,
		entry: prog.Entry(),
		code:  prog.StaticCode(),
	}
}

// appendImage appends img's binary payload to b: its header, then
// every instruction. PC and FallThrough are not stored: instruction i
// sits at workload.ImageBase + i*InstrBytes.
func appendImage(b []byte, img *image) []byte {
	b = appendImageHeader(b, img)
	return appendImageInstrs(b, img.code, 0, len(img.code))
}

// appendImageHeader appends the payload's header: version, name, seed,
// salt, entry and instruction count.
func appendImageHeader(b []byte, img *image) []byte {
	b = append(b, imageVersion)
	b = binary.AppendUvarint(b, uint64(len(img.name)))
	b = append(b, img.name...)
	b = binary.AppendUvarint(b, img.seed)
	b = binary.AppendUvarint(b, img.salt)
	b = binary.AppendUvarint(b, uint64(img.entry))
	return binary.AppendUvarint(b, uint64(len(img.code)))
}

// appendImageInstrs appends the encodings of code[lo:hi], the
// instructions at layout indices lo through hi-1.
func appendImageInstrs(b []byte, code []isa.StaticInstr, lo, hi int) []byte {
	for i := lo; i < hi; i++ {
		in := &code[i]
		target, data := in.Target(), in.DataAddr()
		var flags byte
		if target != 0 {
			flags |= imageHasTarget
		}
		if data != 0 {
			flags |= imageHasData
		}
		b = append(b, byte(in.Class), byte(in.Branch), flags)
		if target != 0 {
			pc := workload.ImageBase + isa.Addr(i*isa.InstrBytes)
			b = binary.AppendVarint(b, int64(target-pc))
		}
		if data != 0 {
			b = binary.AppendUvarint(b, uint64(data))
		}
	}
	return b
}

// gzipImage encodes img as one gzip member per segment of seg
// instructions, the header riding in the first, and returns the members
// concatenated in layout order: a multi-member gzip stream that
// decompresses to exactly appendImage(nil, img). Segments are encoded
// and compressed on up to GOMAXPROCS workers; since seg is fixed and
// every member is compressed alone, the bytes do not depend on the
// worker count.
func gzipImage(img *image, seg int) []byte {
	n := max(1, (len(img.code)+seg-1)/seg)
	members := make([][]byte, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Writes into a bytes.Buffer cannot fail, so neither can
			// the compressor's.
			zw, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed)
			var raw []byte
			for s := int(next.Add(1) - 1); s < n; s = int(next.Add(1) - 1) {
				raw = raw[:0]
				if s == 0 {
					raw = appendImageHeader(raw, img)
				}
				raw = appendImageInstrs(raw, img.code, s*seg, min((s+1)*seg, len(img.code)))
				var out bytes.Buffer
				zw.Reset(&out)
				zw.Write(raw)
				zw.Close()
				members[s] = out.Bytes()
			}
		}()
	}
	wg.Wait()
	return bytes.Join(members, nil)
}

// minimal reports whether the n-byte (u)varint at the front of b, as
// returned by binary.Uvarint or binary.Varint, is well formed and not
// padded. Rejecting padded encodings makes image decoding exact: a
// payload that decodes re-encodes to the same bytes.
func minimal(b []byte, n int) bool {
	return n == 1 || (n > 1 && b[n-1] != 0)
}

// imageInstrMaxLen is the longest instruction encoding: the three fixed
// bytes and two ten-byte varints.
const imageInstrMaxLen = imageInstrMinLen + 2*binary.MaxVarintLen64

// imageWindowBytes is the size of the window imageStream reads the
// decompressed payload through.
const imageWindowBytes = 64 << 10

// imageStream is a decompressed image payload read through one small
// window, so a decode never holds the whole payload: the image it
// builds is the only allocation that grows with the image.
type imageStream struct {
	r     io.Reader
	buf   []byte // the window
	b     []byte // its unread bytes
	total uint64 // bytes read from r
	eof   bool   // r is exhausted
	err   error  // r failed, or yielded more than decompressedLimit bytes
}

// want reports whether n bytes are unread, reading more into the
// window when fewer are and r holds more. n is at most the window.
func (s *imageStream) want(n int) bool {
	if len(s.b) >= n {
		return true
	}
	s.fill()
	return len(s.b) >= n
}

// fill moves the unread bytes to the window's front and reads until
// the window is full or r ends.
func (s *imageStream) fill() {
	if s.eof || s.err != nil {
		return
	}
	k := copy(s.buf, s.b)
	for k < len(s.buf) && !s.eof && s.err == nil {
		m, err := s.r.Read(s.buf[k:])
		k += m
		s.total += uint64(m)
		switch {
		case s.total > decompressedLimit:
			s.err = fmt.Errorf("decompressed payload exceeds %d bytes", decompressedLimit)
		case err == io.EOF:
			s.eof = true
		case err != nil:
			s.err = err
		}
	}
	s.b = s.buf[:k]
}

// left is how many of the payload's at most maxLen bytes can still
// follow the ones decoded so far.
func (s *imageStream) left(maxLen uint64) uint64 {
	if used := s.total - uint64(len(s.b)); used < maxLen {
		return maxLen - used
	}
	return 0
}

// readImage parses a binary image payload of at most maxLen bytes from
// s. It bounds the claimed instruction count by the bytes that can
// follow before allocating, so a short payload cannot claim a huge
// image.
func readImage(s *imageStream, maxLen uint64) (*image, error) {
	fail := func(format string, args ...any) (*image, error) {
		if s.err != nil {
			return nil, &FormatError{Chunk: 0, Reason: "image decompress", Err: s.err}
		}
		return nil, &FormatError{Chunk: 0, Reason: "image: " + fmt.Sprintf(format, args...)}
	}
	if !s.want(1) {
		return fail("empty payload")
	}
	if s.b[0] == '{' {
		return fail("JSON image from a trace recorded before the binary image format; re-record the trace")
	}
	if s.b[0] != imageVersion {
		return fail("unsupported image version %d (want %d)", s.b[0], imageVersion)
	}
	s.b = s.b[1:]
	bad := false
	next := func() uint64 {
		s.want(binary.MaxVarintLen64)
		v, n := binary.Uvarint(s.b)
		if !minimal(s.b, n) {
			bad = true
			return 0
		}
		s.b = s.b[n:]
		return v
	}
	nameLen := next()
	if bad || nameLen > s.left(maxLen) {
		return fail("truncated header")
	}
	var name []byte
	for uint64(len(name)) < nameLen {
		if !s.want(1) {
			return fail("truncated header")
		}
		m := min(uint64(len(s.b)), nameLen-uint64(len(name)))
		name = append(name, s.b[:m]...)
		s.b = s.b[m:]
	}
	img := &image{name: string(name)}
	img.seed, img.salt, img.entry = next(), next(), isa.Addr(next())
	count := next()
	if bad {
		return fail("truncated header")
	}
	if count > imageInstrsMax {
		return fail("implausible size %d instrs", count)
	}
	if follow := s.left(maxLen); count > follow/imageInstrMinLen {
		return fail("claims %d instrs but at most %d bytes follow", count, follow)
	}
	img.code = make([]isa.StaticInstr, count)
	for i := range img.code {
		if !s.want(imageInstrMinLen) {
			return fail("truncated at instr %d", i)
		}
		s.want(imageInstrMaxLen)
		b := s.b
		class, kind, flags := b[0], b[1], b[2]
		b = b[imageInstrMinLen:]
		if int(class) >= isa.NumClasses || int(kind) >= isa.NumBranchKinds || flags&^(imageHasTarget|imageHasData) != 0 {
			return fail("instr %d: bad class %d, branch kind %d or flags %#x", i, class, kind, flags)
		}
		pc := workload.ImageBase + isa.Addr(i*isa.InstrBytes)
		var target, data isa.Addr
		if flags&imageHasTarget != 0 {
			d, n := binary.Varint(b)
			if !minimal(b, n) {
				return fail("instr %d: malformed target", i)
			}
			b = b[n:]
			if target = pc + isa.Addr(d); target == 0 {
				return fail("instr %d: target flag with a zero target", i)
			}
		}
		if flags&imageHasData != 0 {
			v, n := binary.Uvarint(b)
			if !minimal(b, n) || v == 0 {
				return fail("instr %d: malformed data address", i)
			}
			b = b[n:]
			data = isa.Addr(v)
		}
		in, err := isa.NewStaticInstr(pc, isa.Class(class), isa.BranchKind(kind), target, data)
		if err != nil {
			return fail("instr %d: %v", i, err)
		}
		img.code[i] = in
		s.b = b
	}
	// Reading on to the end also runs the decompressor's checksums.
	if s.want(1) || s.err != nil {
		return fail("trailing bytes after %d instrs", count)
	}
	return img, nil
}

// chunkHeaderLen is the framed size of a chunk header: type, payload
// length, record count and CRC.
const chunkHeaderLen = 13

// writeChunk frames and emits one chunk.
func writeChunk(w *bufio.Writer, typ byte, records uint32, payload []byte) error {
	var hdr [chunkHeaderLen]byte
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

// imageSegmentInstrs is the instruction count of each gzip member of
// the image chunk. It is a constant, not a function of the host's CPU
// count, so a recording's bytes are the same on every machine.
const imageSegmentInstrs = 1 << 17

// Writer2 streams a UDPT2 trace: the image chunk up front, records in
// fixed-count framed chunks, and a trailing count chunk on Flush.
type Writer2 struct {
	w      *bufio.Writer
	lastPC isa.Addr // binary delta state, carried across chunks
	buf    bytes.Buffer
	inBuf  uint32
	count  uint64
	closed bool
	err    error

	zw   *gzip.Writer // record-chunk compressor, Reset per chunk
	zout bytes.Buffer // compressed chunk payload, reused across chunks
}

// NewWriter2 begins a v2 trace embedding prog's static image. The salt
// is recorded so replay can validate against a config's SeedSalt.
func NewWriter2(w io.Writer, prog *workload.Program, salt uint64, enc Encoding) (*Writer2, error) {
	if enc != EncBinary {
		return nil, encodingError(enc)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(Magic2); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(byte(enc)); err != nil {
		return nil, err
	}
	payload := gzipImage(programImage(prog, salt), imageSegmentInstrs)
	if err := writeChunk(bw, chunkImage, 0, payload); err != nil {
		return nil, err
	}
	// On xgboost record chunks the default level takes ~4.5x as long as
	// BestSpeed to save ~8% of their bytes.
	zw, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed) // valid level: cannot fail
	return &Writer2{w: bw, zw: zw}, nil
}

// Write appends one record.
func (w *Writer2) Write(r Record) error {
	if w.closed {
		return errors.New("trace: write on closed writer")
	}
	if w.err != nil {
		return w.err
	}
	w.writeBinary(r)
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
	// Writes into a bytes.Buffer cannot fail, so neither can the
	// compressor's.
	w.zout.Reset()
	w.zw.Reset(&w.zout)
	w.zw.Write(w.buf.Bytes())
	w.zw.Close()
	if err := writeChunk(w.w, chunkRecords, w.inBuf, w.zout.Bytes()); err != nil {
		w.err = err
		return err
	}
	w.buf.Reset()
	w.inBuf = 0
	return nil
}

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
	img *image

	chunk    int // index of the next chunk to read (image chunk was 0)
	lastPC   isa.Addr
	count    uint64
	pending  []byte // decompressed records of the current chunk
	pendLeft uint32 // records remaining in pending
	done     bool   // end chunk seen and verified

	zr   *gzip.Reader // reused across chunks
	zbuf []byte       // decompression buffer, reused across chunks
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
	if Encoding(encB) != EncBinary {
		return nil, encodingError(Encoding(encB))
	}
	rd := &Reader2{r: br}
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
	// The image inflates to megabytes, so it decodes straight from the
	// decompressor; the payload's deflate ceiling bounds its claims.
	if err := rd.resetGzip(payload); err != nil {
		return nil, &FormatError{Chunk: 0, Reason: "image decompress", Err: err}
	}
	s := &imageStream{r: rd.zr, buf: make([]byte, imageWindowBytes)}
	if rd.img, err = readImage(s, min(deflateRatioMax*uint64(len(payload)), decompressedLimit)); err != nil {
		return nil, err
	}
	rd.chunk = 1
	return rd, nil
}

// gunzip decompresses b into the reader's reused buffer, with an
// allocation bound. The result is valid until the next call.
func (r *Reader2) gunzip(b []byte) ([]byte, error) {
	if err := r.resetGzip(b); err != nil {
		return nil, err
	}
	out := bytes.NewBuffer(r.zbuf[:0])
	if _, err := out.ReadFrom(io.LimitReader(r.zr, decompressedLimit+1)); err != nil {
		return nil, err
	}
	if out.Len() > decompressedLimit {
		return nil, fmt.Errorf("decompressed payload exceeds %d bytes", decompressedLimit)
	}
	r.zbuf = out.Bytes()
	return r.zbuf, nil
}

// resetGzip points the reader's reused decompressor at the gzip stream b.
func (r *Reader2) resetGzip(b []byte) error {
	src := bytes.NewReader(b)
	if r.zr == nil {
		zr, err := gzip.NewReader(src)
		r.zr = zr
		return err
	}
	return r.zr.Reset(src)
}

// readChunk reads and CRC-verifies one framed chunk.
func (r *Reader2) readChunk() (typ byte, records uint32, payload []byte, err error) {
	var hdr [chunkHeaderLen]byte
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
func (r *Reader2) Workload() string { return r.img.name }

// Salt returns the executor salt the trace was recorded at.
func (r *Reader2) Salt() uint64 { return r.img.salt }

// Image reconstructs the embedded static image as a Program.
func (r *Reader2) Image() (*workload.Program, error) {
	return workload.NewProgramFromImage(
		workload.Profile{Name: r.img.name, Seed: r.img.seed}, r.img.entry, r.img.code)
}

// Read decodes the next record; io.EOF at a verified end of trace.
func (r *Reader2) Read() (Record, error) {
	if r.pendLeft == 0 {
		if err := r.nextChunk(); err != nil {
			return Record{}, err
		}
	}
	rec, err := r.decodeBinary()
	if err != nil {
		return Record{}, &FormatError{Chunk: r.chunk - 1, Reason: "record decode", Err: err}
	}
	r.pendLeft--
	r.count++
	return rec, nil
}

// nextChunk loads the next record chunk into pending, setting pendLeft
// to its header count; io.EOF at a verified end of trace.
func (r *Reader2) nextChunk() error {
	if r.done {
		return io.EOF
	}
	typ, records, payload, err := r.readChunk()
	if err != nil {
		return err
	}
	c := r.chunk
	r.chunk++
	switch typ {
	case chunkEnd:
		if len(payload) != 8 {
			return &FormatError{Chunk: c, Reason: "malformed end chunk"}
		}
		if total := binary.LittleEndian.Uint64(payload); total != r.count {
			return &FormatError{Chunk: c,
				Reason: fmt.Sprintf("record count mismatch: trailer says %d, decoded %d (chunk lost?)", total, r.count)}
		}
		r.done = true
		return io.EOF
	case chunkRecords:
		if records == 0 {
			return &FormatError{Chunk: c, Reason: "empty record chunk"}
		}
		raw, err := r.gunzip(payload)
		if err != nil {
			return &FormatError{Chunk: c, Reason: "record decompress", Err: err}
		}
		if uint64(records) > uint64(len(raw)) { // every record takes at least one byte
			return &FormatError{Chunk: c, Reason: fmt.Sprintf("claims %d records in %d bytes", records, len(raw))}
		}
		r.pending = raw
		r.pendLeft = records
		return nil
	default:
		return &FormatError{Chunk: c, Reason: fmt.Sprintf("unexpected chunk type %q", typ)}
	}
}

// decodeBinary consumes one EncBinary record from pending, mirroring
// Writer2.writeBinary.
func (r *Reader2) decodeBinary() (Record, error) {
	b := r.pending
	if len(b) == 0 {
		return Record{}, io.ErrUnexpectedEOF
	}
	flags := b[0]
	b = b[1:]
	var rec Record
	if flags&flagSeqPC != 0 {
		rec.PC = r.lastPC + isa.InstrBytes
	} else {
		d, n := binary.Varint(b)
		if n <= 0 {
			return Record{}, io.ErrUnexpectedEOF
		}
		b = b[n:]
		rec.PC = isa.Addr(int64(r.lastPC) + d)
	}
	rec.Taken = flags&flagTaken != 0
	rec.Target = rec.PC + isa.InstrBytes
	if flags&flagHasTgt != 0 {
		d, n := binary.Varint(b)
		if n <= 0 {
			return Record{}, io.ErrUnexpectedEOF
		}
		b = b[n:]
		rec.Target = isa.Addr(int64(rec.PC) + d)
	}
	if flags&flagHasData != 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return Record{}, io.ErrUnexpectedEOF
		}
		b = b[n:]
		rec.DataAddr = isa.Addr(v)
	}
	r.pending = b
	r.lastPC = rec.PC
	return rec, nil
}

// RecordN2 captures n instructions of a workload execution as a v2
// trace.
func RecordN2(w io.Writer, p workload.Profile, salt uint64, n uint64) error {
	prog, err := workload.Generate(p)
	if err != nil {
		return err
	}
	exec := workload.NewExecutor(prog, salt)
	tw, err := NewWriter2(w, prog, salt, EncBinary)
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
