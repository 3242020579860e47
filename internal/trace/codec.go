package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
)

// Binary trace format:
//
//	magic   "GMAPTRC1"                  8 bytes
//	name    uvarint length + bytes
//	grid    uvarint
//	block   uvarint
//	threads uvarint
//	for each thread:
//	    accesses uvarint
//	    for each access:
//	        pc    uvarint  (delta-encoded against previous pc, zig-zag)
//	        addr  uvarint  (delta-encoded against previous addr, zig-zag)
//	        kind  1 byte
//
// Delta + zig-zag encoding exploits the strong spatial regularity of GPU
// streams: most consecutive accesses by a thread differ by a small stride,
// so the encoded form is typically 3-6x smaller than raw records.

const binaryMagic = "GMAPTRC1"

var (
	// ErrBadMagic is returned when decoding data that is not a G-MAP
	// binary trace.
	ErrBadMagic = errors.New("trace: bad magic, not a G-MAP binary trace")
	// errTooLarge guards against corrupt headers requesting absurd
	// allocations.
	errTooLarge = errors.New("trace: header count exceeds sanity limit")
)

// FormatError is a decode failure that carries its position in the
// input, so a corrupt multi-gigabyte trace file reports where it broke
// instead of just that it broke. Offset is the byte offset consumed when
// the binary decoder failed (-1 when not applicable); Line is the 1-based
// line of the text decoder failure (0 when not applicable). Unwrap
// exposes the cause, so errors.Is(err, ErrBadMagic) etc. keep working.
type FormatError struct {
	Offset int64
	Line   int
	Err    error
}

func (e *FormatError) Error() string {
	// Causes from this package already carry the "trace: " prefix;
	// splice the position in after it rather than stacking prefixes.
	cause := strings.TrimPrefix(e.Err.Error(), "trace: ")
	switch {
	case e.Line > 0:
		return fmt.Sprintf("trace: line %d: %s", e.Line, cause)
	case e.Offset >= 0:
		return fmt.Sprintf("trace: offset %d: %s", e.Offset, cause)
	default:
		return e.Err.Error()
	}
}

func (e *FormatError) Unwrap() error { return e.Err }

const maxReasonableCount = 1 << 34

// allocHint caps eager slice preallocation from decoded header counts. A
// corrupt header can claim up to maxReasonableCount elements; growing the
// slice as elements actually parse bounds memory by the real input size
// (every element consumes at least one input byte, so a truncated stream
// errors out long before a giant claimed count materializes).
func allocHint(claimed uint64) int {
	const max = 1 << 16
	if claimed > max {
		return max
	}
	return int(claimed)
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// chunkSize is the size of the byte window both binary formats are
// written and read through: one Write or Read per chunk, not per field.
const chunkSize = 64 << 10

// windows recycles the codecs' byte windows, so a small trace does not
// pay for a fresh chunk. The spare capacity past chunkSize holds the
// record that crosses the chunk boundary.
var windows = sync.Pool{New: func() any {
	b := make([]byte, chunkSize+4*binary.MaxVarintLen64)
	return &b
}}

// binWriter appends an encoded stream to a reused buffer and hands the
// buffer to w each time it fills.
type binWriter struct {
	w   io.Writer
	buf []byte
	win *[]byte
}

// newBinWriter starts a stream with magic and the header both formats
// share: the name, the launch geometry and the count of records that
// follow. The caller releases the writer when done.
func newBinWriter(w io.Writer, magic, name string, grid, block, n int) *binWriter {
	win := windows.Get().(*[]byte)
	bw := &binWriter{w: w, buf: (*win)[:0], win: win}
	bw.buf = append(bw.buf, magic...)
	bw.buf = binary.AppendUvarint(bw.buf, uint64(len(name)))
	bw.buf = append(bw.buf, name...)
	bw.buf = binary.AppendUvarint(bw.buf, uint64(grid))
	bw.buf = binary.AppendUvarint(bw.buf, uint64(block))
	bw.buf = binary.AppendUvarint(bw.buf, uint64(n))
	return bw
}

// flush writes out the buffered bytes.
func (bw *binWriter) flush() error {
	n, err := bw.w.Write(bw.buf)
	if err == nil && n < len(bw.buf) {
		err = io.ErrShortWrite
	}
	bw.buf = bw.buf[:0]
	return err
}

// flushFull writes out the buffer once it holds a chunk.
func (bw *binWriter) flushFull() error {
	if len(bw.buf) < chunkSize {
		return nil
	}
	return bw.flush()
}

// release returns the buffer to the pool.
func (bw *binWriter) release() {
	*bw.win = bw.buf[:cap(bw.buf)]
	windows.Put(bw.win)
}

// binReader decodes from a window over r, refilled a chunk at a time.
// off counts the bytes that have left the window, so off+pos is the
// number of bytes consumed: the offset a FormatError reports.
type binReader struct {
	r        io.Reader
	buf      []byte
	win      *[]byte
	pos, end int
	off      int64
	err      error // the first error r returned
}

// newBinReader returns a reader over r; the caller releases it when
// done.
func newBinReader(r io.Reader) *binReader {
	win := windows.Get().(*[]byte)
	return &binReader{r: r, buf: *win, win: win}
}

// release returns the window to the pool.
func (d *binReader) release() { windows.Put(d.win) }

// fail wraps err with the current offset.
func (d *binReader) fail(err error) error {
	return &FormatError{Offset: d.off + int64(d.pos), Err: err}
}

// fill reads until the window holds n unread bytes, and reports whether
// it does; when it does not, r has failed or ended. n is at most the
// window's length: the longest field is a name, capped at 1<<16 bytes.
func (d *binReader) fill(n int) bool {
	if d.end-d.pos >= n {
		return true
	}
	d.off += int64(d.pos)
	copy(d.buf, d.buf[d.pos:d.end])
	d.end -= d.pos
	d.pos = 0
	for empty := 0; d.end < n && d.err == nil; {
		m, err := d.r.Read(d.buf[d.end:])
		d.end += m
		d.err = err
		if m == 0 && err == nil {
			if empty++; empty == 100 {
				d.err = io.ErrNoProgress
			}
		}
	}
	return d.end >= n
}

// short consumes what is left of the input and returns the error for
// an input that ended inside a field, as io.ReadFull reports it: io.EOF
// only when the field had not begun.
func (d *binReader) short() error {
	err := d.err
	if d.pos < d.end && err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	d.pos = d.end
	return err
}

// next consumes the next n bytes and returns them; they stay valid until
// the next read.
func (d *binReader) next(n int) ([]byte, error) {
	if !d.fill(n) {
		return nil, d.short()
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b, nil
}

// errOverflow is binary.ReadUvarint's error for a varint longer than 64
// bits.
var errOverflow = errors.New("binary: varint overflows a 64-bit integer")

// uvarint decodes a varint, consuming the bytes binary.ReadUvarint
// would: through the terminating byte, or ten bytes on overflow.
func (d *binReader) uvarint() (uint64, error) {
	if d.end-d.pos >= binary.MaxVarintLen64 {
		if v, n := binary.Uvarint(d.buf[d.pos : d.pos+binary.MaxVarintLen64]); n > 0 {
			d.pos += n
			return v, nil
		}
	}
	return d.uvarintSlow()
}

// uvarintSlow is uvarint near the end of the window: it refills, and
// reports an overflowing or cut-short varint.
func (d *binReader) uvarintSlow() (uint64, error) {
	if d.fill(binary.MaxVarintLen64) {
		v, n := binary.Uvarint(d.buf[d.pos : d.pos+binary.MaxVarintLen64])
		if n > 0 {
			d.pos += n
			return v, nil
		}
		d.pos += binary.MaxVarintLen64
		return 0, d.fail(fmt.Errorf("truncated stream: %w", errOverflow))
	}
	// Fewer than ten bytes are left, so the varint ends or is cut short.
	v, n := binary.Uvarint(d.buf[d.pos:d.end])
	if n > 0 {
		d.pos += n
		return v, nil
	}
	return 0, d.truncated()
}

// readByte consumes one byte.
func (d *binReader) readByte() (byte, error) {
	if d.pos == d.end && !d.fill(1) {
		return 0, d.truncated()
	}
	b := d.buf[d.pos]
	d.pos++
	return b, nil
}

// truncated reports a stream that ended inside a field.
func (d *binReader) truncated() error {
	return d.fail(fmt.Errorf("truncated stream: %w", d.short()))
}

// header reads what newBinWriter writes after the magic, which it
// checks first: the name, the launch geometry and the record count, each
// capped so that a corrupt header can neither wrap an int negative nor
// claim an absurd allocation.
func (d *binReader) header(magic string, badMagic error) (name string, grid, block, n int, err error) {
	m, err := d.next(len(magic))
	if err != nil {
		return "", 0, 0, 0, d.fail(fmt.Errorf("reading magic: %w", err))
	}
	if string(m) != magic {
		return "", 0, 0, 0, &FormatError{Offset: 0, Err: badMagic}
	}
	nameLen, err := d.uvarint()
	if err != nil {
		return "", 0, 0, 0, err
	}
	if nameLen > 1<<16 {
		return "", 0, 0, 0, d.fail(errTooLarge)
	}
	b, err := d.next(int(nameLen))
	if err != nil {
		return "", 0, 0, 0, d.fail(fmt.Errorf("reading name: %w", err))
	}
	name = string(b)
	var v [3]uint64
	for i := range v {
		if v[i], err = d.uvarint(); err != nil {
			return "", 0, 0, 0, err
		}
	}
	if v[0] > maxReasonableCount || v[1] > maxReasonableCount || v[2] > maxReasonableCount {
		return "", 0, 0, 0, d.fail(errTooLarge)
	}
	return name, int(v[0]), int(v[1]), int(v[2]), nil
}

// count reads a count and caps it at maxReasonableCount.
func (d *binReader) count() (int, error) {
	v, err := d.uvarint()
	if err == nil && v > maxReasonableCount {
		err = d.fail(errTooLarge)
	}
	return int(v), err
}

// WriteBinary encodes k into w using the compact binary format.
func WriteBinary(w io.Writer, k *KernelTrace) error {
	bw := newBinWriter(w, binaryMagic, k.Name, k.GridDim, k.BlockDim, len(k.Threads))
	defer bw.release()
	for i := range k.Threads {
		if err := bw.flushFull(); err != nil {
			return err
		}
		tt := &k.Threads[i]
		bw.buf = binary.AppendUvarint(bw.buf, uint64(len(tt.Accesses)))
		var prevPC, prevAddr uint64
		for _, a := range tt.Accesses {
			if err := bw.flushFull(); err != nil {
				return err
			}
			bw.buf = binary.AppendUvarint(bw.buf, zigzag(int64(a.PC-prevPC)))
			bw.buf = binary.AppendUvarint(bw.buf, zigzag(int64(a.Addr-prevAddr)))
			bw.buf = append(bw.buf, byte(a.Kind))
			prevPC, prevAddr = a.PC, a.Addr
		}
	}
	return bw.flush()
}

// ReadBinary decodes a kernel trace previously written by WriteBinary
// and validates it (see KernelTrace.Validate). Decode and validation
// failures are *FormatError values carrying the number of bytes
// consumed when the stream broke.
func ReadBinary(r io.Reader) (*KernelTrace, error) {
	d := newBinReader(r)
	defer d.release()
	name, grid, block, nThreads, err := d.header(binaryMagic, ErrBadMagic)
	if err != nil {
		return nil, err
	}
	k := &KernelTrace{
		Name:     name,
		GridDim:  grid,
		BlockDim: block,
		Threads:  make([]ThreadTrace, 0, allocHint(uint64(nThreads))),
	}
	for t := 0; t < nThreads; t++ {
		nAcc, err := d.count()
		if err != nil {
			return nil, err
		}
		tt := ThreadTrace{
			ThreadID: t,
			Accesses: make([]Access, 0, allocHint(uint64(nAcc))),
		}
		var prevPC, prevAddr uint64
		for i := 0; i < nAcc; i++ {
			dpc, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			daddr, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			kind, err := d.readByte()
			if err != nil {
				return nil, err
			}
			if kind > byte(Sync) {
				return nil, d.fail(fmt.Errorf("invalid access kind %d", kind))
			}
			prevPC += uint64(unzigzag(dpc))
			prevAddr += uint64(unzigzag(daddr))
			tt.Accesses = append(tt.Accesses, Access{PC: prevPC, Addr: prevAddr, Kind: Kind(kind)})
		}
		k.Threads = append(k.Threads, tt)
	}
	if err := k.Validate(); err != nil {
		return nil, d.fail(err)
	}
	return k, nil
}

// WriteText emits a line-oriented human-readable form:
//
//	# gmap-trace name=<name> grid=<g> block=<b>
//	T <tid>
//	LD <pc-hex> <addr-hex>
//	ST <pc-hex> <addr-hex>
//
// It is intended for inspection and interchange with external tools, not
// for large traces.
func WriteText(w io.Writer, k *KernelTrace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# gmap-trace name=%s grid=%d block=%d\n", k.Name, k.GridDim, k.BlockDim); err != nil {
		return err
	}
	for i := range k.Threads {
		if _, err := fmt.Fprintf(bw, "T %d\n", k.Threads[i].ThreadID); err != nil {
			return err
		}
		for _, a := range k.Threads[i].Accesses {
			if _, err := fmt.Fprintf(bw, "%s %x %x\n", a.Kind, a.PC, a.Addr); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadText parses the format produced by WriteText and validates the
// result (see KernelTrace.Validate). Parse failures are *FormatError
// values carrying the 1-based line number.
func ReadText(r io.Reader) (*KernelTrace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	k := &KernelTrace{}
	var cur *ThreadTrace
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "#"):
			for _, field := range strings.Fields(line[1:]) {
				if eq := strings.IndexByte(field, '='); eq > 0 {
					key, val := field[:eq], field[eq+1:]
					switch key {
					case "name":
						k.Name = val
					case "grid":
						fmt.Sscanf(val, "%d", &k.GridDim)
					case "block":
						fmt.Sscanf(val, "%d", &k.BlockDim)
					}
				}
			}
		case strings.HasPrefix(line, "T "):
			var tid int
			if _, err := fmt.Sscanf(line, "T %d", &tid); err != nil {
				return nil, &FormatError{Offset: -1, Line: lineNo, Err: fmt.Errorf("bad thread header %q", line)}
			}
			k.Threads = append(k.Threads, ThreadTrace{ThreadID: tid})
			cur = &k.Threads[len(k.Threads)-1]
		default:
			if cur == nil {
				return nil, &FormatError{Offset: -1, Line: lineNo, Err: fmt.Errorf("access before thread header")}
			}
			var kindStr string
			var pc, addr uint64
			if _, err := fmt.Sscanf(line, "%s %x %x", &kindStr, &pc, &addr); err != nil {
				return nil, &FormatError{Offset: -1, Line: lineNo, Err: fmt.Errorf("bad access %q", line)}
			}
			var kind Kind
			switch kindStr {
			case "LD":
				kind = Load
			case "ST":
				kind = Store
			case "BAR":
				kind = Sync
			default:
				return nil, &FormatError{Offset: -1, Line: lineNo, Err: fmt.Errorf("unknown kind %q", kindStr)}
			}
			cur.Accesses = append(cur.Accesses, Access{PC: pc, Addr: addr, Kind: kind})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := k.Validate(); err != nil {
		return nil, &FormatError{Offset: -1, Line: lineNo, Err: err}
	}
	return k, nil
}
