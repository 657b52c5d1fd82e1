// Package pcap reads and writes classic libpcap capture files (the format
// produced by tcpdump and by Patchwork's DPDK writer). Both microsecond-
// and nanosecond-resolution variants are supported. The implementation is
// streaming: records are processed one at a time with a reusable buffer,
// so multi-gigabyte captures do not need to fit in memory.
package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Magic numbers for the classic pcap format (little-endian writers).
const (
	MagicMicroseconds = 0xA1B2C3D4
	MagicNanoseconds  = 0xA1B23C4D
)

// LinkTypeEthernet is the only link type Patchwork produces.
const LinkTypeEthernet = 1

const (
	fileHeaderLen   = 24
	recordHeaderLen = 16
	// MaxSnapLen is the conventional maximum snap length.
	MaxSnapLen = 262144
)

// ErrBadMagic is returned when a file does not start with a known pcap
// magic number.
var ErrBadMagic = errors.New("pcap: bad magic number")

// FileHeader describes a capture file.
type FileHeader struct {
	// Nanosecond is true for nanosecond-resolution timestamp files.
	Nanosecond bool
	// SnapLen is the maximum stored length of each record.
	SnapLen uint32
	// LinkType is the data link type (LinkTypeEthernet).
	LinkType uint32
}

// Record is one captured frame.
type Record struct {
	// TimestampNanos is the capture time in nanoseconds since the epoch
	// (virtual time in this repository's simulations).
	TimestampNanos int64
	// OriginalLength is the frame's length on the wire.
	OriginalLength int
	// Data holds the stored (possibly truncated) bytes. For Reader, the
	// slice is only valid until the next Next call.
	Data []byte
}

// Writer writes pcap records to an underlying io.Writer. It buffers
// internally; call Flush before closing the destination.
type Writer struct {
	w       *bufio.Writer
	hdr     FileHeader
	scratch [recordHeaderLen]byte
	// Records and Bytes count what has been written (stored bytes, not
	// original lengths).
	Records int64
	Bytes   int64
}

// NewWriter writes a file header and returns a Writer. A zero SnapLen
// defaults to MaxSnapLen.
func NewWriter(w io.Writer, hdr FileHeader) (*Writer, error) {
	if hdr.SnapLen == 0 {
		hdr.SnapLen = MaxSnapLen
	}
	if hdr.LinkType == 0 {
		hdr.LinkType = LinkTypeEthernet
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	var fh [fileHeaderLen]byte
	magic := uint32(MagicMicroseconds)
	if hdr.Nanosecond {
		magic = MagicNanoseconds
	}
	binary.LittleEndian.PutUint32(fh[0:4], magic)
	binary.LittleEndian.PutUint16(fh[4:6], 2) // version 2.4
	binary.LittleEndian.PutUint16(fh[6:8], 4)
	// thiszone and sigfigs stay zero.
	binary.LittleEndian.PutUint32(fh[16:20], hdr.SnapLen)
	binary.LittleEndian.PutUint32(fh[20:24], hdr.LinkType)
	if _, err := bw.Write(fh[:]); err != nil {
		return nil, fmt.Errorf("pcap: writing file header: %w", err)
	}
	return &Writer{w: bw, hdr: hdr}, nil
}

// WriteRecord writes one frame, truncating to the file's snap length.
// originalLen is the frame's on-wire length; pass len(data) when the frame
// is untruncated.
func (w *Writer) WriteRecord(tsNanos int64, data []byte, originalLen int) error {
	if originalLen < len(data) {
		originalLen = len(data)
	}
	stored := data
	if uint32(len(stored)) > w.hdr.SnapLen {
		stored = stored[:w.hdr.SnapLen]
	}
	sec := tsNanos / 1e9
	frac := tsNanos % 1e9
	if !w.hdr.Nanosecond {
		frac /= 1000
	}
	binary.LittleEndian.PutUint32(w.scratch[0:4], uint32(sec))
	binary.LittleEndian.PutUint32(w.scratch[4:8], uint32(frac))
	binary.LittleEndian.PutUint32(w.scratch[8:12], uint32(len(stored)))
	binary.LittleEndian.PutUint32(w.scratch[12:16], uint32(originalLen))
	if _, err := w.w.Write(w.scratch[:]); err != nil {
		return fmt.Errorf("pcap: writing record header: %w", err)
	}
	if _, err := w.w.Write(stored); err != nil {
		return fmt.Errorf("pcap: writing record data: %w", err)
	}
	w.Records++
	w.Bytes += int64(len(stored))
	return nil
}

// Flush writes buffered data to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Stream is a sequential source of capture records: Next returns the
// next record or io.EOF, and the returned record's Data is only valid
// until the following call. *Reader is the file-backed implementation;
// the analysis pipeline consumes Streams so synthesized or replayed
// corpora can feed it without materializing [][]byte.
type Stream interface {
	Next() (*Record, error)
}

// ForEachStream iterates a Stream to io.EOF, stopping early on the
// first other error (returned) or callback error.
func ForEachStream(s Stream, fn func(*Record) error) error {
	for {
		rec, err := s.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// Reader reads pcap records sequentially.
type Reader struct {
	r      *bufio.Reader
	hdr    FileHeader
	rh     [recordHeaderLen]byte // in the Reader, so Next does not allocate it
	buf    []byte
	rec    Record
	torn   bool
	closed bool
}

// ReadBufferSize is the size of the read buffer NewReader puts in front
// of its source. A *bufio.Reader at least this large is used as it is,
// so a caller reading many files can reuse one buffer for all of them.
const ReadBufferSize = 1 << 16

// NewReader parses the file header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, ReadBufferSize)
	var fh [fileHeaderLen]byte
	if _, err := io.ReadFull(br, fh[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading file header: %w", err)
	}
	magic := binary.LittleEndian.Uint32(fh[0:4])
	var nano bool
	switch magic {
	case MagicMicroseconds:
	case MagicNanoseconds:
		nano = true
	default:
		return nil, fmt.Errorf("%w: 0x%08x", ErrBadMagic, magic)
	}
	hdr := FileHeader{
		Nanosecond: nano,
		SnapLen:    binary.LittleEndian.Uint32(fh[16:20]),
		LinkType:   binary.LittleEndian.Uint32(fh[20:24]),
	}
	return &Reader{r: br, hdr: hdr}, nil
}

// Header returns the file header.
func (r *Reader) Header() FileHeader { return r.hdr }

// Torn reports whether the file ended mid-record: the final record's
// header or data was cut short, as happens when a capture process dies
// mid-write. Mirroring the campaign journal's torn-tail tolerance, the
// partial record is dropped and Next reports a clean io.EOF; Torn lets
// callers that care (integrity audits) distinguish the two endings.
func (r *Reader) Torn() bool { return r.torn }

// Next returns the next record, or io.EOF at end of file (including a
// torn final record — see Torn). The returned record's Data slice is
// reused by subsequent calls.
func (r *Reader) Next() (*Record, error) {
	rh := r.rh[:]
	if _, err := io.ReadFull(r.r, rh); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			// Partial record header at end of file: torn tail.
			r.torn = true
			return nil, io.EOF
		}
		return nil, fmt.Errorf("pcap: reading record header: %w", err)
	}
	sec := binary.LittleEndian.Uint32(rh[0:4])
	frac := binary.LittleEndian.Uint32(rh[4:8])
	incl := binary.LittleEndian.Uint32(rh[8:12])
	orig := binary.LittleEndian.Uint32(rh[12:16])
	if incl > MaxSnapLen {
		return nil, fmt.Errorf("pcap: record length %d exceeds maximum", incl)
	}
	if r.hdr.SnapLen != 0 && incl > r.hdr.SnapLen {
		return nil, fmt.Errorf("pcap: record length %d exceeds snap length %d", incl, r.hdr.SnapLen)
	}
	if cap(r.buf) < int(incl) {
		r.buf = make([]byte, incl)
	}
	r.buf = r.buf[:incl]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			// Partial record data at end of file: torn tail.
			r.torn = true
			return nil, io.EOF
		}
		return nil, fmt.Errorf("pcap: reading %d record bytes: %w", incl, err)
	}
	ts := int64(sec) * 1e9
	if r.hdr.Nanosecond {
		ts += int64(frac)
	} else {
		ts += int64(frac) * 1000
	}
	r.rec = Record{TimestampNanos: ts, OriginalLength: int(orig), Data: r.buf}
	return &r.rec, nil
}

// ForEach iterates all remaining records, stopping on the first error
// other than io.EOF.
func (r *Reader) ForEach(fn func(*Record) error) error {
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}
