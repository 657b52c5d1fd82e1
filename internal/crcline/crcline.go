// Package crcline is the line frame shared by the platform's appended
// logs — the campaign WAL, the live-telemetry ring's segments and
// provenance traces:
//
//	crc32-hex8 SP body LF
//
// eight lowercase hex digits of the IEEE CRC32 of the body, one space,
// the body (a JSON document, by convention) and a newline. Append
// builds a line; Scan reads a stream of them back under the torn-tail
// rule every reader of these formats shares: the leading run of intact
// lines is the log, a final line missing its newline is torn even when
// its checksum validates (recovery truncates, never extends), and an
// intact line after damage means the storage layer lost committed
// bytes (mid-file corruption).
//
// The package does no I/O of its own: writers own their files and
// retry policy, readers hand Scan any io.Reader.
package crcline

import (
	"bufio"
	"hash/crc32"
	"io"
	"slices"
	"strconv"
)

// Append appends the framed line for body to dst and returns the
// extended slice. It allocates only to grow dst.
func Append(dst, body []byte) []byte {
	dst = slices.Grow(dst, len(body)+10)
	crc := crc32.ChecksumIEEE(body)
	const hexdigits = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, hexdigits[(crc>>uint(shift))&0xf])
	}
	dst = append(dst, ' ')
	dst = append(dst, body...)
	return append(dst, '\n')
}

// Extent is the damage geometry of a scanned stream.
type Extent struct {
	Records int   // lines in the leading intact run
	Good    int64 // byte offset where the leading intact run ends
	Size    int64 // bytes read
	MidFile bool  // an intact line follows the damage
}

// Damaged reports whether anything follows the leading intact run.
// Truncating the stream to Good repairs it.
func (e Extent) Damaged() bool { return e.Good < e.Size }

// Scan reads framed lines from r to EOF. fn sees the body of each line
// of the leading intact run, borrowed for the call only; returning
// false ends the run at that line, as damage does. The error is r's.
func Scan(r io.Reader, fn func(body []byte) bool) (Extent, error) {
	return Lines(r, intact, func(line []byte) bool { return fn(line[9:]) })
}

// intact checks one line's frame and checksum.
func intact(line []byte) bool {
	if len(line) < 9 || line[8] != ' ' {
		return false
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	return err == nil && crc32.ChecksumIEEE(line[9:]) == uint32(want)
}

// Lines is Scan with the caller's line check in place of the frame:
// valid decides whether a line (newline stripped) is intact, and fn
// sees each line of the leading intact run.
func Lines(r io.Reader, valid func(line []byte) bool, fn func(line []byte) bool) (Extent, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var (
		e       Extent
		long    []byte // a line longer than br's buffer, reassembled
		damaged bool
	)
	for {
		chunk, err := br.ReadSlice('\n')
		e.Size += int64(len(chunk))
		if err == bufio.ErrBufferFull {
			long = append(long, chunk...)
			continue
		}
		line := chunk
		if len(long) > 0 {
			long = append(long, chunk...)
			line, long = long, long[:0]
		}
		if err == io.EOF {
			return e, nil // a final line without its newline is torn
		}
		if err != nil {
			return e, err
		}
		line = line[:len(line)-1]
		switch {
		case !valid(line):
			damaged = true
		case damaged:
			e.MidFile = true
		case fn(line):
			e.Records++
			e.Good = e.Size
		default:
			damaged = true
		}
	}
}
