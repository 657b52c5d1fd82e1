// Package flowstore is the columnar on-disk flow store behind the
// streaming analysis pipeline: cold flows spilled from the in-memory
// flow table land here as append-only CRC-framed segments, and queries
// (time ranges, 5-tuple lookups) are answered from segment metadata —
// a per-segment time range and a key bloom filter — without re-scanning
// pcaps.
//
// On-disk layout (one append-only file):
//
//	segment := magic "PWFS"
//	           metaBlock  (crc32-framed: site, row count, time range,
//	                       column-region length, bloom filter)
//	           colsBlock  (crc32-framed: one byte array per column)
//
// Each block is framed [crc32 uint32][len uint32][body], the binary
// sibling of the journal's "crc32-hex8 body" line framing, and a torn
// final segment (the writer died mid-append) is detected by its CRC or
// missing bytes and ignored on open — the same tolerance the campaign
// journal applies to its WAL tail.
package flowstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync/atomic"

	"repro/internal/storefault"
	"repro/internal/wire"
)

var magic = [4]byte{'P', 'W', 'F', 'S'}

// Key identifies a flow: the virtualization tags plus network- and
// transport-layer fields. It mirrors the analysis package's FlowKey
// (which converts to and from it) without importing it — the store
// sits below the analysis layer.
type Key struct {
	VLANID           uint16
	MPLSTop          uint32
	Src, Dst         wire.Endpoint
	Proto            wire.LayerType
	SrcPort, DstPort uint16
}

// appendKeyBytes appends a canonical byte encoding of the key, used for
// bloom-filter hashing.
func appendKeyBytes(dst []byte, k Key) []byte {
	dst = append(dst, byte(k.VLANID>>8), byte(k.VLANID),
		byte(k.MPLSTop>>24), byte(k.MPLSTop>>16), byte(k.MPLSTop>>8), byte(k.MPLSTop),
		byte(k.Proto), byte(k.SrcPort>>8), byte(k.SrcPort), byte(k.DstPort>>8), byte(k.DstPort),
		byte(k.Src.Type()), byte(k.Dst.Type()))
	dst = append(dst, k.Src.Raw()...)
	dst = append(dst, k.Dst.Raw()...)
	return dst
}

// hash64 is the bloom filter's key hash: FNV-1a over the bytes,
// finished with a splitmix64 avalanche so low-entropy keys (sequential
// IPs, small ports) still spread across the full word. It must never
// change — the bloom bits of stores already on disk depend on it.
func hash64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	// splitmix64 finalizer
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Rec is one stored flow row: a key plus the totals observed over
// [FirstNs, LastNs]. FirstSeq is the global first-seen frame sequence,
// preserved so merged results can be ordered exactly as the in-memory
// baseline orders them (insertion order).
type Rec struct {
	Key             Key
	Site            string
	FirstNs, LastNs int64
	FirstSeq        uint64
	Frames          uint64
	Bytes           uint64
}

// Bloom parameters: ~10 bits and 4 probes per key give a ~1-2% false
// positive rate — a false positive only costs decoding one segment.
const (
	bloomBitsPerKey = 10
	bloomProbes     = 4
)

type bloom []byte

func newBloom(n int) bloom {
	bits := n * bloomBitsPerKey
	if bits < 64 {
		bits = 64
	}
	return make(bloom, (bits+7)/8)
}

func (b bloom) add(h uint64) {
	h1, h2 := uint32(h), uint32(h>>32)
	n := uint32(len(b) * 8)
	for i := uint32(0); i < bloomProbes; i++ {
		bit := (h1 + i*h2) % n
		b[bit/8] |= 1 << (bit % 8)
	}
}

func (b bloom) maybe(h uint64) bool {
	if len(b) == 0 {
		return false
	}
	h1, h2 := uint32(h), uint32(h>>32)
	n := uint32(len(b) * 8)
	for i := uint32(0); i < bloomProbes; i++ {
		bit := (h1 + i*h2) % n
		if b[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

// putBlock frames body as [crc][len][body].
func putBlock(w io.Writer, body []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], crc32.ChecksumIEEE(body))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// segment metadata as decoded from a metaBlock.
type segMeta struct {
	site    string
	count   int
	minNs   int64
	maxNs   int64
	colsLen uint32 // length of the framed column block (crc+len+body)
	filter  bloom
	colsOff int64 // file offset of the column block
}

func encodeMeta(m *segMeta) []byte {
	var out []byte
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) { out = append(out, tmp[:binary.PutUvarint(tmp[:], v)]...) }
	put(uint64(len(m.site)))
	out = append(out, m.site...)
	put(uint64(m.count))
	put(uint64(m.minNs))
	put(uint64(m.maxNs))
	put(uint64(m.colsLen))
	put(uint64(len(m.filter)))
	out = append(out, m.filter...)
	return out
}

func decodeMeta(b []byte) (*segMeta, error) {
	get := func() (uint64, error) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, fmt.Errorf("flowstore: truncated segment meta")
		}
		b = b[n:]
		return v, nil
	}
	siteLen, err := get()
	if err != nil {
		return nil, err
	}
	if siteLen > uint64(len(b)) {
		return nil, fmt.Errorf("flowstore: truncated site label")
	}
	m := &segMeta{site: string(b[:siteLen])}
	b = b[siteLen:]
	cnt, err := get()
	if err != nil {
		return nil, err
	}
	if cnt > 1<<30 {
		return nil, fmt.Errorf("flowstore: implausible row count %d", cnt)
	}
	m.count = int(cnt)
	minNs, err := get()
	if err != nil {
		return nil, err
	}
	maxNs, err := get()
	if err != nil {
		return nil, err
	}
	m.minNs, m.maxNs = int64(minNs), int64(maxNs)
	colsLen, err := get()
	if err != nil {
		return nil, err
	}
	if colsLen > 1<<32-1 {
		return nil, fmt.Errorf("flowstore: implausible column length %d", colsLen)
	}
	m.colsLen = uint32(colsLen)
	fl, err := get()
	if err != nil {
		return nil, err
	}
	if fl > uint64(len(b)) {
		return nil, fmt.Errorf("flowstore: truncated bloom filter")
	}
	m.filter = bloom(append([]byte(nil), b[:fl]...))
	return m, nil
}

// encodeCols lays the rows out column by column. Per-row integers are
// uvarints; timestamps are stored as deltas against the segment minimum
// (FirstNs) and the row's own FirstNs (LastNs), which keeps them short.
func encodeCols(recs []Rec, minNs int64) []byte {
	var out []byte
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) { out = append(out, tmp[:binary.PutUvarint(tmp[:], v)]...) }
	for _, r := range recs { // column: FirstNs delta
		put(uint64(r.FirstNs - minNs))
	}
	for _, r := range recs { // column: LastNs delta
		put(uint64(r.LastNs - r.FirstNs))
	}
	for _, r := range recs {
		put(r.FirstSeq)
	}
	for _, r := range recs {
		put(r.Frames)
	}
	for _, r := range recs {
		put(r.Bytes)
	}
	for _, r := range recs {
		put(uint64(r.Key.VLANID))
	}
	for _, r := range recs {
		put(uint64(r.Key.MPLSTop))
	}
	for _, r := range recs {
		out = append(out, byte(r.Key.Proto))
	}
	for _, r := range recs {
		put(uint64(r.Key.SrcPort))
	}
	for _, r := range recs {
		put(uint64(r.Key.DstPort))
	}
	for _, r := range recs { // column: endpoint types
		out = append(out, byte(r.Key.Src.Type()), byte(r.Key.Dst.Type()))
	}
	for _, r := range recs { // column: endpoint raw bytes (length from type)
		out = append(out, r.Key.Src.Raw()...)
		out = append(out, r.Key.Dst.Raw()...)
	}
	return out
}

func endpointRawLen(t wire.EndpointType) int {
	switch t {
	case wire.EndpointMAC:
		return 6
	case wire.EndpointIPv4:
		return 4
	case wire.EndpointIPv6:
		return 16
	case wire.EndpointTCPPort, wire.EndpointUDPPort:
		return 2
	default:
		return 0
	}
}

// decodeCols decodes a column block holding len(recs) rows into recs,
// overwriting every field.
func decodeCols(b []byte, m *segMeta, recs []Rec) error {
	n := len(recs)
	d := uvarints{b: b}
	for i := range recs {
		recs[i].Site = m.site
		recs[i].FirstNs = m.minNs + int64(d.next())
	}
	for i := range recs {
		recs[i].LastNs = recs[i].FirstNs + int64(d.next())
	}
	for i := range recs {
		recs[i].FirstSeq = d.next()
	}
	for i := range recs {
		recs[i].Frames = d.next()
	}
	for i := range recs {
		recs[i].Bytes = d.next()
	}
	for i := range recs {
		recs[i].Key.VLANID = uint16(d.next())
	}
	for i := range recs {
		recs[i].Key.MPLSTop = uint32(d.next())
	}
	if d.bad {
		return fmt.Errorf("flowstore: truncated column data")
	}
	if len(d.b) < n {
		return fmt.Errorf("flowstore: truncated proto column")
	}
	for i := range recs {
		recs[i].Key.Proto = wire.LayerType(d.b[i])
	}
	d.b = d.b[n:]
	for i := range recs {
		recs[i].Key.SrcPort = uint16(d.next())
	}
	for i := range recs {
		recs[i].Key.DstPort = uint16(d.next())
	}
	if d.bad {
		return fmt.Errorf("flowstore: truncated column data")
	}
	b = d.b
	if len(b) < 2*n {
		return fmt.Errorf("flowstore: truncated endpoint-type column")
	}
	types := b[:2*n]
	b = b[2*n:]
	for i := range recs {
		st := wire.EndpointType(types[2*i])
		dt := wire.EndpointType(types[2*i+1])
		sl, dl := endpointRawLen(st), endpointRawLen(dt)
		if len(b) < sl+dl {
			return fmt.Errorf("flowstore: truncated endpoint bytes")
		}
		recs[i].Key.Src = wire.NewRawEndpoint(st, b[:sl])
		b = b[sl:]
		recs[i].Key.Dst = wire.NewRawEndpoint(dt, b[:dl])
		b = b[dl:]
	}
	return nil
}

// uvarints reads consecutive uvarints from b. After the first malformed
// or missing value, bad is set and every read returns 0.
type uvarints struct {
	b   []byte
	bad bool
}

func (d *uvarints) next() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.b, d.bad = nil, true
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Writer appends segments to a flow-store file.
type Writer struct {
	f        storefault.File
	w        *bufio.Writer
	Segments int
	Rows     int64
}

// Create truncates/creates the store file at path.
func Create(path string) (*Writer, error) {
	return CreateFS(nil, path)
}

// CreateFS is Create through an explicit filesystem seam (nil means the
// real disk) — the storage-chaos injection point.
func CreateFS(fsys storefault.FS, path string) (*Writer, error) {
	f, err := storefault.Or(fsys).Create(path)
	if err != nil {
		return nil, fmt.Errorf("flowstore: %w", err)
	}
	return &Writer{f: f, w: bufio.NewWriterSize(f, 1<<16)}, nil
}

// Append writes one segment holding recs, labeled with the site the
// rows came from. Row order is preserved. Empty appends are no-ops.
func (w *Writer) Append(site string, recs []Rec) error {
	if len(recs) == 0 {
		return nil
	}
	m := &segMeta{site: site, count: len(recs)}
	m.minNs, m.maxNs = recs[0].FirstNs, recs[0].LastNs
	var keyBuf []byte
	m.filter = newBloom(len(recs))
	for _, r := range recs {
		if r.FirstNs < m.minNs {
			m.minNs = r.FirstNs
		}
		if r.LastNs > m.maxNs {
			m.maxNs = r.LastNs
		}
		keyBuf = appendKeyBytes(keyBuf[:0], r.Key)
		m.filter.add(hash64(keyBuf))
	}
	cols := encodeCols(recs, m.minNs)
	m.colsLen = uint32(len(cols) + 8) // framed length
	if _, err := w.w.Write(magic[:]); err != nil {
		return fmt.Errorf("flowstore: %w", err)
	}
	if err := putBlock(w.w, encodeMeta(m)); err != nil {
		return fmt.Errorf("flowstore: %w", err)
	}
	if err := putBlock(w.w, cols); err != nil {
		return fmt.Errorf("flowstore: %w", err)
	}
	w.Segments++
	w.Rows += int64(len(recs))
	return nil
}

// Close flushes and closes the file.
func (w *Writer) Close() error {
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return fmt.Errorf("flowstore: %w", err)
	}
	return w.f.Close()
}

// Store is an opened flow-store file: segment metadata in memory, and
// each segment's rows once a scan has decoded them.
type Store struct {
	f    storefault.File
	segs []*segMeta
	// decoded[i] holds segs[i]'s rows from the first Scan that decoded
	// them, and nil until then. Published rows are never written again.
	decoded []atomic.Pointer[[]Rec]
	rows    int64
	torn    bool
}

// Open scans the file's segment headers. A torn or corrupt final
// segment is tolerated (dropped, Torn reports true); corruption before
// the final segment is an error.
func Open(path string) (*Store, error) {
	return OpenFS(nil, path)
}

// OpenFS is Open through an explicit filesystem seam (nil means the
// real disk).
func OpenFS(fsys storefault.FS, path string) (*Store, error) {
	fsys = storefault.Or(fsys)
	f, err := fsys.Open(path)
	if err != nil {
		return nil, fmt.Errorf("flowstore: %w", err)
	}
	st := &Store{f: f}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("flowstore: %w", err)
	}
	off := int64(0)
	for off < size {
		m, next, ok := readSegHeader(f, off, size)
		if !ok {
			// Damaged tail: only tolerable at the end of the file.
			st.torn = true
			break
		}
		st.segs = append(st.segs, m)
		st.rows += int64(m.count)
		off = next
	}
	st.decoded = make([]atomic.Pointer[[]Rec], len(st.segs))
	return st, nil
}

// readSegHeader parses a segment's magic + meta block at off and
// validates that the column block fits in the file; returns the meta,
// the offset of the next segment, and ok=false on any damage.
func readSegHeader(f io.ReaderAt, off, size int64) (*segMeta, int64, bool) {
	var hdr [12]byte // magic + block frame
	if off+12 > size {
		return nil, 0, false
	}
	if _, err := f.ReadAt(hdr[:], off); err != nil {
		return nil, 0, false
	}
	if [4]byte(hdr[0:4]) != magic {
		return nil, 0, false
	}
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	mlen := binary.LittleEndian.Uint32(hdr[8:12])
	if mlen > 1<<28 || off+12+int64(mlen) > size {
		return nil, 0, false
	}
	body := make([]byte, mlen)
	if _, err := f.ReadAt(body, off+12); err != nil {
		return nil, 0, false
	}
	if crc32.ChecksumIEEE(body) != crc {
		return nil, 0, false
	}
	m, err := decodeMeta(body)
	if err != nil {
		return nil, 0, false
	}
	m.colsOff = off + 12 + int64(mlen)
	if m.colsOff+int64(m.colsLen) > size {
		return nil, 0, false
	}
	return m, m.colsOff + int64(m.colsLen), true
}

// segBuf holds one segment's column block and its decoded rows. A pass
// over every segment (ForEach, Verify) reads them all through one
// segBuf, so its memory is bounded by its largest segment.
type segBuf struct {
	cols []byte
	recs []Rec
}

// read reads, checks and decodes m's column block into sb. The rows are
// valid until the next read into sb.
func (sb *segBuf) read(f io.ReaderAt, m *segMeta) ([]Rec, error) {
	if cap(sb.cols) < int(m.colsLen) {
		sb.cols = make([]byte, m.colsLen)
	}
	buf := sb.cols[:m.colsLen]
	if _, err := f.ReadAt(buf, m.colsOff); err != nil {
		return nil, fmt.Errorf("flowstore: reading columns: %w", err)
	}
	if len(buf) < 8 {
		return nil, fmt.Errorf("flowstore: column block too short")
	}
	crc := binary.LittleEndian.Uint32(buf[0:4])
	blen := binary.LittleEndian.Uint32(buf[4:8])
	if int(blen)+8 != len(buf) {
		return nil, fmt.Errorf("flowstore: column block length mismatch")
	}
	body := buf[8:]
	if crc32.ChecksumIEEE(body) != crc {
		return nil, fmt.Errorf("flowstore: column block CRC mismatch")
	}
	// Every row takes at least one byte in each column, so a count above
	// the block length is truncated data; checking before decoding bounds
	// the allocation a corrupt count can cause.
	if m.count > len(body) {
		return nil, fmt.Errorf("flowstore: truncated column data")
	}
	if cap(sb.recs) < m.count {
		sb.recs = make([]Rec, m.count)
	}
	recs := sb.recs[:m.count]
	if err := decodeCols(body, m, recs); err != nil {
		return nil, err
	}
	return recs, nil
}

// Torn reports whether the file ended in a damaged segment that was
// dropped on open.
func (s *Store) Torn() bool { return s.torn }

// Segments returns the number of intact segments.
func (s *Store) Segments() int { return len(s.segs) }

// Rows returns the total stored row count.
func (s *Store) Rows() int64 { return s.rows }

// Close closes the underlying file.
func (s *Store) Close() error { return s.f.Close() }

// Query selects rows. Zero values leave a dimension unconstrained: a
// zero time range matches everything, an empty site matches all sites,
// a nil key matches all flows, and Limit <= 0 returns all matches.
type Query struct {
	FromNs, ToNs int64
	Site         string
	Key          *Key
	Limit        int
}

// Scan calls fn on each row matching q, in storage order (segment order,
// then row order within a segment), until fn returns false or q.Limit
// rows have been passed. Segment metadata prunes the scan: segments
// outside the time range, with a different site label, or whose bloom
// filter excludes the key are skipped without touching column data.
// The Store decodes every other segment once: the first Scan to reach
// it reads its column block, checks the CRC and length, decodes the
// rows and keeps them, and later scans, concurrent ones included,
// filter those same rows. A segment that fails to read or decode is
// not kept, so every Scan that reaches it returns the error. The rows
// fn is lent are shared by all scans of the Store and must not be
// modified. Scan may run concurrently with other scans of the same
// Store.
func (s *Store) Scan(q Query, fn func(*Rec) bool) error {
	var keyHash uint64
	if q.Key != nil {
		var kb [64]byte
		keyHash = hash64(appendKeyBytes(kb[:0], *q.Key))
	}
	passed := 0
	for i, m := range s.segs {
		if q.ToNs > 0 && m.minNs > q.ToNs {
			continue
		}
		if q.FromNs > 0 && m.maxNs < q.FromNs {
			continue
		}
		if q.Site != "" && m.site != q.Site {
			continue
		}
		if q.Key != nil && !m.filter.maybe(keyHash) {
			continue
		}
		recs, err := s.segment(i)
		if err != nil {
			return err
		}
		for j := range recs {
			r := &recs[j]
			if q.ToNs > 0 && r.FirstNs > q.ToNs {
				continue
			}
			if q.FromNs > 0 && r.LastNs < q.FromNs {
				continue
			}
			if q.Key != nil && r.Key != *q.Key {
				continue
			}
			if !fn(r) {
				return nil
			}
			passed++
			if q.Limit > 0 && passed >= q.Limit {
				return nil
			}
		}
	}
	return nil
}

// segment returns segs[i]'s rows, reading and decoding them if no scan
// has kept them yet.
func (s *Store) segment(i int) ([]Rec, error) {
	if p := s.decoded[i].Load(); p != nil {
		return *p, nil
	}
	var sb segBuf
	recs, err := sb.read(s.f, s.segs[i])
	if err != nil {
		return nil, err
	}
	// Scans racing to a segment each decode it; the first to publish
	// wins, so every scan lends the same rows.
	if !s.decoded[i].CompareAndSwap(nil, &recs) {
		return *s.decoded[i].Load(), nil
	}
	return recs, nil
}

// Query returns copies of the rows Scan passes for q.
func (s *Store) Query(q Query) ([]Rec, error) {
	var out []Rec
	if err := s.Scan(q, func(r *Rec) bool { out = append(out, *r); return true }); err != nil {
		return nil, err
	}
	return out, nil
}

// ForEach streams every stored row in storage order, stopping at the
// first error fn returns. It is one pass over the whole file, so it
// decodes each segment into one reused buffer and keeps no rows.
func (s *Store) ForEach(fn func(Rec) error) error {
	var sb segBuf
	for _, m := range s.segs {
		recs, err := sb.read(s.f, m)
		if err != nil {
			return err
		}
		for _, r := range recs {
			if err := fn(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// VerifyReport is one scrub pass over a store file. Unlike Open — which
// stops at the first damaged segment — Verify decodes every segment's
// meta AND column block (catching bit flips Open's lazy reads would
// only surface at query time) and scans past damage for later intact
// segments, which is what distinguishes a tolerable torn tail from
// mid-file corruption.
type VerifyReport struct {
	// Segments and Rows count the leading run of fully intact segments.
	Segments int
	Rows     int64
	// Good is the byte offset where the leading intact run ends — the
	// truncation point pwfsck -repair uses. Size is the file size.
	Good, Size int64
	// MidFile reports intact segments found after damage: corruption in
	// the middle of the file, not a torn tail.
	MidFile bool
}

// Damaged reports whether the scrub found anything wrong.
func (r VerifyReport) Damaged() bool { return r.Good < r.Size }

// Verify scrubs a store file (nil fsys means the real disk).
func Verify(fsys storefault.FS, path string) (VerifyReport, error) {
	fsys = storefault.Or(fsys)
	f, err := fsys.Open(path)
	if err != nil {
		return VerifyReport{}, fmt.Errorf("flowstore: %w", err)
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return VerifyReport{}, fmt.Errorf("flowstore: %w", err)
	}
	rep := VerifyReport{Size: size}
	var sb segBuf
	off, damaged := int64(0), false
	for off < size {
		m, next, ok := readSegHeader(f, off, size)
		if ok {
			if _, err := sb.read(f, m); err != nil {
				ok = false
			}
		}
		if ok {
			if !damaged {
				rep.Segments++
				rep.Rows += int64(m.count)
				rep.Good = next
			} else {
				rep.MidFile = true
			}
			off = next
			continue
		}
		if !damaged {
			rep.Good = off
			damaged = true
		}
		off = nextMagic(f, off+1, size)
		if off < 0 {
			break
		}
	}
	return rep, nil
}

// nextMagic returns the offset of the next magic occurrence at or after
// from, or -1.
func nextMagic(f io.ReaderAt, from, size int64) int64 {
	const chunk = 1 << 16
	buf := make([]byte, chunk+len(magic)-1)
	for off := from; off < size; off += chunk {
		n, _ := f.ReadAt(buf, off)
		if i := bytes.Index(buf[:n], magic[:]); i >= 0 {
			return off + int64(i)
		}
		if off+int64(n) >= size {
			break
		}
	}
	return -1
}
