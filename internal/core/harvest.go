package patchwork

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// streamChunk is the size of one capture-stream chunk. pcap.Writer hands
// its destination 64 KiB pieces, so a busy stream fills one chunk per
// flush.
const streamChunk = 64 << 10

// chunkStream is an append-only capture stream. Writes fill fixed-size
// chunks, so a growing pcap never copies the bytes it already holds; a
// doubling buffer allocates about three times what it keeps. Each new
// chunk comes from the coordinator's free list.
type chunkStream struct {
	chunks [][]byte
	free   *chunkList
}

// Write appends p, starting a new chunk whenever the last one is full.
func (s *chunkStream) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		last := len(s.chunks) - 1
		if last < 0 || len(s.chunks[last]) == streamChunk {
			s.chunks = append(s.chunks, s.free.take())
			last++
		}
		c := s.chunks[last]
		k := copy(c[len(c):streamChunk], p)
		s.chunks[last] = c[:len(c)+k]
		p = p[k:]
	}
	return n, nil
}

// detach hands the stream's chunks to the caller. Later writes start
// new chunks, so the caller's chunks are never written again.
func (s *chunkStream) detach() [][]byte {
	c := s.chunks
	s.chunks = nil
	return c
}

// chunkList is the coordinator's free list of capture-stream chunks.
// Streams take chunks on the simulation goroutine (on lane workers under
// -lanes) and compression returns them from its own goroutines, so a
// mutex guards the list. Sites harvest at staggered times, so the chunks
// one site's harvest returns carry other sites' later captures.
type chunkList struct {
	mu   sync.Mutex
	free [][]byte
}

// take returns an empty chunk, allocating one only when the list is
// empty.
func (l *chunkList) take() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return make([]byte, 0, streamChunk)
	}
	c := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return c
}

// give returns chunks to the list, emptied. The caller must not touch
// them again.
func (l *chunkList) give(chunks [][]byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range chunks {
		l.free = append(l.free, c[:0])
	}
}

// drop lets the garbage collector have every idle chunk.
func (l *chunkList) drop() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.free = nil
}

// harvestedPcap is one capture stream handed off for compression. The
// compressing goroutine returns raw's chunks to the coordinator's free
// list once z holds its compressed bytes, or err its failure.
type harvestedPcap struct {
	raw [][]byte
	z   []byte
	err error
}

// compress gzips h's stream on a goroutine of its own, off the
// simulation goroutine. A token from compressSem keeps at most
// GOMAXPROCS streams compressing at once. site counts the harvesting
// site's streams still being compressed; its finish waits on it.
func (c *Coordinator) compress(h *harvestedPcap, site *sync.WaitGroup) {
	c.compressing.Add(1)
	site.Add(1)
	go func() {
		c.compressSem <- struct{}{}
		h.z, h.err = compressPcap(h.raw)
		c.chunks.give(h.raw)
		h.raw = nil
		<-c.compressSem
		site.Done()
		c.compressing.Done()
	}()
}

// gzipScratch is a pooled compressor plus its output buffer. A gzip
// writer carries about a megabyte of state, so harvests share a pool
// sized by how many run at once rather than keeping one per site.
type gzipScratch struct {
	out bytes.Buffer
	zw  *gzip.Writer
}

var gzipPool = sync.Pool{New: func() any {
	s := new(gzipScratch)
	s.zw, _ = gzip.NewWriterLevel(&s.out, gzip.BestSpeed)
	return s
}}

// compressPcap gzips one chunked pcap stream at BestSpeed and returns an
// exact-size copy of the compressed bytes. A reset writer emits the same
// bytes as a fresh one, so pooling leaves bundles unchanged.
func compressPcap(chunks [][]byte) ([]byte, error) {
	s := gzipPool.Get().(*gzipScratch)
	defer gzipPool.Put(s)
	s.out.Reset()
	s.zw.Reset(&s.out)
	for _, c := range chunks {
		if _, err := s.zw.Write(c); err != nil {
			return nil, fmt.Errorf("compressing pcap: %w", err)
		}
	}
	if err := s.zw.Close(); err != nil {
		return nil, fmt.Errorf("closing gzip: %w", err)
	}
	return bytes.Clone(s.out.Bytes()), nil
}

// DecompressPcaps expands the bundle's capture streams for analysis,
// decompressing up to GOMAXPROCS of them at once. When streams fail, the
// error names the lowest-index one.
func (b *Bundle) DecompressPcaps() ([][]byte, error) {
	out := make([][]byte, len(b.CompressedPcaps))
	errs := make([]error, len(b.CompressedPcaps))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(out)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(out); i = int(next.Add(1) - 1) {
				out[i], errs[i] = decompressPcap(b.CompressedPcaps[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("patchwork: bundle pcap %d: %w", i, err)
		}
	}
	return out, nil
}

// gunzipScratch is a pooled decompressor and the reader it inflates
// from. Reset clears a reader's header, error and dictionary, so a
// reader that failed on one stream decompresses the next like a fresh
// one.
type gunzipScratch struct {
	src bytes.Reader
	zr  gzip.Reader
}

var gunzipPool = sync.Pool{New: func() any { return new(gunzipScratch) }}

// decompressPcap expands one gzip stream into a buffer presized from its
// trailer. The buffer is the caller's; only the reader is pooled.
func decompressPcap(cp []byte) ([]byte, error) {
	s := gunzipPool.Get().(*gunzipScratch)
	defer gunzipPool.Put(s)
	s.src.Reset(cp)
	if err := s.zr.Reset(&s.src); err != nil {
		return nil, err
	}
	// ReadFrom wants MinRead spare bytes before it sees EOF; without
	// them a buffer sized exactly would double on the final read.
	buf := bytes.NewBuffer(make([]byte, 0, gzipSizeHint(cp)+bytes.MinRead))
	if _, err := buf.ReadFrom(&s.zr); err != nil {
		return nil, err
	}
	if err := s.zr.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// maxDeflateRatio bounds how far a deflate stream can expand: the
// longest match emits 258 bytes and costs at least two bits.
const maxDeflateRatio = 1032

// gzipSizeHint reads the decompressed size a gzip stream claims in its
// ISIZE trailer (the last four bytes, the length mod 2^32). The claim is
// unverified until the stream is read, so it is clamped to the most the
// compressed bytes could expand to: a lying trailer cannot force a huge
// allocation, and the reader reports the mismatch as ErrChecksum.
func gzipSizeHint(gz []byte) int {
	if len(gz) < 4 {
		return 0
	}
	n := int64(binary.LittleEndian.Uint32(gz[len(gz)-4:]))
	return int(min(n, maxDeflateRatio*int64(len(gz))))
}
