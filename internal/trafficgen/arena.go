package trafficgen

// FrameArena is a chunked byte arena for frame data. Sample-scale
// callers clone each generated frame into the arena instead of the heap,
// then recycle every chunk with a single Reset between samples — the
// allocation profile becomes O(chunks) per run instead of O(frames).
type FrameArena struct {
	chunks [][]byte
	cur    int // index of the chunk being filled
	off    int // fill offset within chunks[cur]
}

// arenaChunkSize is small enough that a long-lived arena holding one
// traffic window (a few hundred frames) does not pin a mostly-empty
// megabyte, and large enough that a chunk holds dozens of full frames.
const arenaChunkSize = 64 << 10

// NewFrameArena returns an empty arena.
func NewFrameArena() *FrameArena { return &FrameArena{} }

// Reset recycles all chunks. Previously returned slices become invalid
// (their bytes will be overwritten by future Allocs).
func (a *FrameArena) Reset() { a.cur, a.off = 0, 0 }

// Alloc copies b into the arena and returns the stable copy, valid
// until the next Reset.
func (a *FrameArena) Alloc(b []byte) []byte {
	n := len(b)
	if n == 0 {
		return nil
	}
	if n > arenaChunkSize {
		// Frames never approach the chunk size; fall back to a plain
		// heap copy (not recycled) rather than complicate the chunk list.
		return append([]byte(nil), b...)
	}
	for {
		if a.cur == len(a.chunks) {
			a.chunks = append(a.chunks, make([]byte, arenaChunkSize))
		}
		c := a.chunks[a.cur]
		if a.off+n <= len(c) {
			out := c[a.off : a.off+n : a.off+n]
			copy(out, b)
			a.off += n
			return out
		}
		a.cur++
		a.off = 0
	}
}
