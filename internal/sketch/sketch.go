// Package sketch provides the bounded-memory summary structures used by
// the streaming analysis pipeline: a HyperLogLog cardinality estimator
// and a space-saving heavy-hitter summary. Both are deterministic —
// identical insertion sequences produce identical state, and Merge is
// well-defined — so streamed runs stay byte-reproducible across lane
// counts and resumes, matching the rest of the repository's
// serial-identical contract.
package sketch

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Hash64 is the deterministic 64-bit hash shared by every sketch in the
// pipeline: FNV-1a over the bytes, finished with a splitmix64 avalanche
// so low-entropy keys (sequential IPs, small ports) still spread across
// the full word. It must never change — on-disk sketches depend on it.
func Hash64(b []byte) uint64 {
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

// HLL is a HyperLogLog cardinality estimator with 2^precision
// registers. The zero value is not usable; construct with NewHLL.
type HLL struct {
	precision uint8
	regs      []uint8
}

// NewHLL returns an estimator with 2^precision registers (4..16).
// precision 14 (16 KiB, ~0.8% standard error) suits flow cardinality;
// smaller precisions suit per-site sub-sketches.
func NewHLL(precision uint8) *HLL {
	if precision < 4 || precision > 16 {
		panic(fmt.Sprintf("sketch: HLL precision %d out of range [4,16]", precision))
	}
	return &HLL{precision: precision, regs: make([]uint8, 1<<precision)}
}

// Precision returns the register-count exponent.
func (h *HLL) Precision() uint8 { return h.precision }

// AddHash inserts a pre-hashed item.
func (h *HLL) AddHash(x uint64) {
	idx := x >> (64 - h.precision)
	// Rank of the first set bit in the remaining stream, 1-based; the
	// shifted-in 1 caps the rank for all-zero remainders.
	rest := x<<h.precision | 1<<(h.precision-1)
	rank := uint8(bits.LeadingZeros64(rest)) + 1
	if rank > h.regs[idx] {
		h.regs[idx] = rank
	}
}

// Add hashes and inserts the item's bytes.
func (h *HLL) Add(b []byte) { h.AddHash(Hash64(b)) }

// Count estimates the number of distinct items inserted, using the
// standard bias-corrected estimator with linear counting for the small
// range.
func (h *HLL) Count() uint64 {
	m := float64(len(h.regs))
	var sum float64
	zeros := 0
	for _, r := range h.regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	switch len(h.regs) {
	case 16:
		alpha = 0.673
	case 32:
		alpha = 0.697
	case 64:
		alpha = 0.709
	}
	est := alpha * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		// Linear counting: more accurate while registers remain empty.
		est = m * math.Log(m/float64(zeros))
	}
	return uint64(est + 0.5)
}

// StdError returns the estimator's relative standard error
// (1.04/sqrt(m)); the reported count is within ±2-3 standard errors of
// the truth with high probability.
func (h *HLL) StdError() float64 {
	return 1.04 / math.Sqrt(float64(len(h.regs)))
}

// Merge folds other into h (register-wise max). Both sketches must use
// the same precision.
func (h *HLL) Merge(other *HLL) error {
	if other.precision != h.precision {
		return fmt.Errorf("sketch: merging HLL precision %d into %d", other.precision, h.precision)
	}
	for i, r := range other.regs {
		if r > h.regs[i] {
			h.regs[i] = r
		}
	}
	return nil
}

// MarshalBinary encodes the sketch as precision byte + registers.
func (h *HLL) MarshalBinary() ([]byte, error) {
	out := make([]byte, 1+len(h.regs))
	out[0] = h.precision
	copy(out[1:], h.regs)
	return out, nil
}

// UnmarshalBinary decodes a sketch produced by MarshalBinary.
func (h *HLL) UnmarshalBinary(b []byte) error {
	if len(b) < 1 {
		return fmt.Errorf("sketch: HLL encoding too short")
	}
	p := b[0]
	if p < 4 || p > 16 {
		return fmt.Errorf("sketch: HLL precision %d out of range", p)
	}
	if len(b) != 1+(1<<p) {
		return fmt.Errorf("sketch: HLL encoding length %d, want %d", len(b), 1+(1<<p))
	}
	h.precision = p
	h.regs = append(h.regs[:0], b[1:]...)
	return nil
}

// Heavy is one entry of a space-saving summary: an item, its estimated
// count, and the overestimation bound (true count is within
// [Count-Err, Count]).
type Heavy struct {
	Key   string
	Count uint64
	Err   uint64
}

// SpaceSaving is the Metwally et al. heavy-hitter summary: it tracks at
// most K items, evicting the minimum-count entry when a new item
// arrives at capacity and crediting the newcomer with the evictee's
// count (recorded as its error bound). Any item whose true frequency
// exceeds N/K is guaranteed to be present. Eviction ties break on the
// lexicographically smallest key, keeping the summary deterministic.
type SpaceSaving struct {
	k       int
	entries map[string]*ssEntry
	n       uint64
}

type ssEntry struct {
	count uint64
	err   uint64
}

// NewSpaceSaving returns a summary tracking at most k items.
func NewSpaceSaving(k int) *SpaceSaving {
	if k < 1 {
		panic("sketch: SpaceSaving k must be positive")
	}
	return &SpaceSaving{k: k, entries: make(map[string]*ssEntry, k)}
}

// K returns the summary's capacity.
func (s *SpaceSaving) K() int { return s.k }

// N returns the total weight observed.
func (s *SpaceSaving) N() uint64 { return s.n }

// Add records one occurrence of key.
func (s *SpaceSaving) Add(key string) { s.AddWeighted(key, 1) }

// AddWeighted records w occurrences of key.
func (s *SpaceSaving) AddWeighted(key string, w uint64) {
	s.n += w
	if e, ok := s.entries[key]; ok {
		e.count += w
		return
	}
	if len(s.entries) < s.k {
		s.entries[key] = &ssEntry{count: w}
		return
	}
	// Evict the minimum-count entry; ties break on the smallest key so
	// identical streams produce identical summaries.
	var minKey string
	var minE *ssEntry
	for k, e := range s.entries {
		if minE == nil || e.count < minE.count || (e.count == minE.count && k < minKey) {
			minKey, minE = k, e
		}
	}
	delete(s.entries, minKey)
	s.entries[key] = &ssEntry{count: minE.count + w, err: minE.count}
}

// Top returns up to n entries ordered by estimated count descending,
// ties broken by key ascending. n <= 0 returns all tracked entries.
func (s *SpaceSaving) Top(n int) []Heavy {
	out := make([]Heavy, 0, len(s.entries))
	for k, e := range s.entries {
		out = append(out, Heavy{Key: k, Count: e.count, Err: e.err})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Merge folds other into s: counts and error bounds add for shared
// keys, then the combined set is trimmed back to capacity (largest
// counts survive, ties on key). The merged summary keeps the
// space-saving guarantee for the union stream with error bounds summed.
func (s *SpaceSaving) Merge(other *SpaceSaving) {
	s.n += other.n
	for k, oe := range other.entries {
		if e, ok := s.entries[k]; ok {
			e.count += oe.count
			e.err += oe.err
		} else {
			s.entries[k] = &ssEntry{count: oe.count, err: oe.err}
		}
	}
	if len(s.entries) <= s.k {
		return
	}
	all := make([]Heavy, 0, len(s.entries))
	for k, e := range s.entries {
		all = append(all, Heavy{Key: k, Count: e.count, Err: e.err})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Key < all[j].Key
	})
	for _, h := range all[s.k:] {
		delete(s.entries, h.Key)
	}
}

// MarshalBinary encodes the summary: k, n, then each entry sorted by
// key (length-prefixed key, count, err). Sorting makes the encoding a
// canonical function of the summary's contents.
func (s *SpaceSaving) MarshalBinary() ([]byte, error) {
	keys := make([]string, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []byte
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		out = append(out, tmp[:binary.PutUvarint(tmp[:], v)]...)
	}
	put(uint64(s.k))
	put(s.n)
	put(uint64(len(keys)))
	for _, k := range keys {
		e := s.entries[k]
		put(uint64(len(k)))
		out = append(out, k...)
		put(e.count)
		put(e.err)
	}
	return out, nil
}

// UnmarshalBinary decodes a summary produced by MarshalBinary.
func (s *SpaceSaving) UnmarshalBinary(b []byte) error {
	get := func() (uint64, error) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, fmt.Errorf("sketch: truncated SpaceSaving encoding")
		}
		b = b[n:]
		return v, nil
	}
	k, err := get()
	if err != nil {
		return err
	}
	if k < 1 || k > 1<<20 {
		return fmt.Errorf("sketch: SpaceSaving k %d out of range", k)
	}
	n, err := get()
	if err != nil {
		return err
	}
	cnt, err := get()
	if err != nil {
		return err
	}
	if cnt > k {
		return fmt.Errorf("sketch: SpaceSaving entry count %d exceeds k %d", cnt, k)
	}
	entries := make(map[string]*ssEntry, cnt)
	for i := uint64(0); i < cnt; i++ {
		kl, err := get()
		if err != nil {
			return err
		}
		if kl > uint64(len(b)) {
			return fmt.Errorf("sketch: truncated SpaceSaving key")
		}
		key := string(b[:kl])
		b = b[kl:]
		c, err := get()
		if err != nil {
			return err
		}
		e, err := get()
		if err != nil {
			return err
		}
		if _, dup := entries[key]; dup {
			return fmt.Errorf("sketch: duplicate SpaceSaving key %q", key)
		}
		entries[key] = &ssEntry{count: c, err: e}
	}
	s.k = int(k)
	s.n = n
	s.entries = entries
	return nil
}

// TopK is the space-saving summary generalized to any comparable key —
// the flow table uses it with struct keys so the per-frame hot path
// performs no string conversions. Eviction ties break via the less
// function, keeping summaries deterministic. Unlike SpaceSaving it has
// no serialized form; convert keys and use SpaceSaving when a summary
// must cross a process boundary.
//
// The k entries live in fixed slots that sit in a min-heap ordered by
// (count, less), each slot holding its own heap position, so the
// eviction victim — SpaceSaving's minimum-count, smallest-key entry —
// is the root: eviction hands the root slot to the newcomer in
// O(log k). A caller that keeps the Handle AddAt returns for a key adds
// to that key's slot without any lookup; the handle goes stale when the
// slot is handed to another key, which AddAt detects. Find locates a
// key's slot by scanning the slots' key hashes, so a summary holds no
// map at all.
type TopK[K comparable] struct {
	k      int
	slots  []topKSlot[K]
	hashes []uint64 // hashes[i] is the hash of slots[i].key
	heap   []int32  // slot indices
	n      uint64
	gen    uint64 // the last generation given to a slot
	less   func(a, b K) bool
	hash   func(K) uint64
}

type topKSlot[K comparable] struct {
	key        K
	count, err uint64
	pos        int32  // index in heap
	gen        uint64 // changes whenever the slot gets a new key
}

// Handle names the slot a key held when Find or AddAt returned it. The
// zero Handle names no slot.
type Handle struct {
	slot int32
	gen  uint64
}

// NewTopK returns a summary tracking at most k keys; less orders keys
// for deterministic eviction tie-breaks, and hash is the key hash Add
// passes to the handle path.
func NewTopK[K comparable](k int, less func(a, b K) bool, hash func(K) uint64) *TopK[K] {
	if k < 1 {
		panic("sketch: TopK k must be positive")
	}
	return &TopK[K]{
		k:      k,
		slots:  make([]topKSlot[K], 0, k),
		hashes: make([]uint64, 0, k),
		heap:   make([]int32, 0, k),
		less:   less,
		hash:   hash,
	}
}

// N returns the total weight observed.
func (s *TopK[K]) N() uint64 { return s.n }

// Add records w occurrences of key.
func (s *TopK[K]) Add(key K, w uint64) {
	h := s.hash(key)
	s.AddAt(s.Find(key, h), key, h, w)
}

// Find returns the handle of key's slot, or the zero Handle when key is
// not tracked. hash must be key's hash.
func (s *TopK[K]) Find(key K, hash uint64) Handle {
	for i, h := range s.hashes {
		if h == hash && s.slots[i].key == key {
			return Handle{slot: int32(i), gen: s.slots[i].gen}
		}
	}
	return Handle{}
}

// AddAt records w occurrences of key, whose hash is hash, and returns
// key's handle. h must be the handle that Find or the previous AddAt
// for key returned: while it is current the add touches only key's
// slot; once stale, key is not tracked, and it takes a free slot or the
// minimum-count slot as Add would.
func (s *TopK[K]) AddAt(h Handle, key K, hash uint64, w uint64) Handle {
	s.n += w
	if h.gen != 0 && s.slots[h.slot].gen == h.gen {
		e := &s.slots[h.slot]
		e.count += w
		s.down(int(e.pos))
		return h
	}
	s.gen++
	if len(s.slots) < s.k {
		i := int32(len(s.slots))
		s.slots = append(s.slots, topKSlot[K]{key: key, count: w, pos: int32(len(s.heap)), gen: s.gen})
		s.hashes = append(s.hashes, hash)
		s.heap = append(s.heap, i)
		s.up(len(s.heap) - 1)
		return Handle{slot: i, gen: s.gen}
	}
	i := s.heap[0]
	e := &s.slots[i]
	e.key, e.err, e.gen = key, e.count, s.gen
	e.count += w
	s.hashes[i] = hash
	s.down(0)
	return Handle{slot: i, gen: s.gen}
}

// before orders heap entries: lower count first, then the less order.
func (s *TopK[K]) before(i, j int32) bool {
	a, b := &s.slots[i], &s.slots[j]
	if a.count != b.count {
		return a.count < b.count
	}
	return s.less(a.key, b.key)
}

func (s *TopK[K]) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.slots[s.heap[i]].pos = int32(i)
	s.slots[s.heap[j]].pos = int32(j)
}

// up sifts a newly appended heap[i] toward the root.
func (s *TopK[K]) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.before(s.heap[i], s.heap[p]) {
			return
		}
		s.swap(i, p)
		i = p
	}
}

// down sifts heap[i] toward the leaves, after its count grew or the
// root was handed to a newcomer.
func (s *TopK[K]) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(s.heap) {
			return
		}
		if r := c + 1; r < len(s.heap) && s.before(s.heap[r], s.heap[c]) {
			c = r
		}
		if !s.before(s.heap[c], s.heap[i]) {
			return
		}
		s.swap(i, c)
		i = c
	}
}

// HeavyK is one TopK entry.
type HeavyK[K comparable] struct {
	Key   K
	Count uint64
	Err   uint64
}

// Top returns up to n entries by estimated count descending, ties
// broken by the less order ascending. n <= 0 returns all entries.
func (s *TopK[K]) Top(n int) []HeavyK[K] {
	out := make([]HeavyK[K], 0, len(s.heap))
	for _, i := range s.heap {
		e := &s.slots[i]
		out = append(out, HeavyK[K]{Key: e.key, Count: e.count, Err: e.err})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return s.less(out[i].Key, out[j].Key)
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
