package sketch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestHLLErrorBounds(t *testing.T) {
	// The estimate must stay within 4 standard errors of the truth for a
	// wide range of cardinalities (a deterministic stream, so this is a
	// regression pin, not a flaky statistical assertion).
	h := NewHLL(12)
	bound := 4 * h.StdError()
	var buf [8]byte
	next := uint64(0)
	for _, n := range []uint64{100, 1000, 10000, 100000, 1000000} {
		for next < n {
			binary.LittleEndian.PutUint64(buf[:], next)
			h.Add(buf[:])
			next++
		}
		got := float64(h.Count())
		rel := math.Abs(got-float64(n)) / float64(n)
		if rel > bound {
			t.Errorf("n=%d: estimate %.0f, relative error %.4f > bound %.4f", n, got, rel, bound)
		}
	}
}

func TestHLLDuplicatesDoNotInflate(t *testing.T) {
	h := NewHLL(10)
	for round := 0; round < 5; round++ {
		for i := 0; i < 500; i++ {
			h.Add([]byte(fmt.Sprintf("item-%d", i)))
		}
	}
	got := float64(h.Count())
	if math.Abs(got-500)/500 > 4*h.StdError() {
		t.Errorf("500 distinct items inserted 5x each: estimate %.0f", got)
	}
}

func TestHLLMergeEqualsUnion(t *testing.T) {
	a, b, u := NewHLL(11), NewHLL(11), NewHLL(11)
	for i := 0; i < 3000; i++ {
		item := []byte(fmt.Sprintf("x%d", i))
		if i%2 == 0 {
			a.Add(item)
		} else {
			b.Add(item)
		}
		u.Add(item)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.regs, u.regs) {
		t.Error("merged registers differ from union-stream registers")
	}
	if a.Count() != u.Count() {
		t.Errorf("merged count %d != union count %d", a.Count(), u.Count())
	}
	mismatched := NewHLL(9)
	if err := a.Merge(mismatched); err == nil {
		t.Error("merging mismatched precisions must error")
	}
}

func TestHLLRoundTrip(t *testing.T) {
	h := NewHLL(8)
	for i := 0; i < 100; i++ {
		h.Add([]byte{byte(i), byte(i >> 3)})
	}
	enc, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back HLL
	if err := back.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if back.precision != h.precision || !bytes.Equal(back.regs, h.regs) {
		t.Error("round trip changed sketch state")
	}
	if err := back.UnmarshalBinary(enc[:len(enc)-1]); err == nil {
		t.Error("truncated encoding must error")
	}
}

func TestSpaceSavingGuarantees(t *testing.T) {
	// Zipf-ish stream: item i appears 1000/i times. With k=20 every item
	// with frequency > N/k must survive, and every estimate must satisfy
	// Count-Err <= true <= Count.
	truth := map[string]uint64{}
	var stream []string
	for i := 1; i <= 200; i++ {
		key := fmt.Sprintf("flow-%03d", i)
		reps := 1000 / i
		truth[key] = uint64(reps)
		for r := 0; r < reps; r++ {
			stream = append(stream, key)
		}
	}
	// Deterministic shuffle so hot items interleave with the tail.
	rng := rand.New(rand.NewSource(42))
	rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })

	s := NewSpaceSaving(20)
	for _, key := range stream {
		s.Add(key)
	}
	if s.N() != uint64(len(stream)) {
		t.Fatalf("N = %d, want %d", s.N(), len(stream))
	}
	top := s.Top(0)
	if len(top) != 20 {
		t.Fatalf("tracking %d entries, want 20", len(top))
	}
	present := map[string]Heavy{}
	for _, h := range top {
		present[h.Key] = h
		tc := truth[h.Key]
		if h.Count < tc {
			t.Errorf("%s: estimate %d under true count %d", h.Key, h.Count, tc)
		}
		if h.Count-h.Err > tc {
			t.Errorf("%s: lower bound %d over true count %d", h.Key, h.Count-h.Err, tc)
		}
	}
	threshold := s.N() / uint64(s.K())
	for key, tc := range truth {
		if tc > threshold {
			if _, ok := present[key]; !ok {
				t.Errorf("item %s (freq %d > N/k %d) missing from summary", key, tc, threshold)
			}
		}
	}
}

func TestSpaceSavingDeterministicEviction(t *testing.T) {
	run := func() []Heavy {
		s := NewSpaceSaving(3)
		for _, k := range []string{"a", "b", "c", "d", "e", "d", "e", "f"} {
			s.Add(k)
		}
		return s.Top(0)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic summary: %v vs %v", a, b)
		}
	}
}

func TestSpaceSavingMergeAndRoundTrip(t *testing.T) {
	a, b := NewSpaceSaving(10), NewSpaceSaving(10)
	for i := 0; i < 400; i++ {
		key := fmt.Sprintf("k%d", i%25)
		if i%2 == 0 {
			a.Add(key)
		} else {
			b.Add(key)
		}
	}
	a.Merge(b)
	if a.N() != 400 {
		t.Errorf("merged N = %d, want 400", a.N())
	}
	if len(a.entries) > a.k {
		t.Errorf("merged summary holds %d entries, cap %d", len(a.entries), a.k)
	}
	enc, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back SpaceSaving
	if err := back.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	enc2, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Error("re-encoding decoded summary changed bytes")
	}
	if err := back.UnmarshalBinary(enc[:3]); err == nil {
		t.Error("truncated encoding must error")
	}
}

func TestHash64Avalanche(t *testing.T) {
	// Sequential inputs must not collide in either half of the word
	// (HLL uses the top bits for bucketing, the rest for rank).
	seenHi := map[uint32]bool{}
	var buf [8]byte
	for i := 0; i < 10000; i++ {
		binary.LittleEndian.PutUint64(buf[:], uint64(i))
		h := Hash64(buf[:])
		seenHi[uint32(h>>32)] = true
	}
	if len(seenHi) < 9990 {
		t.Errorf("top-32-bit collisions: %d distinct of 10000", len(seenHi))
	}
}

// FuzzSketchMerge checks the core merge laws on arbitrary item streams:
// HLL merge must equal the union stream register-for-register, and
// space-saving merge must preserve total weight, capacity, and the
// lower-bound invariant. It also holds TopK's heap to SpaceSaving's
// eviction scan over the whole stream.
func FuzzSketchMerge(f *testing.F) {
	f.Add([]byte("abcdefgh"), uint8(3))
	f.Add([]byte{0, 1, 2, 3, 250, 251, 252, 253}, uint8(1))
	f.Add(bytes.Repeat([]byte{7}, 64), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, split uint8) {
		// Derive a stream of short items from the fuzz data.
		var items [][]byte
		for i := 0; i+2 <= len(data); i += 2 {
			items = append(items, data[i:i+2])
		}
		if len(items) == 0 {
			return
		}
		cut := int(split) % len(items)

		ha, hb, hu := NewHLL(6), NewHLL(6), NewHLL(6)
		sa, sb := NewSpaceSaving(4), NewSpaceSaving(4)
		for i, it := range items {
			hu.Add(it)
			if i < cut {
				ha.Add(it)
				sa.Add(string(it))
			} else {
				hb.Add(it)
				sb.Add(string(it))
			}
		}
		if err := ha.Merge(hb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ha.regs, hu.regs) {
			t.Fatal("HLL merge != union stream")
		}
		sa.Merge(sb)
		if sa.N() != uint64(len(items)) {
			t.Fatalf("merged N %d, want %d", sa.N(), len(items))
		}
		if len(sa.entries) > sa.k {
			t.Fatalf("merged entries %d exceed k %d", len(sa.entries), sa.k)
		}
		truth := map[string]uint64{}
		for _, it := range items {
			truth[string(it)]++
		}
		for _, h := range sa.Top(0) {
			if h.Count < h.Err {
				t.Fatalf("entry %q count %d below err %d", h.Key, h.Count, h.Err)
			}
			if lower := h.Count - h.Err; lower > truth[h.Key] {
				t.Fatalf("entry %q lower bound %d over truth %d", h.Key, lower, truth[h.Key])
			}
		}
		// Round-trip the merged summary through its canonical encoding.
		enc, err := sa.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back SpaceSaving
		if err := back.UnmarshalBinary(enc); err != nil {
			t.Fatal(err)
		}
		enc2, _ := back.MarshalBinary()
		if !bytes.Equal(enc, enc2) {
			t.Fatal("canonical encoding not stable")
		}

		k := 1 + int(split>>5)
		ss := NewSpaceSaving(k)
		tk := NewTopK[string](k, func(a, b string) bool { return a < b })
		for _, it := range items {
			ss.Add(string(it))
			tk.Add(string(it), 1)
		}
		requireTopKEqual(t, ss, tk)
	})
}

// requireTopKEqual fails unless tk's summary equals ss's entry for entry.
func requireTopKEqual(t *testing.T, ss *SpaceSaving, tk *TopK[string]) {
	t.Helper()
	a, b := ss.Top(0), tk.Top(0)
	if len(a) != len(b) || ss.N() != tk.N() {
		t.Fatalf("sizes differ: %d entries (N %d) vs %d (N %d)", len(a), ss.N(), len(b), tk.N())
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Count != b[i].Count || a[i].Err != b[i].Err {
			t.Fatalf("entry %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestTopKMatchesSpaceSaving(t *testing.T) {
	// On the same stream, TopK[string] with lexicographic less must
	// behave exactly like the string SpaceSaving: the heap must evict the
	// entry the scan picks, at any capacity and with weighted adds
	// (weight 0 included, which ties a newcomer with its victim).
	for _, tc := range []struct {
		k        int
		weighted bool
	}{{1, false}, {1, true}, {5, false}, {5, true}, {64, true}} {
		t.Run(fmt.Sprintf("k=%d/weighted=%v", tc.k, tc.weighted), func(t *testing.T) {
			ss := NewSpaceSaving(tc.k)
			tk := NewTopK[string](tc.k, func(a, b string) bool { return a < b })
			rng := rand.New(rand.NewSource(9))
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("k%d", rng.Intn(40*tc.k))
				w := uint64(1)
				if tc.weighted {
					w = uint64(rng.Intn(5))
				}
				ss.AddWeighted(key, w)
				tk.Add(key, w)
			}
			requireTopKEqual(t, ss, tk)
		})
	}
}
