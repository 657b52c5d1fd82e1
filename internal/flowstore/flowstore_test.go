package flowstore

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/wire"
)

func testKey(i int) Key {
	a := netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})
	b := netip.AddrFrom4([4]byte{10, 1, 2, 3})
	return Key{
		VLANID:  uint16(i % 7),
		MPLSTop: uint32(i % 3 * 1000),
		Src:     wire.NewIPEndpoint(a),
		Dst:     wire.NewIPEndpoint(b),
		Proto:   wire.LayerTypeTCP,
		SrcPort: uint16(20000 + i),
		DstPort: 443,
	}
}

func testRecs(n int, site string, baseNs int64) []Rec {
	recs := make([]Rec, n)
	for i := range recs {
		recs[i] = Rec{
			Key:      testKey(i),
			Site:     site,
			FirstNs:  baseNs + int64(i)*1e6,
			LastNs:   baseNs + int64(i)*1e6 + 5e8,
			FirstSeq: uint64(i),
			Frames:   uint64(i%13 + 1),
			Bytes:    uint64((i%13 + 1) * 800),
		}
	}
	return recs
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flows.seg")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	segs := [][]Rec{
		testRecs(50, "site-a", 1e9),
		testRecs(30, "site-b", 100e9),
		testRecs(1, "site-a", 200e9),
	}
	for _, recs := range segs {
		if err := w.Append(recs[0].Site, recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Torn() {
		t.Error("clean store reports torn")
	}
	if st.Segments() != 3 || st.Rows() != 81 {
		t.Fatalf("segments=%d rows=%d, want 3/81", st.Segments(), st.Rows())
	}
	var got []Rec
	if err := st.ForEach(func(r Rec) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	var want []Rec
	for _, s := range segs {
		want = append(want, s...)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestQueryPruning(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flows.seg")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Append("site-a", testRecs(40, "site-a", 1e9))
	w.Append("site-b", testRecs(40, "site-b", 1000e9))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Time-range query hitting only the second segment.
	recs, err := st.Query(Query{FromNs: 999e9})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 40 {
		t.Errorf("time query: %d rows, want 40", len(recs))
	}
	for _, r := range recs {
		if r.Site != "site-b" {
			t.Fatalf("time query leaked row from %s", r.Site)
		}
	}
	// Site filter.
	recs, err = st.Query(Query{Site: "site-a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 40 {
		t.Errorf("site query: %d rows, want 40", len(recs))
	}
	// Exact-key query: each key appears once per segment's site batch.
	k := testKey(7)
	recs, err = st.Query(Query{Key: &k})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Errorf("key query: %d rows, want 2", len(recs))
	}
	for _, r := range recs {
		if r.Key != k {
			t.Fatalf("key query returned wrong key %+v", r.Key)
		}
	}
	// Missing key: bloom pruning plus row filter must yield nothing.
	missing := testKey(999)
	recs, err = st.Query(Query{Key: &missing})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("missing-key query returned %d rows", len(recs))
	}
	// Limit.
	recs, err = st.Query(Query{Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Errorf("limit query: %d rows, want 5", len(recs))
	}
}

// TestTornTailTolerated mirrors the journal/pcap torn-tail contract: a
// store truncated mid-final-segment opens cleanly with every earlier
// segment intact.
func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flows.seg")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Append("site-a", testRecs(20, "site-a", 1e9))
	markLen := fileSize(t, w)
	w.Append("site-b", testRecs(20, "site-b", 50e9))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, cut := range map[string]int{
		"mid-meta": markLen + 9,
		"mid-cols": len(full) - 11,
	} {
		torn := filepath.Join(dir, name+".seg")
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(torn)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !st.Torn() {
			t.Errorf("%s: Torn() = false, want true", name)
		}
		if st.Segments() != 1 || st.Rows() != 20 {
			t.Errorf("%s: segments=%d rows=%d, want 1/20", name, st.Segments(), st.Rows())
		}
		n := 0
		if err := st.ForEach(func(Rec) error { n++; return nil }); err != nil {
			t.Errorf("%s: ForEach: %v", name, err)
		}
		if n != 20 {
			t.Errorf("%s: read %d rows, want 20", name, n)
		}
		st.Close()
	}
	// Flipping a byte inside the final segment's column data must also be
	// tolerated as a torn tail (CRC catches it).
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)-5] ^= 0xFF
	cpath := filepath.Join(dir, "corrupt.seg")
	if err := os.WriteFile(cpath, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(cpath)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Meta is intact so the segment headers scan fine; the damage
	// surfaces when the column block is read.
	if _, err := st.Query(Query{Site: "site-b"}); err == nil {
		t.Error("querying corrupted column data must error")
	}
	if _, err := st.Query(Query{Site: "site-a"}); err != nil {
		t.Errorf("querying intact segment: %v", err)
	}
}

func fileSize(t *testing.T, w *Writer) int {
	t.Helper()
	if err := w.w.Flush(); err != nil {
		t.Fatal(err)
	}
	size, err := w.f.Seek(0, io.SeekEnd)
	if err != nil {
		t.Fatal(err)
	}
	return int(size)
}

// FuzzSegmentCodec feeds arbitrary bytes through the store opener and
// query path: decoding must never panic, and any file the fuzzer
// constructs that opens with intact segments must read back without
// out-of-bounds access. Every query is asked twice on one store, and
// the second answer, from the kept rows, must equal the first, a
// failure included. On a store whose rows all read back, Query at
// limits 1 and 3, with and without a time window, must return exactly
// the first matching rows of ForEach, and a Scan whose callback stops
// early must return nil.
func FuzzSegmentCodec(f *testing.F) {
	// Seed with a real store file, and one of several segments.
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.seg")
	w, err := Create(path)
	if err != nil {
		f.Fatal(err)
	}
	w.Append("s", testRecs(5, "s", 1e9))
	w.Close()
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(bytes.Repeat([]byte{'P', 'W', 'F', 'S'}, 8))
	w, err = Create(path)
	if err != nil {
		f.Fatal(err)
	}
	w.Append("a", testRecs(4, "a", 1e9))
	w.Append("b", testRecs(3, "b", 3e9))
	w.Append("a", testRecs(2, "a", 2e9))
	w.Close()
	multi, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(multi)
	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.seg")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Skip()
		}
		st, err := Open(p)
		if err != nil {
			return
		}
		defer st.Close()
		var all []Rec
		ferr := st.ForEach(func(r Rec) error { all = append(all, r); return nil })
		if int64(len(all)) > st.Rows() {
			t.Fatalf("ForEach yielded %d rows, metadata says %d", len(all), st.Rows())
		}
		// query asks q twice: the second answer comes from the rows the
		// first kept, and must equal it, failure included.
		query := func(q Query) ([]Rec, error) {
			got, err := st.Query(q)
			again, err2 := st.Query(q)
			if (err == nil) != (err2 == nil) || len(got) != len(again) {
				t.Fatalf("Query(%+v) asked twice: %d rows, err %v, then %d rows, err %v", q, len(got), err, len(again), err2)
			}
			for i := range got {
				if got[i] != again[i] {
					t.Fatalf("Query(%+v) asked twice: row %d = %+v, then %+v", q, i, got[i], again[i])
				}
			}
			return got, err
		}
		query(Query{FromNs: 1, ToNs: 1 << 40, Limit: 10})
		if ferr != nil {
			return
		}
		windows := []Query{{}, {FromNs: 1, ToNs: 1 << 40}}
		if len(all) > 0 {
			mid := all[len(all)/2]
			windows = append(windows, Query{FromNs: mid.LastNs, ToNs: mid.LastNs})
		}
		for _, win := range windows {
			for _, limit := range []int{1, 3} {
				q := win
				q.Limit = limit
				var want []Rec
				for _, r := range all {
					if len(want) < limit && !(q.ToNs > 0 && r.FirstNs > q.ToNs) && !(q.FromNs > 0 && r.LastNs < q.FromNs) {
						want = append(want, r)
					}
				}
				got, err := query(q)
				if err != nil {
					t.Fatalf("Query(%+v): %v", q, err)
				}
				if len(got) != len(want) {
					t.Fatalf("Query(%+v) = %d rows, want %d", q, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("Query(%+v) row %d = %+v, want %+v", q, i, got[i], want[i])
					}
				}
			}
		}
		if len(all) == 0 {
			return
		}
		calls := 0
		if err := st.Scan(Query{}, func(*Rec) bool { calls++; return false }); err != nil || calls != 1 {
			t.Fatalf("early-stopped Scan: err %v after %d calls, want nil after 1", err, calls)
		}
	})
}

// writeStore builds a three-segment store file and returns its path.
func writeStore(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "flows.pwfs")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, recs := range [][]Rec{
		testRecs(50, "site-a", 1e9),
		testRecs(30, "site-b", 100e9),
		testRecs(20, "site-a", 200e9),
	} {
		if err := w.Append(recs[0].Site, recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestVerifyClean(t *testing.T) {
	path := writeStore(t)
	rep, err := Verify(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Damaged() || rep.MidFile || rep.Segments != 3 || rep.Rows != 100 {
		t.Fatalf("clean store misreported: %+v", rep)
	}
	if rep.Good != rep.Size {
		t.Fatalf("Good %d != Size %d on clean store", rep.Good, rep.Size)
	}
}

func TestVerifyTornTailAndRepair(t *testing.T) {
	path := writeStore(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last segment: drop the final 10 bytes.
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Damaged() || rep.MidFile || rep.Segments != 2 {
		t.Fatalf("torn tail misreported: %+v", rep)
	}
	if err := os.Truncate(path, rep.Good); err != nil {
		t.Fatal(err)
	}
	rep2, err := Verify(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Damaged() || rep2.Segments != 2 {
		t.Fatalf("repaired store still damaged: %+v", rep2)
	}
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Torn() || st.Segments() != 2 {
		t.Fatalf("repaired store opens torn=%v segs=%d", st.Torn(), st.Segments())
	}
}

func TestVerifyMidFileCorruption(t *testing.T) {
	path := writeStore(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte early in the file: later segments stay intact, so the
	// scrub must classify this as mid-file corruption, not a torn tail.
	data[20] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Damaged() || !rep.MidFile {
		t.Fatalf("mid-file corruption misreported: %+v", rep)
	}
	// Truncating to the last valid frame before the damage must leave a
	// clean store.
	if err := os.Truncate(path, rep.Good); err != nil {
		t.Fatal(err)
	}
	rep2, err := Verify(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Damaged() {
		t.Fatalf("repaired store still damaged: %+v", rep2)
	}
}

func TestVerifyCatchesColumnBitFlip(t *testing.T) {
	path := writeStore(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the FINAL segment's column data (well past its
	// meta block). Open() tolerates this lazily; Verify must not.
	data[len(data)-3] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	segs := st.Segments()
	st.Close()
	if segs != 3 {
		t.Fatalf("Open dropped segments unexpectedly: %d", segs)
	}
	rep, err := Verify(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Damaged() || rep.Segments != 2 {
		t.Fatalf("column bit flip not caught: %+v", rep)
	}
}

// openStore opens the store at path until the test ends.
func openStore(t *testing.T, path string) *Store {
	t.Helper()
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// keptSegments counts the segments whose rows st keeps.
func keptSegments(st *Store) int {
	n := 0
	for i := range st.decoded {
		if st.decoded[i].Load() != nil {
			n++
		}
	}
	return n
}

// TestScanDecodesOnce: the first Scan to reach a segment decodes it and
// the store keeps its rows, so a repeated Scan lends the same rows and,
// once every segment is kept, allocates nothing.
func TestScanDecodesOnce(t *testing.T) {
	st := openStore(t, writeStore(t))
	rows := 0
	count := func(*Rec) bool { rows++; return true }
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := st.Scan(Query{Site: "site-b"}, count)
	runtime.ReadMemStats(&after)
	if err != nil || rows != 30 {
		t.Fatalf("site-b Scan: %d rows, err %v; want 30", rows, err)
	}
	if after.Mallocs == before.Mallocs {
		t.Error("the first Scan after Open allocated nothing, so it decoded nothing")
	}
	if n := keptSegments(st); n != 1 || st.decoded[1].Load() == nil {
		t.Fatalf("a site-b Scan kept %d segments, want site-b's alone", n)
	}

	var first, again []*Rec
	for _, dst := range []*[]*Rec{&first, &again} {
		if err := st.Scan(Query{}, func(r *Rec) bool { *dst = append(*dst, r); return true }); err != nil {
			t.Fatal(err)
		}
	}
	want := slices.Concat(testRecs(50, "site-a", 1e9), testRecs(30, "site-b", 100e9), testRecs(20, "site-a", 200e9))
	if len(first) != len(want) || len(again) != len(want) {
		t.Fatalf("Scans passed %d and %d rows, want %d", len(first), len(again), len(want))
	}
	for i := range want {
		if first[i] != again[i] || *first[i] != want[i] {
			t.Fatalf("row %d: first Scan lent %p %+v, second %p, want %+v", i, first[i], *first[i], again[i], want[i])
		}
	}

	allocs := testing.AllocsPerRun(10, func() {
		if err := st.Scan(Query{}, count); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a warmed Scan allocates %.1f objects, want 0", allocs)
	}
}

// TestForEachKeepsNoRows: ForEach is one pass over the file, so it
// streams through one buffer and leaves nothing kept.
func TestForEachKeepsNoRows(t *testing.T) {
	st := openStore(t, writeStore(t))
	n := 0
	if err := st.ForEach(func(Rec) error { n++; return nil }); err != nil || n != 100 {
		t.Fatalf("ForEach: %d rows, err %v; want 100", n, err)
	}
	if k := keptSegments(st); k != 0 {
		t.Fatalf("ForEach kept the rows of %d segments, want none", k)
	}
}

// TestConcurrentFirstScans: goroutines racing to the first decodes of a
// freshly opened store's segments must each answer what a serial Query
// on another store answers. Under -race it also checks how the kept
// rows are published.
func TestConcurrentFirstScans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flows.pwfs")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sites := []string{"site-a", "site-b", "site-c"}
	for i := 0; i < 12; i++ {
		site := sites[i%len(sites)]
		if err := w.Append(site, testRecs(40, site, int64(i)*10e9)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var queries []Query
	for _, limit := range []int{0, 25, 1000} {
		for _, q := range []Query{{}, {Site: "site-b"}, {Site: "site-c"}, {FromNs: 35e9, ToNs: 62e9}, {FromNs: 90e9}} {
			q.Limit = limit
			queries = append(queries, q)
		}
	}
	ref := openStore(t, path)
	want := make([][]Rec, len(queries))
	for i, q := range queries {
		if want[i], err = ref.Query(q); err != nil {
			t.Fatal(err)
		}
	}

	st := openStore(t, path)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			// Each goroutine walks the queries from its own starting point.
			for k := range queries {
				i := (g*2 + k) % len(queries)
				got, err := st.Query(queries[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(got, want[i]) {
					t.Errorf("goroutine %d: Query(%+v) = %d rows, differing from the serial %d", g, queries[i], len(got), len(want[i]))
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
}

// TestCorruptSegmentNotKept: a segment whose column block fails its CRC
// fails every Scan that reaches it, the first time and again, since a
// failed decode is not kept; scans that never reach it still answer.
func TestCorruptSegmentNotKept(t *testing.T) {
	path := writeStore(t)
	m := openStore(t, path).segs[1] // site-b's
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[m.colsOff+int64(m.colsLen)/2] ^= 0x01
	corrupt := filepath.Join(t.TempDir(), "corrupt.pwfs")
	if err := os.WriteFile(corrupt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st := openStore(t, corrupt)
	reach := []Query{{}, {Site: "site-b"}, {FromNs: 100e9, ToNs: 101e9}}
	miss := []Query{{Site: "site-a"}, {FromNs: 150e9}, {Limit: 10}}
	for round := 1; round <= 2; round++ {
		for _, q := range reach {
			if _, err := st.Query(q); err == nil {
				t.Errorf("round %d: Query(%+v) reaches the corrupt segment, yet answered", round, q)
			}
		}
		for _, q := range miss {
			if _, err := st.Query(q); err != nil {
				t.Errorf("round %d: Query(%+v) never reaches the corrupt segment, yet failed: %v", round, q, err)
			}
		}
	}
	if st.decoded[1].Load() != nil {
		t.Error("the corrupt segment's failed decode was kept")
	}
}

func TestHash64Avalanche(t *testing.T) {
	// Sequential inputs must not collide in either half of the word
	// (the bloom filter derives its probes from both halves).
	seenHi, seenLo := map[uint32]bool{}, map[uint32]bool{}
	var buf [8]byte
	for i := 0; i < 10000; i++ {
		binary.LittleEndian.PutUint64(buf[:], uint64(i))
		h := hash64(buf[:])
		seenHi[uint32(h>>32)] = true
		seenLo[uint32(h)] = true
	}
	if len(seenHi) < 9990 || len(seenLo) < 9990 {
		t.Errorf("32-bit collisions: %d distinct top halves, %d distinct bottom halves of 10000", len(seenHi), len(seenLo))
	}
}

// TestHash64Golden pins the bloom hash and the key encoding it hashes to
// the values the stores already on disk were written with: a change to
// either would make key queries skip segments that hold the key.
func TestHash64Golden(t *testing.T) {
	v4 := Key{
		VLANID: 100, MPLSTop: 16001,
		Src:   wire.NewIPEndpoint(netip.MustParseAddr("10.0.1.1")),
		Dst:   wire.NewIPEndpoint(netip.MustParseAddr("10.0.2.2")),
		Proto: wire.LayerTypeTCP, SrcPort: 51000, DstPort: 443,
	}
	v6 := Key{
		Src:   wire.NewIPEndpoint(netip.MustParseAddr("2001:db8::1")),
		Dst:   wire.NewIPEndpoint(netip.MustParseAddr("2001:db8::2")),
		Proto: wire.LayerTypeUDP, SrcPort: 5353, DstPort: 53,
	}
	for _, c := range []struct {
		name    string
		in      []byte
		encoded string // the key encoding, hex; empty for a raw input
		hash    uint64
	}{
		{"empty", nil, "", 0xf52a15e9a9b5e89b},
		{"abc", []byte("abc"), "", 0x0dd490490804b508},
		{"zero key", appendKeyBytes(nil, Key{}), "00000000000000000000000000", 0x926bd52cd2f5c560},
		{"IPv4 key", appendKeyBytes(nil, v4), "006400003e8109c73801bb02020a0001010a000202", 0x889562c74319d2aa},
		{"IPv6 key", appendKeyBytes(nil, v6),
			"0000000000000a14e90035030320010db800000000000000000000000120010db8000000000000000000000002",
			0x8302f41efd5b5bce},
	} {
		if c.encoded != "" {
			if got := hex.EncodeToString(c.in); got != c.encoded {
				t.Errorf("%s: encoded %s, want %s", c.name, got, c.encoded)
			}
		}
		if got := hash64(c.in); got != c.hash {
			t.Errorf("%s: hash64 %#016x, want %#016x", c.name, got, c.hash)
		}
	}
}
