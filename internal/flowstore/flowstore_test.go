package flowstore

import (
	"bytes"
	"io"
	"net/netip"
	"os"
	"path/filepath"
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
// out-of-bounds access. On a store whose rows all read back, Query at
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
		st.Query(Query{FromNs: 1, ToNs: 1 << 40, Limit: 10})
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
				got, err := st.Query(q)
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
	if !rep.TornTail() || rep.MidFile || rep.Segments != 2 {
		t.Fatalf("torn tail misreported: %+v", rep)
	}
	if _, err := Repair(nil, path); err != nil {
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
	if rep.TornTail() {
		t.Fatal("mid-file corruption classified as torn tail")
	}
	// Repair truncates to the last valid frame before the damage; the
	// result must open clean.
	if _, err := Repair(nil, path); err != nil {
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
