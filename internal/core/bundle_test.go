package patchwork

import (
	"bytes"
	"compress/gzip"
	"errors"
	"runtime"
	"testing"

	"repro/internal/pcap"
)

// testPcap writes a pcap with n records of 100 bytes each (n = 0 is the
// bare 24-byte file header).
func testPcap(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, pcap.FileHeader{SnapLen: 200})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.WriteRecord(int64(i)*1000, bytes.Repeat([]byte{byte(i)}, 100), 1500); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecompressPcapsRoundTrip: harvest compression and bundle
// decompression are inverse, and the decompressed buffer is presized from
// the gzip trailer rather than grown by doubling.
func TestDecompressPcapsRoundTrip(t *testing.T) {
	var want [][]byte
	b := &Bundle{}
	for _, n := range []int{0, 1, 500} {
		raw := testPcap(t, n)
		z, err := compressPcap(raw)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, raw)
		b.CompressedPcaps = append(b.CompressedPcaps, z)
	}
	if len(want[0]) != 24 {
		t.Fatalf("header-only pcap is %d bytes, want 24", len(want[0]))
	}
	got, err := b.DecompressPcaps()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("pcap %d: %d bytes back, want %d", i, len(got[i]), len(want[i]))
		}
		if c := cap(got[i]); c > len(want[i])+bytes.MinRead {
			t.Errorf("pcap %d: buffer grew to %d for %d bytes", i, c, len(want[i]))
		}
	}
}

// TestDecompressPcapsLyingTrailer: a trailer claiming 4 GiB must neither
// force a matching allocation nor pass as valid.
func TestDecompressPcapsLyingTrailer(t *testing.T) {
	z, err := compressPcap(testPcap(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	copy(z[len(z)-4:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
	if hint := gzipSizeHint(z); hint > maxDeflateRatio*len(z) {
		t.Errorf("size hint %d exceeds the deflate bound for %d bytes", hint, len(z))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = (&Bundle{CompressedPcaps: [][]byte{z}}).DecompressPcaps()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, gzip.ErrChecksum) {
		t.Errorf("err = %v, want %v", err, gzip.ErrChecksum)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("decompressing %d bytes allocated %d bytes", len(z), grew)
	}
}
