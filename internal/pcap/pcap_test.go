package pcap

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, hdr FileHeader, recs []Record) []Record {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, hdr)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for _, r := range recs {
		if err := w.WriteRecord(r.TimestampNanos, r.Data, r.OriginalLength); err != nil {
			t.Fatalf("WriteRecord: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	var out []Record
	err = rd.ForEach(func(r *Record) error {
		cp := *r
		cp.Data = append([]byte(nil), r.Data...)
		out = append(out, cp)
		return nil
	})
	if err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	return out
}

func TestRoundTripMicro(t *testing.T) {
	recs := []Record{
		{TimestampNanos: 1_000_000_000, OriginalLength: 1514, Data: bytes.Repeat([]byte{0xAA}, 200)},
		{TimestampNanos: 1_000_123_456_000, OriginalLength: 64, Data: bytes.Repeat([]byte{0xBB}, 64)},
	}
	out := roundTrip(t, FileHeader{SnapLen: 200}, recs)
	if len(out) != 2 {
		t.Fatalf("got %d records", len(out))
	}
	if out[0].OriginalLength != 1514 || len(out[0].Data) != 200 {
		t.Errorf("rec0 = %d/%d", out[0].OriginalLength, len(out[0].Data))
	}
	// Microsecond file: ns rounded down to microsecond.
	if out[1].TimestampNanos != 1_000_123_456_000 {
		t.Errorf("ts = %d", out[1].TimestampNanos)
	}
}

func TestRoundTripNano(t *testing.T) {
	recs := []Record{{TimestampNanos: 123_456_789_123, OriginalLength: 100, Data: make([]byte, 100)}}
	out := roundTrip(t, FileHeader{Nanosecond: true}, recs)
	if out[0].TimestampNanos != 123_456_789_123 {
		t.Errorf("nano ts = %d", out[0].TimestampNanos)
	}
}

func TestMicroTimestampTruncation(t *testing.T) {
	recs := []Record{{TimestampNanos: 5_000_000_999, OriginalLength: 10, Data: make([]byte, 10)}}
	out := roundTrip(t, FileHeader{}, recs)
	if out[0].TimestampNanos != 5_000_000_000 {
		t.Errorf("micro file should truncate sub-microsecond: %d", out[0].TimestampNanos)
	}
}

func TestSnapLenTruncates(t *testing.T) {
	data := bytes.Repeat([]byte{1}, 1500)
	recs := []Record{{TimestampNanos: 0, OriginalLength: 1500, Data: data}}
	out := roundTrip(t, FileHeader{SnapLen: 64}, recs)
	if len(out[0].Data) != 64 {
		t.Errorf("stored = %d bytes, want 64", len(out[0].Data))
	}
	if out[0].OriginalLength != 1500 {
		t.Errorf("orig = %d, want 1500", out[0].OriginalLength)
	}
}

func TestDefaultSnapLen(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, FileHeader{})
	if err != nil {
		t.Fatal(err)
	}
	_ = w.Flush()
	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Header().SnapLen != MaxSnapLen {
		t.Errorf("snaplen = %d", rd.Header().SnapLen)
	}
	if rd.Header().LinkType != LinkTypeEthernet {
		t.Errorf("linktype = %d", rd.Header().LinkType)
	}
}

func TestBadMagic(t *testing.T) {
	data := make([]byte, 24)
	copy(data, []byte{0xDE, 0xAD, 0xBE, 0xEF})
	_, err := NewReader(bytes.NewReader(data))
	if !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestShortFileHeader(t *testing.T) {
	_, err := NewReader(bytes.NewReader(make([]byte, 10)))
	if err == nil {
		t.Error("short header should fail")
	}
}

func TestTruncatedRecordBody(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, FileHeader{})
	_ = w.WriteRecord(0, make([]byte, 100), 100)
	_ = w.Flush()
	// Chop off the last 10 bytes: the partial record is dropped like a
	// torn journal tail — clean io.EOF with Torn reporting the cut.
	data := buf.Bytes()[:buf.Len()-10]
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err = rd.Next(); err != io.EOF {
		t.Errorf("truncated body: got %v, want io.EOF", err)
	}
	if !rd.Torn() {
		t.Error("Torn() = false after truncated body")
	}
}

func TestEOFAfterLastRecord(t *testing.T) {
	out := roundTrip(t, FileHeader{}, []Record{{TimestampNanos: 1, OriginalLength: 4, Data: []byte{1, 2, 3, 4}}})
	if len(out) != 1 {
		t.Fatalf("records = %d", len(out))
	}
}

func TestWriterCounters(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, FileHeader{SnapLen: 50})
	_ = w.WriteRecord(0, make([]byte, 100), 100)
	_ = w.WriteRecord(0, make([]byte, 20), 20)
	if w.Records != 2 {
		t.Errorf("Records = %d", w.Records)
	}
	if w.Bytes != 70 { // 50 truncated + 20
		t.Errorf("Bytes = %d", w.Bytes)
	}
}

func TestOriginalLenAtLeastStored(t *testing.T) {
	// Passing originalLen < len(data) is corrected.
	out := roundTrip(t, FileHeader{}, []Record{{TimestampNanos: 0, OriginalLength: 1, Data: make([]byte, 42)}})
	if out[0].OriginalLength != 42 {
		t.Errorf("orig = %d, want 42", out[0].OriginalLength)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(ts int64, sizes []uint16, nano bool) bool {
		if ts < 0 {
			ts = -ts
		}
		ts %= 1 << 60
		var buf bytes.Buffer
		w, err := NewWriter(&buf, FileHeader{Nanosecond: nano})
		if err != nil {
			return false
		}
		var want []int
		for _, s := range sizes {
			n := int(s) % 9000
			want = append(want, n)
			if err := w.WriteRecord(ts, make([]byte, n), n); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		rd, err := NewReader(&buf)
		if err != nil {
			return false
		}
		i := 0
		err = rd.ForEach(func(r *Record) error {
			if len(r.Data) != want[i] || r.OriginalLength != want[i] {
				return errors.New("size mismatch")
			}
			i++
			return nil
		})
		return err == nil && i == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWriteRecord(b *testing.B) {
	w, _ := NewWriter(io.Discard, FileHeader{SnapLen: 200})
	data := make([]byte, 200)
	b.SetBytes(200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.WriteRecord(int64(i), data, 1514)
	}
}

// writeFile builds a complete pcap file in memory.
func writeFile(t *testing.T, hdr FileHeader, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, hdr)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for _, r := range recs {
		if err := w.WriteRecord(r.TimestampNanos, r.Data, r.OriginalLength); err != nil {
			t.Fatalf("WriteRecord: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return buf.Bytes()
}

// TestTornTail mirrors the campaign journal's torn-tail tolerance: a
// file whose final record was cut mid-write (in its header or in its
// data) yields every complete record, then a clean io.EOF with Torn set.
func TestTornTail(t *testing.T) {
	recs := []Record{
		{TimestampNanos: 1e9, OriginalLength: 120, Data: bytes.Repeat([]byte{0x11}, 120)},
		{TimestampNanos: 2e9, OriginalLength: 90, Data: bytes.Repeat([]byte{0x22}, 90)},
		{TimestampNanos: 3e9, OriginalLength: 150, Data: bytes.Repeat([]byte{0x33}, 150)},
	}
	full := writeFile(t, FileHeader{SnapLen: 200}, recs)
	lastLen := recordHeaderLen + 150
	cuts := map[string]int{
		"mid-data":   len(full) - 37,                            // last record's bytes cut short
		"mid-header": len(full) - lastLen + 7,                   // partial record header
		"no-data":    len(full) - 150,                           // header complete, zero data bytes
		"one-byte":   len(full) - lastLen + recordHeaderLen + 1, // one data byte
	}
	for name, cut := range cuts {
		rd, err := NewReader(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("%s: NewReader: %v", name, err)
		}
		n := 0
		err = rd.ForEach(func(r *Record) error { n++; return nil })
		if err != nil {
			t.Fatalf("%s: ForEach returned %v, want clean stop", name, err)
		}
		if n != 2 {
			t.Errorf("%s: read %d complete records, want 2", name, n)
		}
		if !rd.Torn() {
			t.Errorf("%s: Torn() = false, want true", name)
		}
	}
	// A cleanly ended file must not report a torn tail.
	rd, err := NewReader(bytes.NewReader(full))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	n := 0
	if err := rd.ForEach(func(*Record) error { n++; return nil }); err != nil || n != 3 {
		t.Fatalf("clean file: n=%d err=%v", n, err)
	}
	if rd.Torn() {
		t.Errorf("clean file: Torn() = true, want false")
	}
}

// TestRejectOverSnapLen rejects records claiming more captured bytes
// than the file's declared snap length — corrupt headers must not make
// the reader allocate or trust bogus lengths.
func TestRejectOverSnapLen(t *testing.T) {
	full := writeFile(t, FileHeader{SnapLen: 128}, []Record{
		{TimestampNanos: 1e9, OriginalLength: 100, Data: bytes.Repeat([]byte{0x44}, 100)},
	})
	// Forge the record's included-length field to exceed the snaplen.
	inclOff := fileHeaderLen + 8
	corrupted := append([]byte(nil), full...)
	corrupted[inclOff] = 200 // 200 > snaplen 128
	rd, err := NewReader(bytes.NewReader(corrupted))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if _, err := rd.Next(); err == nil || err == io.EOF {
		t.Fatalf("Next on over-snaplen record: err=%v, want rejection", err)
	}
	if rd.Torn() {
		t.Errorf("rejection must not report a torn tail")
	}
}

// TestStreamInterface pins *Reader to the Stream contract.
func TestStreamInterface(t *testing.T) {
	full := writeFile(t, FileHeader{SnapLen: 64}, []Record{
		{TimestampNanos: 5e9, OriginalLength: 60, Data: bytes.Repeat([]byte{0x55}, 60)},
	})
	rd, err := NewReader(bytes.NewReader(full))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	var s Stream = rd
	n := 0
	if err := ForEachStream(s, func(r *Record) error { n++; return nil }); err != nil || n != 1 {
		t.Fatalf("ForEachStream: n=%d err=%v", n, err)
	}
}

// TestNextAllocFree: once its record buffer has grown to the largest
// record, Next allocates nothing per record.
func TestNextAllocFree(t *testing.T) {
	var recs []Record
	for i := 0; i < 300; i++ {
		n := 200 - i%140 // the first record is the largest
		recs = append(recs, Record{TimestampNanos: int64(i) * 1000, OriginalLength: n, Data: bytes.Repeat([]byte{byte(i)}, n)})
	}
	rd, err := NewReader(bytes.NewReader(writeFile(t, FileHeader{SnapLen: 256}, recs)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Next(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := rd.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Next allocates %.1f times per record, want 0", allocs)
	}
}
