package crcline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
	"testing"
)

// sprintfFrame is the framing the WAL, the ring and the provenance
// writer used before this package: the oracle for Append.
func sprintfFrame(body []byte) string {
	return fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(body), body)
}

// journalScan is the journal's reader loop before this package, without
// its JSON step: the oracle for Scan's bodies and Good.
func journalScan(data []byte) (bodies []string, good int64) {
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break
		}
		frame, rest, found := strings.Cut(string(data[off:off+nl]), " ")
		if !found || len(frame) != 8 {
			break
		}
		want, err := strconv.ParseUint(frame, 16, 32)
		if err != nil || crc32.ChecksumIEEE([]byte(rest)) != uint32(want) {
			break
		}
		bodies = append(bodies, rest)
		good += int64(nl) + 1
		off += nl + 1
	}
	return bodies, good
}

func frames(bodies ...string) []byte {
	var b []byte
	for _, body := range bodies {
		b = Append(b, []byte(body))
	}
	return b
}

func all([]byte) bool { return true }

func scanAll(t *testing.T, data []byte) (Extent, []string) {
	t.Helper()
	var bodies []string
	e, err := Scan(bytes.NewReader(data), func(body []byte) bool {
		bodies = append(bodies, string(body))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, bodies
}

func TestAppendMatchesSprintf(t *testing.T) {
	for _, body := range []string{"", "{}", `{"seq":0,"kind":"setup"}`, "\x00\xff", strings.Repeat("x", 1<<17)} {
		if got, want := string(Append(nil, []byte(body))), sprintfFrame([]byte(body)); got != want {
			t.Errorf("Append(%.20q) = %.40q, want %.40q", body, got, want)
		}
	}
	if got := string(Append([]byte("keep"), []byte("{}"))); got != "keep"+sprintfFrame([]byte("{}")) {
		t.Errorf("Append lost its dst prefix: %q", got)
	}
}

func TestScan(t *testing.T) {
	clean := frames(`{"a":1}`, `{"a":2}`, `{"a":3}`)
	second := len(frames(`{"a":1}`))
	third := len(frames(`{"a":1}`, `{"a":2}`))
	flipped := bytes.Clone(clean)
	flipped[second+12] ^= 0x01
	for _, tc := range []struct {
		name    string
		data    []byte
		records int
		good    int
		midFile bool
	}{
		{"empty", nil, 0, 0, false},
		{"clean", clean, 3, len(clean), false},
		{"unterminated final frame", clean[:len(clean)-1], 2, third, false},
		{"torn mid-line", clean[:len(clean)-4], 2, third, false},
		{"flipped middle frame", flipped, 1, second, true},
		{"bad hex", append([]byte("0000000g {}\n"), clean...), 0, 0, true},
		{"no space", []byte("a3a6bf43x{}\n"), 0, 0, false}, // CRC of "{}" after the 9th byte
		{"short line", []byte("00000000\n"), 0, 0, false},
		{"empty body", []byte("00000000 \n"), 1, 10, false},
		{"uppercase hex", []byte("A3A6BF43 {}\n"), 1, 12, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, _ := scanAll(t, tc.data)
			want := Extent{Records: tc.records, Good: int64(tc.good), Size: int64(len(tc.data)), MidFile: tc.midFile}
			if e != want {
				t.Errorf("Scan = %+v, want %+v", e, want)
			}
		})
	}
}

// TestScanLongLines covers lines around and beyond the reader's buffer,
// which are reassembled from several reads.
func TestScanLongLines(t *testing.T) {
	for _, n := range []int{64<<10 - 11, 64<<10 - 10, 64<<10 - 9, 200_000} {
		body := strings.Repeat("y", n)
		data := frames(`{}`, body, `{}`)
		e, bodies := scanAll(t, data)
		if e.Records != 3 || e.Damaged() || len(bodies) != 3 || bodies[1] != body {
			t.Fatalf("body %d bytes: %+v, %d bodies", n, e, len(bodies))
		}
		e, _ = scanAll(t, data[:len(data)-len(frames(`{}`))-1])
		if e.Records != 1 || e.Good != int64(len(frames(`{}`))) || e.MidFile {
			t.Fatalf("body %d bytes, unterminated: %+v", n, e)
		}
		data[30] ^= 0x01
		e, _ = scanAll(t, data)
		if e.Records != 1 || !e.MidFile {
			t.Fatalf("body %d bytes, flipped: %+v", n, e)
		}
	}
}

// TestScanStopsAtRejectedLine: fn returning false ends the run at that
// line, and the intact lines after it read as mid-file damage.
func TestScanStopsAtRejectedLine(t *testing.T) {
	data := frames(`{"seq":0}`, `{"seq":2}`, `{"seq":3}`)
	n := 0
	e, err := Scan(bytes.NewReader(data), func(body []byte) bool {
		ok := string(body) == fmt.Sprintf(`{"seq":%d}`, n)
		n++
		return ok
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Records != 1 || e.Good != int64(len(frames(`{"seq":0}`))) || !e.MidFile || n != 2 {
		t.Fatalf("Scan = %+v after %d calls", e, n)
	}
}

func TestLines(t *testing.T) {
	data := []byte("{\"a\":1}\nnot json\n{\"a\":2}\n{\"torn")
	e, err := Lines(bytes.NewReader(data), json.Valid, all)
	if err != nil {
		t.Fatal(err)
	}
	want := Extent{Records: 1, Good: 8, Size: int64(len(data)), MidFile: true}
	if e != want {
		t.Fatalf("Lines = %+v, want %+v", e, want)
	}
}

// FuzzScan holds the codec to the torn-tail rule on arbitrary bytes,
// against the journal's former reader loop as the oracle.
func FuzzScan(f *testing.F) {
	seed := frames(`{"seq":0,"kind":"setup"}`, `{"seq":1,"kind":"remedy","note":"x y"}`, `{}`)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])                         // torn mid-line
	f.Add(seed[:len(seed)-1])                         // missing final newline
	f.Add([]byte("00000000 {}\n"))                    // bad CRC
	f.Add([]byte("zz zz\n"))                          // unparseable frame
	f.Add([]byte{})                                   // empty
	f.Add(append([]byte("deadbeef {}\n"), seed...))   // intact frames after damage
	f.Add(append(append([]byte{}, seed...), seed...)) // repeated frames

	f.Fuzz(func(t *testing.T, data []byte) {
		e, bodies := scanAll(t, data)
		if e.Size != int64(len(data)) || e.Good < 0 || e.Good > e.Size {
			t.Fatalf("extent %+v over %d bytes", e, len(data))
		}
		if e.Good > 0 && data[e.Good-1] != '\n' {
			t.Fatalf("Good %d does not follow a newline", e.Good)
		}
		wantBodies, wantGood := journalScan(data)
		if e.Good != wantGood || e.Records != len(wantBodies) || len(bodies) != len(wantBodies) {
			t.Fatalf("Scan %+v with %d bodies, oracle %d bodies ending at %d", e, len(bodies), len(wantBodies), wantGood)
		}
		for i := range bodies {
			if bodies[i] != wantBodies[i] {
				t.Fatalf("body %d = %q, oracle %q", i, bodies[i], wantBodies[i])
			}
		}
		if got, want := string(Append(nil, data)), sprintfFrame(data); got != want {
			t.Fatalf("Append = %q, want %q", got, want)
		}

		// The leading run alone rescans to itself, undamaged.
		prefix, _ := scanAll(t, data[:e.Good])
		if prefix.Records != e.Records || prefix.Damaged() || prefix.MidFile {
			t.Fatalf("rescan of the leading run: %+v, want %d clean records", prefix, e.Records)
		}

		// One more frame after a complete last line extends an intact
		// log and shows up as mid-file damage behind a damaged one.
		if len(data) > 0 && data[len(data)-1] != '\n' {
			return
		}
		more, _ := scanAll(t, append(bytes.Clone(data), Append(nil, []byte("{}"))...))
		switch {
		case !e.Damaged() && (more.Records != e.Records+1 || more.Damaged()):
			t.Fatalf("append to an intact log: %+v, want %d clean records", more, e.Records+1)
		case e.Damaged() && !more.MidFile:
			t.Fatalf("append behind damage: %+v, want mid-file", more)
		}
	})
}
