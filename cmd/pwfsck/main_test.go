package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/flowstore"
	"repro/internal/journal"
	"repro/internal/livemon"
	"repro/internal/pcap"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/wire"
)

// frame encodes one CRC-framed line in the shared WAL/ring/trace format.
func frame(body string) string {
	return fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE([]byte(body)), body)
}

func walLines(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(frame(fmt.Sprintf(`{"seq":%d,"sim_ns":%d,"kind":"setup","site":"S%d"}`, i, i*1000, i)))
	}
	return b.String()
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// writePcap writes a structurally valid pcap with n records and returns
// its bytes.
func writePcap(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, pcap.FileHeader{Nanosecond: true, SnapLen: 4096, LinkType: pcap.LinkTypeEthernet})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 60+i)
		if err := w.WriteRecord(int64(i)*1e6, data, len(data)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeFlowstore writes a valid .pwfs file with a few segments.
func writeFlowstore(t *testing.T, path string) {
	t.Helper()
	w, err := flowstore.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for seg := 0; seg < 3; seg++ {
		recs := make([]flowstore.Rec, 20)
		for i := range recs {
			a := netip.AddrFrom4([4]byte{10, 0, byte(seg), byte(i)})
			b := netip.AddrFrom4([4]byte{10, 1, byte(seg), byte(i)})
			recs[i] = flowstore.Rec{
				Key: flowstore.Key{
					Src: wire.NewIPEndpoint(a), Dst: wire.NewIPEndpoint(b),
					Proto: wire.LayerTypeTCP, SrcPort: 1000 + uint16(i), DstPort: 443,
				},
				Site:    "site-a",
				FirstNs: int64(seg)*1e9 + int64(i)*1e6, LastNs: int64(seg)*1e9 + int64(i)*1e6 + 5e5,
				FirstSeq: uint64(seg*100 + i), Frames: 3, Bytes: 1800,
			}
		}
		if err := w.Append("site-a", recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// buildCampaignDir lays out a doctored campaign directory with every
// artifact format, returning the dir. Damage is planted per the flags.
func buildCampaignDir(t *testing.T, doctor bool) string {
	t.Helper()
	dir := t.TempDir()

	wal := walLines(8)
	if doctor {
		wal = wal[:len(wal)-7] // torn tail: final line cut mid-frame
	}
	writeFile(t, filepath.Join(dir, "journal", "wal.jsonl"), wal)
	writeFile(t, filepath.Join(dir, "journal", "manifest.json"), `{"spec":{"seed":7}}`)
	cp := `{"wal_seq":4,"kernel":{"now_ns":100}}`
	if doctor {
		cp = cp[:len(cp)-3] // corrupt whole-doc JSON: unrepairable
	}
	writeFile(t, filepath.Join(dir, "journal", "checkpoint.json"), cp)

	seg := frame(`{"seq":0,"k":"metric"}`) + frame(`{"seq":1,"k":"metric"}`) + frame(`{"seq":2,"k":"log"}`)
	if doctor {
		// Mid-file corruption: flip a byte inside the middle frame's body.
		b := []byte(seg)
		b[len(seg)/2] ^= 0x40
		seg = string(b)
	}
	writeFile(t, filepath.Join(dir, "livemon", "seg-00000000.jsonl"), seg)

	trace := frame(`{"k":"h","format":"pw-prov"}`) + frame(`{"k":"e","s":1}`)
	writeFile(t, filepath.Join(dir, "prof", "provenance.trace"), trace)

	alerts := `{"rule":"capture-drop-ratio","state":"firing"}` + "\n" + `{"rule":"capture-drop-ratio","state":"ok"}` + "\n"
	if doctor {
		alerts += `{"rule":"truncat` // torn tail: unterminated final line
	}
	writeFile(t, filepath.Join(dir, "health", "alerts.jsonl"), alerts)

	pc := writePcap(t, 5)
	if doctor {
		pc = pc[:len(pc)-20] // torn tail: died mid-record
	}
	writeFile(t, filepath.Join(dir, "STAR", "capture-00.pcap"), string(pc))
	writeFile(t, filepath.Join(dir, "STAR", "run.log"), "free text is not scrubbed\n")

	writeFlowstore(t, filepath.Join(dir, "flows.pwfs"))
	if doctor {
		// Torn tail: chop the last flowstore segment mid-block.
		st, err := os.Stat(filepath.Join(dir, "flows.pwfs"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(filepath.Join(dir, "flows.pwfs"), st.Size()-15); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestScrubCleanDir: a pristine campaign directory exits 0 and every
// artifact reports ok.
func TestScrubCleanDir(t *testing.T) {
	dir := buildCampaignDir(t, false)
	var out, errOut bytes.Buffer
	if code := run([]string{dir}, &out, &errOut); code != exitClean {
		t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, exitClean, out.String(), errOut.String())
	}
	for _, bad := range []string{"TORN", "CORRUPT"} {
		if strings.Contains(out.String(), bad) {
			t.Errorf("clean dir reported %s:\n%s", bad, out.String())
		}
	}
	if !strings.Contains(out.String(), "0 torn, 0 corrupt") {
		t.Errorf("summary line wrong:\n%s", out.String())
	}
	// run.log must not appear: freeform text is out of scope.
	if strings.Contains(out.String(), "run.log") {
		t.Errorf("freeform run.log was scrubbed:\n%s", out.String())
	}
}

// TestScrubDoctoredDir: every planted damage class is found, torn tails
// and mid-file corruption are distinguished, and the exit code reflects
// the worst class present.
func TestScrubDoctoredDir(t *testing.T) {
	dir := buildCampaignDir(t, true)
	var out, errOut bytes.Buffer
	code := run([]string{dir}, &out, &errOut)
	if code != exitCorrupt {
		t.Fatalf("exit %d, want %d (mid-file corruption present)\n%s", code, exitCorrupt, out.String())
	}
	s := out.String()
	for _, want := range []struct{ path, status string }{
		{"wal.jsonl", "TORN"},
		{"checkpoint.json", "CORRUPT"},
		{"seg-00000000.jsonl", "CORRUPT"},
		{"alerts.jsonl", "TORN"},
		{"capture-00.pcap", "TORN"},
		{"flows.pwfs", "TORN"},
		{"provenance.trace", "ok"},
		{"manifest.json", "ok"},
	} {
		found := false
		for _, line := range strings.Split(s, "\n") {
			if strings.Contains(line, want.path) {
				found = true
				if !strings.Contains(line, want.status) {
					t.Errorf("%s: got %q, want status %s", want.path, line, want.status)
				}
			}
		}
		if !found {
			t.Errorf("%s missing from report:\n%s", want.path, s)
		}
	}
}

// TestRepairRoundTrip: -repair truncates every truncation-repairable
// artifact to its last valid frame; a re-scrub finds only the
// unrepairable whole-doc JSON, and once that is replaced the directory
// is clean. Repaired artifacts must be readable by their real readers.
func TestRepairRoundTrip(t *testing.T) {
	dir := buildCampaignDir(t, true)
	var out, errOut bytes.Buffer
	code := run([]string{"-repair", dir}, &out, &errOut)
	if code != exitCorrupt {
		t.Fatalf("repair exit %d, want %d (checkpoint.json is unrepairable)\n%s", code, exitCorrupt, out.String())
	}
	if !strings.Contains(out.String(), "repaired") {
		t.Fatalf("no repairs reported:\n%s", out.String())
	}

	// Replace the unrepairable checkpoint and re-scrub: clean.
	writeFile(t, filepath.Join(dir, "journal", "checkpoint.json"), `{"wal_seq":4,"kernel":{"now_ns":100}}`)
	out.Reset()
	if code := run([]string{dir}, &out, &errOut); code != exitClean {
		t.Fatalf("re-scrub exit %d, want %d\n%s", code, exitClean, out.String())
	}

	// The repaired artifacts must load with their real readers.
	f, err := os.Open(filepath.Join(dir, "STAR", "capture-00.pcap"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd, err := pcap.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	packets := 0
	if err := rd.ForEach(func(*pcap.Record) error { packets++; return nil }); err != nil {
		t.Fatal(err)
	}
	if packets != 4 || rd.Torn() {
		t.Errorf("repaired pcap: %d packets (torn=%v), want 4 clean", packets, rd.Torn())
	}

	st, err := flowstore.Open(filepath.Join(dir, "flows.pwfs"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Segments() != 2 || st.Torn() {
		t.Errorf("repaired flowstore: %d segments (torn=%v), want 2 clean", st.Segments(), st.Torn())
	}
}

// TestWALSeqGap: a CRC-valid WAL whose sequence numbers skip is
// structural corruption — the intact run ends at the gap, and the valid
// frames behind it classify the damage mid-file.
func TestWALSeqGap(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	for _, seq := range []int{0, 1, 3, 4} {
		b.WriteString(frame(fmt.Sprintf(`{"seq":%d,"kind":"setup"}`, seq)))
	}
	writeFile(t, filepath.Join(dir, "wal.jsonl"), b.String())
	var out, errOut bytes.Buffer
	if code := run([]string{dir}, &out, &errOut); code != exitCorrupt {
		t.Fatalf("exit %d, want %d for a seq gap\n%s", code, exitCorrupt, out.String())
	}
	if !strings.Contains(out.String(), "2 records intact") {
		t.Errorf("intact run should end at the gap:\n%s", out.String())
	}
}

// TestUnterminatedFinalFrame: a final CRC-valid line missing its
// newline is torn by definition, and repair must truncate it away
// rather than extend the file.
func TestUnterminatedFinalFrame(t *testing.T) {
	dir := t.TempDir()
	content := walLines(3) + strings.TrimSuffix(frame(`{"seq":3,"kind":"setup"}`), "\n")
	writeFile(t, filepath.Join(dir, "wal.jsonl"), content)
	var out, errOut bytes.Buffer
	if code := run([]string{"-repair", dir}, &out, &errOut); code != exitClean {
		t.Fatalf("repair exit %d, want %d\n%s", code, exitClean, out.String())
	}
	got, err := os.ReadFile(filepath.Join(dir, "wal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != walLines(3) {
		t.Errorf("repair did not truncate to the last terminated frame")
	}
}

// TestExitCodes: usage errors and missing directories exit 1.
func TestExitCodes(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code != exitErr {
		t.Errorf("no args: exit %d, want %d", code, exitErr)
	}
	if code := run([]string{"/nonexistent-pwfsck-dir"}, &out, &errOut); code != exitErr {
		t.Errorf("missing dir: exit %d, want %d", code, exitErr)
	}
}

// TestUnreadableArtifactIsCorrupt: an artifact pwfsck cannot open
// vouches for nothing, so a dangling symlink in each format scrubs as
// CORRUPT (exit 3) and -repair leaves it in place.
func TestUnreadableArtifactIsCorrupt(t *testing.T) {
	for _, rel := range []string{
		"journal/wal.jsonl",
		"livemon/ring/seg-00000000.jsonl",
		"prof/provenance.trace",
		"STAR/capture-99.pcap",
		"flows.pwfs",
		"health/alerts.jsonl",
	} {
		t.Run(rel, func(t *testing.T) {
			dir := buildCampaignDir(t, false)
			path := filepath.Join(dir, rel)
			os.Remove(path)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.Symlink(filepath.Join(dir, "missing"), path); err != nil {
				t.Fatal(err)
			}
			for _, args := range [][]string{{dir}, {"-repair", dir}} {
				var out, errOut bytes.Buffer
				if code := run(args, &out, &errOut); code != exitCorrupt {
					t.Fatalf("%v: exit %d, want %d\n%s", args, code, exitCorrupt, out.String())
				}
				if !strings.Contains(out.String(), "CORRUPT  "+rel) {
					t.Errorf("%v: %s not reported CORRUPT:\n%s", args, rel, out.String())
				}
			}
			if _, err := os.Lstat(path); err != nil {
				t.Errorf("-repair touched the unreadable artifact: %v", err)
			}
		})
	}
}

// agreeFormat is one framed artifact written by its real writer and
// loaded by its real reader.
type agreeFormat struct {
	name  string
	file  string // base name, which picks pwfsck's scrubber
	write func(t *testing.T, path string)
	// load returns the frames the reader recovered and, where the
	// reader reports it, whether it saw damage.
	load func(t *testing.T, path string) (frames int, torn bool, err error)
}

var agreeFormats = []agreeFormat{
	{
		name: "wal", file: "wal.jsonl",
		write: func(t *testing.T, path string) {
			w, err := journal.Create(nil, filepath.Dir(path), []byte(`{}`))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 6; i++ {
				if _, err := w.Append(sim.Time(i), journal.KindSetup, "STAR", "n"); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		},
		load: func(t *testing.T, path string) (int, bool, error) {
			recs, err := journal.ReadWAL(filepath.Dir(path))
			return len(recs), false, err
		},
	},
	{
		name: "ring", file: "seg-00000000.jsonl",
		write: func(t *testing.T, path string) {
			r, err := livemon.OpenRing(nil, filepath.Dir(path), 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 6; i++ {
				r.Append(livemon.KindAlert, sim.Time(i*100), []byte(`{"rule":"capture-drop-ratio"}`))
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		},
		load: func(t *testing.T, path string) (int, bool, error) {
			r, err := livemon.OpenRing(nil, filepath.Dir(path), 0, 0)
			if err != nil {
				return 0, false, err
			}
			defer r.Close()
			return r.Recovered(), false, nil
		},
	},
	{
		name: "trace", file: "provenance.trace",
		write: func(t *testing.T, path string) {
			w, err := prof.CreateTrace(nil, path)
			if err != nil {
				t.Fatal(err)
			}
			w.DefTag(1, "STAR")
			pc := sim.CallbackPC(func() {}, nil)
			for seq := uint64(1); seq <= 4; seq++ {
				w.Record(sim.ProvRecord{Seq: seq, Parent: seq - 1, At: sim.Time(seq), PC: pc, Tag: 1})
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		},
		load: func(t *testing.T, path string) (int, bool, error) {
			tr, err := prof.LoadTrace(path)
			if err != nil {
				return 0, false, err
			}
			return 1 + len(tr.FnNames) + len(tr.TagNames) + len(tr.Events), tr.Torn, nil
		},
	},
}

// lineStarts returns the offset of every line in data.
func lineStarts(data []byte) []int {
	starts := []int{0}
	for i, b := range data[:len(data)-1] {
		if b == '\n' {
			starts = append(starts, i+1)
		}
	}
	return starts
}

// TestReadersAgree: on each framed format, pwfsck's verdict and
// intact-frame count match what the format's own reader loads, for a
// clean file and each kind of damage the torn-tail rule names.
func TestReadersAgree(t *testing.T) {
	for _, tc := range []struct {
		name    string
		status  string
		walOnly bool
		doctor  func(data []byte) []byte
	}{
		{"clean", "ok", false, func(d []byte) []byte { return d }},
		{"unterminated last frame", "TORN", false, func(d []byte) []byte { return d[:len(d)-1] }},
		{"torn mid-line", "TORN", false, func(d []byte) []byte {
			s := lineStarts(d)
			last := s[len(s)-1]
			return d[:last+(len(d)-last)/2]
		}},
		{"flipped byte in a middle frame", "CORRUPT", false, func(d []byte) []byte {
			s := lineStarts(d)
			d[s[len(s)/2]+12] ^= 0x01
			return d
		}},
		{"seq gap", "CORRUPT", true, func(d []byte) []byte {
			s := lineStarts(d)
			mid := len(s) / 2
			return append(d[:s[mid]], d[s[mid+1]:]...)
		}},
	} {
		for _, f := range agreeFormats {
			if tc.walOnly && f.name != "wal" {
				continue
			}
			t.Run(tc.name+"/"+f.name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), f.file)
				f.write(t, path)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				writeFile(t, path, string(tc.doctor(data)))

				r, ok := scrubFile(path, f.file)
				if !ok {
					t.Fatalf("pwfsck does not scrub %s", f.file)
				}
				if r.status() != tc.status {
					t.Fatalf("pwfsck: %s (%s), want %s", r.status(), r.detail, tc.status)
				}
				frames, torn, err := f.load(t, path)
				if tc.walOnly {
					if err == nil || !strings.Contains(err.Error(), "WAL reordered?") {
						t.Fatalf("ReadWAL over a seq gap: %v, want its seq error", err)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if frames != r.scan.Records {
					t.Errorf("reader loaded %d frames, pwfsck counts %d intact", frames, r.scan.Records)
				}
				if f.name == "trace" && torn != r.scan.Damaged() {
					t.Errorf("LoadTrace torn=%v, pwfsck damaged=%v", torn, r.scan.Damaged())
				}
			})
		}
	}
}
