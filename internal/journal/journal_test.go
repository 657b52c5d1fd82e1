package journal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

func mustCreate(t *testing.T, dir string) *Writer {
	t.Helper()
	w, err := Create(nil, dir, []byte(`{"spec":1}`))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return w
}

func TestAppendAndReadBack(t *testing.T) {
	dir := t.TempDir()
	w := mustCreate(t, dir)
	if _, err := w.Append(0, KindCampaignStart, "", "seed=1"); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if _, err := w.Append(5*sim.Second, KindSetup, "STAR", "sliver=1"); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	recs, err := ReadWAL(dir)
	if err != nil {
		t.Fatalf("ReadWAL: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[1].Kind != KindSetup || recs[1].Site != "STAR" || recs[1].SimNs != int64(5*sim.Second) {
		t.Fatalf("bad record: %+v", recs[1])
	}
	if recs[0].Seq != 0 || recs[1].Seq != 1 {
		t.Fatalf("bad seqs: %d, %d", recs[0].Seq, recs[1].Seq)
	}
}

func TestCreateRefusesExistingWAL(t *testing.T) {
	dir := t.TempDir()
	w := mustCreate(t, dir)
	w.Close()
	if _, err := Create(nil, dir, nil); err == nil {
		t.Fatal("second Create should refuse an existing WAL")
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w := mustCreate(t, dir)
	for i := 0; i < 3; i++ {
		if _, err := w.Append(sim.Time(i), KindRemedy, "STAR", "n"); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	w.Close()
	// Simulate a crash mid-write: append half a line.
	path := filepath.Join(dir, WALFile)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`deadbeef {"seq":3,"sim_`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, err := ReadWAL(dir)
	if err != nil {
		t.Fatalf("ReadWAL with torn tail: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3 (torn tail dropped)", len(recs))
	}

	// Resume must truncate the tail so new appends frame cleanly.
	w2, manifest, _, hasCP, err := OpenResume(nil, dir)
	if err != nil {
		t.Fatalf("OpenResume: %v", err)
	}
	if string(manifest) != `{"spec":1}` {
		t.Fatalf("manifest round-trip: %q", manifest)
	}
	if hasCP {
		t.Fatal("no checkpoint was written, got one")
	}
	if w2.Prefix() != 3 || !w2.Replaying() {
		t.Fatalf("prefix=%d replaying=%v, want 3/true", w2.Prefix(), w2.Replaying())
	}
	for i := 0; i < 3; i++ {
		replayed, err := w2.Append(sim.Time(i), KindRemedy, "STAR", "n")
		if err != nil || !replayed {
			t.Fatalf("replay append %d: replayed=%v err=%v", i, replayed, err)
		}
	}
	if w2.Replaying() {
		t.Fatal("still replaying after prefix exhausted")
	}
	replayed, err := w2.Append(99, KindCampaignEnd, "", "")
	if err != nil || replayed {
		t.Fatalf("post-prefix append: replayed=%v err=%v", replayed, err)
	}
	w2.Close()
	recs, err = ReadWAL(dir)
	if err != nil {
		t.Fatalf("ReadWAL after resume: %v", err)
	}
	if len(recs) != 4 || recs[3].Kind != KindCampaignEnd {
		t.Fatalf("final WAL: %+v", recs)
	}
}

func TestReplayDivergenceDetected(t *testing.T) {
	dir := t.TempDir()
	w := mustCreate(t, dir)
	if _, err := w.Append(1, KindSetup, "STAR", "sliver=1"); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2, _, _, _, err := OpenResume(nil, dir)
	if err != nil {
		t.Fatalf("OpenResume: %v", err)
	}
	defer w2.Close()
	_, err = w2.Append(1, KindSetup, "NCSA", "sliver=1") // different site
	var div *DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("want DivergenceError, got %v", err)
	}
	if div.Seq != 0 || !strings.Contains(div.Want, "STAR") || !strings.Contains(div.Got, "NCSA") {
		t.Fatalf("divergence detail: %+v", div)
	}
}

func TestCheckpointRoundTripAndVerify(t *testing.T) {
	dir := t.TempDir()
	w := mustCreate(t, dir)
	if _, err := w.Append(1, KindSetup, "STAR", "sliver=1"); err != nil {
		t.Fatal(err)
	}
	cp := Checkpoint{
		Kernel: sim.Checkpoint{Now: 10 * sim.Second, Seq: 42, Events: 40},
		State:  map[string]string{"testbed:STAR": "nics=2", "metrics": "h=abc"},
	}
	if err := w.WriteCheckpoint(10*sim.Second, cp); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if _, err := w.Append(11*sim.Second, KindRemedy, "STAR", "restart"); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2, _, stored, hasCP, err := OpenResume(nil, dir)
	if err != nil {
		t.Fatalf("OpenResume: %v", err)
	}
	defer w2.Close()
	if !hasCP || stored.Kernel.Seq != 42 || stored.State["metrics"] != "h=abc" {
		t.Fatalf("stored checkpoint: hasCP=%v %+v", hasCP, stored)
	}
	// Replay: setup, then the identical checkpoint must verify.
	if _, err := w2.Append(1, KindSetup, "STAR", "sliver=1"); err != nil {
		t.Fatal(err)
	}
	if err := w2.WriteCheckpoint(10*sim.Second, cp); err != nil {
		t.Fatalf("checkpoint verify on replay: %v", err)
	}

	// A diverged checkpoint at the same WAL position must be rejected.
	dir2 := t.TempDir()
	wa := mustCreate(t, dir2)
	if err := wa.WriteCheckpoint(10*sim.Second, cp); err != nil {
		t.Fatal(err)
	}
	wa.Close()
	wb, _, _, _, err := OpenResume(nil, dir2)
	if err != nil {
		t.Fatal(err)
	}
	defer wb.Close()
	bad := cp
	bad.State = map[string]string{"testbed:STAR": "nics=1", "metrics": "h=abc"}
	err = wb.WriteCheckpoint(10*sim.Second, bad)
	var div *DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("want DivergenceError for diverged checkpoint, got %v", err)
	}
}

func TestCorruptLineDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	w := mustCreate(t, dir)
	for i := 0; i < 4; i++ {
		if _, err := w.Append(sim.Time(i), KindRemedy, "S", "n"); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	path := filepath.Join(dir, WALFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	// Flip a byte inside record 1's JSON payload.
	lines[1] = strings.Replace(lines[1], `"kind"`, `"kinx"`, 1)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadWAL(dir)
	if err != nil {
		t.Fatalf("ReadWAL: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1 (everything after the corrupt line dropped)", len(recs))
	}
}
