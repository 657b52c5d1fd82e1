package livemon

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

func TestRingSequenceAndEvents(t *testing.T) {
	r, err := OpenRing(nil, "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	seq, stored := r.Append(KindSnapshot, 100, []byte(`{"points":[]}`))
	if !stored || seq != 1 {
		t.Fatalf("first append: seq=%d stored=%v, want 1 true", seq, stored)
	}
	r.Append(KindAlert, 200, []byte(`{"rule":"a"}`))
	r.Append(KindStatus, 300, []byte(`{"site":"STAR"}`))
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	// Replay from zero skips snapshots but keeps order.
	evs := r.EventsSince(0)
	if len(evs) != 2 || evs[0].Kind != KindAlert || evs[1].Kind != KindStatus {
		t.Fatalf("EventsSince(0) = %+v", evs)
	}
	if evs := r.EventsSince(2); len(evs) != 1 || evs[0].Seq != 3 {
		t.Fatalf("EventsSince(2) = %+v", evs)
	}
}

func TestRingTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRing(nil, dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if _, stored := r.Append(KindAlert, sim.Time(i*100), []byte(`{"i":`+string(rune('0'+i))+`}`)); !stored {
			t.Fatalf("append %d suppressed", i)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a frame with a bad CRC and no newline
	// at the tail of the active segment.
	seg := filepath.Join(dir, "seg-00000000.jsonl")
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`deadbeef {"seq":6,"sim_ns":600,"kind":"alert"`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(seg)

	r2, err := OpenRing(nil, dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Recovered() != 5 {
		t.Fatalf("Recovered = %d, want 5 (torn tail dropped)", r2.Recovered())
	}
	if r2.NextSeq() != 6 {
		t.Fatalf("NextSeq = %d, want 6", r2.NextSeq())
	}
	after, _ := os.Stat(seg)
	if after.Size() >= before.Size() {
		t.Fatalf("torn tail not truncated: %d -> %d bytes", before.Size(), after.Size())
	}

	// Resume dedupe: a replayed publish strictly older than the newest
	// recovered record is suppressed; the frontier and beyond append.
	if _, stored := r2.Append(KindAlert, 400, nil); stored {
		t.Fatal("append older than recovered frontier was stored")
	}
	if seq, stored := r2.Append(KindAlert, 600, nil); !stored || seq != 6 {
		t.Fatalf("append past frontier: seq=%d stored=%v, want 6 true", seq, stored)
	}
}

func TestRingRotationAndPruning(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRing(nil, dir, 128, 2)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"pad":"0123456789012345678901234567890123456789"}`)
	for i := 0; i < 40; i++ {
		r.Append(KindStatus, sim.Time(i), payload)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) > 2 {
		t.Fatalf("retained %d segments on disk, cap is 2", len(entries))
	}
	// The memory mirror pruned with the segments: the oldest retained
	// seq moved past 1 and matches what a reopen recovers.
	first := uint64(0)
	r.Scan(func(rec Record) bool { first = rec.Seq; return false })
	if first <= 1 {
		t.Fatalf("oldest retained seq = %d, want pruned past 1", first)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenRing(nil, dir, 128, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Len() != r.Len() {
		t.Fatalf("reopen recovered %d records, memory had %d", r2.Len(), r.Len())
	}
}

func TestRingMemoryOnlyBounds(t *testing.T) {
	r, err := OpenRing(nil, "", 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		r.Append(KindStatus, sim.Time(i), []byte(`{"pad":"xxxxxxxxxxxxxxxxxxxxxxxx"}`))
	}
	if r.Len() >= 100 {
		t.Fatalf("memory-only ring retained all %d records, want bounded", r.Len())
	}
}
