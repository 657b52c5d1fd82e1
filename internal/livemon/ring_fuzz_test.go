package livemon

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
	"repro/internal/storefault"
)

// FuzzRingSegment feeds arbitrary bytes through the on-disk ring codec:
// opening a damaged segment must never panic, recovery must be
// idempotent (the first open truncates the torn tail, so a second open
// sees exactly the same records), and a recovered ring must keep
// accepting appends that survive another reopen.
func FuzzRingSegment(f *testing.F) {
	// Seed corpus from a real segment written by the ring itself.
	seedDir := f.TempDir()
	r, err := OpenRing(nil, seedDir, 0, 0)
	if err != nil {
		f.Fatal(err)
	}
	r.Append(KindSnapshot, 100, []byte(`{"points":[{"name":"x","value":1}]}`))
	r.Append(KindAlert, 200, []byte(`{"rule":"capture-drop-ratio","state":"firing"}`))
	r.Append(KindStatus, 300, []byte(`{"site":"STAR","worst":"warn"}`))
	r.Append(KindProgress, 400, []byte(`{"run":1,"sample":2}`))
	if err := r.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(filepath.Join(seedDir, "seg-00000000.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])                         // torn tail mid-record
	f.Add(seed[:len(seed)-1])                         // missing final newline
	f.Add([]byte("00000000 {}\n"))                    // bad CRC
	f.Add([]byte("zz zz\n"))                          // unparseable frame
	f.Add([]byte{})                                   // empty segment
	f.Add(append(append([]byte{}, seed...), seed...)) // duplicated seqs

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-00000000.jsonl"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		r1, err := OpenRing(nil, dir, 0, 0)
		if err != nil {
			t.Skip() // I/O-level failure, not a codec property
		}
		n := r1.Len()
		if r1.Recovered() != n {
			t.Fatalf("Recovered()=%d but Len()=%d", r1.Recovered(), n)
		}
		r1.Scan(func(rec Record) bool {
			if rec.Seq >= r1.NextSeq() {
				t.Fatalf("recovered seq %d >= NextSeq %d", rec.Seq, r1.NextSeq())
			}
			return true
		})
		if err := r1.Close(); err != nil {
			t.Fatalf("close after recovery: %v", err)
		}

		// Idempotent recovery: the torn tail is gone now.
		r2, err := OpenRing(nil, dir, 0, 0)
		if err != nil {
			t.Fatalf("second open: %v", err)
		}
		if r2.Len() != n {
			t.Fatalf("recovery not idempotent: %d then %d records", n, r2.Len())
		}
		// The recovered ring must still be appendable, and the append
		// must itself survive recovery.
		_, stored := r2.Append(KindAlert, sim.Time(math.MaxInt64), []byte(`{}`))
		if err := r2.Close(); err != nil {
			t.Fatalf("close after append: %v", err)
		}
		r3, err := OpenRing(nil, dir, 0, 0)
		if err != nil {
			t.Fatalf("third open: %v", err)
		}
		want := n
		if stored {
			want++
		}
		if r3.Len() != want {
			t.Fatalf("append lost: %d records, want %d", r3.Len(), want)
		}
		r3.Close()
	})
}

// TestRingENOSPCPrunesAndRetries exercises graceful degradation: when
// the volume fills mid-append, the ring prunes its retained history,
// retries the write, and keeps running with no latched error.
func TestRingENOSPCPrunesAndRetries(t *testing.T) {
	dir := t.TempDir()
	plan, err := storefault.Parse([]byte(
		`{"enospc": [{"rate": 1, "after_ops": 30, "max": 1, "path_glob": "seg-*.jsonl"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	chaos, err := storefault.NewChaos(nil, 11, plan)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenRing(chaos, dir, 256, 8) // tiny segments force rotation
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		if _, stored := r.Append(KindAlert, sim.Time(i)*sim.Time(100), []byte(`{"n":1}`)); !stored {
			t.Fatalf("append %d suppressed", i)
		}
	}
	if r.Err() != nil {
		t.Fatalf("ENOSPC must degrade, not latch: %v", r.Err())
	}
	if r.Pruned() != 1 {
		t.Fatalf("Pruned() = %d, want 1", r.Pruned())
	}
	if chaos.Injected()[storefault.KindENOSPC] != 1 {
		t.Fatalf("injections: %v", chaos.Injected())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything still on disk must recover cleanly.
	r2, err := OpenRing(nil, dir, 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Len() == 0 {
		t.Fatal("nothing recovered after degradation")
	}
}
