package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/flowstore"
	"repro/internal/pcap"
	"repro/internal/sim"
	"repro/internal/trafficgen"
)

// writeCorpus generates a small capture tree (site subdirectories of
// pcaps, 200-byte snaplen like a real capture) and returns its root.
func writeCorpus(t *testing.T, seed uint64, sites, samples, frames int) string {
	t.Helper()
	return writeCorpusFlows(t, seed, sites, samples, frames, 50)
}

// writeCorpusFlows is writeCorpus with flows flows per capture. The
// captures last 20 s, so more flows give more frames, up to frames.
func writeCorpusFlows(t *testing.T, seed uint64, sites, samples, frames, flows int) string {
	t.Helper()
	root := t.TempDir()
	profiles := trafficgen.MakeSiteProfiles(seed, 30)
	for i := 0; i < sites; i++ {
		p := profiles[i]
		g := trafficgen.NewGenerator(p, seed*1000+uint64(i))
		dir := filepath.Join(root, p.Site)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < samples; j++ {
			tfs, err := g.Sample(trafficgen.SampleConfig{
				Duration: 20 * sim.Second, MaxFrames: frames, FlowCount: flows,
			})
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.Create(filepath.Join(dir, fmt.Sprintf("sample-%02d.pcap", j)))
			if err != nil {
				t.Fatal(err)
			}
			w, err := pcap.NewWriter(f, pcap.FileHeader{SnapLen: 200})
			if err != nil {
				t.Fatal(err)
			}
			for _, tf := range tfs {
				if err := w.WriteRecord(int64(tf.At), tf.Data, len(tf.Data)); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return root
}

// baselineCSVs reruns the pre-streaming pipeline — materialize every
// acap and raw frame, fold with the materialized pipeline — and returns
// the CSVs by file name.
func baselineCSVs(t *testing.T, in string) map[string][]byte {
	t.Helper()
	out, err := analysistest.CSVs(materialize(t, in))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// materialize digests every capture under in, in the order run does,
// into one acap each, and returns them with every raw frame.
func materialize(t *testing.T, in string) (acaps []*analysis.Acap, rawFrames [][]byte) {
	t.Helper()
	err := filepath.WalkDir(in, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() || !strings.HasSuffix(path, ".pcap") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rd, err := pcap.NewReader(f)
		if err != nil {
			return err
		}
		acap := &analysis.Acap{Site: filepath.Base(filepath.Dir(path))}
		err = rd.ForEach(func(rec *pcap.Record) error {
			acap.Records = append(acap.Records,
				analysis.DigestFrame(rec.TimestampNanos, rec.Data, rec.OriginalLength))
			rawFrames = append(rawFrames, append([]byte(nil), rec.Data...))
			return nil
		})
		if err != nil {
			return err
		}
		acaps = append(acaps, acap)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return acaps, rawFrames
}

// TestRunMatchesInMemoryPipeline is the end-to-end equivalence gate for
// the CLI: the streamed run — with a hot-flow cap low enough to force
// spilling — must write every CSV byte-identical to the old
// materialize-everything pipeline, plus a complete flow store.
func TestRunMatchesInMemoryPipeline(t *testing.T) {
	in := writeCorpus(t, 21, 2, 2, 800)
	out := t.TempDir()
	torn, err := run(in, out, 64, false, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(torn) != 0 {
		t.Fatalf("clean corpus reported torn captures: %v", torn)
	}

	want := baselineCSVs(t, in)
	for name, wantBytes := range want {
		got, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantBytes) {
			t.Errorf("%s differs from in-memory baseline\n--- streamed ---\n%s\n--- baseline ---\n%s",
				name, got, wantBytes)
		}
	}

	// The acap and index artifacts still exist.
	if _, err := os.Stat(filepath.Join(out, "index.json")); err != nil {
		t.Error(err)
	}
	acaps, err := filepath.Glob(filepath.Join(out, "acaps", "*.json"))
	if err != nil || len(acaps) != 4 {
		t.Errorf("acaps: %v (err %v), want 4", acaps, err)
	}

	// The flow store is complete: aggregating it alone (no hot state)
	// reproduces the exact flow totals.
	store, err := flowstore.Open(filepath.Join(out, "flows.pwfs"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if store.Torn() || store.Rows() == 0 {
		t.Fatalf("flow store: torn=%v rows=%d", store.Torn(), store.Rows())
	}
	empty := analysis.NewFlowTable(0, nil)
	flows, err := empty.Aggregates(store)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := analysis.WriteFlowAggregateCSV(&b, flows, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want["flow_aggregate.csv"]) {
		t.Error("aggregates from the flow store alone differ from the baseline")
	}
}

// TestVerboseSummaryExact: with a hot-flow cap low enough that flows
// spill and re-enter, -v's summary is exact. The flow count is the
// materialized pipeline's, and the top flows are its aggregates, stably
// sorted by frames, with their exact frame and byte counts.
func TestVerboseSummaryExact(t *testing.T) {
	in := writeCorpus(t, 21, 2, 2, 800)
	out := t.TempDir()
	var stdout bytes.Buffer
	if _, err := run(in, out, 64, true, &stdout); err != nil {
		t.Fatal(err)
	}

	acaps, raw := materialize(t, in)
	flows := analysistest.AggregateFlows(acaps)
	store, err := flowstore.Open(filepath.Join(out, "flows.pwfs"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if store.Rows() <= int64(len(flows)) {
		t.Fatalf("%d rows for %d flows: no flow spilled twice", store.Rows(), len(flows))
	}
	sort.SliceStable(flows, func(i, j int) bool { return flows[i].Frames > flows[j].Frames })
	want := fmt.Sprintf("digested %d captures (%d frames, %d flows) into %s\n", len(acaps), len(raw), len(flows), out)
	want += fmt.Sprintf("  %d spilled rows in %s\n", store.Rows(), filepath.Join(out, "flows.pwfs"))
	for _, f := range flows[:10] {
		want += fmt.Sprintf("  top: %v frames=%d bytes=%d\n", f.Key, f.Frames, f.Bytes)
	}
	if got := stdout.String(); got != want {
		t.Errorf("-v printed\n%s\nwant\n%s", got, want)
	}
}

// capturePaths lists the corpus's pcaps in the order run digests them.
func capturePaths(t *testing.T, in string) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(in, func(path string, de fs.DirEntry, err error) error {
		if err == nil && !de.IsDir() && strings.HasSuffix(path, ".pcap") {
			paths = append(paths, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("corpus produced no pcaps")
	}
	return paths
}

// tear cuts the capture short mid-record, as a dying capture process
// leaves it.
func tear(t *testing.T, path string) {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-9); err != nil {
		t.Fatal(err)
	}
}

// TestAcapMatchesDigest: the acap pwanalyze streams for each capture —
// torn and empty ones included — is byte-identical to the materialized
// analysistest.Digest of that pcap, encoded with Acap.Encode; in
// particular its start is the first record's timestamp.
func TestAcapMatchesDigest(t *testing.T) {
	in := writeCorpus(t, 5, 2, 2, 300)
	paths := capturePaths(t, in)
	tear(t, paths[1])
	empty, err := os.Create(filepath.Join(filepath.Dir(paths[0]), "sample-99.pcap"))
	if err != nil {
		t.Fatal(err)
	}
	w, err := pcap.NewWriter(empty, pcap.FileHeader{SnapLen: 200})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := empty.Close(); err != nil {
		t.Fatal(err)
	}

	out := t.TempDir()
	if _, err := run(in, out, 64, false, io.Discard); err != nil {
		t.Fatal(err)
	}
	paths = capturePaths(t, in)
	for i, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := pcap.NewReader(f)
		if err != nil {
			t.Fatal(err)
		}
		site := filepath.Base(filepath.Dir(path))
		a, err := analysistest.Digest(site, rd)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := a.Encode(&want); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(out, "acaps", fmt.Sprintf("%s-%03d.json", site, i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: acap differs from Digest+Encode\n got: %.200s\nwant: %.200s", path, got, want.Bytes())
		}
	}
}

// TestTornCaptureSurfaced: a capture whose final record was cut short
// must not fail the run — the intact prefix is analyzed — but its path
// must be reported so the CLI can warn and exit with the torn code.
func TestTornCaptureSurfaced(t *testing.T) {
	in := writeCorpus(t, 33, 2, 1, 400)
	tornPath := capturePaths(t, in)[0]
	tear(t, tornPath)

	torn, err := run(in, t.TempDir(), 64, false, io.Discard)
	if err != nil {
		t.Fatalf("torn capture failed the run instead of being surfaced: %v", err)
	}
	if len(torn) != 1 || torn[0] != tornPath {
		t.Errorf("torn = %v, want exactly [%s]", torn, tornPath)
	}
}

// addEmptyCapture writes a capture holding no records beside path.
func addEmptyCapture(t *testing.T, path string) {
	t.Helper()
	f, err := os.Create(filepath.Join(filepath.Dir(path), "sample-99.pcap"))
	if err != nil {
		t.Fatal(err)
	}
	w, err := pcap.NewWriter(f, pcap.FileHeader{SnapLen: 200})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// readTree returns every file under root by its slash-separated
// relative path.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		files[filepath.ToSlash(rel)] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestOutputIndependentOfGOMAXPROCS: the walk, the fold and the acap
// writer run on three goroutines, so the whole output tree (acaps,
// index.json, flows.pwfs and the CSVs) must be byte-identical however
// they are scheduled, with spilling forced, captures spanning several
// record batches, and torn and empty captures present; and the CSVs
// must be the materialized pipeline's.
func TestOutputIndependentOfGOMAXPROCS(t *testing.T) {
	in := writeCorpusFlows(t, 9, 2, 2, 6000, 200)
	paths := capturePaths(t, in)
	tear(t, paths[2])
	addEmptyCapture(t, paths[0])
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	tmp := t.TempDir()
	// Every run writes to the same -out, so index.json's paths agree.
	out := filepath.Join(tmp, "out")
	procs := []int{1, 2, 4}
	var trees []map[string][]byte
	for _, n := range procs {
		runtime.GOMAXPROCS(n)
		torn, err := run(in, out, 64, false, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if len(torn) != 1 {
			t.Fatalf("GOMAXPROCS %d: torn = %v, want one capture", n, torn)
		}
		trees = append(trees, readTree(t, out))
		if err := os.Rename(out, filepath.Join(tmp, fmt.Sprintf("out-%d", n))); err != nil {
			t.Fatal(err)
		}
	}
	a := trees[0]
	if len(a["acaps/"+filepath.Base(filepath.Dir(paths[0]))+"-001.json"]) < 2*batchRecords*100 {
		t.Fatalf("the first acap is too small to span several record batches")
	}
	for i, b := range trees[1:] {
		if len(a) != len(b) {
			t.Fatalf("GOMAXPROCS 1 wrote %d files, %d wrote %d", len(a), procs[i+1], len(b))
		}
		for name, data := range a {
			if !bytes.Equal(data, b[name]) {
				t.Errorf("%s differs between GOMAXPROCS 1 and %d", name, procs[i+1])
			}
		}
	}
	for name, want := range baselineCSVs(t, in) {
		if !bytes.Equal(a[name], want) {
			t.Errorf("%s differs from the in-memory baseline\n--- run ---\n%s\n--- baseline ---\n%s", name, a[name], want)
		}
	}
}

// openFilesUnder lists the process's open file descriptors that point
// under dir, from /proc/self/fd; ok is false where that is unavailable.
func openFilesUnder(dir string) (paths []string, ok bool) {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return nil, false
	}
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
			paths = append(paths, target)
		}
	}
	return paths, true
}

// requireStagesJoined fails if a file under out outlived run, or the
// fold or writer goroutine outlives it by more than its exit: run waits
// for each goroutine's last act, so it may still be returning. The walk
// is run's own goroutine.
func requireStagesJoined(t *testing.T, out string) {
	t.Helper()
	if open, ok := openFilesUnder(out); ok && len(open) > 0 {
		t.Fatalf("files left open under the output: %v", open)
	}
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "(*pipeline).foldLoop") && !strings.Contains(stacks, "(*pipeline).writeLoop") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("a stage of the pipeline outlived run:\n%s", stacks)
		}
	}
}

// requireDevFull skips the test where /dev/full cannot fail writes.
func requireDevFull(t *testing.T) {
	t.Helper()
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("needs /dev/full to fail writes")
	}
}

// failWrites makes every write to path fail with ENOSPC, by linking it
// to /dev/full.
func failWrites(t *testing.T, path string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("/dev/full", path); err != nil {
		t.Fatal(err)
	}
}

// acapPath is the acap run writes for the capture-th of paths.
func acapPath(out string, paths []string, capture int) string {
	site := filepath.Base(filepath.Dir(paths[capture-1]))
	return filepath.Join(out, "acaps", fmt.Sprintf("%s-%03d.json", site, capture))
}

// isStoreFailure reports whether err is the flow store's ENOSPC.
func isStoreFailure(err error) bool {
	return errors.Is(err, syscall.ENOSPC) && strings.HasPrefix(err.Error(), "flowstore:")
}

// TestAcapWriteFailureJoinsWriter: an acap that cannot be written fails
// run with the write's error, whichever capture it is and whether or
// not the walk is still reading, and run returns only after the fold
// and writer goroutines have ended and the writer has closed its files.
// A walk that fails on its own, mid-capture, joins them likewise.
func TestAcapWriteFailureJoinsWriter(t *testing.T) {
	requireDevFull(t)
	in := writeCorpusFlows(t, 17, 2, 2, 6000, 200)
	paths := capturePaths(t, in)
	for _, capture := range []int{1, 3, len(paths)} {
		t.Run(fmt.Sprintf("acap-%d", capture), func(t *testing.T) {
			out := t.TempDir()
			failWrites(t, acapPath(out, paths, capture))
			_, err := run(in, out, 64, false, io.Discard)
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("run returned %v, want the acap's ENOSPC", err)
			}
			requireStagesJoined(t, out)
		})
	}

	t.Run("walk", func(t *testing.T) {
		// Corrupt a record's stored length past the snap length, after
		// more records than one batch holds, so the writer has the
		// capture's acap open when the walk fails.
		data, err := os.ReadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		off := 24
		for i := 0; ; i++ {
			if off+16 > len(data) {
				t.Fatalf("%s holds fewer than %d records", paths[0], batchRecords+11)
			}
			if i == batchRecords+10 {
				break
			}
			off += 16 + int(binary.LittleEndian.Uint32(data[off+8:]))
		}
		binary.LittleEndian.PutUint32(data[off+8:], 201)
		if err := os.WriteFile(paths[0], data, 0o644); err != nil {
			t.Fatal(err)
		}
		out := t.TempDir()
		if _, err := run(in, out, 64, false, io.Discard); err == nil || !strings.Contains(err.Error(), "exceeds snap length") {
			t.Fatalf("run returned %v, want the walk's read error", err)
		}
		requireStagesJoined(t, out)
	})
}

// storeFailureHot is the hot-flow budget at which the spills of
// storeFailureCorpus fill the flow store's 64 KiB buffer mid-corpus.
const storeFailureHot = 128

// storeFailureCorpus is six captures of 200 flows each.
func storeFailureCorpus(t *testing.T) (in string, paths []string) {
	in = writeCorpusFlows(t, 17, 3, 2, 6000, 200)
	return in, capturePaths(t, in)
}

// TestSpillFailureFailsRun: a flow-store write that fails while the
// walk is still reading comes back from run as the store's error, and
// run returns only after the fold and writer goroutines have ended and
// closed their files.
func TestSpillFailureFailsRun(t *testing.T) {
	requireDevFull(t)
	in, paths := storeFailureCorpus(t)
	out := t.TempDir()
	failWrites(t, filepath.Join(out, "flows.pwfs"))
	_, err := run(in, out, storeFailureHot, false, io.Discard)
	if !isStoreFailure(err) {
		t.Fatalf("run returned %v, want the flow store's ENOSPC", err)
	}
	requireStagesJoined(t, out)
	// The writer writes no batch past the failed one, so a failure
	// during the walk leaves the last capture's acap unwritten.
	if _, err := os.Stat(acapPath(out, paths, len(paths))); err == nil {
		t.Fatalf("every acap was written: the store failed only after the walk")
	}
}

// TestEarlierBatchFailureWins: with an acap write and a spill both
// failing, run returns the failure on the earlier batch, whichever
// stage it is in, and joins both goroutines.
func TestEarlierBatchFailureWins(t *testing.T) {
	requireDevFull(t)
	in, paths := storeFailureCorpus(t)

	// Where the spill fails alone: the writer creates an acap for each
	// capture up to the failing batch's, so the spill fails within the
	// last capture with an acap, or the one after it.
	out := t.TempDir()
	failWrites(t, filepath.Join(out, "flows.pwfs"))
	if _, err := run(in, out, storeFailureHot, false, io.Discard); !isStoreFailure(err) {
		t.Fatalf("run returned %v, want the flow store's ENOSPC", err)
	}
	requireStagesJoined(t, out)
	acaps, err := filepath.Glob(filepath.Join(out, "acaps", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if k := len(acaps); k < 2 || k+1 >= len(paths) {
		t.Fatalf("the spill fails in capture %d or %d of %d; want it strictly between the first and the last", k, k+1, len(paths))
	}

	for _, tc := range []struct {
		capture   int
		acapFirst bool
	}{
		{1, true},           // fails in its first batch, before any spill fails
		{len(paths), false}, // fails in a capture after the spill's
	} {
		t.Run(fmt.Sprintf("acap-%d", tc.capture), func(t *testing.T) {
			out := t.TempDir()
			failWrites(t, filepath.Join(out, "flows.pwfs"))
			acap := acapPath(out, paths, tc.capture)
			failWrites(t, acap)
			_, err := run(in, out, storeFailureHot, false, io.Discard)
			var pe *fs.PathError
			acapFailed := errors.As(err, &pe) && pe.Path == acap && errors.Is(err, syscall.ENOSPC)
			switch {
			case tc.acapFirst && !acapFailed:
				t.Errorf("run returned %v, want the write of %s", err, acap)
			case !tc.acapFirst && !isStoreFailure(err):
				t.Errorf("run returned %v, want the flow store's ENOSPC", err)
			}
			requireStagesJoined(t, out)
		})
	}
}
