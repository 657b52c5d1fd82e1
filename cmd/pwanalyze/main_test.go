package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/flowstore"
	"repro/internal/pcap"
	"repro/internal/sim"
	"repro/internal/trafficgen"
)

// writeCorpus generates a small capture tree (site subdirectories of
// pcaps, 200-byte snaplen like a real capture) and returns its root.
func writeCorpus(t *testing.T, seed uint64, sites, samples, frames int) string {
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
				Duration: 20 * sim.Second, MaxFrames: frames, FlowCount: 50,
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
// acap and raw frame, fold with the in-memory analysis functions — and
// returns the CSVs by file name.
func baselineCSVs(t *testing.T, in string) map[string][]byte {
	t.Helper()
	var acaps []*analysis.Acap
	var rawFrames [][]byte
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
	var all []analysis.Record
	var flowCounts []int
	for _, a := range acaps {
		all = append(all, a.Records...)
		flowCounts = append(flowCounts, analysis.FlowsInSample(a))
	}
	out := map[string][]byte{}
	emit := func(name string, fn func(*bytes.Buffer) error) {
		var b bytes.Buffer
		if err := fn(&b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = b.Bytes()
	}
	emit("frame_sizes.csv", func(b *bytes.Buffer) error { return analysis.WriteFrameSizeCSV(b, all) })
	emit("header_occurrence.csv", func(b *bytes.Buffer) error { return analysis.WriteHeaderOccurrenceCSV(b, all) })
	emit("site_headers.csv", func(b *bytes.Buffer) error {
		return analysis.WriteSiteHeaderStatsCSV(b, analysis.HeaderStatsBySite(acaps))
	})
	emit("flow_counts.csv", func(b *bytes.Buffer) error { return analysis.WriteFlowCountCSV(b, flowCounts) })
	emit("flow_aggregate.csv", func(b *bytes.Buffer) error {
		return analysis.WriteFlowAggregateCSV(b, analysis.AggregateFlows(acaps), 100)
	})
	emit("encapsulations.csv", func(b *bytes.Buffer) error { return analysis.WriteEncapsulationCSV(b, all, 50) })
	emit("site_protocols.csv", func(b *bytes.Buffer) error {
		return analysis.WriteSiteProtocolCSV(b, analysis.ProtocolShareBySite(acaps))
	})
	emit("tcp_flags.csv", func(b *bytes.Buffer) error {
		return analysis.WriteTCPFlagsCSV(b, analysis.CountTCPFlags(rawFrames))
	})
	return out
}

// TestRunMatchesInMemoryPipeline is the end-to-end equivalence gate for
// the CLI: the streamed run — with a hot-flow cap low enough to force
// spilling — must write every CSV byte-identical to the old
// materialize-everything pipeline, plus a complete flow store.
func TestRunMatchesInMemoryPipeline(t *testing.T) {
	in := writeCorpus(t, 21, 2, 2, 800)
	out := t.TempDir()
	torn, err := run(in, out, 64, false)
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
	empty := analysis.NewFlowTable(0, nil, 0, 0)
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
// analysis.Digest of that pcap, encoded with Acap.Encode; in particular
// its start is the first record's timestamp.
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
	if _, err := run(in, out, 64, false); err != nil {
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
		a, err := analysis.Digest(site, rd)
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

	torn, err := run(in, t.TempDir(), 64, false)
	if err != nil {
		t.Fatalf("torn capture failed the run instead of being surfaced: %v", err)
	}
	if len(torn) != 1 || torn[0] != tornPath {
		t.Errorf("torn = %v, want exactly [%s]", torn, tornPath)
	}
}
