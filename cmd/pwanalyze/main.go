// Command pwanalyze runs Patchwork's offline analysis pipeline over a
// directory of pcap captures (as produced by cmd/patchwork): Digest
// (protocol dissection into abstract header stacks), Index, Analyze, and
// Process (CSV emission).
//
// The pipeline is single-pass and bounded-memory: each capture streams
// through the digester frame by frame, each frame is decoded once and
// its acap record is encoded to the capture's acap file as it is
// digested, and the flow table spills cold flows to a columnar flow
// store (flows.pwfs) that doubles as the /api/flows query artifact.
// Only the hot flow working set is ever resident.
//
// Usage:
//
//	pwanalyze -in patchwork-out -out analysis-out
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"repro/internal/analysis"
	"repro/internal/flowstore"
	"repro/internal/livemon"
	"repro/internal/pcap"
)

func main() {
	var (
		in      = flag.String("in", "", "input directory (site subdirectories of pcaps)")
		out     = flag.String("out", "analysis-out", "output directory for acaps, index, CSVs, and flow store")
		hotMax  = flag.Int("hotflows", 1<<16, "max in-memory flows before spilling to the flow store")
		verbose = flag.Bool("v", false, "print sketch summaries (cardinality estimate, heavy hitters)")
		serve   = flag.String("serve", "", `after analysis, serve the flow store on this address (":0" for an ephemeral port; bound address lands in <out>/livemon/addr) until SIGINT/SIGTERM`)
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	torn, err := run(*in, *out, *hotMax, *verbose)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pwanalyze:", err)
		os.Exit(1)
	}
	for _, path := range torn {
		fmt.Fprintf(os.Stderr, "pwanalyze: warning: %s: torn tail — a partial final record was dropped (run pwfsck -repair to truncate it)\n", path)
	}
	if *serve != "" {
		if err := serveFlows(*out, *serve); err != nil {
			fmt.Fprintln(os.Stderr, "pwanalyze:", err)
			os.Exit(1)
		}
	}
	if len(torn) > 0 {
		// Distinct from hard failure (1) and usage (2): the analysis
		// completed, but its inputs were not byte-complete.
		os.Exit(exitTornInput)
	}
}

// exitTornInput is the exit code for a successful analysis over at
// least one torn capture: the results are valid for every committed
// record, but integrity-sensitive callers need to know frames were
// dropped.
const exitTornInput = 4

// serveFlows exposes the analysis run's flow store on livemon's
// /api/flows endpoint until a SIGINT/SIGTERM arrives.
func serveFlows(out, addr string) error {
	dir := filepath.Join(out, "livemon")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	srv, err := livemon.New(livemon.Config{Addr: addr, AddrFile: filepath.Join(dir, "addr")})
	if err != nil {
		return err
	}
	srv.SetFlowStore(filepath.Join(out, "flows.pwfs"))
	if err := srv.ListenAndServe(); err != nil {
		return err
	}
	fmt.Printf("serving flow store on %s (SIGINT/SIGTERM to stop)\n", srv.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	return srv.Close()
}

// run executes the pipeline and returns the capture paths whose pcap
// stream ended in a torn tail (analysis proceeds over the intact
// prefix; the caller surfaces the integrity warning).
func run(in, out string, hotMax int, verbose bool) (torn []string, err error) {
	acapDir := filepath.Join(out, "acaps")
	if err := os.MkdirAll(acapDir, 0o755); err != nil {
		return nil, err
	}

	flowPath := filepath.Join(out, "flows.pwfs")
	spill, err := flowstore.Create(flowPath)
	if err != nil {
		return nil, err
	}
	defer spill.Close()
	d := analysis.NewDigester(analysis.DigestOptions{MaxHotFlows: hotMax, Spill: spill})

	// Digest: one acap (and one digester sample) per pcap, site taken
	// from the parent directory. Each frame is decoded once, by the
	// digester, which folds every streamed statistic — frame sizes,
	// header stacks, flows, TCP flags — and hands back the frame's acap
	// record for the encoder; the index entry comes from the same pass.
	var captures int
	var index analysis.Index
	var enc analysis.AcapEncoder
	err = filepath.WalkDir(in, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() || !strings.HasSuffix(path, ".pcap") {
			return err
		}
		site := filepath.Base(filepath.Dir(path))
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rd, err := pcap.NewReader(f)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		captures++
		acapPath := filepath.Join(acapDir, fmt.Sprintf("%s-%03d.json", site, captures))
		af, err := os.Create(acapPath)
		if err != nil {
			return err
		}
		defer af.Close()
		d.StartSample(site)
		started := false
		err = rd.ForEach(func(rec *pcap.Record) error {
			if err := d.Frame(rec.TimestampNanos, rec.Data, rec.OriginalLength); err != nil {
				return err
			}
			r := d.Record()
			if !started {
				// The sample starts at its first record, as in
				// analysis.Digest.
				enc.Begin(af, site, r.TimestampNanos)
				started = true
			}
			return enc.Write(r)
		})
		if err != nil {
			return err
		}
		if rd.Torn() {
			torn = append(torn, path)
		}
		if !started {
			enc.Begin(af, site, 0)
		}
		entry, err := enc.End()
		if err != nil {
			return err
		}
		if err := af.Close(); err != nil {
			return err
		}
		entry.Path = acapPath
		entry.DistinctFlows = d.EndSample()
		index.Add(entry)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if captures == 0 {
		return nil, fmt.Errorf("no .pcap files under %s", in)
	}

	// Flush the remaining hot flows so flows.pwfs is a complete record,
	// then reopen it read-only for the exact aggregate merge.
	if err := d.Flows().Flush(); err != nil {
		return nil, err
	}
	if err := spill.Close(); err != nil {
		return nil, err
	}
	store, err := flowstore.Open(flowPath)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	flows, err := d.Flows().Aggregates(store)
	if err != nil {
		return nil, err
	}

	// Index.
	ixf, err := os.Create(filepath.Join(out, "index.json"))
	if err != nil {
		return nil, err
	}
	if err := index.Encode(ixf); err != nil {
		_ = ixf.Close()
		return nil, err
	}
	if err := ixf.Close(); err != nil {
		return nil, err
	}

	// Process: the paper's CSV outputs, each rendered from the
	// digester's folded state.
	writers := []struct {
		name string
		fn   func(*os.File) error
	}{
		{"frame_sizes.csv", func(f *os.File) error { return analysis.WriteFrameSizeHistCSV(f, d.FrameSizeHist()) }},
		{"header_occurrence.csv", func(f *os.File) error {
			return analysis.WriteHeaderOccurrenceMapCSV(f, d.HeaderOccurrence())
		}},
		{"site_headers.csv", func(f *os.File) error {
			return analysis.WriteSiteHeaderStatsCSV(f, d.SiteHeaderStats())
		}},
		{"flow_counts.csv", func(f *os.File) error { return analysis.WriteFlowCountCSV(f, d.SampleFlowCounts()) }},
		{"flow_aggregate.csv", func(f *os.File) error {
			return analysis.WriteFlowAggregateCSV(f, flows, 100)
		}},
		{"encapsulations.csv", func(f *os.File) error {
			return analysis.WriteStackPatternsCSV(f, d.EncapCensus(), 50)
		}},
		{"site_protocols.csv", func(f *os.File) error {
			return analysis.WriteSiteProtocolCSV(f, d.SiteProtocolShares())
		}},
		{"tcp_flags.csv", func(f *os.File) error {
			return analysis.WriteTCPFlagsCSV(f, d.TCPFlags())
		}},
	}
	for _, w := range writers {
		f, err := os.Create(filepath.Join(out, w.name))
		if err != nil {
			return nil, err
		}
		if err := w.fn(f); err != nil {
			_ = f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}

	fmt.Printf("digested %d captures (%d frames, %d flows) into %s\n",
		captures, d.Frames(), len(flows), out)
	if verbose {
		est, stderr := d.Flows().CardinalityEstimate()
		fmt.Printf("  distinct flows ~%d (±%.1f%%), %d spilled rows in %s\n",
			est, stderr*100, d.Flows().SpilledFlows(), flowPath)
		for _, h := range d.Flows().HeavyHitters(10) {
			fmt.Printf("  heavy: %v frames>=%d (overestimate<=%d)\n", h.Key, h.Count-h.Err, h.Err)
		}
	}
	return torn, nil
}
