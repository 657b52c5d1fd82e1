// Command pwanalyze runs Patchwork's offline analysis pipeline over a
// directory of pcap captures (as produced by cmd/patchwork): Digest
// (protocol dissection into abstract header stacks), Index, Analyze, and
// Process (CSV emission).
//
// The pipeline is single-pass and bounded-memory: each capture streams
// through the digester frame by frame, each frame is decoded once, and
// the flow table spills cold flows to a columnar flow store (flows.pwfs)
// that doubles as the /api/flows query artifact. Only the hot flow
// working set is ever resident. Three goroutines share the work, in
// capture order: the walk reads and decodes each frame into its acap
// record, a fold goroutine folds the records into the digester, and a
// writer goroutine encodes the acaps and their index entries. Records
// pass between them in a few recycled batches.
//
// Usage:
//
//	pwanalyze -in patchwork-out -out analysis-out
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
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
		verbose = flag.Bool("v", false, "also print the rows spilled to the flow store and the 10 flows with the most frames")
		serve   = flag.String("serve", "", `after analysis, serve the flow store on this address (":0" for an ephemeral port; bound address lands in <out>/livemon/addr) until SIGINT/SIGTERM`)
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	torn, err := run(*in, *out, *hotMax, *verbose, os.Stdout)
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

// run executes the pipeline, writes its summary to stdout, and returns
// the capture paths whose pcap stream ended in a torn tail (analysis
// proceeds over the intact prefix; the caller surfaces the integrity
// warning).
func run(in, out string, hotMax int, verbose bool, stdout io.Writer) (torn []string, err error) {
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
	// from the parent directory. The walk decodes each frame once, into
	// its acap record, and hands the records on in batches: the fold
	// goroutine folds every streamed statistic from them — frame sizes,
	// header stacks, flows, TCP flags — and the writer goroutine encodes
	// the acaps.
	p := startPipeline(d)
	b := <-p.free
	var dec analysis.Decoder
	// One read buffer serves every capture: pcap.NewReader takes it as
	// it is.
	br := bufio.NewReaderSize(nil, pcap.ReadBufferSize)
	var captures int
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
		br.Reset(f)
		rd, err := pcap.NewReader(br)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		captures++
		acapPath := filepath.Join(acapDir, fmt.Sprintf("%s-%03d.json", site, captures))
		b.site, b.path, b.first = site, acapPath, true
		err = rd.ForEach(func(rec *pcap.Record) error {
			if b.full() {
				next, err := p.handOff(b)
				if err != nil {
					return err
				}
				b = next
			}
			b.add(dec.Decode(rec.TimestampNanos, rec.Data, rec.OriginalLength))
			return nil
		})
		if err != nil {
			return err
		}
		if rd.Torn() {
			torn = append(torn, path)
		}
		b.last = true
		b, err = p.handOff(b)
		return err
	})
	// Join the fold and the writer whether or not the walk failed. A
	// failure of theirs comes first: it concerns records the walk had
	// already handed off, so it is the earlier in capture order.
	if perr := p.close(); perr != nil {
		return nil, perr
	}
	if err != nil {
		return nil, err
	}
	if captures == 0 {
		return nil, fmt.Errorf("no .pcap files under %s", in)
	}
	index := p.index

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

	fmt.Fprintf(stdout, "digested %d captures (%d frames, %d flows) into %s\n",
		captures, d.Frames(), len(flows), out)
	if verbose {
		fmt.Fprintf(stdout, "  %d spilled rows in %s\n", d.Flows().SpilledFlows(), flowPath)
		for _, f := range topFlows(flows, 10) {
			fmt.Fprintf(stdout, "  top: %v frames=%d bytes=%d\n", f.Key, f.Frames, f.Bytes)
		}
	}
	return torn, nil
}

// topFlows returns the n flows with the most frames, exact, from the
// aggregates; flows with equal frames keep their aggregate order.
func topFlows(flows []analysis.FlowAggregate, n int) []analysis.FlowAggregate {
	top := slices.Clone(flows)
	sort.SliceStable(top, func(i, j int) bool { return top[i].Frames > top[j].Frames })
	return top[:min(n, len(top))]
}
