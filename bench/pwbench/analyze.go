package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/flowstore"
	"repro/internal/pcap"
	"repro/internal/sim"
	"repro/internal/trafficgen"
)

// corpusShape sizes the capture corpus: a Fig13-scale tree of 28 site
// directories x 4 captures x 6,500 frames (728k frames), or 5 x 2 x 1,000
// in smoke mode. Every capture holds exactly its frame count and flow
// count, so the corpus size does not vary with the seed.
func corpusShape(smoke bool) (sites, captures, frames, flows int) {
	if smoke {
		return 5, 2, 1000, 50
	}
	return 28, 4, 6500, 200
}

// writeCorpus writes the seeded capture corpus under dir as
// <site>/capture-NN.pcap at a 200-byte snap length, the layout
// cmd/patchwork exports and pwanalyze reads. It returns the site names.
func writeCorpus(dir string, seed uint64, smoke bool) ([]string, error) {
	nSites, captures, frames, flows := corpusShape(smoke)
	profiles := trafficgen.MakeSiteProfiles(seed, 30)
	arena := trafficgen.NewFrameArena()
	var buf []trafficgen.TimedFrame
	var sites []string
	for i := 0; i < nSites; i++ {
		p := profiles[i]
		sites = append(sites, p.Site)
		gen := trafficgen.NewGenerator(p, seed*1000+uint64(i))
		siteDir := filepath.Join(dir, p.Site)
		if err := os.MkdirAll(siteDir, 0o755); err != nil {
			return nil, err
		}
		for c := 0; c < captures; c++ {
			arena.Reset()
			var err error
			buf, err = gen.SampleInto(trafficgen.SampleConfig{
				Duration: 20 * sim.Second, MaxFrames: frames, FlowCount: flows,
			}, buf[:0], arena.Alloc)
			if err != nil {
				return nil, err
			}
			if err := writePcap(filepath.Join(siteDir, fmt.Sprintf("capture-%02d.pcap", c)), buf); err != nil {
				return nil, err
			}
		}
	}
	// Write the corpus back now, so its write-back does not compete with
	// the first measured repeat.
	syscall.Sync()
	return sites, nil
}

func writePcap(path string, frames []trafficgen.TimedFrame) error {
	return writeWith(path, func(f io.Writer) error {
		w, err := pcap.NewWriter(f, pcap.FileHeader{SnapLen: 200})
		if err != nil {
			return err
		}
		for _, tf := range frames {
			if err := w.WriteRecord(int64(tf.At), tf.Data, len(tf.Data)); err != nil {
				return err
			}
		}
		return w.Flush()
	})
}

// buildPwanalyze builds cmd/pwanalyze from the checkout under test, with
// pwanalyze_hook.go.in added to its main package through an overlay so
// the benchmark can read the process's allocation and profile it.
func (b *bench) buildPwanalyze() (string, error) {
	bin := b.path("pwanalyze")
	overlay, err := json.Marshal(map[string]map[string]string{"Replace": {
		filepath.Join(b.root, "cmd", "pwanalyze", "zz_pwbench_hook.go"): filepath.Join(b.root, "bench", "pwbench", "pwanalyze_hook.go.in"),
	}})
	if err != nil {
		return "", err
	}
	ovPath := b.path("overlay.json")
	if err := os.WriteFile(ovPath, overlay, 0o644); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-overlay", ovPath, "-o", bin, "./cmd/pwanalyze")
	cmd.Dir = b.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building pwanalyze: %v\n%s", err, trimOutput(out))
	}
	return bin, nil
}

// analyzer runs the pwanalyze binary over one corpus.
type analyzer struct {
	b        *bench
	bin      string
	corpus   string
	captures int
}

func (b *bench) newAnalyzer(corpus string) (*analyzer, error) {
	bin, err := b.buildPwanalyze()
	if err != nil {
		return nil, err
	}
	pcaps, err := sortedFiles(corpus, ".pcap")
	if err != nil {
		return nil, err
	}
	return &analyzer{b: b, bin: bin, corpus: corpus, captures: len(pcaps)}, nil
}

// run analyzes the corpus into out with the hook's environment settings
// added to env.
func (a *analyzer) run(out string, env ...string) (*proc, *childReport, error) {
	report := a.b.path("pwanalyze.json")
	os.Remove(report)
	cmd := exec.Command(a.bin, "-in", a.corpus, "-out", out)
	cmd.Env = append(append(os.Environ(), "PWBENCH_REPORT="+report), env...)
	return runChild(cmd, report)
}

// runPcapAnalyze drives pcap-analyze: the real pwanalyze binary over the
// seeded corpus, one fresh process per repeat.
func runPcapAnalyze(b *bench, t *tally) error {
	start := time.Now()
	corpus := b.path("corpus")
	if _, err := writeCorpus(corpus, b.seed, b.smoke); err != nil {
		return err
	}
	a, err := b.newAnalyzer(corpus)
	if err != nil {
		return err
	}
	var mainNs []float64
	once := func(env ...string) (*proc, *childReport, error) {
		out := b.freshDir("analysis")
		t.attempted += a.captures
		p, rep, err := a.run(out, env...)
		if err != nil {
			t.failed += a.captures
			return nil, nil, err
		}
		d, err := analysisDigest(out)
		if err != nil {
			return nil, nil, err
		}
		t.digest(d)
		return p, rep, nil
	}
	measured := func() error {
		p, rep, err := once()
		if err != nil {
			return err
		}
		t.sample(p.wall, p, rep.AllocBytes)
		t.setup = append(t.setup, p.setup(rep))
		mainNs = append(mainNs, float64(rep.MainNs))
		return nil
	}
	if !b.trace {
		if err := b.setupProbes(t, func(report string) *exec.Cmd {
			cmd := exec.Command(a.bin, "-in", corpus, "-out", b.path("probe"))
			cmd.Env = append(os.Environ(), "PWBENCH_REPORT="+report, "PWBENCH_SETUP_ONLY=1")
			return cmd
		}); err != nil {
			return err
		}
		return b.repeat(t, start, measured)
	}

	if err := measured(); err != nil {
		return err
	}
	cpu, mem := b.path("pwanalyze.cpu.pprof"), b.path("pwanalyze.allocs.pprof")
	p, _, err := once("PWBENCH_CPUPROFILE="+cpu, "PWBENCH_MEMPROFILE="+mem)
	if err != nil {
		return err
	}
	t.layer["trace.overhead_frac"] = p.wall.Seconds()/median(t.wall) - 1
	if err := b.ledger(t, cpu, mem); err != nil {
		return err
	}
	report := b.path("replica.json")
	_, rep, err := runChild(b.childCmd("replica", "-in", corpus, "-dir", b.freshDir("replica"), "-report", report), report)
	if err != nil {
		return err
	}
	for k, v := range rep.Values {
		t.layer[k] = v
	}
	t.layer["replica.wall_ratio"] = rep.Values["replica.wall_s"] * 1e9 / median(mainNs)
	return nil
}

// analysisDigest hashes pwanalyze's CSV outputs and checks its flow store
// with flowstore.Verify.
func analysisDigest(out string) (string, error) {
	h := newHasher()
	csvs, err := sortedFiles(out, ".csv")
	if err != nil {
		return "", err
	}
	if len(csvs) == 0 {
		return "", fmt.Errorf("pwanalyze wrote no CSVs to %s", out)
	}
	for _, f := range csvs {
		if err := h.file(out, f); err != nil {
			return "", err
		}
	}
	vr, err := flowstore.Verify(nil, filepath.Join(out, "flows.pwfs"))
	if err != nil {
		return "", err
	}
	if vr.Damaged() {
		return "", fmt.Errorf("flows.pwfs damaged: %d of %d bytes intact", vr.Good, vr.Size)
	}
	h.str(fmt.Sprintf("flows.pwfs segments=%d rows=%d", vr.Segments, vr.Rows))
	return h.sum(), nil
}

// childReplica times the public calls pwanalyze makes, one layer at a
// time, over the same corpus: reading the pcaps alone, reading plus
// analysis.DigestFrame (the wire decode behind each acap record), reading
// plus the streaming digester, and finally the whole pipeline with spans
// around the acap encode, the flow-store flush and the aggregate merge.
// The per-frame costs are differences between passes; the page cache is
// warm for all of them.
func childReplica(o childOpts) error {
	files, err := sortedFiles(o.in, ".pcap")
	if err != nil {
		return err
	}
	var frames int
	pass := func(start func(site string), fn func(rec *pcap.Record) error, end func()) (time.Duration, error) {
		frames = 0
		t0 := time.Now()
		for _, path := range files {
			f, err := os.Open(path)
			if err != nil {
				return 0, err
			}
			rd, err := pcap.NewReader(f)
			if err == nil {
				start(filepath.Base(filepath.Dir(path)))
				err = rd.ForEach(func(rec *pcap.Record) error {
					frames++
					return fn(rec)
				})
				end()
			}
			f.Close()
			if err != nil {
				return 0, fmt.Errorf("%s: %w", path, err)
			}
		}
		return time.Since(t0), nil
	}
	nop := func(string) {}
	read, err := pass(nop, func(*pcap.Record) error { return nil }, func() {})
	if err != nil {
		return err
	}
	decode, err := pass(nop, func(rec *pcap.Record) error {
		analysis.DigestFrame(rec.TimestampNanos, rec.Data, rec.OriginalLength)
		return nil
	}, func() {})
	if err != nil {
		return err
	}
	d := analysis.NewDigester(analysis.DigestOptions{MaxHotFlows: 1 << 16})
	digest, err := pass(d.StartSample, func(rec *pcap.Record) error {
		return d.Frame(rec.TimestampNanos, rec.Data, rec.OriginalLength)
	}, func() { d.EndSample() })
	if err != nil {
		return err
	}
	perFrame := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(max(frames, 1)) }
	v := map[string]float64{
		"pcap.read_ns_per_frame":       perFrame(read),
		"wire.decode_ns_per_frame":     perFrame(decode - read),
		"analysis.digest_ns_per_frame": perFrame(digest - read),
	}
	if err := replicaPipeline(files, o.dir, v); err != nil {
		return err
	}
	return writeReport(o.report, &childReport{Values: v})
}

// replicaPipeline is cmd/pwanalyze's run() rebuilt from the same public
// calls, with spans around the acap encode, the flow-store flush and the
// aggregate merge.
func replicaPipeline(files []string, out string, v map[string]float64) error {
	t0 := time.Now()
	acapDir := filepath.Join(out, "acaps")
	if err := os.MkdirAll(acapDir, 0o755); err != nil {
		return err
	}
	flowPath := filepath.Join(out, "flows.pwfs")
	spill, err := flowstore.Create(flowPath)
	if err != nil {
		return err
	}
	defer spill.Close()
	d := analysis.NewDigester(analysis.DigestOptions{MaxHotFlows: 1 << 16, Spill: spill})
	var index analysis.Index
	var encode time.Duration
	for i, path := range files {
		site := filepath.Base(filepath.Dir(path))
		acap := &analysis.Acap{Site: site}
		if err := digestCapture(path, d, acap); err != nil {
			return err
		}
		te := time.Now()
		acapPath := filepath.Join(acapDir, fmt.Sprintf("%s-%03d.json", site, i+1))
		if err := writeWith(acapPath, acap.Encode); err != nil {
			return err
		}
		encode += time.Since(te)
		index.Add(analysis.Summarize(acap, acapPath))
	}
	tf := time.Now()
	if err := d.Flows().Flush(); err != nil {
		return err
	}
	if err := spill.Close(); err != nil {
		return err
	}
	ta := time.Now()
	store, err := flowstore.Open(flowPath)
	if err != nil {
		return err
	}
	defer store.Close()
	flows, err := d.Flows().Aggregates(store)
	if err != nil {
		return err
	}
	aggregate := time.Since(ta)
	writers := map[string]func(io.Writer) error{
		"index.json":            index.Encode,
		"frame_sizes.csv":       func(f io.Writer) error { return analysis.WriteFrameSizeHistCSV(f, d.FrameSizeHist()) },
		"header_occurrence.csv": func(f io.Writer) error { return analysis.WriteHeaderOccurrenceMapCSV(f, d.HeaderOccurrence()) },
		"site_headers.csv":      func(f io.Writer) error { return analysis.WriteSiteHeaderStatsCSV(f, d.SiteHeaderStats()) },
		"flow_counts.csv":       func(f io.Writer) error { return analysis.WriteFlowCountCSV(f, d.SampleFlowCounts()) },
		"flow_aggregate.csv":    func(f io.Writer) error { return analysis.WriteFlowAggregateCSV(f, flows, 100) },
		"encapsulations.csv":    func(f io.Writer) error { return analysis.WriteStackPatternsCSV(f, d.EncapCensus(), 50) },
		"site_protocols.csv":    func(f io.Writer) error { return analysis.WriteSiteProtocolCSV(f, d.SiteProtocolShares()) },
		"tcp_flags.csv":         func(f io.Writer) error { return analysis.WriteTCPFlagsCSV(f, d.TCPFlags()) },
	}
	for name, fn := range writers {
		if err := writeWith(filepath.Join(out, name), fn); err != nil {
			return err
		}
	}
	v["analysis.acap_encode_s"] = encode.Seconds()
	v["flowstore.flush_s"] = ta.Sub(tf).Seconds()
	v["flowstore.aggregate_s"] = aggregate.Seconds()
	v["replica.wall_s"] = time.Since(t0).Seconds()
	return nil
}

// digestCapture streams one capture through the acap record decode and
// the digester, as pwanalyze does for each file.
func digestCapture(path string, d *analysis.Digester, acap *analysis.Acap) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rd, err := pcap.NewReader(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	d.StartSample(acap.Site)
	err = rd.ForEach(func(rec *pcap.Record) error {
		acap.Records = append(acap.Records, analysis.DigestFrame(rec.TimestampNanos, rec.Data, rec.OriginalLength))
		return d.Frame(rec.TimestampNanos, rec.Data, rec.OriginalLength)
	})
	d.EndSample()
	return err
}
