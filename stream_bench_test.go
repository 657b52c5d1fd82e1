package repro

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/analysis"
	"repro/internal/flowstore"
	"repro/internal/sim"
	"repro/internal/trafficgen"
)

// The streamed-vs-materialized pair below measures the analysis
// pipeline rework on a Fig13-class workload (per-sample flow counting
// over truncated captures). Both digest the identical frame sequence;
// the difference is the old path materializes every frame and acap
// record while the new one streams frames through an arena into the
// bounded digester. The B/op column is the headline: the streamed
// path's allocation volume must stay an order of magnitude under the
// materialized baseline's.
const (
	streamBenchSites   = 4
	streamBenchSamples = 2
	streamBenchFrames  = 10000
	streamBenchSnap    = 200
)

func streamBenchConfig() trafficgen.SampleConfig {
	return trafficgen.SampleConfig{
		Duration:  20 * sim.Second,
		MaxFrames: streamBenchFrames,
	}
}

// BenchmarkStreamedFlowDigest is the new single-pass pipeline:
// arena-backed generation feeding the bounded-memory digester. Its
// flows/s counts each sample's distinct flows, exactly, summed over the
// samples (Fig 13's quantity).
func BenchmarkStreamedFlowDigest(b *testing.B) {
	profiles := trafficgen.MakeSiteProfiles(2, 30)[:streamBenchSites]
	arena := trafficgen.NewFrameArena()
	var frames []trafficgen.TimedFrame
	b.ReportAllocs()
	b.ResetTimer()
	var digested, flows int
	for i := 0; i < b.N; i++ {
		d := analysis.NewDigester(analysis.DigestOptions{MaxHotFlows: 4096})
		for pi, p := range profiles {
			g := trafficgen.NewGenerator(p, 1000+uint64(pi))
			for s := 0; s < streamBenchSamples; s++ {
				arena.Reset()
				var err error
				frames, err = g.SampleInto(streamBenchConfig(), frames[:0], arena.Alloc)
				if err != nil {
					b.Fatal(err)
				}
				d.StartSample(p.Site)
				for _, tf := range frames {
					data := tf.Data
					if len(data) > streamBenchSnap {
						data = data[:streamBenchSnap]
					}
					if err := d.Frame(int64(tf.At), data, len(tf.Data)); err != nil {
						b.Fatal(err)
					}
				}
				d.EndSample()
			}
		}
		digested = d.Frames()
		flows = 0
		for _, n := range d.SampleFlowCounts() {
			flows += n
		}
	}
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(digested)*float64(b.N)/sec, "frames/s")
		b.ReportMetric(float64(flows)*float64(b.N)/sec, "flows/s")
	}
}

// digestBenchFrame is one frame of the digest benchmarks' corpus.
type digestBenchFrame struct {
	at      int64
	data    []byte
	wireLen int
}

// digestBenchCorpus returns the streamed pair's frames, cut to the snap
// length, by sample, and each sample's site.
func digestBenchCorpus(b *testing.B) (samples [][]digestBenchFrame, sites []string) {
	var (
		stored []byte
		tfs    []trafficgen.TimedFrame
	)
	profiles := trafficgen.MakeSiteProfiles(2, 30)[:streamBenchSites]
	arena := trafficgen.NewFrameArena()
	for pi, p := range profiles {
		g := trafficgen.NewGenerator(p, 1000+uint64(pi))
		for s := 0; s < streamBenchSamples; s++ {
			arena.Reset()
			var err error
			tfs, err = g.SampleInto(streamBenchConfig(), tfs[:0], arena.Alloc)
			if err != nil {
				b.Fatal(err)
			}
			smp := make([]digestBenchFrame, len(tfs))
			for i, tf := range tfs {
				n := min(len(tf.Data), streamBenchSnap)
				if cap(stored)-len(stored) < n {
					stored = make([]byte, 0, 1<<20)
				}
				stored = append(stored, tf.Data[:n]...)
				smp[i] = digestBenchFrame{int64(tf.At), stored[len(stored)-n:], len(tf.Data)}
			}
			samples = append(samples, smp)
			sites = append(sites, p.Site)
		}
	}
	return samples, sites
}

// BenchmarkDigestFold times the digester's Frame, decode and fold,
// alone. The corpus is generated before the timer starts; each
// iteration digests all of it into a fresh Digester.
func BenchmarkDigestFold(b *testing.B) {
	samples, sites := digestBenchCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	var frames int
	for i := 0; i < b.N; i++ {
		d := analysis.NewDigester(analysis.DigestOptions{MaxHotFlows: 4096})
		for j, smp := range samples {
			d.StartSample(sites[j])
			for _, f := range smp {
				if err := d.Frame(f.at, f.data, f.wireLen); err != nil {
					b.Fatal(err)
				}
			}
			d.EndSample()
		}
		frames = d.Frames()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(frames*b.N), "ns/frame")
}

// BenchmarkDigestDecode times the decode half of BenchmarkDigestFold
// alone, over the same corpus: each frame into its acap record through
// one analysis.Decoder.
func BenchmarkDigestDecode(b *testing.B) {
	samples, _ := digestBenchCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	var dec analysis.Decoder
	frames := 0
	for i := 0; i < b.N; i++ {
		for _, smp := range samples {
			for _, f := range smp {
				dec.Decode(f.at, f.data, f.wireLen)
			}
			frames += len(smp)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(frames), "ns/frame")
}

// BenchmarkStoreQueryMix times flow-store queries, the read side of
// /api/flows, over the store a Digester with pwanalyze's default hot-flow
// budget writes for digestBenchCorpus's corpus (one segment per site).
// Its 48 queries follow pwbench's flow-query mix as far as the corpus
// allows: a third select one site, a third a 1, 5 or 20 s window of the
// corpus's 20 s samples, and a third are unfiltered, each half at limit
// 100 and half at 1000. warm asks them of one open store, as livemon's
// kept handle does, after one untimed pass; fresh opens, queries and
// closes the store for every query.
func BenchmarkStoreQueryMix(b *testing.B) {
	samples, sites := digestBenchCorpus(b)
	path := filepath.Join(b.TempDir(), "flows.pwfs")
	spill, err := flowstore.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	d := analysis.NewDigester(analysis.DigestOptions{MaxHotFlows: 1 << 16, Spill: spill})
	for j, smp := range samples {
		d.StartSample(sites[j])
		for _, f := range smp {
			if err := d.Frame(f.at, f.data, f.wireLen); err != nil {
				b.Fatal(err)
			}
		}
		d.EndSample()
	}
	if err := d.Flows().Flush(); err != nil {
		b.Fatal(err)
	}
	if err := spill.Close(); err != nil {
		b.Fatal(err)
	}

	r := rand.New(rand.NewPCG(1, 2))
	span := int64(streamBenchConfig().Duration)
	qs := make([]flowstore.Query, 48)
	for i := range qs {
		j := i / 3
		q := flowstore.Query{Limit: []int{100, 1000}[j%2]}
		switch i % 3 {
		case 0:
			q.Site = sites[r.IntN(len(sites))]
		case 1:
			width := []int64{1, 5, 20}[j%3] * int64(sim.Second)
			q.FromNs = r.Int64N(span-width+1) + 1
			q.ToNs = q.FromNs + width
		}
		qs[i] = q
	}
	askAll := func(b *testing.B, query func(flowstore.Query) ([]flowstore.Rec, error)) {
		for _, q := range qs {
			if _, err := query(q); err != nil {
				b.Fatal(err)
			}
		}
	}
	measure := func(b *testing.B, query func(flowstore.Query) ([]flowstore.Rec, error)) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			askAll(b, query)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(qs)), "ns/query")
	}
	b.Run("warm", func(b *testing.B) {
		st, err := flowstore.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		askAll(b, st.Query)
		measure(b, st.Query)
	})
	b.Run("fresh", func(b *testing.B) {
		measure(b, func(q flowstore.Query) ([]flowstore.Rec, error) {
			st, err := flowstore.Open(path)
			if err != nil {
				return nil, err
			}
			defer st.Close()
			return st.Query(q)
		})
	})
}

// BenchmarkMaterializedFlowDigest is the pre-rework baseline: heap
// frames from Sample, one acap record per frame, in-memory fold.
func BenchmarkMaterializedFlowDigest(b *testing.B) {
	profiles := trafficgen.MakeSiteProfiles(2, 30)[:streamBenchSites]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var counts []int
		for pi, p := range profiles {
			g := trafficgen.NewGenerator(p, 1000+uint64(pi))
			for s := 0; s < streamBenchSamples; s++ {
				frames, err := g.Sample(streamBenchConfig())
				if err != nil {
					b.Fatal(err)
				}
				acap := &analysis.Acap{Site: p.Site}
				for _, tf := range frames {
					data := tf.Data
					if len(data) > streamBenchSnap {
						data = data[:streamBenchSnap]
					}
					acap.Records = append(acap.Records,
						analysis.DigestFrame(int64(tf.At), data, len(tf.Data)))
				}
				counts = append(counts, analysis.FlowsInSample(acap))
			}
		}
		_ = counts
	}
}

// TestStreamedDigestHeapBudget is the bounded-memory gate bench.sh runs
// with GOMEMLIMIT pinned: a Fig13-scale streamed digest (the registered
// experiment caps its 120 samples at 30,000 frames and digests 1.1-1.4M
// frames at seeds 1-4; this caps 12 samples the same way) must complete
// with peak HeapAlloc under the budget given in
// PW_STREAM_HEAP_BUDGET_MB. Skipped when the variable is unset so plain
// `go test` runs aren't slowed. The final line prints the measured peak
// for BENCH_analysis.json.
func TestStreamedDigestHeapBudget(t *testing.T) {
	budgetMB, err := strconv.Atoi(os.Getenv("PW_STREAM_HEAP_BUDGET_MB"))
	if err != nil || budgetMB <= 0 {
		t.Skip("set PW_STREAM_HEAP_BUDGET_MB (with GOMEMLIMIT) to run the heap-budget gate")
	}
	const (
		sites   = 6
		samples = 2
		nframes = 30000
	)
	profiles := trafficgen.MakeSiteProfiles(2, 30)[:sites]
	arena := trafficgen.NewFrameArena()
	var frames []trafficgen.TimedFrame
	d := analysis.NewDigester(analysis.DigestOptions{MaxHotFlows: 4096})
	var m runtime.MemStats
	var peak uint64
	for pi, p := range profiles {
		g := trafficgen.NewGenerator(p, 1000+uint64(pi))
		for s := 0; s < samples; s++ {
			arena.Reset()
			frames, err = g.SampleInto(trafficgen.SampleConfig{
				Duration: 20 * sim.Second, MaxFrames: nframes,
			}, frames[:0], arena.Alloc)
			if err != nil {
				t.Fatal(err)
			}
			d.StartSample(p.Site)
			for _, tf := range frames {
				data := tf.Data
				if len(data) > streamBenchSnap {
					data = data[:streamBenchSnap]
				}
				if err := d.Frame(int64(tf.At), data, len(tf.Data)); err != nil {
					t.Fatal(err)
				}
			}
			d.EndSample()
			runtime.ReadMemStats(&m)
			if m.HeapAlloc > peak {
				peak = m.HeapAlloc
			}
		}
	}
	// Samples are duration-bounded, so per-profile yields vary; the gate
	// only needs real volume, not an exact count.
	if d.Frames() < 100000 {
		t.Fatalf("digested only %d frames; corpus too small for a meaningful gate", d.Frames())
	}
	peakMB := float64(peak) / (1 << 20)
	if peakMB > float64(budgetMB) {
		t.Fatalf("peak heap %.1f MB exceeds the %d MB budget", peakMB, budgetMB)
	}
	t.Logf("digested %d frames across %d samples", d.Frames(), sites*samples)
	// Parsed by scripts/bench.sh; keep the format stable.
	t.Logf("peak_heap_mb %.1f", peakMB)
}
