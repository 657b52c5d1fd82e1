package repro

import (
	"os"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/analysis"
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
// arena-backed generation feeding the bounded-memory digester.
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
		est, _ := d.Flows().CardinalityEstimate()
		flows = int(est)
	}
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(digested)*float64(b.N)/sec, "frames/s")
		b.ReportMetric(float64(flows)*float64(b.N)/sec, "flows/s")
	}
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
