package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/sim"
	"repro/internal/trafficgen"
)

// corpus builds the same corpus as streamDigest the
// materialize-everything way: every sample cloned with gen.Sample and
// folded into in-memory acaps. It is the baseline the streamed figures
// must reproduce.
func corpus(seed uint64, samplesPerSite, framesPerSample, flowCount int) ([]*analysis.Acap, error) {
	profiles := trafficgen.MakeSiteProfiles(seed, profileCorpusSites)
	var acaps []*analysis.Acap
	for i, p := range profiles {
		gen := trafficgen.NewGenerator(p, seed*1000+uint64(i))
		for s := 0; s < samplesPerSite; s++ {
			frames, err := gen.Sample(trafficgen.SampleConfig{
				Duration:  20 * sim.Second,
				MaxFrames: framesPerSample,
				FlowCount: flowCount,
			})
			if err != nil {
				return nil, err
			}
			a := &analysis.Acap{Site: p.Site, SampleStartNanos: int64(s) * int64(5*sim.Minute)}
			for _, tf := range frames {
				stored := tf.Data
				if len(stored) > 200 {
					stored = stored[:200]
				}
				a.Records = append(a.Records, analysis.DigestFrame(int64(tf.At), stored, len(tf.Data)))
			}
			acaps = append(acaps, a)
		}
	}
	return acaps, nil
}

// renderBytes captures a result's full rendered output plus its CSV —
// the figure artifacts the streamed pipeline must reproduce exactly.
func renderBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := res.Render(&b); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// baselineFig runs a figure the pre-streaming way: materialize the full
// acap corpus, then fold it with the materialized pipeline.
func baselineFig(t *testing.T, id string, seed uint64) *Result {
	t.Helper()
	switch id {
	case "fig11":
		acaps, err := corpus(seed, 3, 3000, 75)
		if err != nil {
			t.Fatal(err)
		}
		return fig11From(analysistest.HeaderStatsBySite(acaps))
	case "fig12":
		acaps, err := corpus(seed, 2, 3000, 75)
		if err != nil {
			t.Fatal(err)
		}
		var all []analysis.Record
		for _, a := range acaps {
			all = append(all, a.Records...)
		}
		return fig12From(analysistest.HeaderOccurrence(all))
	case "fig13":
		acaps, err := corpus(seed, 4, 12000, 0)
		if err != nil {
			t.Fatal(err)
		}
		var counts []int
		for _, a := range acaps {
			counts = append(counts, analysis.FlowsInSample(a))
		}
		return fig13From(counts)
	case "fig15":
		acaps, err := corpus(seed, 2, 2500, 60)
		if err != nil {
			t.Fatal(err)
		}
		bySite := map[string][]analysis.Record{}
		var order []string
		for _, a := range acaps {
			if _, ok := bySite[a.Site]; !ok {
				order = append(order, a.Site)
			}
			bySite[a.Site] = append(bySite[a.Site], a.Records...)
		}
		var rows []siteSizeRow
		for _, site := range order {
			recs := bySite[site]
			h := analysistest.FrameSizeHistogram(recs)
			jumbo := 0
			for _, r := range recs {
				if r.WireLen > analysis.JumboThreshold {
					jumbo++
				}
			}
			rows = append(rows, siteSizeRow{site: site, hist: h, frames: len(recs), jumbo: jumbo})
		}
		return fig15From(rows)
	case "framesizes":
		acaps, err := corpus(seed, 2, 3000, 75)
		if err != nil {
			t.Fatal(err)
		}
		var all []analysis.Record
		for _, a := range acaps {
			all = append(all, a.Records...)
		}
		return framesizesFrom(analysistest.FrameSizeHistogram(all), len(all))
	}
	t.Fatalf("unknown baseline %q", id)
	return nil
}

// TestStreamedFiguresMatchBaseline is the experiment-level equivalence
// gate: each rewired figure, run through the streaming digester, must
// render byte-identically to the materialize-everything baseline. It
// runs at GOMAXPROCS 1 and 4, because streamDigest generates the corpus
// on a goroutine beside the digest.
func TestStreamedFiguresMatchBaseline(t *testing.T) {
	const seed = 4
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, id := range []string{"fig11", "fig12", "fig15", "framesizes"} {
				res, err := Run(id, seed)
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				got := renderBytes(t, res)
				want := renderBytes(t, baselineFig(t, id, seed))
				if !bytes.Equal(got, want) {
					t.Errorf("%s: streamed output differs from in-memory baseline\n--- streamed ---\n%s\n--- baseline ---\n%s", id, got, want)
				}
			}
		})
	}
}

// TestStreamedFig13MatchesBaseline covers the flow-count figure at a
// reduced frame budget (the registered experiment caps samples at 30,000
// frames and digests about 1.3M frames; the contract is identical either
// way). The streamed side reproduces streamDigest's wiring at the
// smaller scale.
func TestStreamedFig13MatchesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("fig13 corpus is large")
	}
	const seed = 4
	d, err := streamDigest(seed, 4, 12000, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := renderBytes(t, fig13From(d.SampleFlowCounts()))
	want := renderBytes(t, baselineFig(t, "fig13", seed))
	if !bytes.Equal(got, want) {
		t.Errorf("fig13: streamed output differs from in-memory baseline\n--- streamed ---\n%s\n--- baseline ---\n%s", got, want)
	}
}

// TestStreamedFig13SmallMatchesBaseline is a fig13 case small enough for
// -short, so the race detector checks streamDigest's handoff: flow
// counts drawn from the profiles (flowCount 0), which includes port-scan
// samples whose frames are mostly zero padding, at GOMAXPROCS 1 and 4.
func TestStreamedFig13SmallMatchesBaseline(t *testing.T) {
	const (
		seed    = 4
		samples = 2
		frames  = 2000
	)
	acaps, err := corpus(seed, samples, frames, 0)
	if err != nil {
		t.Fatal(err)
	}
	var counts []int
	scans := 0
	for _, a := range acaps {
		n := analysis.FlowsInSample(a)
		counts = append(counts, n)
		// Outside scan mode every flow has at least two frames.
		if n == len(a.Records) && n > frames/2 {
			scans++
		}
	}
	if scans == 0 {
		t.Fatal("the corpus has no port-scan sample")
	}
	want := renderBytes(t, fig13From(counts))
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			d, err := streamDigest(seed, samples, frames, 0)
			if err != nil {
				t.Fatal(err)
			}
			got := renderBytes(t, fig13From(d.SampleFlowCounts()))
			if !bytes.Equal(got, want) {
				t.Errorf("fig13: streamed output differs from in-memory baseline\n--- streamed ---\n%s\n--- baseline ---\n%s", got, want)
			}
		})
	}
}

// TestStreamCorpusJoinsProducer fails if streamCorpus returns while its
// producer goroutine still runs: after a complete pass, and after the
// consumer fails at the first sample and at a later one.
func TestStreamCorpusJoinsProducer(t *testing.T) {
	errStop := errors.New("stop")
	for _, tc := range []struct {
		name   string
		failAt int // 1-based sample at which fn fails; 0 never
	}{{"completed", 0}, {"first", 1}, {"later", 7}} {
		t.Run(tc.name, func(t *testing.T) {
			start := runtime.NumGoroutine()
			seen := 0
			err := streamCorpus(4, 1, 500, 75, func(string, []trafficgen.TimedFrame) error {
				seen++
				if seen == tc.failAt {
					return errStop
				}
				return nil
			})
			if tc.failAt == 0 && (err != nil || seen != profileCorpusSites) {
				t.Fatalf("err = %v after %d samples, want nil after %d", err, seen, profileCorpusSites)
			}
			if tc.failAt > 0 && (!errors.Is(err, errStop) || seen != tc.failAt) {
				t.Fatalf("err = %v after %d samples, want %v after %d", err, seen, errStop, tc.failAt)
			}
			buf := make([]byte, 1<<20)
			if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "experiments.produceCorpus") {
				t.Fatalf("the corpus producer outlived streamCorpus:\n%s", stacks)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > start {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after streamCorpus, %d before", runtime.NumGoroutine(), start)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestSnapBufZeroBetweenFrames checks that streamDigest's scratch frame
// is all zero after every frame, over a corpus whose frames include
// prefixes shorter than the snap length, so each short frame is
// expanded with zeros and not with an earlier frame's bytes.
func TestSnapBufZeroBetweenFrames(t *testing.T) {
	d := analysis.NewDigester(analysis.DigestOptions{MaxHotFlows: 4096})
	var snap snapBuf
	expanded := 0
	err := streamCorpus(4, 1, 2000, 0, func(site string, frames []trafficgen.TimedFrame) error {
		d.StartSample(site)
		for i := range frames {
			if len(frames[i].Data) < min(int(frames[i].Size), corpusSnapLen) {
				expanded++
			}
			if err := snap.digest(d, &frames[i]); err != nil {
				return err
			}
			if snap != (snapBuf{}) {
				return fmt.Errorf("%s frame %d left the scratch frame dirty", site, i)
			}
		}
		d.EndSample()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if expanded == 0 {
		t.Fatal("no frame was expanded into the scratch frame")
	}
	t.Logf("%d of %d frames expanded", expanded, d.Frames())
}
