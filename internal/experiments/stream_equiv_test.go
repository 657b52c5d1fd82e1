package experiments

import (
	"bytes"
	"testing"

	"repro/internal/analysis"
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
// acap corpus, then fold it with the in-memory analysis functions.
func baselineFig(t *testing.T, id string, seed uint64) *Result {
	t.Helper()
	switch id {
	case "fig11":
		acaps, err := corpus(seed, 3, 3000, 75)
		if err != nil {
			t.Fatal(err)
		}
		return fig11From(analysis.HeaderStatsBySite(acaps))
	case "fig12":
		acaps, err := corpus(seed, 2, 3000, 75)
		if err != nil {
			t.Fatal(err)
		}
		var all []analysis.Record
		for _, a := range acaps {
			all = append(all, a.Records...)
		}
		return fig12From(analysis.HeaderOccurrence(all))
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
			h := analysis.FrameSizeHistogram(recs)
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
		return framesizesFrom(analysis.FrameSizeHistogram(all), len(all))
	}
	t.Fatalf("unknown baseline %q", id)
	return nil
}

// TestStreamedFiguresMatchBaseline is the experiment-level equivalence
// gate: each rewired figure, run through the streaming digester, must
// render byte-identically to the materialize-everything baseline.
func TestStreamedFiguresMatchBaseline(t *testing.T) {
	const seed = 4
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
}

// TestStreamedFig13MatchesBaseline covers the flow-count figure at a
// reduced frame budget (the registered experiment digests 3.6M frames;
// the contract is identical either way). The streamed side reproduces
// streamDigest's wiring at the smaller scale.
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
