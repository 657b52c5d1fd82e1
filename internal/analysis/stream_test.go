package analysis

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/flowstore"
	"repro/internal/sketch"
	"repro/internal/trafficgen"
)

// equivCorpus builds a deterministic multi-site corpus: per site a list
// of samples, each sample a list of (ts, stored bytes, wire length).
type equivFrame struct {
	ts      int64
	data    []byte
	wireLen int
}

func equivCorpus(t testing.TB, seed uint64, sites, samples, frames int) [][][]equivFrame {
	t.Helper()
	profiles := trafficgen.MakeSiteProfiles(seed, 30)
	out := make([][][]equivFrame, sites)
	for i := 0; i < sites; i++ {
		g := trafficgen.NewGenerator(profiles[i%len(profiles)], seed*100+uint64(i))
		out[i] = make([][]equivFrame, samples)
		for s := 0; s < samples; s++ {
			tfs, err := g.Sample(trafficgen.SampleConfig{MaxFrames: frames, FlowCount: frames / 5})
			if err != nil {
				t.Fatal(err)
			}
			smp := make([]equivFrame, len(tfs))
			for j, tf := range tfs {
				data := tf.Data
				if len(data) > 200 {
					data = data[:200]
				}
				smp[j] = equivFrame{ts: int64(tf.At), data: data, wireLen: len(tf.Data)}
			}
			out[i][s] = smp
		}
	}
	return out
}

// hostileMutate injects the fault classes the loaders tolerate: frames
// cut far below any header boundary, pure garbage, and empty frames.
func hostileMutate(corpus [][][]equivFrame) {
	n := 0
	for _, site := range corpus {
		for _, smp := range site {
			for j := range smp {
				switch n % 17 {
				case 3:
					if len(smp[j].data) > 9 {
						smp[j].data = smp[j].data[:9] // mid-Ethernet cut
					}
				case 7:
					garbage := make([]byte, len(smp[j].data))
					for i := range garbage {
						garbage[i] = byte(i*31 + n)
					}
					smp[j].data = garbage
				case 11:
					smp[j].data = nil // zero stored bytes
				}
				n++
			}
		}
	}
}

// runBoth feeds the corpus through the in-memory pipeline (acaps + raw
// frame list) and the streaming digester (spilling aggressively) and
// returns both sides' views. Every frame's Digester.Record must equal
// its DigestFrame record.
func runBoth(t *testing.T, corpus [][][]equivFrame, siteNames []string) (acaps []*Acap, raw [][]byte, d *Digester, spillPath string) {
	t.Helper()
	spillPath = filepath.Join(t.TempDir(), "flows.seg")
	w, err := flowstore.Create(spillPath)
	if err != nil {
		t.Fatal(err)
	}
	// MaxHotFlows far below the corpus flow count forces many spills.
	d = NewDigester(DigestOptions{MaxHotFlows: 64, Spill: w})
	for i, site := range corpus {
		for _, smp := range site {
			a := &Acap{Site: siteNames[i]}
			d.StartSample(siteNames[i])
			for _, f := range smp {
				rec := DigestFrame(f.ts, f.data, f.wireLen)
				a.Records = append(a.Records, rec)
				raw = append(raw, f.data)
				if err := d.Frame(f.ts, f.data, f.wireLen); err != nil {
					t.Fatal(err)
				}
				got := *d.Record()
				if slices.Equal(got.Stack, rec.Stack) {
					got.Stack = rec.Stack // nil and empty stacks encode alike
				}
				if !reflect.DeepEqual(got, rec) {
					t.Fatalf("Digester.Record %+v, DigestFrame %+v", got, rec)
				}
			}
			d.EndSample()
			acaps = append(acaps, a)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return acaps, raw, d, spillPath
}

func checkEquivalence(t *testing.T, acaps []*Acap, raw [][]byte, d *Digester, spillPath string) {
	t.Helper()
	var recs []Record
	for _, a := range acaps {
		recs = append(recs, a.Records...)
	}

	if got, want := d.FrameSizeHist(), FrameSizeHistogram(recs); !equalInts(got, want) {
		t.Errorf("FrameSizeHist: %v != %v", got, want)
	}
	if got, want := d.JumboFrac(), JumboFraction(recs); got != want {
		t.Errorf("JumboFrac: %v != %v", got, want)
	}
	if got, want := d.TruncatedShare(), TruncatedDecodeShare(recs); got != want {
		t.Errorf("TruncatedShare: %v != %v", got, want)
	}

	gotOcc, wantOcc := d.HeaderOccurrence(), HeaderOccurrence(recs)
	if len(gotOcc) != len(wantOcc) {
		t.Errorf("HeaderOccurrence sizes: %d != %d", len(gotOcc), len(wantOcc))
	}
	for k, v := range wantOcc {
		if gotOcc[k] != v {
			t.Errorf("HeaderOccurrence[%v]: %v != %v", k, gotOcc[k], v)
		}
	}

	gotSH, wantSH := d.SiteHeaderStats(), HeaderStatsBySite(acaps)
	if len(gotSH) != len(wantSH) {
		t.Fatalf("SiteHeaderStats sizes: %d != %d", len(gotSH), len(wantSH))
	}
	for i := range wantSH {
		if gotSH[i] != wantSH[i] {
			t.Errorf("SiteHeaderStats[%d]: %+v != %+v", i, gotSH[i], wantSH[i])
		}
	}

	gotPS, wantPS := d.SiteProtocolShares(), ProtocolShareBySite(acaps)
	if len(gotPS) != len(wantPS) {
		t.Fatalf("SiteProtocolShares sizes: %d != %d", len(gotPS), len(wantPS))
	}
	for i := range wantPS {
		if gotPS[i] != wantPS[i] {
			t.Errorf("SiteProtocolShares[%d]: %+v != %+v", i, gotPS[i], wantPS[i])
		}
	}

	gotEC, wantEC := d.EncapCensus(), EncapsulationCensus(recs)
	if len(gotEC) != len(wantEC) {
		t.Fatalf("EncapCensus sizes: %d != %d", len(gotEC), len(wantEC))
	}
	for i := range wantEC {
		if gotEC[i] != wantEC[i] {
			t.Errorf("EncapCensus[%d]: %+v != %+v", i, gotEC[i], wantEC[i])
		}
	}

	if got, want := d.TCPFlags(), CountTCPFlags(raw); got != want {
		t.Errorf("TCPFlags: %+v != %+v", got, want)
	}

	gotFC := d.SampleFlowCounts()
	if len(gotFC) != len(acaps) {
		t.Fatalf("SampleFlowCounts: %d samples, want %d", len(gotFC), len(acaps))
	}
	for i, a := range acaps {
		if want := FlowsInSample(a); gotFC[i] != want {
			t.Errorf("sample %d flow count: %d != %d", i, gotFC[i], want)
		}
	}

	// Aggregates must match row-for-row, including order, with the
	// spilled rows merged back from disk.
	st, err := flowstore.Open(spillPath)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if d.Flows().SpilledFlows() == 0 {
		t.Error("corpus never spilled; raise flow count or lower MaxHotFlows")
	}
	gotAgg, err := d.Flows().Aggregates(st)
	if err != nil {
		t.Fatal(err)
	}
	wantAgg := AggregateFlows(acaps)
	if len(gotAgg) != len(wantAgg) {
		t.Fatalf("Aggregates sizes: %d != %d", len(gotAgg), len(wantAgg))
	}
	for i := range wantAgg {
		if gotAgg[i] != wantAgg[i] {
			t.Fatalf("Aggregates[%d]: %+v != %+v", i, gotAgg[i], wantAgg[i])
		}
	}

	// CSV artifacts must be byte-identical.
	type csvPair struct {
		name      string
		mem, strm func(io.Writer) error
	}
	pairs := []csvPair{
		{"frame_sizes",
			func(w io.Writer) error { return WriteFrameSizeCSV(w, recs) },
			func(w io.Writer) error { return WriteFrameSizeHistCSV(w, d.FrameSizeHist()) }},
		{"header_occurrence",
			func(w io.Writer) error { return WriteHeaderOccurrenceCSV(w, recs) },
			func(w io.Writer) error { return WriteHeaderOccurrenceMapCSV(w, d.HeaderOccurrence()) }},
		{"site_headers",
			func(w io.Writer) error { return WriteSiteHeaderStatsCSV(w, wantSH) },
			func(w io.Writer) error { return WriteSiteHeaderStatsCSV(w, d.SiteHeaderStats()) }},
		{"flow_counts",
			func(w io.Writer) error {
				counts := make([]int, len(acaps))
				for i, a := range acaps {
					counts[i] = FlowsInSample(a)
				}
				return WriteFlowCountCSV(w, counts)
			},
			func(w io.Writer) error { return WriteFlowCountCSV(w, d.SampleFlowCounts()) }},
		{"flow_aggregate",
			func(w io.Writer) error { return WriteFlowAggregateCSV(w, wantAgg, 100) },
			func(w io.Writer) error { return WriteFlowAggregateCSV(w, gotAgg, 100) }},
		{"encapsulations",
			func(w io.Writer) error { return WriteEncapsulationCSV(w, recs, 50) },
			func(w io.Writer) error { return WriteStackPatternsCSV(w, gotEC, 50) }},
		{"site_protocols",
			func(w io.Writer) error { return WriteSiteProtocolCSV(w, wantPS) },
			func(w io.Writer) error { return WriteSiteProtocolCSV(w, d.SiteProtocolShares()) }},
		{"tcp_flags",
			func(w io.Writer) error { return WriteTCPFlagsCSV(w, CountTCPFlags(raw)) },
			func(w io.Writer) error { return WriteTCPFlagsCSV(w, d.TCPFlags()) }},
	}
	for _, p := range pairs {
		var m, s bytes.Buffer
		if err := p.mem(&m); err != nil {
			t.Fatal(err)
		}
		if err := p.strm(&s); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m.Bytes(), s.Bytes()) {
			t.Errorf("%s.csv differs between in-memory and streamed paths", p.name)
		}
	}
}

func readAll(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStreamEquivalenceClean pins the tentpole contract: the streaming
// digester with aggressive spilling produces bit-identical statistics
// and CSV artifacts to the in-memory pipeline on a clean corpus.
func TestStreamEquivalenceClean(t *testing.T) {
	corpus := equivCorpus(t, 11, 3, 2, 600)
	acaps, raw, d, spill := runBoth(t, corpus, []string{"site-a", "site-b", "site-c"})
	checkEquivalence(t, acaps, raw, d, spill)
}

// TestStreamEquivalenceHostile repeats the check on a corpus salted with
// truncated, garbage, and empty frames — decode failures must fold into
// both pipelines identically.
func TestStreamEquivalenceHostile(t *testing.T) {
	corpus := equivCorpus(t, 23, 3, 2, 500)
	hostileMutate(corpus)
	acaps, raw, d, spill := runBoth(t, corpus, []string{"site-x", "site-y", "site-z"})
	checkEquivalence(t, acaps, raw, d, spill)
}

// TestStreamSketches checks the measured-error contract: the HLL's flow
// cardinality estimate lands within 4 standard errors of the exact
// count, and the heavy-hitter summary's top entry is the true top flow
// with a valid overestimation bound.
func TestStreamSketches(t *testing.T) {
	corpus := equivCorpus(t, 31, 2, 2, 800)
	acaps, _, d, _ := runBoth(t, corpus, []string{"s1", "s2"})

	truth := map[FlowKey]uint64{}
	for _, a := range acaps {
		for _, r := range a.Records {
			truth[r.Flow.Canonical()]++
		}
	}
	est, stderr := d.Flows().CardinalityEstimate()
	rel := math.Abs(float64(est)-float64(len(truth))) / float64(len(truth))
	if rel > 4*stderr {
		t.Errorf("cardinality estimate %d vs true %d: error %.4f > 4σ %.4f", est, len(truth), rel, 4*stderr)
	}

	var topKey FlowKey
	var topCount uint64
	for k, c := range truth {
		if c > topCount || (c == topCount && flowKeyLess(k, topKey)) {
			topKey, topCount = k, c
		}
	}
	heavy := d.Flows().HeavyHitters(5)
	if len(heavy) == 0 {
		t.Fatal("no heavy hitters tracked")
	}
	h := heavy[0]
	if h.Count < truth[h.Key] || h.Count-h.Err > truth[h.Key] {
		t.Errorf("heavy hitter %+v violates bounds (true %d)", h, truth[h.Key])
	}
	if h.Key != topKey {
		// Space-saving guarantees presence, not rank, for items above
		// N/k; with k=64 over this corpus the true top flow must at
		// least appear in the summary.
		found := false
		for _, e := range d.Flows().HeavyHitters(0) {
			if e.Key == topKey {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("true top flow (count %d) missing from heavy hitters", topCount)
		}
	}
}

// TestFlowTableSpillDeterminism runs the same stream twice and compares
// the spill files byte-for-byte: the on-disk layout must be a pure
// function of the input.
func TestFlowTableSpillDeterminism(t *testing.T) {
	corpus := equivCorpus(t, 7, 2, 1, 400)
	run := func(path string) {
		w, err := flowstore.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDigester(DigestOptions{MaxHotFlows: 32, Spill: w})
		for i, site := range corpus {
			for _, smp := range site {
				d.StartSample([]string{"p", "q"}[i])
				for _, f := range smp {
					if err := d.Frame(f.ts, f.data, f.wireLen); err != nil {
						t.Fatal(err)
					}
				}
				d.EndSample()
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	p1, p2 := filepath.Join(dir, "a.seg"), filepath.Join(dir, "b.seg")
	run(p1)
	run(p2)
	b1 := readAll(t, p1)
	b2 := readAll(t, p2)
	if !bytes.Equal(b1, b2) {
		t.Error("spill files differ across identical runs")
	}
}

// TestFlowTableReentryExact: with a hot set of four flows and three
// heavy-hitter slots, flows spill and re-enter the hot set within one
// sample many times over, and their entries are recycled. The table's
// per-frame shortcuts must still give exact answers: each sample's
// flow count equals FlowsInSample (a flow spilled and re-entering
// counts once), the heavy hitters equal a TopK fed every frame through
// Add, and the cardinality estimate equals an HLL fed every frame.
func TestFlowTableReentryExact(t *testing.T) {
	corpus := equivCorpus(t, 13, 2, 2, 400)
	hostileMutate(corpus)
	d := NewDigester(DigestOptions{MaxHotFlows: 4, HeavyK: 3})
	heavy := sketch.NewTopK[FlowKey](3, flowKeyLess, flowKeyHash)
	hll := sketch.NewHLL(14)
	var want []int
	distinct := map[FlowKey]bool{}
	for i, site := range corpus {
		for _, smp := range site {
			a := &Acap{Site: fmt.Sprint(i)}
			d.StartSample(a.Site)
			for _, f := range smp {
				if err := d.Frame(f.ts, f.data, f.wireLen); err != nil {
					t.Fatal(err)
				}
				rec := DigestFrame(f.ts, f.data, f.wireLen)
				a.Records = append(a.Records, rec)
				key := rec.Flow.Canonical()
				distinct[key] = true
				heavy.Add(key, 1)
				hll.Add(appendFlowKeyBytes(nil, key))
			}
			d.EndSample()
			want = append(want, FlowsInSample(a))
		}
	}
	if spilled := d.Flows().SpilledFlows(); spilled < int64(2*len(distinct)) {
		t.Fatalf("%d spills of %d flows: too few for flows to re-enter the hot set", spilled, len(distinct))
	}
	if got := d.SampleFlowCounts(); !slices.Equal(got, want) {
		t.Errorf("SampleFlowCounts %v, FlowsInSample %v", got, want)
	}
	if got, want := d.Flows().HeavyHitters(0), heavy.Top(0); !reflect.DeepEqual(got, want) {
		t.Errorf("HeavyHitters\n %+v\nTopK.Add replay\n %+v", got, want)
	}
	if got, _ := d.Flows().CardinalityEstimate(); got != hll.Count() {
		t.Errorf("CardinalityEstimate %d, HLL fed every frame %d", got, hll.Count())
	}
}
