package analysis

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/flowstore"
	"repro/internal/sketch"
	"repro/internal/trafficgen"
	"repro/internal/wire"
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

// firstTCP summarizes a frame's first TCP layer from a decode of its
// own, as CountTCPFlags finds it.
func firstTCP(data []byte) TCPSummary {
	pkt := wire.NewPacket(data, wire.LayerTypeEthernet, wire.Default)
	tcp, ok := pkt.Layer(wire.LayerTypeTCP).(*wire.TCP)
	if !ok {
		return TCPSummary{}
	}
	return TCPSummary{Present: true, Flags: tcp.Flags, Empty: len(tcp.LayerPayload()) == 0}
}

// runBoth feeds the corpus through the in-memory pipeline (acaps + raw
// frame list) and the streaming digester (spilling aggressively) and
// returns both sides' views. Every frame's Digester.Record must equal
// its DigestFrame record, and its TCP summary the frame's first TCP
// layer.
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
				if want := firstTCP(f.data); got.TCP != want {
					t.Fatalf("Record.TCP %+v, the frame's first TCP layer %+v", got.TCP, want)
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

// sortColdest is the oracle for the spill selection: the n coldest
// entries by a full sort on (last-seen, first-seen sequence).
func sortColdest(es []*flowEntry, n int) []*flowEntry {
	sorted := slices.Clone(es)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.lastNs != b.lastNs {
			return a.lastNs < b.lastNs
		}
		return a.firstSeq < b.firstSeq
	})
	return sorted[:n]
}

// seqSet returns the entries' first-seen sequences, sorted.
func seqSet(es []*flowEntry) []uint64 {
	out := make([]uint64, len(es))
	for i, e := range es {
		out[i] = e.firstSeq
	}
	slices.Sort(out)
	return out
}

// TestSpillSelectionMatchesSort: the linear-time selection picks the
// set the full sort picks, on entry sets with many tied last-seen
// times; and a flow table spilling through it, with and without a
// spill writer, evicts the victims and writes the segments of a model
// table that selects by the full sort.
func TestSpillSelectionMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		size := rng.Intn(300)
		es := make([]*flowEntry, size)
		for i, seq := range rng.Perm(size) {
			es[i] = &flowEntry{lastNs: int64(rng.Intn(1 + size/20)), firstSeq: uint64(seq)}
		}
		for _, n := range []int{size / 2, rng.Intn(size + 1)} {
			want := seqSet(sortColdest(es, n))
			all := seqSet(es)
			selectColdest(es, n)
			if got := seqSet(es[:n]); !slices.Equal(got, want) {
				t.Fatalf("trial %d, %d of %d entries: selected %v, the sort's %v", trial, n, size, got, want)
			}
			if !slices.Equal(seqSet(es), all) {
				t.Fatalf("trial %d: the selection lost or duplicated entries", trial)
			}
		}
	}

	for _, withWriter := range []bool{false, true} {
		t.Run(fmt.Sprintf("writer=%v", withWriter), func(t *testing.T) {
			checkSpillsMatchModel(t, withWriter)
		})
	}
}

// checkSpillsMatchModel streams frames whose timestamps repeat in runs,
// and sometimes step back, through a small flow table and through a
// model of it that selects victims with sortColdest. After every frame
// the table's hot keys must be the model's; with a writer, the store
// must hold the model's rows, row for row, and its segment count.
func checkSpillsMatchModel(t *testing.T, withWriter bool) {
	const maxHot = 16
	var w *flowstore.Writer
	path := filepath.Join(t.TempDir(), "flows.pwfs")
	if withWriter {
		var err error
		if w, err = flowstore.Create(path); err != nil {
			t.Fatal(err)
		}
	}
	tab := NewFlowTable(maxHot, w, 0, 0)
	model := map[FlowKey]*flowEntry{}
	var seq uint64
	var wantRows []flowstore.Rec
	wantSegments := 0
	spillModel := func(victims []*flowEntry) {
		sort.Slice(victims, func(i, j int) bool {
			if victims[i].site != victims[j].site {
				return victims[i].site < victims[j].site
			}
			return victims[i].firstSeq < victims[j].firstSeq
		})
		for i, e := range victims {
			if i == 0 || e.site != victims[i-1].site {
				wantSegments++
			}
			wantRows = append(wantRows, flowstore.Rec{
				Key: StoreKey(e.key), Site: e.site, FirstNs: e.firstNs, LastNs: e.lastNs,
				FirstSeq: e.firstSeq, Frames: e.frames, Bytes: e.bytes,
			})
			delete(model, e.key)
		}
	}

	rng := rand.New(rand.NewSource(11))
	keys := make([]FlowKey, 60)
	for i := range keys {
		keys[i] = FlowKey{VLANID: uint16(i + 1), Proto: wire.LayerTypeUDP, SrcPort: uint16(1000 + i)}
	}
	spills := 0
	for sample := 0; sample < 6; sample++ {
		site := fmt.Sprintf("S%d", sample%3)
		tab.startSample(site)
		for i := 0; i < 400; i++ {
			key := keys[rng.Intn(len(keys))]
			if rng.Intn(2) == 0 {
				key = keys[rng.Intn(len(keys)/4)] // a hot quarter
			}
			ts := int64(sample*100 + i/8) // runs of eight tied timestamps
			if rng.Intn(10) == 0 {
				ts -= int64(rng.Intn(4))
			}
			wireLen := 60 + rng.Intn(1400)
			before := tab.SpilledFlows()
			if err := tab.Observe(key, ts, wireLen); err != nil {
				t.Fatal(err)
			}
			if tab.SpilledFlows() != before {
				spills++
			}

			e, ok := model[key]
			if !ok {
				e = &flowEntry{key: key, site: site, firstNs: ts, lastNs: ts, firstSeq: seq}
				model[key] = e
			}
			seq++
			e.firstNs, e.lastNs = min(e.firstNs, ts), max(e.lastNs, ts)
			e.frames++
			e.bytes += uint64(wireLen)
			if !ok && len(model) > maxHot {
				all := make([]*flowEntry, 0, len(model))
				for _, e := range model {
					all = append(all, e)
				}
				spillModel(sortColdest(all, len(model)/2))
			}

			if len(tab.hot) != len(model) {
				t.Fatalf("sample %d frame %d: %d hot flows, the model %d", sample, i, len(tab.hot), len(model))
			}
			for k := range model {
				if _, ok := tab.hot[k]; !ok {
					t.Fatalf("sample %d frame %d: %v spilled, the model kept it", sample, i, k)
				}
			}
		}
		tab.endSample()
	}
	if spills < 100 {
		t.Fatalf("only %d spills: the stream is too gentle to test the selection", spills)
	}
	if !withWriter {
		return
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	all := make([]*flowEntry, 0, len(model))
	for _, e := range model {
		all = append(all, e)
	}
	spillModel(all)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := flowstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var got []flowstore.Rec
	if err := st.ForEach(func(r flowstore.Rec) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wantRows) {
		t.Fatalf("the store holds %d rows, the model %d, and they differ", len(got), len(wantRows))
	}
	if st.Segments() != wantSegments {
		t.Fatalf("the store holds %d segments, the model %d", st.Segments(), wantSegments)
	}
}
