package analysis

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/flowstore"
	"repro/internal/trafficgen"
	"repro/internal/wire"
)

// equivFrame is one frame of an equivalence corpus: its timestamp, its
// stored (possibly truncated) bytes and its wire length.
type equivFrame struct {
	TS      int64
	Data    []byte
	WireLen int
}

// equivCorpus builds a deterministic multi-site corpus: per site a list
// of samples, each sample a list of frames.

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
				smp[j] = equivFrame{TS: int64(tf.At), Data: data, WireLen: len(tf.Data)}
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
					if len(smp[j].Data) > 9 {
						smp[j].Data = smp[j].Data[:9] // mid-Ethernet cut
					}
				case 7:
					garbage := make([]byte, len(smp[j].Data))
					for i := range garbage {
						garbage[i] = byte(i*31 + n)
					}
					smp[j].Data = garbage
				case 11:
					smp[j].Data = nil // zero stored bytes
				}
				n++
			}
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
					if err := d.Frame(f.TS, f.Data, f.WireLen); err != nil {
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

// TestFlowTableReentryExact: with a hot set of four flows, flows spill
// and re-enter the hot set within one sample many times over, and their
// entries are recycled. The sample marks must still give exact answers:
// each sample's flow count equals FlowsInSample (a flow spilled and
// re-entering counts once).
func TestFlowTableReentryExact(t *testing.T) {
	corpus := equivCorpus(t, 13, 2, 2, 2000)
	hostileMutate(corpus)
	d := NewDigester(DigestOptions{MaxHotFlows: 4})
	var want []int
	distinct := map[FlowKey]bool{}
	for i, site := range corpus {
		for _, smp := range site {
			a := &Acap{Site: fmt.Sprint(i)}
			d.StartSample(a.Site)
			for _, f := range smp {
				if err := d.Frame(f.TS, f.Data, f.WireLen); err != nil {
					t.Fatal(err)
				}
				rec := DigestFrame(f.TS, f.Data, f.WireLen)
				a.Records = append(a.Records, rec)
				distinct[rec.Flow.Canonical()] = true
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
	tab := NewFlowTable(maxHot, w)
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
