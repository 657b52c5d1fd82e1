package analysis_test

import (
	"bytes"
	"io"
	"maps"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/flowstore"
	"repro/internal/wire"
)

// firstTCP summarizes a frame's first TCP layer from a decode of its
// own.
func firstTCP(data []byte) analysis.TCPSummary {
	pkt := wire.NewPacket(data, wire.LayerTypeEthernet, wire.Default)
	tcp, ok := pkt.Layer(wire.LayerTypeTCP).(*wire.TCP)
	if !ok {
		return analysis.TCPSummary{}
	}
	return analysis.TCPSummary{Present: true, Flags: tcp.Flags, Empty: len(tcp.LayerPayload()) == 0}
}

// runBoth feeds the corpus through the materialized pipeline (acaps +
// raw frame list) and the streaming digester (spilling aggressively) and
// returns both sides' inputs. Every frame's Digester.Record must equal
// its DigestFrame record, and its TCP summary the frame's first TCP
// layer.
func runBoth(t *testing.T, corpus [][][]analysis.EquivFrame, siteNames []string) (acaps []*analysis.Acap, raw [][]byte, d *analysis.Digester, spillPath string) {
	t.Helper()
	spillPath = filepath.Join(t.TempDir(), "flows.seg")
	w, err := flowstore.Create(spillPath)
	if err != nil {
		t.Fatal(err)
	}
	// MaxHotFlows far below the corpus flow count forces many spills.
	d = analysis.NewDigester(analysis.DigestOptions{MaxHotFlows: 64, Spill: w})
	for i, site := range corpus {
		for _, smp := range site {
			a := &analysis.Acap{Site: siteNames[i]}
			d.StartSample(siteNames[i])
			for _, f := range smp {
				rec := analysis.DigestFrame(f.TS, f.Data, f.WireLen)
				a.Records = append(a.Records, rec)
				raw = append(raw, f.Data)
				if err := d.Frame(f.TS, f.Data, f.WireLen); err != nil {
					t.Fatal(err)
				}
				got := *d.Record()
				if slices.Equal(got.Stack, rec.Stack) {
					got.Stack = rec.Stack // nil and empty stacks encode alike
				}
				if !reflect.DeepEqual(got, rec) {
					t.Fatalf("Digester.Record %+v, DigestFrame %+v", got, rec)
				}
				if want := firstTCP(f.Data); got.TCP != want {
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

// checkEquivalence compares every Digester view with the materialized
// pipeline's, and the CSVs written from each.
func checkEquivalence(t *testing.T, acaps []*analysis.Acap, raw [][]byte, d *analysis.Digester, spillPath string) {
	t.Helper()
	var recs []analysis.Record
	for _, a := range acaps {
		recs = append(recs, a.Records...)
	}

	if got, want := d.FrameSizeHist(), analysistest.FrameSizeHistogram(recs); !slices.Equal(got, want) {
		t.Errorf("FrameSizeHist: %v != %v", got, want)
	}
	if got, want := d.HeaderOccurrence(), analysistest.HeaderOccurrence(recs); !maps.Equal(got, want) {
		t.Errorf("HeaderOccurrence: %v != %v", got, want)
	}
	if got, want := d.SiteHeaderStats(), analysistest.HeaderStatsBySite(acaps); !slices.Equal(got, want) {
		t.Errorf("SiteHeaderStats:\n %+v\n %+v", got, want)
	}
	if got, want := d.SiteProtocolShares(), analysistest.ProtocolShareBySite(acaps); !slices.Equal(got, want) {
		t.Errorf("SiteProtocolShares:\n %+v\n %+v", got, want)
	}
	if got, want := d.EncapCensus(), analysistest.EncapsulationCensus(recs); !slices.Equal(got, want) {
		t.Errorf("EncapCensus:\n %+v\n %+v", got, want)
	}
	if got, want := d.TCPFlags(), analysistest.CountTCPFlags(raw); got != want {
		t.Errorf("TCPFlags: %+v != %+v", got, want)
	}
	wantFC := make([]int, len(acaps))
	for i, a := range acaps {
		wantFC[i] = analysis.FlowsInSample(a)
	}
	if got := d.SampleFlowCounts(); !slices.Equal(got, wantFC) {
		t.Errorf("SampleFlowCounts: %v != %v", got, wantFC)
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
	if want := analysistest.AggregateFlows(acaps); !slices.Equal(gotAgg, want) {
		t.Errorf("Aggregates: %d rows, the materialized fold %d, and they differ", len(gotAgg), len(want))
	}

	// CSV artifacts must be byte-identical.
	want, err := analysistest.CSVs(acaps, raw)
	if err != nil {
		t.Fatal(err)
	}
	streamed := map[string]func(io.Writer) error{
		"frame_sizes.csv":       func(w io.Writer) error { return analysis.WriteFrameSizeHistCSV(w, d.FrameSizeHist()) },
		"header_occurrence.csv": func(w io.Writer) error { return analysis.WriteHeaderOccurrenceMapCSV(w, d.HeaderOccurrence()) },
		"site_headers.csv":      func(w io.Writer) error { return analysis.WriteSiteHeaderStatsCSV(w, d.SiteHeaderStats()) },
		"flow_counts.csv":       func(w io.Writer) error { return analysis.WriteFlowCountCSV(w, d.SampleFlowCounts()) },
		"flow_aggregate.csv":    func(w io.Writer) error { return analysis.WriteFlowAggregateCSV(w, gotAgg, 100) },
		"encapsulations.csv":    func(w io.Writer) error { return analysis.WriteStackPatternsCSV(w, d.EncapCensus(), 50) },
		"site_protocols.csv":    func(w io.Writer) error { return analysis.WriteSiteProtocolCSV(w, d.SiteProtocolShares()) },
		"tcp_flags.csv":         func(w io.Writer) error { return analysis.WriteTCPFlagsCSV(w, d.TCPFlags()) },
	}
	if len(streamed) != len(want) {
		t.Fatalf("%d streamed CSVs, %d materialized", len(streamed), len(want))
	}
	for name, write := range streamed {
		var got bytes.Buffer
		if err := write(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want[name]) {
			t.Errorf("%s differs between the materialized and streamed paths", name)
		}
	}
}

// TestStreamEquivalenceClean pins the streaming contract: the digester
// with aggressive spilling produces bit-identical statistics and CSV
// artifacts to the materialized pipeline on a clean corpus.
func TestStreamEquivalenceClean(t *testing.T) {
	corpus := analysis.EquivCorpus(t, 11, 3, 2, 600)
	acaps, raw, d, spill := runBoth(t, corpus, []string{"site-a", "site-b", "site-c"})
	checkEquivalence(t, acaps, raw, d, spill)
}

// TestStreamEquivalenceHostile repeats the check on a corpus salted with
// truncated, garbage, and empty frames — decode failures must fold into
// both pipelines identically.
func TestStreamEquivalenceHostile(t *testing.T) {
	corpus := analysis.EquivCorpus(t, 23, 3, 2, 500)
	analysis.HostileMutate(corpus)
	acaps, raw, d, spill := runBoth(t, corpus, []string{"site-x", "site-y", "site-z"})
	checkEquivalence(t, acaps, raw, d, spill)
}
