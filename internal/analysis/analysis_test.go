package analysis

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"net/netip"

	"repro/internal/pcap"
	"repro/internal/trafficgen"
	"repro/internal/wire"
)

// sampleAcap builds an acap from a synthesized capture for the given
// profile seed.
func sampleAcap(t testing.TB, site string, seed uint64, frames int) *Acap {
	t.Helper()
	profiles := trafficgen.MakeSiteProfiles(1, 30)
	idx := int(seed) % len(profiles)
	g := trafficgen.NewGenerator(profiles[idx], seed)
	tfs, err := g.Sample(trafficgen.SampleConfig{MaxFrames: frames, FlowCount: frames / 4})
	if err != nil {
		t.Fatal(err)
	}
	a := &Acap{Site: site}
	for _, tf := range tfs {
		data := tf.Data
		stored := data
		if len(stored) > 200 {
			stored = stored[:200] // Patchwork's default truncation
		}
		a.Records = append(a.Records, DigestFrame(int64(tf.At), stored, len(data)))
	}
	return a
}

// foldAcaps folds the acaps' records through a fresh Digester, one
// sample per acap.
func foldAcaps(t testing.TB, acaps ...*Acap) *Digester {
	t.Helper()
	d := NewDigester(DigestOptions{})
	for _, a := range acaps {
		d.StartSample(a.Site)
		for i := range a.Records {
			if err := d.Fold(&a.Records[i]); err != nil {
				t.Fatal(err)
			}
		}
		d.EndSample()
	}
	return d
}

func TestDigestFrameBasics(t *testing.T) {
	p := trafficgen.MakeSiteProfiles(1, 30)[4] // rich profile class
	g := trafficgen.NewGenerator(p, 3)
	fs := g.NewFlow()
	data, err := g.BuildFrame(&fs, trafficgen.DirForward, 1600)
	if err != nil {
		t.Fatal(err)
	}
	rec := DigestFrame(12345, data, len(data))
	if rec.TimestampNanos != 12345 || rec.WireLen != len(data) {
		t.Errorf("metadata = %+v", rec)
	}
	if len(rec.Stack) < 3 {
		t.Errorf("stack = %v", rec.Stack)
	}
	if rec.Stack[0] != wire.LayerTypeEthernet || rec.Stack[1] != wire.LayerTypeDot1Q {
		t.Errorf("stack = %v", rec.Stack)
	}
	if rec.Flow.VLANID != fs.VLANID {
		t.Errorf("flow VLAN = %d, want %d", rec.Flow.VLANID, fs.VLANID)
	}
}

func TestDigestFromPcap(t *testing.T) {
	g := trafficgen.NewGenerator(trafficgen.MakeSiteProfiles(1, 30)[0], 5)
	tfs, err := g.Sample(trafficgen.SampleConfig{MaxFrames: 100, FlowCount: 20})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, pcap.FileHeader{SnapLen: 200, Nanosecond: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tf := range tfs {
		if err := w.WriteRecord(int64(tf.At), tf.Data, len(tf.Data)); err != nil {
			t.Fatal(err)
		}
	}
	_ = w.Flush()
	rd, err := pcap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDigester(DigestOptions{})
	d.StartSample("S0")
	err = rd.ForEach(func(rec *pcap.Record) error {
		if err := d.Frame(rec.TimestampNanos, rec.Data, rec.OriginalLength); err != nil {
			return err
		}
		r := d.Record()
		if r.StoredLen > 200 {
			t.Errorf("stored %d exceeds snaplen", r.StoredLen)
		}
		if r.WireLen < r.StoredLen {
			t.Errorf("wire %d < stored %d", r.WireLen, r.StoredLen)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	d.EndSample()
	if d.Frames() != len(tfs) {
		t.Errorf("frames = %d, want %d", d.Frames(), len(tfs))
	}
}

func TestFlowKeyCanonicalSymmetric(t *testing.T) {
	g := trafficgen.NewGenerator(trafficgen.MakeSiteProfiles(1, 30)[4], 9)
	found := false
	for i := 0; i < 60 && !found; i++ {
		fs := g.NewFlow()
		fwd, err := g.BuildFrame(&fs, trafficgen.DirForward, 800)
		if err != nil {
			t.Fatal(err)
		}
		rev, err := g.BuildFrame(&fs, trafficgen.DirReverse, 0)
		if err != nil {
			t.Fatal(err)
		}
		rf := DigestFrame(0, fwd, len(fwd))
		rr := DigestFrame(0, rev, len(rev))
		if rf.Flow.Proto == wire.LayerTypeTCP && rr.Flow.Proto == wire.LayerTypeTCP {
			found = true
			if rf.Flow == rr.Flow {
				t.Error("fwd and rev raw keys should differ")
			}
			if rf.Flow.Canonical() != rr.Flow.Canonical() {
				t.Errorf("canonical keys differ: %+v vs %+v", rf.Flow.Canonical(), rr.Flow.Canonical())
			}
		}
	}
	if !found {
		t.Fatal("no TCP flow drawn")
	}
}

func TestVLANDistinguishesFlows(t *testing.T) {
	// Two flows with identical IPs/ports but different VLANs are distinct
	// (Section 6.2.4: same 10/8 addresses in different slices).
	mk := func(vlan uint16) FlowKey {
		pay := wire.Payload([]byte("x"))
		buf := wire.NewSerializeBuffer()
		err := wire.SerializeLayers(buf, wire.SerializeOptions{FixLengths: true},
			&wire.Ethernet{EthernetType: wire.EthernetTypeDot1Q},
			&wire.Dot1Q{VLANID: vlan, EthernetType: wire.EthernetTypeIPv4},
			&wire.IPv4{TTL: 1, Protocol: wire.IPProtocolUDP,
				SrcIP: mustAddr("10.0.0.1"), DstIP: mustAddr("10.0.0.2")},
			&wire.UDP{SrcPort: 1000, DstPort: 2000},
			&pay)
		if err != nil {
			t.Fatal(err)
		}
		return DigestFrame(0, buf.Bytes(), len(buf.Bytes())).Flow
	}
	if mk(100) == mk(200) {
		t.Error("flows in different VLANs should have different keys")
	}
	if mk(100) != mk(100) {
		t.Error("same VLAN should produce the same key")
	}
}

func TestFrameSizeHistogram(t *testing.T) {
	a := &Acap{Site: "S", Records: []Record{
		{WireLen: 64}, {WireLen: 100}, {WireLen: 100}, {WireLen: 1600},
		{WireLen: 2000}, {WireLen: 9000}, {WireLen: 10000},
	}}
	h := foldAcaps(t, a).FrameSizeHist()
	if h[0] != 1 { // <=64
		t.Errorf("bucket0 = %d", h[0])
	}
	if h[1] != 2 { // 65-127
		t.Errorf("bucket1 = %d", h[1])
	}
	if h[6] != 2 { // 1519-2047
		t.Errorf("bucket6 = %d", h[6])
	}
	if h[8] != 1 || h[9] != 1 {
		t.Errorf("jumbo buckets = %v", h)
	}
	if FrameSizeBucketLabel(6) != "1519-2047" {
		t.Errorf("label = %q", FrameSizeBucketLabel(6))
	}
	if FrameSizeBucketLabel(9) != "9216+" {
		t.Errorf("overflow label = %q", FrameSizeBucketLabel(9))
	}
}

// TestJumboFraction: a site's jumbo count, which Fig. 15 divides by its
// frames, counts frames above JumboThreshold and no others.
func TestJumboFraction(t *testing.T) {
	a := &Acap{Site: "S", Records: []Record{{WireLen: 1518}, {WireLen: 1519}, {WireLen: 2000}, {WireLen: 64}}}
	_, frames, jumbo, ok := foldAcaps(t, a).SiteFrameSizeHist("S")
	if !ok || float64(jumbo)/float64(frames) != 0.5 {
		t.Errorf("jumbo %d of %d frames (site seen %v), want half", jumbo, frames, ok)
	}
	if _, _, _, ok := foldAcaps(t).SiteFrameSizeHist("S"); ok {
		t.Error("an unseen site has a histogram")
	}
}

func TestHeaderOccurrenceEthernetOver100(t *testing.T) {
	a := sampleAcap(t, "S4", 4, 2000) // profile with pseudowires
	occ := foldAcaps(t, a).HeaderOccurrence()
	if occ[wire.LayerTypeEthernet] <= 100 {
		t.Errorf("Ethernet occurrence = %.1f%%, want >100%% (pseudowires)", occ[wire.LayerTypeEthernet])
	}
	if occ[wire.LayerTypeIPv4] < 50 {
		t.Errorf("IPv4 = %.1f%%, should dominate", occ[wire.LayerTypeIPv4])
	}
	if occ[wire.LayerTypeIPv6] > 10 {
		t.Errorf("IPv6 = %.1f%%, should be small", occ[wire.LayerTypeIPv6])
	}
	if occ[wire.LayerTypeDot1Q] < 99 {
		t.Errorf("VLAN = %.1f%%, every frame is tagged", occ[wire.LayerTypeDot1Q])
	}
}

func TestHeaderStatsBySite(t *testing.T) {
	stats := foldAcaps(t,
		sampleAcap(t, "S0", 0, 800), // bulk-heavy profile: few headers
		sampleAcap(t, "S4", 4, 800), // rich profile: many headers
	).SiteHeaderStats()
	if len(stats) != 2 {
		t.Fatalf("stats = %v", stats)
	}
	// Sorted descending by distinct headers: the rich site leads.
	if stats[0].Site != "S4" {
		t.Errorf("order = %v", stats)
	}
	if stats[0].DistinctHeaders <= stats[1].DistinctHeaders {
		t.Errorf("rich site %d headers <= bulk site %d",
			stats[0].DistinctHeaders, stats[1].DistinctHeaders)
	}
	for _, s := range stats {
		if s.MaxStackDepth < 5 || s.MaxStackDepth > 12 {
			t.Errorf("%s max depth = %d, want 5-12", s.Site, s.MaxStackDepth)
		}
	}
}

func TestFlowsInSampleAndHistogram(t *testing.T) {
	a := sampleAcap(t, "S1", 1, 2000)
	n := FlowsInSample(a)
	if n < 10 {
		t.Errorf("flows = %d, too few", n)
	}
	h := FlowCountHistogram([]int{50, 200, 2500, 25000, 60000})
	if h[0] != 1 || h[1] != 1 || h[3] != 1 || h[6] != 1 || h[7] != 1 {
		t.Errorf("hist = %v", h)
	}
}

func TestAggregateFlows(t *testing.T) {
	a1 := sampleAcap(t, "S2", 2, 1000)
	a2 := sampleAcap(t, "S2", 2, 1000) // same seed: same flows reappear
	flows, err := foldAcaps(t, a1, a2).Flows().Aggregates(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) == 0 {
		t.Fatal("no flows")
	}
	// Sorted by bytes descending.
	for i := 1; i < len(flows); i++ {
		if flows[i].Bytes > flows[i-1].Bytes {
			t.Fatal("not sorted by bytes")
		}
	}
	// Identical samples: every flow has an even frame count (appears in
	// both).
	if flows[0].Frames%2 != 0 {
		t.Errorf("top flow frames = %d, want doubled", flows[0].Frames)
	}
}

func TestIndexRoundTrip(t *testing.T) {
	a := sampleAcap(t, "S3", 3, 500)
	e := Summarize(a, "acaps/s3-0.json")
	if e.Frames != len(a.Records) || e.DistinctFlows <= 0 {
		t.Errorf("entry = %+v", e)
	}
	var ix Index
	ix.Add(e)
	ix.Add(IndexEntry{Site: "S1", Path: "acaps/s1-0.json", StartNanos: 5, EndNanos: 10})
	if len(ix.Entries) != 2 || ix.Entries[0].Site != "S1" || ix.Entries[1] != e {
		t.Errorf("Add order = %v, want S1 before S3", ix.Entries)
	}
	var buf bytes.Buffer
	if err := ix.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var back Index
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(back.Entries, ix.Entries) {
		t.Errorf("round trip = %v, want %v", back.Entries, ix.Entries)
	}
}

func TestAcapSerialization(t *testing.T) {
	a := sampleAcap(t, "S5", 5, 100)
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, `"site":"S5"`) {
		t.Errorf("serialized acap missing site: %.100s", s)
	}
}

func TestCSVEmitters(t *testing.T) {
	d := foldAcaps(t, sampleAcap(t, "S6", 6, 800))
	var buf bytes.Buffer
	if err := WriteFrameSizeHistCSV(&buf, d.FrameSizeHist()); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(FrameSizeBuckets)+2 {
		t.Errorf("frame-size CSV lines = %d", lines)
	}
	buf.Reset()
	if err := WriteHeaderOccurrenceMapCSV(&buf, d.HeaderOccurrence()); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "header,percent_of_frames\n") {
		t.Errorf("header CSV = %.60s", buf.String())
	}
	buf.Reset()
	if err := WriteSiteHeaderStatsCSV(&buf, d.SiteHeaderStats()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "S6") {
		t.Error("site stats CSV missing site")
	}
	buf.Reset()
	if err := WriteFlowCountCSV(&buf, []int{100, 5000}); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "flows_in_sample,samples\n<=100,1\n101-300,0\n301-1000,0\n1001-3000,0\n3001-10000,1\n10001-20000,0\n20001-50000,0\n>50000,0\n"; got != want {
		t.Errorf("flow count CSV\n%s\nwant\n%s", got, want)
	}
	buf.Reset()
	flows, err := d.Flows().Aggregates(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFlowAggregateCSV(&buf, flows, 10); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines > 11 {
		t.Errorf("flow aggregate CSV lines = %d, want <= 11", lines)
	}
}

func TestAnonymizerDeterministicAndFlowPreserving(t *testing.T) {
	g := trafficgen.NewGenerator(trafficgen.MakeSiteProfiles(1, 30)[0], 8)
	fs := g.NewFlow()
	f1, err := g.BuildFrame(&fs, trafficgen.DirForward, 1600)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := g.BuildFrame(&fs, trafficgen.DirForward, 1600)
	if err != nil {
		t.Fatal(err)
	}
	origKey := DigestFrame(0, f1, len(f1)).Flow

	an := NewAnonymizer(0xDEADBEEF)
	if !an.AnonymizeFrame(f1) || !an.AnonymizeFrame(f2) {
		t.Fatal("frames should be rewritten")
	}
	k1 := DigestFrame(0, f1, len(f1)).Flow
	k2 := DigestFrame(0, f2, len(f2)).Flow
	if k1 != k2 {
		t.Error("same flow should anonymize to same key")
	}
	if k1.Src == origKey.Src && k1.Dst == origKey.Dst {
		t.Error("addresses unchanged")
	}
	// Decode must still succeed with a valid IPv4 checksum.
	pkt := wire.NewPacket(f1, wire.LayerTypeEthernet, wire.Default)
	if fail := pkt.ErrorLayer(); fail != nil {
		t.Errorf("anonymized frame no longer decodes: %v", fail.Error())
	}
}

func TestAnonymizerKeysDiffer(t *testing.T) {
	g := trafficgen.NewGenerator(trafficgen.MakeSiteProfiles(1, 30)[0], 8)
	fs := g.NewFlow()
	f1, _ := g.BuildFrame(&fs, trafficgen.DirForward, 1600)
	f2 := append([]byte(nil), f1...)
	NewAnonymizer(1).AnonymizeFrame(f1)
	NewAnonymizer(2).AnonymizeFrame(f2)
	k1 := DigestFrame(0, f1, len(f1)).Flow
	k2 := DigestFrame(0, f2, len(f2)).Flow
	if k1.Src == k2.Src {
		t.Error("different keys should map addresses differently")
	}
}

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }
