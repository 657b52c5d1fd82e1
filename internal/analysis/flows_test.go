package analysis

import (
	"path/filepath"
	"testing"

	"repro/internal/flowstore"
	"repro/internal/trafficgen"
	"repro/internal/wire"
)

func TestCountTCPFlags(t *testing.T) {
	g := trafficgen.NewGenerator(bulkOnlyProfile(), 3)
	fs := g.NewFlow()
	var frames [][]byte
	// Data frames (PSH|ACK) and pure ACKs.
	for i := 0; i < 6; i++ {
		d, err := g.BuildFrame(&fs, trafficgen.DirForward, 1600)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, d)
	}
	for i := 0; i < 3; i++ {
		a, err := g.BuildFrame(&fs, trafficgen.DirReverse, 0)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, a)
	}
	// Hand-build a SYN, a SYN|ACK, an RST, a bare ACK that carries
	// payload (not a pure ACK) and a FIN|ACK.
	frames = append(frames, tcpFlagFrame(t, wire.TCPSyn, nil))
	frames = append(frames, tcpFlagFrame(t, wire.TCPSyn|wire.TCPAck, nil))
	frames = append(frames, tcpFlagFrame(t, wire.TCPRst, nil))
	frames = append(frames, tcpFlagFrame(t, wire.TCPAck, []byte("data")))
	frames = append(frames, tcpFlagFrame(t, wire.TCPFin|wire.TCPAck, nil))
	// Non-TCP frame is ignored.
	frames = append(frames, []byte{0, 1, 2})

	d := NewDigester(DigestOptions{})
	d.StartSample("S")
	for _, f := range frames {
		if err := d.Frame(0, f, len(f)); err != nil {
			t.Fatal(err)
		}
	}
	d.EndSample()
	c := d.TCPFlags()
	if c.Segments != 14 {
		t.Errorf("segments = %d, want 14", c.Segments)
	}
	if c.PureAck != 3 {
		t.Errorf("pure ACKs = %d, want 3", c.PureAck)
	}
	if c.Syn != 1 || c.SynAck != 1 || c.Rst != 1 || c.Fin != 1 {
		t.Errorf("flags = %+v", c)
	}
}

// tcpFlagFrame builds an IPv4 TCP frame with the given flags and payload.
func tcpFlagFrame(t *testing.T, flags wire.TCPFlags, payload []byte) []byte {
	t.Helper()
	pay := wire.Payload(payload)
	buf := wire.NewSerializeBuffer()
	err := wire.SerializeLayers(buf, wire.SerializeOptions{FixLengths: true},
		&wire.Ethernet{EthernetType: wire.EthernetTypeIPv4},
		&wire.IPv4{TTL: 9, Protocol: wire.IPProtocolTCP,
			SrcIP: mustAddr("10.1.1.1"), DstIP: mustAddr("10.1.1.2")},
		&wire.TCP{SrcPort: 1, DstPort: 2, DataOffset: 5, Flags: flags},
		&pay)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(buf.Bytes()))
	copy(out, buf.Bytes())
	return out
}

func bulkOnlyProfile() trafficgen.Profile {
	p := trafficgen.Profile{
		Site: "T", IPv6Fraction: 0, PWFraction: 1, MPLSDepth2Fraction: 1,
		JumboData: true, FlowsPerSampleLogMean: 4, FlowsPerSampleLogSigma: 1,
	}
	p.KindWeights[trafficgen.KindBulkTCP] = 1
	return p
}

// TestFoldBeforeStartSample: a frame folded before any sample has begun
// is refused and counted nowhere.
func TestFoldBeforeStartSample(t *testing.T) {
	d := NewDigester(DigestOptions{})
	if err := d.Fold(&Record{WireLen: 64, Stack: []wire.LayerType{wire.LayerTypeEthernet}}); err == nil {
		t.Error("Fold before StartSample returned no error")
	}
	if n := d.Frames(); n != 0 {
		t.Errorf("Frames() = %d after a refused Fold, want 0", n)
	}
}

// flowRows folds the acap's records through a Digester, flushes its
// flow table to a flow store and returns the store's rows: each flow's
// observed lifetime as /api/flows serves it.
func flowRows(t *testing.T, a *Acap) []flowstore.Rec {
	t.Helper()
	path := filepath.Join(t.TempDir(), "flows.pwfs")
	w, err := flowstore.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDigester(DigestOptions{Spill: w})
	d.StartSample(a.Site)
	for i := range a.Records {
		if err := d.Fold(&a.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	d.EndSample()
	if err := d.Flows().Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := flowstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var rows []flowstore.Rec
	if err := st.ForEach(func(r flowstore.Rec) error { rows = append(rows, r); return nil }); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestFlowDurations: each flow's row spans its earliest to its latest
// frame, whatever order they arrive in; a single-frame flow spans no
// time (samples rarely capture entire flows).
func TestFlowDurations(t *testing.T) {
	k1 := FlowKey{VLANID: 1, Proto: wire.LayerTypeTCP, SrcPort: 10, DstPort: 20}
	k2 := FlowKey{VLANID: 2, Proto: wire.LayerTypeTCP, SrcPort: 30, DstPort: 40}
	rows := flowRows(t, &Acap{Site: "S", Records: []Record{
		{TimestampNanos: 100, Flow: k1},
		{TimestampNanos: 900, Flow: k1},
		{TimestampNanos: 50, Flow: k1},
		{TimestampNanos: 200, Flow: k2},
	}})
	if len(rows) != 2 {
		t.Fatalf("flows = %d", len(rows))
	}
	if r := rows[0]; r.FirstNs != 50 || r.LastNs != 900 || r.Frames != 3 {
		t.Errorf("longest = %+v", r)
	}
	if r := rows[1]; r.FirstNs != 200 || r.LastNs != 200 || r.Frames != 1 {
		t.Errorf("single-frame flow = %+v", r)
	}
}

// TestFlowDurationsMergeDirections: both directions of a conversation
// are one flow.
func TestFlowDurationsMergeDirections(t *testing.T) {
	fwd := FlowKey{Proto: wire.LayerTypeTCP, SrcPort: 10, DstPort: 20}
	rev := FlowKey{Proto: wire.LayerTypeTCP, SrcPort: 20, DstPort: 10}
	rows := flowRows(t, &Acap{Site: "S", Records: []Record{
		{TimestampNanos: 0, Flow: fwd},
		{TimestampNanos: 100, Flow: rev},
	}})
	if len(rows) != 1 {
		t.Fatalf("directions not merged: %+v", rows)
	}
	if r := rows[0]; r.Frames != 2 || r.FirstNs != 0 || r.LastNs != 100 {
		t.Errorf("merged = %+v", r)
	}
}

func TestEncapsulationCensus(t *testing.T) {
	ps := foldAcaps(t, &Acap{Site: "S", Records: []Record{
		{Stack: []wire.LayerType{wire.LayerTypeEthernet, wire.LayerTypeARP}},
		{Stack: []wire.LayerType{wire.LayerTypeEthernet, wire.LayerTypeIPv4, wire.LayerTypeTCP}},
		{Stack: []wire.LayerType{wire.LayerTypeEthernet, wire.LayerTypeIPv4, wire.LayerTypeTCP}},
	}}).EncapCensus()
	if len(ps) != 2 {
		t.Fatalf("patterns = %+v", ps)
	}
	if ps[0].Pattern != "Ethernet/IPv4/TCP" || ps[0].Frames != 2 {
		t.Errorf("top = %+v", ps[0])
	}
	if ps[1].Pattern != "Ethernet/ARP" || ps[1].Frames != 1 {
		t.Errorf("second = %+v", ps[1])
	}
}

func TestProtocolShareBySite(t *testing.T) {
	v4 := Record{Stack: []wire.LayerType{wire.LayerTypeEthernet, wire.LayerTypeIPv4, wire.LayerTypeTCP}}
	v6 := Record{Stack: []wire.LayerType{wire.LayerTypeEthernet, wire.LayerTypeIPv6, wire.LayerTypeUDP}}
	a1 := &Acap{Site: "A", Records: []Record{v4, v4, v4, v6}}
	a2 := &Acap{Site: "B", Records: []Record{v6, v6}}
	shares := foldAcaps(t, a1, a2).SiteProtocolShares()
	if len(shares) != 2 {
		t.Fatalf("shares = %+v", shares)
	}
	sa := shares[0]
	if sa.Site != "A" || sa.IPv4Percent != 75 || sa.IPv6Percent != 25 || sa.TCPPercent != 75 {
		t.Errorf("site A = %+v", sa)
	}
	sb := shares[1]
	if sb.IPv6Percent != 100 || sb.UDPPercent != 100 || sb.IPv4Percent != 0 {
		t.Errorf("site B = %+v", sb)
	}
}

// TestTruncatedDecodeShare: a frame cut inside its headers decodes with
// DecodeTruncated set, a whole frame without, so the share of acap
// records marked "trunc" is the share of frames the snap length cut
// short of their headers.
func TestTruncatedDecodeShare(t *testing.T) {
	whole := tcpFlagFrame(t, wire.TCPAck, nil)
	frames := [][]byte{whole, whole[:20], whole, whole[:40]} // cut in IPv4, in TCP
	truncated := 0
	for i, f := range frames {
		r := DigestFrame(0, f, len(whole))
		if cut := len(f) < len(whole); r.DecodeTruncated != cut {
			t.Errorf("frame %d (%d of %d bytes): DecodeTruncated = %v", i, len(f), len(whole), r.DecodeTruncated)
		}
		if r.DecodeTruncated {
			truncated++
		}
	}
	if share := float64(truncated) / float64(len(frames)); share != 0.5 {
		t.Errorf("share = %v, want 0.5", share)
	}
}
