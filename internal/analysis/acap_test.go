package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"testing"

	"repro/internal/wire"
)

// acapJSON and recordJSON are the acap's serialized form as encoding/json
// writes it; AcapEncoder must reproduce those bytes exactly.
type acapJSON struct {
	Site    string       `json:"site"`
	Start   int64        `json:"start"`
	Records []recordJSON `json:"records"`
}

type recordJSON struct {
	TS        int64  `json:"ts"`
	Wire      int    `json:"wire"`
	Stored    int    `json:"stored"`
	Stack     []int  `json:"stack"`
	VLAN      uint16 `json:"vlan,omitempty"`
	MPLS      uint32 `json:"mpls,omitempty"`
	Src       string `json:"src,omitempty"`
	Dst       string `json:"dst,omitempty"`
	Proto     int    `json:"proto,omitempty"`
	SPort     uint16 `json:"sport,omitempty"`
	DPort     uint16 `json:"dport,omitempty"`
	Truncated bool   `json:"trunc,omitempty"`
}

// oracleEncode is the reflective acap encoding.
func oracleEncode(t *testing.T, a *Acap) []byte {
	t.Helper()
	out := acapJSON{Site: a.Site, Start: a.SampleStartNanos, Records: make([]recordJSON, len(a.Records))}
	for i, r := range a.Records {
		rj := recordJSON{
			TS: r.TimestampNanos, Wire: r.WireLen, Stored: r.StoredLen,
			VLAN: r.Flow.VLANID, MPLS: r.Flow.MPLSTop,
			Src: r.Flow.Src.String(), Dst: r.Flow.Dst.String(),
			Proto: int(r.Flow.Proto), SPort: r.Flow.SrcPort, DPort: r.Flow.DstPort,
			Truncated: r.DecodeTruncated,
		}
		rj.Stack = make([]int, len(r.Stack))
		for j, lt := range r.Stack {
			rj.Stack[j] = int(lt)
		}
		out.Records[i] = rj
	}
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(out); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func ipEndpoint(s string) wire.Endpoint { return wire.NewIPEndpoint(netip.MustParseAddr(s)) }

// encoderCases are hand-built records for every field shape the encoder
// distinguishes.
func encoderCases() []Record {
	eth := []wire.LayerType{wire.LayerTypeEthernet}
	return []Record{
		{TimestampNanos: 1, WireLen: 60, StoredLen: 60}, // zero flow key, empty stack
		{TimestampNanos: 2, WireLen: 64, StoredLen: 14, Stack: eth, DecodeTruncated: true},
		{ // IPv6 with ports, no tags
			TimestampNanos: 3, WireLen: 1514, StoredLen: 200,
			Stack: []wire.LayerType{wire.LayerTypeEthernet, wire.LayerTypeIPv6, wire.LayerTypeTCP},
			Flow: FlowKey{Src: ipEndpoint("2001:db8::1"), Dst: ipEndpoint("::ffff:10.0.0.1"),
				Proto: wire.LayerTypeTCP, SrcPort: 443, DstPort: 51000},
		},
		{ // ARP under a VLAN: tag set, ports zero
			TimestampNanos: 4, WireLen: 64, StoredLen: 64,
			Stack: []wire.LayerType{wire.LayerTypeEthernet, wire.LayerTypeDot1Q, wire.LayerTypeARP},
			Flow:  FlowKey{VLANID: 4094, Src: ipEndpoint("10.0.0.1"), Dst: ipEndpoint("10.0.0.2"), Proto: wire.LayerTypeARP},
		},
		{ // VLAN and MPLS with one port zero, truncated
			TimestampNanos: -5, WireLen: 9000, StoredLen: 200,
			Stack: []wire.LayerType{wire.LayerTypeEthernet, wire.LayerTypeDot1Q, wire.LayerTypeMPLS, wire.LayerTypeIPv4, wire.LayerTypeUDP},
			Flow: FlowKey{VLANID: 7, MPLSTop: 1<<20 - 1, Src: ipEndpoint("192.168.1.1"), Dst: ipEndpoint("0.0.0.0"),
				Proto: wire.LayerTypeUDP, DstPort: 53},
			DecodeTruncated: true,
		},
		{ // MPLS only, source port only
			TimestampNanos: 6, WireLen: 100, StoredLen: 100,
			Flow: FlowKey{MPLSTop: 16, Src: ipEndpoint("::"), Dst: ipEndpoint("fe80::1"), Proto: wire.LayerTypeICMPv6, SrcPort: 1},
		},
		{ // endpoint kinds a FlowKey never holds still encode as String does
			TimestampNanos: 7,
			Flow:           FlowKey{Src: wire.NewMACEndpoint(wire.MAC{0, 1, 2, 3, 4, 5}), Dst: wire.NewRawEndpoint(wire.EndpointTCPPort, []byte{1, 187})},
		},
	}
}

// TestAcapEncoderMatchesJSON holds the streamed encoder to the
// reflective encoding: hand-built records of every field shape, decoded
// clean and hostile corpora, an empty acap, and site names that need
// escaping. One encoder is reused across every acap.
func TestAcapEncoderMatchesJSON(t *testing.T) {
	var acaps []*Acap
	for i, site := range []string{"S0", `q"uote`, `back\slash`, "<tag>&amp", "line\u2028sep\u2029", "bad\xffutf8\xc3", "ctl\x00\x01\b\f\n\r\t\x1f\x7f", "é日本"} {
		acaps = append(acaps, &Acap{Site: site, SampleStartNanos: int64(i), Records: encoderCases()})
	}
	acaps = append(acaps, &Acap{Site: "empty"}, &Acap{Site: "nil-start", Records: encoderCases()[:1]})
	for _, hostile := range []bool{false, true} {
		corpus := equivCorpus(t, 7, 3, 1, 400)
		if hostile {
			hostileMutate(corpus)
		}
		for i, site := range corpus {
			a := &Acap{Site: fmt.Sprintf("C%d", i)}
			for _, f := range site[0] {
				a.Records = append(a.Records, DigestFrame(f.ts, f.data, f.wireLen))
			}
			a.SampleStartNanos = a.Records[0].TimestampNanos
			acaps = append(acaps, a)
		}
	}

	var enc AcapEncoder
	for _, a := range acaps {
		want := oracleEncode(t, a)
		var got bytes.Buffer
		if err := a.Encode(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("site %q: Encode differs from encoding/json\n got: %.300s\nwant: %.300s", a.Site, got.Bytes(), want)
		}

		// The reused encoder, record by record, writes the same bytes
		// and returns Summarize's entry.
		got.Reset()
		enc.Begin(&got, a.Site, a.SampleStartNanos)
		for i := range a.Records {
			if err := enc.Write(&a.Records[i]); err != nil {
				t.Fatal(err)
			}
		}
		entry, err := enc.End()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("site %q: reused encoder differs from encoding/json", a.Site)
		}
		entry.Path, entry.DistinctFlows = "p", FlowsInSample(a)
		if want := Summarize(a, "p"); entry != want {
			t.Errorf("site %q: entry %+v, Summarize %+v", a.Site, entry, want)
		}
	}
}

// failWriter accepts n bytes, then fails every write.
type failWriter struct{ n int }

var errFull = errors.New("disk full")

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		return 0, errFull
	}
	w.n -= len(p)
	return len(p), nil
}

func TestAcapEncodeReportsWriteError(t *testing.T) {
	a := sampleAcap(t, "S1", 1, 2000) // several flushes' worth of records
	for _, n := range []int{0, acapFlushBytes + 1<<10} {
		if err := a.Encode(&failWriter{n: n}); !errors.Is(err, errFull) {
			t.Errorf("writer failing after %d bytes: Encode returned %v", n, err)
		}
	}
}

// TestFrameRecordAllocFree: once its maps and buffers have grown, the
// digester's per-frame path — every statistic, the flow table, the
// sketches (heavy-hitter eviction included) — plus encoding the frame's
// record allocates nothing beyond what the wire decode itself does. The
// pooled decode still allocates for DNS question names and for
// truncation errors; the bare decode of the same frames measures that.
func TestFrameRecordAllocFree(t *testing.T) {
	corpus := equivCorpus(t, 11, 2, 1, 600)
	hostileMutate(corpus)
	var frames []equivFrame
	for _, site := range corpus {
		frames = append(frames, site[0]...)
	}
	var pkt wire.Packet
	decodeAllocs := testing.AllocsPerRun(3, func() {
		for _, f := range frames {
			pkt.Reset(f.data, wire.LayerTypeEthernet, wire.NoCopy)
		}
	})

	// Far fewer heavy-hitter slots than flows, so Add evicts on most
	// frames.
	d := NewDigester(DigestOptions{HeavyK: 8})
	d.StartSample("S")
	var enc AcapEncoder
	enc.Begin(io.Discard, "S", 0)
	pass := func() {
		for _, f := range frames {
			if err := d.Frame(f.ts, f.data, f.wireLen); err != nil {
				t.Fatal(err)
			}
			if err := enc.Write(d.Record()); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass()
	allocs := testing.AllocsPerRun(3, pass)
	t.Logf("%d frames: %.0f allocations per pass, %.0f of them in the wire decode", len(frames), allocs, decodeAllocs)
	if allocs > decodeAllocs {
		t.Errorf("%.0f allocations per pass of %d frames, want the bare decode's %.0f", allocs, len(frames), decodeAllocs)
	}
}

// TestIndexAddMatchesStableSort: inserting in any order, equal (site,
// start) keys included, gives the order of appending everything and
// stably sorting.
func TestIndexAddMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		var ix Index
		var want []IndexEntry
		for i := rng.Intn(30); i > 0; i-- {
			e := IndexEntry{Site: fmt.Sprintf("S%d", rng.Intn(3)), StartNanos: int64(rng.Intn(4)), Path: fmt.Sprint(i)}
			ix.Add(e)
			want = append(want, e)
		}
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].Site != want[j].Site {
				return want[i].Site < want[j].Site
			}
			return want[i].StartNanos < want[j].StartNanos
		})
		if !slices.Equal(ix.Entries, want) {
			t.Fatalf("trial %d:\n got %v\nwant %v", trial, ix.Entries, want)
		}
	}
}
