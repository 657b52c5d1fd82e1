package trafficgen

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/wire"
)

var tcpKinds = [...]Kind{KindBulkTCP, KindTLS, KindSSH, KindHTTP}

// encapProfile is a profile of one flow kind whose flows are IPv6, carry
// two MPLS labels and ride a pseudowire with the given probabilities.
func encapProfile(k Kind, v6, mpls2, pw float64) Profile {
	p := bulkProfile()
	p.KindWeights = [numKinds]float64{}
	p.KindWeights[k] = 1
	p.IPv6Fraction, p.MPLSDepth2Fraction, p.PWFraction = v6, mpls2, pw
	return p
}

// builtFrame is one frame as the generator handed it to the clone, in
// generation order, with its prefix length and whether it was built
// from a template.
type builtFrame struct {
	data      string
	prefix    int
	templated bool
}

// sampleFrames samples cfg through SampleInto. With layered set, the
// clone forgets the flow's templates after every frame, so every frame
// goes through the layered serializer, as BuildFrame and
// BuildTCPControl build them. It returns the sample, every frame in
// generation order, and the generator's next rng draw.
func sampleFrames(t testing.TB, p Profile, seed uint64, cfg SampleConfig, layered bool) ([]TimedFrame, []builtFrame, uint64) {
	t.Helper()
	g := NewGenerator(p, seed)
	arena := NewFrameArena()
	var built []builtFrame
	frames, err := g.SampleInto(cfg, nil, func(b []byte) []byte {
		templated := len(g.frame) > 0 && &b[0] == &g.frame[0]
		built = append(built, builtFrame{string(b), g.prefix, templated})
		if layered {
			g.tmpl[DirForward].hdr = g.tmpl[DirForward].hdr[:0]
			g.tmpl[DirReverse].hdr = g.tmpl[DirReverse].hdr[:0]
		}
		return arena.Alloc(b)
	})
	if err != nil {
		t.Fatal(err)
	}
	return frames, built, g.r.Uint64()
}

// checkTemplatesMatchLayered fails t unless, from equal generator
// states, templates and the layered serializer produce the same frames
// (bytes, prefix lengths, Size, At and Dir) and leave the rng at the
// same draw. It returns the template run's frames in generation order.
func checkTemplatesMatchLayered(t testing.TB, name string, p Profile, seed uint64, cfg SampleConfig) []builtFrame {
	t.Helper()
	wantFrames, want, wantNext := sampleFrames(t, p, seed, cfg, true)
	gotFrames, got, gotNext := sampleFrames(t, p, seed, cfg, false)
	if len(got) != len(want) || len(gotFrames) != len(wantFrames) {
		t.Fatalf("%s: %d frames built, %d sampled; layered %d, %d", name, len(got), len(gotFrames), len(want), len(wantFrames))
	}
	for i, w := range want {
		g := got[i]
		if g.data != w.data || g.prefix != w.prefix {
			t.Fatalf("%s: frame %d (templated %v): %d bytes, prefix %d; layered %d bytes, prefix %d (bytes equal: %v)",
				name, i, g.templated, len(g.data), g.prefix, len(w.data), w.prefix, g.data == w.data)
		}
		if z := g.data[g.prefix:]; z != string(make([]byte, len(z))) {
			t.Fatalf("%s: frame %d has non-zero bytes past its %d-byte prefix", name, i, g.prefix)
		}
	}
	for i, w := range wantFrames {
		g := gotFrames[i]
		if g.At != w.At || g.Dir != w.Dir || g.Size != w.Size || string(g.Data) != string(w.Data) {
			t.Fatalf("%s: sampled frame %d: At %v/%v, Dir %v/%v, Size %d/%d", name, i, g.At, w.At, g.Dir, w.Dir, g.Size, w.Size)
		}
	}
	if gotNext != wantNext {
		t.Fatalf("%s: next rng draw %#x, layered %#x", name, gotNext, wantNext)
	}
	return got
}

// tcpFlags reads the flags of a frame's TCP header.
func tcpFlags(t testing.TB, data string) wire.TCPFlags {
	t.Helper()
	tcp, ok := wire.NewPacket([]byte(data), wire.LayerTypeEthernet, wire.Default).Layer(wire.LayerTypeTCP).(*wire.TCP)
	if !ok {
		t.Fatalf("frame without a TCP header: % x", data)
	}
	return tcp.Flags
}

// TestTemplatesMatchLayered builds every TCP kind over IPv4 and IPv6,
// one and two MPLS labels, with and without a pseudowire, unbounded and
// cut by MaxBytes, plus scan samples, from templates and through the
// layered serializer alone, and requires the same frames. Every kind must
// show each frame type, and every type a later frame of a flow can be
// (data, ACK, FIN, RST) must come from a template.
func TestTemplatesMatchLayered(t *testing.T) {
	typeName := map[wire.TCPFlags]string{
		wire.TCPPsh | wire.TCPAck: "data", wire.TCPAck: "ack", wire.TCPSyn: "syn",
		wire.TCPSyn | wire.TCPAck: "syn-ack", wire.TCPFin | wire.TCPAck: "fin", wire.TCPRst: "rst",
	}
	for _, k := range tcpKinds {
		seen := map[string]bool{}
		templated := map[string]bool{}
		for _, v6 := range []float64{0, 1} {
			for _, mpls2 := range []float64{0, 1} {
				for _, pw := range []float64{0, 1} {
					p := encapProfile(k, v6, mpls2, pw)
					name := fmt.Sprintf("%v v6=%v mpls2=%v pw=%v", k, v6, mpls2, pw)
					cfg := SampleConfig{Duration: 20 * sim.Second, MaxFrames: 6000, FlowCount: 200}
					frames := checkTemplatesMatchLayered(t, name, p, 5, cfg)
					var total int64
					for _, f := range frames {
						total += int64(len(f.data))
						typ := typeName[tcpFlags(t, f.data)]
						seen[typ] = true
						templated[typ] = templated[typ] || f.templated
					}
					cut := cfg
					cut.MaxBytes = total / 2
					checkTemplatesMatchLayered(t, name+" cut", p, 5, cut)
				}
			}
		}
		scan := SampleConfig{Duration: 20 * sim.Second, MaxFrames: 1500, FlowCount: 6000}
		for _, f := range checkTemplatesMatchLayered(t, fmt.Sprintf("%v scan", k), encapProfile(k, 0.5, 0.5, 0.5), 9, scan) {
			if typeName[tcpFlags(t, f.data)] != "syn" {
				t.Fatalf("%v scan: a %v frame", k, tcpFlags(t, f.data))
			}
		}
		for _, typ := range typeName {
			if !seen[typ] {
				t.Errorf("%v: no %s frame", k, typ)
			}
		}
		for _, typ := range []string{"data", "ack", "fin", "rst"} {
			if !templated[typ] {
				t.Errorf("%v: no %s frame built from a template", k, typ)
			}
		}
	}
	// Flows of every kind and header length in one sample: a templated
	// frame must not show bytes an earlier, longer prefix left behind.
	mixed := richProfile()
	mixed.IPv6Fraction, mixed.MPLSDepth2Fraction, mixed.PWFraction = 0.5, 0.5, 0.5
	checkTemplatesMatchLayered(t, "mixed", mixed, 3, SampleConfig{Duration: 20 * sim.Second, MaxFrames: 6000, FlowCount: 400})
}

// FuzzTemplatesMatchLayered checks templates against the layered
// serializer on fuzzed samples: one TCP kind or a mix with every other
// kind, encapsulation probabilities of 0, 0.5 or 1, up to 6,000 flows
// (scan samples above 5,000) and an optional MaxBytes cut.
func FuzzTemplatesMatchLayered(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint16(40), uint32(0))
	f.Add(uint64(2), uint8(1), uint8(26), uint16(100), uint32(60000))
	f.Add(uint64(3), uint8(2), uint8(13), uint16(5500), uint32(0))
	f.Add(uint64(4), uint8(4), uint8(7), uint16(300), uint32(0))
	f.Fuzz(func(t *testing.T, seed uint64, kind, encap uint8, flows uint16, maxBytes uint32) {
		frac := func(v uint8) float64 { return float64(v%3) / 2 }
		var p Profile
		if i := int(kind % 5); i < len(tcpKinds) {
			p = encapProfile(tcpKinds[i], frac(encap), frac(encap/3), frac(encap/9))
		} else {
			p = richProfile()
			p.IPv6Fraction, p.MPLSDepth2Fraction, p.PWFraction = frac(encap), frac(encap/3), frac(encap/9)
		}
		cfg := SampleConfig{Duration: sim.Second, MaxFrames: 1500, FlowCount: 1 + int(flows%6000), MaxBytes: int64(maxBytes)}
		checkTemplatesMatchLayered(t, "fuzz", p, seed, cfg)
	})
}
