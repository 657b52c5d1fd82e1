package wire

import (
	"fmt"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestEndpointEquality(t *testing.T) {
	a := NewIPEndpoint(netip.MustParseAddr("10.0.0.1"))
	b := NewIPEndpoint(netip.MustParseAddr("10.0.0.1"))
	c := NewIPEndpoint(netip.MustParseAddr("10.0.0.2"))
	if a != b {
		t.Error("equal addresses should compare equal")
	}
	if a == c {
		t.Error("different addresses should differ")
	}
	// Endpoints are map keys.
	m := map[Endpoint]int{a: 1}
	if m[b] != 1 {
		t.Error("map lookup through equal endpoint failed")
	}
}

func TestEndpointTypesDistinct(t *testing.T) {
	tcp := NewTCPPortEndpoint(443)
	udp := NewUDPPortEndpoint(443)
	if tcp == udp {
		t.Error("TCP and UDP port 443 should be distinct endpoints")
	}
	if tcp.String() != "443" || udp.String() != "443" {
		t.Errorf("port strings = %q/%q", tcp, udp)
	}
}

func TestEndpointString(t *testing.T) {
	mac := NewMACEndpoint(MAC{0x02, 0, 0, 0, 0, 0xFF})
	if mac.String() != "02:00:00:00:00:ff" {
		t.Errorf("mac = %q", mac)
	}
	v6 := NewIPEndpoint(netip.MustParseAddr("2001:db8::1"))
	if v6.String() != "2001:db8::1" {
		t.Errorf("v6 = %q", v6)
	}
	if v6.Type() != EndpointIPv6 {
		t.Errorf("type = %v", v6.Type())
	}
}

// formerEndpointString is the fmt-based text Endpoint.String produced
// before AppendTo: the oracle AppendTo must reproduce.
func formerEndpointString(e Endpoint) string {
	r := e.Raw()
	switch e.Type() {
	case EndpointMAC:
		return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", r[0], r[1], r[2], r[3], r[4], r[5])
	case EndpointIPv4:
		return netip.AddrFrom4([4]byte(r)).String()
	case EndpointIPv6:
		return netip.AddrFrom16([16]byte(r)).String()
	case EndpointTCPPort, EndpointUDPPort:
		return fmt.Sprintf("%d", uint16(r[0])<<8|uint16(r[1]))
	default:
		return "invalid"
	}
}

// TestEndpointAppendTo holds AppendTo, String and MAC.String to the former
// text for every family, and AppendTo to zero allocations into a buffer
// with room.
func TestEndpointAppendTo(t *testing.T) {
	for _, e := range []Endpoint{
		{},
		NewMACEndpoint(MAC{0x02, 0, 0, 0, 0, 0xFF}),
		NewMACEndpoint(MAC{0xde, 0xad, 0xbe, 0xef, 0x0a, 0xb0}),
		NewIPEndpoint(netip.MustParseAddr("0.0.0.0")),
		NewIPEndpoint(netip.MustParseAddr("10.200.3.255")),
		NewIPEndpoint(netip.MustParseAddr("::")),
		NewIPEndpoint(netip.MustParseAddr("2001:db8::1")),
		NewIPEndpoint(netip.MustParseAddr("fe80::1:2:3:4")),
		NewIPEndpoint(netip.MustParseAddr("::ffff:192.0.2.1")),
		NewIPEndpoint(netip.MustParseAddr("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff")),
		NewTCPPortEndpoint(0),
		NewTCPPortEndpoint(443),
		NewUDPPortEndpoint(53),
		NewUDPPortEndpoint(65535),
	} {
		want := formerEndpointString(e)
		if got := string(e.AppendTo(nil)); got != want {
			t.Errorf("%v AppendTo(nil) = %q, want %q", e.Type(), got, want)
		}
		if got := e.String(); got != want {
			t.Errorf("%v String() = %q, want %q", e.Type(), got, want)
		}
		if e.Type() == EndpointMAC {
			if got := MAC(e.Raw()).String(); got != want {
				t.Errorf("MAC.String() = %q, want %q", got, want)
			}
		}
		if got := string(e.AppendTo([]byte("x="))); got != "x="+want {
			t.Errorf("%v AppendTo(prefix) = %q, want %q", e.Type(), got, "x="+want)
		}
		buf := make([]byte, 0, 64)
		if n := testing.AllocsPerRun(100, func() { buf = e.AppendTo(buf[:0]) }); n != 0 {
			t.Errorf("%v AppendTo allocated %.0f times", e.Type(), n)
		}
	}
}

func TestFlowSymmetricHash(t *testing.T) {
	f := func(a, b [4]byte) bool {
		src := NewIPEndpoint(netip.AddrFrom4(a))
		dst := NewIPEndpoint(netip.AddrFrom4(b))
		fwd := NewFlow(src, dst)
		rev := NewFlow(dst, src)
		return fwd.FastHash() == rev.FastHash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlowHashSpreads(t *testing.T) {
	// Different flows should rarely collide in the low 3 bits (the paper's
	// load-balancing example uses &0x7).
	buckets := make(map[uint64]int)
	for i := 0; i < 4096; i++ {
		src := NewIPEndpoint(netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}))
		dst := NewIPEndpoint(netip.AddrFrom4([4]byte{10, 1, 0, 1}))
		buckets[NewFlow(src, dst).FastHash()&0x7]++
	}
	for b, n := range buckets {
		if n < 4096/8/2 || n > 4096/8*2 {
			t.Errorf("bucket %d has %d flows, poorly spread", b, n)
		}
	}
	if len(buckets) != 8 {
		t.Errorf("only %d buckets hit", len(buckets))
	}
}

func TestFlowReverse(t *testing.T) {
	src := NewTCPPortEndpoint(1000)
	dst := NewTCPPortEndpoint(2000)
	f := NewFlow(src, dst)
	r := f.Reverse()
	if r.Src() != dst || r.Dst() != src {
		t.Errorf("reverse = %v", r)
	}
	if f == r {
		t.Error("flow should differ from its reverse")
	}
	if f != r.Reverse() {
		t.Error("double reverse should restore")
	}
}

func TestFlowAsMapKey(t *testing.T) {
	f1 := NewFlow(NewUDPPortEndpoint(1000), NewUDPPortEndpoint(500))
	f2 := NewFlow(NewUDPPortEndpoint(1000), NewUDPPortEndpoint(500))
	m := map[Flow]int{f1: 7}
	if m[f2] != 7 {
		t.Error("equal flows should hit the same map slot")
	}
}

func TestMixedFamilyFlowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MAC->port flow should panic")
		}
	}()
	NewFlow(NewMACEndpoint(MAC{}), NewTCPPortEndpoint(1))
}

func TestIPv4v6MixAllowed(t *testing.T) {
	// 4-to-6 translation experiments produce these; they must not panic.
	f := NewFlow(
		NewIPEndpoint(netip.MustParseAddr("10.0.0.1")),
		NewIPEndpoint(netip.MustParseAddr("2001:db8::1")))
	if f.Src().Type() != EndpointIPv4 || f.Dst().Type() != EndpointIPv6 {
		t.Errorf("flow = %v", f)
	}
}

func TestLayerFlows(t *testing.T) {
	p := NewPacket(fabricFrame(t), LayerTypeEthernet, Default)
	ip := p.NetworkLayer().(*IPv4)
	nf := ip.NetworkFlow()
	if nf.Src().String() != "10.0.1.1" || nf.Dst().String() != "10.0.2.2" {
		t.Errorf("network flow = %v", nf)
	}
	tcp := p.TransportLayer().(*TCP)
	tf := tcp.TransportFlow()
	if tf.String() != "51000->443" {
		t.Errorf("transport flow = %v", tf)
	}
	eth := p.LinkLayer().(*Ethernet)
	lf := eth.LinkFlow()
	if lf.Src() != NewMACEndpoint(testSrcMAC) {
		t.Errorf("link flow = %v", lf)
	}
}
