package wire

import (
	"fmt"
	"net/netip"
	"testing"
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
