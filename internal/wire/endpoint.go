package wire

import (
	"net/netip"
	"strconv"
)

// EndpointType distinguishes address families in an Endpoint.
type EndpointType uint8

// Endpoint types.
const (
	EndpointInvalid EndpointType = iota
	EndpointMAC
	EndpointIPv4
	EndpointIPv6
	EndpointTCPPort
	EndpointUDPPort
)

// String names the endpoint type.
func (t EndpointType) String() string {
	switch t {
	case EndpointMAC:
		return "MAC"
	case EndpointIPv4:
		return "IPv4"
	case EndpointIPv6:
		return "IPv6"
	case EndpointTCPPort:
		return "TCPPort"
	case EndpointUDPPort:
		return "UDPPort"
	default:
		return "Invalid"
	}
}

// Endpoint is a hashable, comparable representation of one side of a
// conversation (a MAC, an IP address, or a port). Endpoints are valid map
// keys and can be compared with ==.
type Endpoint struct {
	typ EndpointType
	len uint8
	raw [16]byte
}

// Type returns the endpoint's address family.
func (e Endpoint) Type() EndpointType { return e.typ }

// Raw returns the endpoint's address bytes.
func (e Endpoint) Raw() []byte { return e.raw[:e.len] }

// String renders the endpoint in its family's conventional form.
func (e Endpoint) String() string {
	var buf [64]byte
	return string(e.AppendTo(buf[:0]))
}

// AppendTo appends the endpoint's String form to b and returns the
// extended buffer. It allocates only when b must grow.
func (e Endpoint) AppendTo(b []byte) []byte {
	switch e.typ {
	case EndpointMAC:
		return appendMAC(b, MAC(e.raw[:6]))
	case EndpointIPv4:
		return netip.AddrFrom4([4]byte(e.raw[:4])).AppendTo(b)
	case EndpointIPv6:
		return netip.AddrFrom16(e.raw).AppendTo(b)
	case EndpointTCPPort, EndpointUDPPort:
		return strconv.AppendUint(b, uint64(e.raw[0])<<8|uint64(e.raw[1]), 10)
	default:
		return append(b, "invalid"...)
	}
}

// NewMACEndpoint wraps a MAC address.
func NewMACEndpoint(m MAC) Endpoint {
	e := Endpoint{typ: EndpointMAC, len: 6}
	copy(e.raw[:], m[:])
	return e
}

// NewIPEndpoint wraps an IPv4 or IPv6 address.
func NewIPEndpoint(a netip.Addr) Endpoint {
	if a.Is4() {
		e := Endpoint{typ: EndpointIPv4, len: 4}
		b := a.As4()
		copy(e.raw[:], b[:])
		return e
	}
	e := Endpoint{typ: EndpointIPv6, len: 16}
	b := a.As16()
	copy(e.raw[:], b[:])
	return e
}

// NewRawEndpoint rebuilds an endpoint from its family and raw address
// bytes (the inverse of Type/Raw) — used by on-disk stores that persist
// endpoints columnar. Bytes beyond the family's length are ignored; a
// zero-length raw produces the invalid zero Endpoint.
func NewRawEndpoint(typ EndpointType, raw []byte) Endpoint {
	var n int
	switch typ {
	case EndpointMAC:
		n = 6
	case EndpointIPv4:
		n = 4
	case EndpointIPv6:
		n = 16
	case EndpointTCPPort, EndpointUDPPort:
		n = 2
	default:
		return Endpoint{}
	}
	if len(raw) < n {
		return Endpoint{}
	}
	e := Endpoint{typ: typ, len: uint8(n)}
	copy(e.raw[:], raw[:n])
	return e
}

// NewTCPPortEndpoint wraps a TCP port.
func NewTCPPortEndpoint(p uint16) Endpoint {
	return Endpoint{typ: EndpointTCPPort, len: 2, raw: [16]byte{byte(p >> 8), byte(p)}}
}

// NewUDPPortEndpoint wraps a UDP port.
func NewUDPPortEndpoint(p uint16) Endpoint {
	return Endpoint{typ: EndpointUDPPort, len: 2, raw: [16]byte{byte(p >> 8), byte(p)}}
}
