package wire

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// IPProtocol is the IPv4 Protocol / IPv6 Next Header field.
type IPProtocol uint8

// IP protocol numbers seen in FABRIC traffic.
const (
	IPProtocolICMPv4       IPProtocol = 1
	IPProtocolTCP          IPProtocol = 6
	IPProtocolUDP          IPProtocol = 17
	IPProtocolIPv6Fragment IPProtocol = 44
	IPProtocolGRE          IPProtocol = 47
	IPProtocolICMPv6       IPProtocol = 58
	IPProtocolNoNext       IPProtocol = 59
	IPProtocolHopByHop     IPProtocol = 0
)

// LayerType maps the protocol number to its decoder's layer type.
func (p IPProtocol) LayerType() LayerType {
	switch p {
	case IPProtocolICMPv4:
		return LayerTypeICMPv4
	case IPProtocolTCP:
		return LayerTypeTCP
	case IPProtocolUDP:
		return LayerTypeUDP
	case IPProtocolGRE:
		return LayerTypeGRE
	case IPProtocolICMPv6:
		return LayerTypeICMPv6
	case IPProtocolIPv6Fragment:
		return LayerTypeIPv6Fragment
	case IPProtocolHopByHop:
		return LayerTypeIPv6HopByHop
	case IPProtocolNoNext:
		return LayerTypeZero
	default:
		return LayerTypePayload
	}
}

// String names common protocols.
func (p IPProtocol) String() string {
	switch p {
	case IPProtocolICMPv4:
		return "ICMPv4"
	case IPProtocolTCP:
		return "TCP"
	case IPProtocolUDP:
		return "UDP"
	case IPProtocolGRE:
		return "GRE"
	case IPProtocolICMPv6:
		return "ICMPv6"
	default:
		return fmt.Sprintf("IPProtocol(%d)", uint8(p))
	}
}

// IPv4HeaderLen is the minimum IPv4 header length (no options).
const IPv4HeaderLen = 20

// IPv4 is an IPv4 header.
type IPv4 struct {
	Version    uint8 // always 4 after a successful decode
	IHL        uint8 // header length in 32-bit words
	TOS        uint8
	Length     uint16 // total length
	ID         uint16
	Flags      uint8  // 3 bits: reserved, DF, MF
	FragOffset uint16 // 13 bits
	TTL        uint8
	Protocol   IPProtocol
	Checksum   uint16
	SrcIP      netip.Addr
	DstIP      netip.Addr
	Options    []byte

	contents, payload []byte
}

// IPv4 flag bits.
const (
	IPv4DontFragment  = 0x2
	IPv4MoreFragments = 0x1
)

// LayerType returns LayerTypeIPv4.
func (ip *IPv4) LayerType() LayerType { return LayerTypeIPv4 }

// LayerContents returns the header bytes including options.
func (ip *IPv4) LayerContents() []byte { return ip.contents }

// LayerPayload returns the bytes after the header, bounded by the total
// length field when the buffer extends beyond it.
func (ip *IPv4) LayerPayload() []byte { return ip.payload }

// CanDecode returns LayerTypeIPv4.
func (ip *IPv4) CanDecode() LayerType { return LayerTypeIPv4 }

// NextLayerType derives from the Protocol field; fragments with a non-zero
// offset decode as payload because the transport header is absent.
func (ip *IPv4) NextLayerType() LayerType {
	if ip.FragOffset != 0 {
		return LayerTypePayload
	}
	return ip.Protocol.LayerType()
}

// DecodeFromBytes parses an IPv4 header.
func (ip *IPv4) DecodeFromBytes(data []byte) error {
	if len(data) < IPv4HeaderLen {
		return errTruncated{IPv4HeaderLen, len(data)}
	}
	ip.Version = data[0] >> 4
	if ip.Version != 4 {
		return fmt.Errorf("IPv4 version = %d", ip.Version)
	}
	ip.IHL = data[0] & 0x0F
	hlen := int(ip.IHL) * 4
	if hlen < IPv4HeaderLen {
		return fmt.Errorf("IPv4 IHL = %d words, below minimum", ip.IHL)
	}
	if len(data) < hlen {
		return errTruncated{hlen, len(data)}
	}
	ip.TOS = data[1]
	ip.Length = binary.BigEndian.Uint16(data[2:4])
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	ff := binary.BigEndian.Uint16(data[6:8])
	ip.Flags = uint8(ff >> 13)
	ip.FragOffset = ff & 0x1FFF
	ip.TTL = data[8]
	ip.Protocol = IPProtocol(data[9])
	ip.Checksum = binary.BigEndian.Uint16(data[10:12])
	ip.SrcIP = netip.AddrFrom4([4]byte(data[12:16]))
	ip.DstIP = netip.AddrFrom4([4]byte(data[16:20]))
	ip.Options = data[IPv4HeaderLen:hlen]
	ip.contents = data[:hlen]
	end := len(data)
	// Honor the total-length field when the capture buffer carries
	// padding (common for minimum-size Ethernet frames).
	if tl := int(ip.Length); tl >= hlen && tl < end {
		end = tl
	}
	ip.payload = data[hlen:end]
	return nil
}

// SerializeTo prepends the IPv4 header. When opts fix lengths and
// checksums, the Length and Checksum fields are computed from the buffer.
func (ip *IPv4) SerializeTo(b *SerializeBuffer) error {
	hlen := IPv4HeaderLen + len(ip.Options)
	if hlen%4 != 0 {
		return fmt.Errorf("IPv4 options length %d not a multiple of 4", len(ip.Options))
	}
	payloadLen := len(b.Bytes())
	bytes, err := b.PrependBytes(hlen)
	if err != nil {
		return err
	}
	bytes[0] = 4<<4 | uint8(hlen/4)
	bytes[1] = ip.TOS
	length := ip.Length
	if b.opts.FixLengths {
		length = uint16(hlen + payloadLen)
		ip.Length = length
	}
	binary.BigEndian.PutUint16(bytes[2:4], length)
	binary.BigEndian.PutUint16(bytes[4:6], ip.ID)
	binary.BigEndian.PutUint16(bytes[6:8], uint16(ip.Flags)<<13|ip.FragOffset&0x1FFF)
	bytes[8] = ip.TTL
	bytes[9] = uint8(ip.Protocol)
	src, dst := as4(ip.SrcIP), as4(ip.DstIP)
	copy(bytes[12:16], src[:])
	copy(bytes[16:20], dst[:])
	copy(bytes[20:], ip.Options)
	binary.BigEndian.PutUint16(bytes[10:12], 0)
	if b.opts.ComputeChecksums {
		ip.Checksum = internetChecksum(bytes[:hlen], 0)
	}
	binary.BigEndian.PutUint16(bytes[10:12], ip.Checksum)
	return nil
}

// pseudoHeaderChecksum computes the partial checksum over the IPv4
// pseudo-header used by TCP and UDP.
func (ip *IPv4) pseudoHeaderChecksum(proto IPProtocol, length int) uint32 {
	var sum uint32
	src, dst := as4(ip.SrcIP), as4(ip.DstIP)
	sum += uint32(binary.BigEndian.Uint16(src[0:2])) + uint32(binary.BigEndian.Uint16(src[2:4]))
	sum += uint32(binary.BigEndian.Uint16(dst[0:2])) + uint32(binary.BigEndian.Uint16(dst[2:4]))
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}

// IPv6HeaderLen is the fixed IPv6 header length.
const IPv6HeaderLen = 40

// IPv6 is an IPv6 fixed header.
type IPv6 struct {
	Version      uint8 // always 6 after a successful decode
	TrafficClass uint8
	FlowLabel    uint32 // 20 bits
	Length       uint16 // payload length
	NextHeader   IPProtocol
	HopLimit     uint8
	SrcIP        netip.Addr
	DstIP        netip.Addr

	contents, payload []byte
}

// LayerType returns LayerTypeIPv6.
func (ip *IPv6) LayerType() LayerType { return LayerTypeIPv6 }

// LayerContents returns the 40 header bytes.
func (ip *IPv6) LayerContents() []byte { return ip.contents }

// LayerPayload returns the bytes after the header.
func (ip *IPv6) LayerPayload() []byte { return ip.payload }

// CanDecode returns LayerTypeIPv6.
func (ip *IPv6) CanDecode() LayerType { return LayerTypeIPv6 }

// NextLayerType derives from the NextHeader field.
func (ip *IPv6) NextLayerType() LayerType { return ip.NextHeader.LayerType() }

// DecodeFromBytes parses an IPv6 fixed header.
func (ip *IPv6) DecodeFromBytes(data []byte) error {
	if len(data) < IPv6HeaderLen {
		return errTruncated{IPv6HeaderLen, len(data)}
	}
	ip.Version = data[0] >> 4
	if ip.Version != 6 {
		return fmt.Errorf("IPv6 version = %d", ip.Version)
	}
	v := binary.BigEndian.Uint32(data[0:4])
	ip.TrafficClass = uint8(v >> 20)
	ip.FlowLabel = v & 0xFFFFF
	ip.Length = binary.BigEndian.Uint16(data[4:6])
	ip.NextHeader = IPProtocol(data[6])
	ip.HopLimit = data[7]
	ip.SrcIP = netip.AddrFrom16([16]byte(data[8:24]))
	ip.DstIP = netip.AddrFrom16([16]byte(data[24:40]))
	ip.contents = data[:IPv6HeaderLen]
	end := len(data)
	if tl := IPv6HeaderLen + int(ip.Length); tl < end {
		end = tl
	}
	ip.payload = data[IPv6HeaderLen:end]
	return nil
}

// SerializeTo prepends the IPv6 header.
func (ip *IPv6) SerializeTo(b *SerializeBuffer) error {
	payloadLen := len(b.Bytes())
	bytes, err := b.PrependBytes(IPv6HeaderLen)
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint32(bytes[0:4], 6<<28|uint32(ip.TrafficClass)<<20|ip.FlowLabel&0xFFFFF)
	length := ip.Length
	if b.opts.FixLengths {
		length = uint16(payloadLen)
		ip.Length = length
	}
	binary.BigEndian.PutUint16(bytes[4:6], length)
	bytes[6] = uint8(ip.NextHeader)
	bytes[7] = ip.HopLimit
	src, dst := as16(ip.SrcIP), as16(ip.DstIP)
	copy(bytes[8:24], src[:])
	copy(bytes[24:40], dst[:])
	return nil
}

// as4 is a panic-free As4: the zero Addr (an unset field) serializes as
// 0.0.0.0 rather than crashing the writer.
func as4(a netip.Addr) [4]byte {
	if !a.Is4() && !a.Is4In6() {
		return [4]byte{}
	}
	return a.As4()
}

// as16 is a panic-free As16 for unset fields.
func as16(a netip.Addr) [16]byte {
	if !a.IsValid() {
		return [16]byte{}
	}
	return a.As16()
}

func (ip *IPv6) pseudoHeaderChecksum(proto IPProtocol, length int) uint32 {
	var sum uint32
	src, dst := as16(ip.SrcIP), as16(ip.DstIP)
	for i := 0; i < 16; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(src[i : i+2]))
		sum += uint32(binary.BigEndian.Uint16(dst[i : i+2]))
	}
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}

// IPv6HopByHop is the hop-by-hop options extension header.
type IPv6HopByHop struct {
	NextHeader IPProtocol
	Options    []byte

	contents, payload []byte
}

// LayerType returns LayerTypeIPv6HopByHop.
func (h *IPv6HopByHop) LayerType() LayerType { return LayerTypeIPv6HopByHop }

// LayerContents returns the extension header bytes.
func (h *IPv6HopByHop) LayerContents() []byte { return h.contents }

// LayerPayload returns the bytes after the extension header.
func (h *IPv6HopByHop) LayerPayload() []byte { return h.payload }

// CanDecode returns LayerTypeIPv6HopByHop.
func (h *IPv6HopByHop) CanDecode() LayerType { return LayerTypeIPv6HopByHop }

// NextLayerType derives from the NextHeader field.
func (h *IPv6HopByHop) NextLayerType() LayerType { return h.NextHeader.LayerType() }

// DecodeFromBytes parses the extension header.
func (h *IPv6HopByHop) DecodeFromBytes(data []byte) error {
	if len(data) < 8 {
		return errTruncated{8, len(data)}
	}
	h.NextHeader = IPProtocol(data[0])
	hlen := int(data[1])*8 + 8
	if len(data) < hlen {
		return errTruncated{hlen, len(data)}
	}
	h.Options = data[2:hlen]
	h.contents = data[:hlen]
	h.payload = data[hlen:]
	return nil
}

// SerializeTo prepends the extension header.
func (h *IPv6HopByHop) SerializeTo(b *SerializeBuffer) error {
	hlen := 2 + len(h.Options)
	if hlen%8 != 0 {
		return fmt.Errorf("IPv6 hop-by-hop length %d not a multiple of 8", hlen)
	}
	bytes, err := b.PrependBytes(hlen)
	if err != nil {
		return err
	}
	bytes[0] = uint8(h.NextHeader)
	bytes[1] = uint8(hlen/8 - 1)
	copy(bytes[2:], h.Options)
	return nil
}

// IPv6Fragment is the fragment extension header.
type IPv6Fragment struct {
	NextHeader     IPProtocol
	FragmentOffset uint16 // 13 bits
	MoreFragments  bool
	Identification uint32

	contents, payload []byte
}

// LayerType returns LayerTypeIPv6Fragment.
func (f *IPv6Fragment) LayerType() LayerType { return LayerTypeIPv6Fragment }

// LayerContents returns the 8 header bytes.
func (f *IPv6Fragment) LayerContents() []byte { return f.contents }

// LayerPayload returns the fragment data.
func (f *IPv6Fragment) LayerPayload() []byte { return f.payload }

// CanDecode returns LayerTypeIPv6Fragment.
func (f *IPv6Fragment) CanDecode() LayerType { return LayerTypeIPv6Fragment }

// NextLayerType returns the encapsulated type for first fragments and
// payload for continuations.
func (f *IPv6Fragment) NextLayerType() LayerType {
	if f.FragmentOffset != 0 {
		return LayerTypePayload
	}
	return f.NextHeader.LayerType()
}

// DecodeFromBytes parses the fragment header.
func (f *IPv6Fragment) DecodeFromBytes(data []byte) error {
	if len(data) < 8 {
		return errTruncated{8, len(data)}
	}
	f.NextHeader = IPProtocol(data[0])
	v := binary.BigEndian.Uint16(data[2:4])
	f.FragmentOffset = v >> 3
	f.MoreFragments = v&0x1 != 0
	f.Identification = binary.BigEndian.Uint32(data[4:8])
	f.contents = data[:8]
	f.payload = data[8:]
	return nil
}

// SerializeTo prepends the fragment header.
func (f *IPv6Fragment) SerializeTo(b *SerializeBuffer) error {
	bytes, err := b.PrependBytes(8)
	if err != nil {
		return err
	}
	bytes[0] = uint8(f.NextHeader)
	bytes[1] = 0
	v := f.FragmentOffset << 3
	if f.MoreFragments {
		v |= 1
	}
	binary.BigEndian.PutUint16(bytes[2:4], v)
	binary.BigEndian.PutUint32(bytes[4:8], f.Identification)
	return nil
}
