package wire

import (
	"encoding/binary"
	"fmt"
)

// EthernetType is an Ethernet II frame's EtherType field.
type EthernetType uint16

// EtherTypes used on FABRIC.
const (
	EthernetTypeIPv4        EthernetType = 0x0800
	EthernetTypeARP         EthernetType = 0x0806
	EthernetTypeDot1Q       EthernetType = 0x8100
	EthernetTypeIPv6        EthernetType = 0x86DD
	EthernetTypeMPLSUnicast EthernetType = 0x8847
	EthernetTypeQinQ        EthernetType = 0x88A8
)

// LayerType maps the EtherType to the wire layer type that decodes it.
func (t EthernetType) LayerType() LayerType {
	switch t {
	case EthernetTypeIPv4:
		return LayerTypeIPv4
	case EthernetTypeARP:
		return LayerTypeARP
	case EthernetTypeDot1Q, EthernetTypeQinQ:
		return LayerTypeDot1Q
	case EthernetTypeIPv6:
		return LayerTypeIPv6
	case EthernetTypeMPLSUnicast:
		return LayerTypeMPLS
	default:
		return LayerTypePayload
	}
}

// String names well-known EtherTypes.
func (t EthernetType) String() string {
	switch t {
	case EthernetTypeIPv4:
		return "IPv4"
	case EthernetTypeARP:
		return "ARP"
	case EthernetTypeDot1Q:
		return "802.1Q"
	case EthernetTypeQinQ:
		return "QinQ"
	case EthernetTypeIPv6:
		return "IPv6"
	case EthernetTypeMPLSUnicast:
		return "MPLS"
	default:
		return fmt.Sprintf("EtherType(0x%04x)", uint16(t))
	}
}

// MAC is a 6-byte Ethernet hardware address.
type MAC [6]byte

// String renders the conventional colon-separated form.
func (m MAC) String() string {
	var buf [17]byte
	return string(appendMAC(buf[:0], m))
}

// appendMAC appends m as six colon-separated lowercase hex pairs.
func appendMAC(b []byte, m MAC) []byte {
	const hex = "0123456789abcdef"
	for i, x := range m {
		if i > 0 {
			b = append(b, ':')
		}
		b = append(b, hex[x>>4], hex[x&0xf])
	}
	return b
}

// EthernetHeaderLen is the length of an Ethernet II header (no FCS).
const EthernetHeaderLen = 14

// EthernetMinFrame and EthernetJumboMax bound valid frame sizes on FABRIC;
// the testbed's switches are configured for jumbo frames throughout.
const (
	EthernetMinFrame = 64
	EthernetJumboMax = 9216
)

// Ethernet is an Ethernet II frame header.
type Ethernet struct {
	DstMAC, SrcMAC MAC
	EthernetType   EthernetType

	contents, payload []byte
}

// LayerType returns LayerTypeEthernet.
func (e *Ethernet) LayerType() LayerType { return LayerTypeEthernet }

// LayerContents returns the 14 header bytes.
func (e *Ethernet) LayerContents() []byte { return e.contents }

// LayerPayload returns the bytes after the header.
func (e *Ethernet) LayerPayload() []byte { return e.payload }

// CanDecode returns LayerTypeEthernet.
func (e *Ethernet) CanDecode() LayerType { return LayerTypeEthernet }

// NextLayerType is derived from the EtherType.
func (e *Ethernet) NextLayerType() LayerType { return e.EthernetType.LayerType() }

// DecodeFromBytes parses an Ethernet II header.
func (e *Ethernet) DecodeFromBytes(data []byte) error {
	if len(data) < EthernetHeaderLen {
		return errTruncated{EthernetHeaderLen, len(data)}
	}
	copy(e.DstMAC[:], data[0:6])
	copy(e.SrcMAC[:], data[6:12])
	e.EthernetType = EthernetType(binary.BigEndian.Uint16(data[12:14]))
	e.contents = data[:EthernetHeaderLen]
	e.payload = data[EthernetHeaderLen:]
	return nil
}

// SerializeTo prepends the Ethernet header.
func (e *Ethernet) SerializeTo(b *SerializeBuffer) error {
	bytes, err := b.PrependBytes(EthernetHeaderLen)
	if err != nil {
		return err
	}
	copy(bytes[0:6], e.DstMAC[:])
	copy(bytes[6:12], e.SrcMAC[:])
	binary.BigEndian.PutUint16(bytes[12:14], uint16(e.EthernetType))
	return nil
}

// Dot1Q is an IEEE 802.1Q VLAN tag. FABRIC's underlay tags slices' traffic
// with VLANs, so these appear on nearly every mirrored frame.
type Dot1Q struct {
	Priority     uint8 // PCP, 3 bits
	DropEligible bool  // DEI
	VLANID       uint16
	EthernetType EthernetType

	contents, payload []byte
}

// Dot1QHeaderLen is the 802.1Q tag length after the EtherType that
// announced it.
const Dot1QHeaderLen = 4

// LayerType returns LayerTypeDot1Q.
func (d *Dot1Q) LayerType() LayerType { return LayerTypeDot1Q }

// LayerContents returns the 4 tag bytes.
func (d *Dot1Q) LayerContents() []byte { return d.contents }

// LayerPayload returns the bytes after the tag.
func (d *Dot1Q) LayerPayload() []byte { return d.payload }

// CanDecode returns LayerTypeDot1Q.
func (d *Dot1Q) CanDecode() LayerType { return LayerTypeDot1Q }

// NextLayerType is derived from the inner EtherType.
func (d *Dot1Q) NextLayerType() LayerType { return d.EthernetType.LayerType() }

// DecodeFromBytes parses a VLAN tag.
func (d *Dot1Q) DecodeFromBytes(data []byte) error {
	if len(data) < Dot1QHeaderLen {
		return errTruncated{Dot1QHeaderLen, len(data)}
	}
	tci := binary.BigEndian.Uint16(data[0:2])
	d.Priority = uint8(tci >> 13)
	d.DropEligible = tci&0x1000 != 0
	d.VLANID = tci & 0x0FFF
	d.EthernetType = EthernetType(binary.BigEndian.Uint16(data[2:4]))
	d.contents = data[:Dot1QHeaderLen]
	d.payload = data[Dot1QHeaderLen:]
	return nil
}

// SerializeTo prepends the VLAN tag.
func (d *Dot1Q) SerializeTo(b *SerializeBuffer) error {
	bytes, err := b.PrependBytes(Dot1QHeaderLen)
	if err != nil {
		return err
	}
	tci := uint16(d.Priority)<<13 | d.VLANID&0x0FFF
	if d.DropEligible {
		tci |= 0x1000
	}
	binary.BigEndian.PutUint16(bytes[0:2], tci)
	binary.BigEndian.PutUint16(bytes[2:4], uint16(d.EthernetType))
	return nil
}

// MPLS is one entry of an MPLS label stack. FABRIC's inter-site underlay
// encapsulates slice traffic in one or more MPLS labels, often terminating
// in an Ethernet pseudowire.
type MPLS struct {
	Label        uint32 // 20 bits
	TrafficClass uint8  // 3 bits
	StackBottom  bool   // S bit
	TTL          uint8

	contents, payload []byte
}

// MPLSHeaderLen is the length of one label-stack entry.
const MPLSHeaderLen = 4

// LayerType returns LayerTypeMPLS.
func (m *MPLS) LayerType() LayerType { return LayerTypeMPLS }

// LayerContents returns the 4 label bytes.
func (m *MPLS) LayerContents() []byte { return m.contents }

// LayerPayload returns the bytes after this label entry.
func (m *MPLS) LayerPayload() []byte { return m.payload }

// CanDecode returns LayerTypeMPLS.
func (m *MPLS) CanDecode() LayerType { return LayerTypeMPLS }

// NextLayerType uses the S bit and the standard first-nibble heuristic:
// below the bottom of stack, 0x4 means IPv4, 0x6 means IPv6, and 0x0 is a
// pseudowire control word (Ethernet over MPLS).
func (m *MPLS) NextLayerType() LayerType {
	if !m.StackBottom {
		return LayerTypeMPLS
	}
	if len(m.payload) == 0 {
		return LayerTypeZero
	}
	switch m.payload[0] >> 4 {
	case 4:
		return LayerTypeIPv4
	case 6:
		return LayerTypeIPv6
	case 0:
		return LayerTypePWControlWord
	default:
		return LayerTypePayload
	}
}

// DecodeFromBytes parses one label-stack entry.
func (m *MPLS) DecodeFromBytes(data []byte) error {
	if len(data) < MPLSHeaderLen {
		return errTruncated{MPLSHeaderLen, len(data)}
	}
	v := binary.BigEndian.Uint32(data[0:4])
	m.Label = v >> 12
	m.TrafficClass = uint8(v>>9) & 0x7
	m.StackBottom = v&0x100 != 0
	m.TTL = uint8(v)
	m.contents = data[:MPLSHeaderLen]
	m.payload = data[MPLSHeaderLen:]
	return nil
}

// SerializeTo prepends the label entry.
func (m *MPLS) SerializeTo(b *SerializeBuffer) error {
	bytes, err := b.PrependBytes(MPLSHeaderLen)
	if err != nil {
		return err
	}
	v := m.Label<<12 | uint32(m.TrafficClass&0x7)<<9 | uint32(m.TTL)
	if m.StackBottom {
		v |= 0x100
	}
	binary.BigEndian.PutUint32(bytes[0:4], v)
	return nil
}

// PWControlWord is the 4-byte Ethernet pseudowire control word (RFC 4448)
// that sits between the MPLS bottom-of-stack label and the encapsulated
// Ethernet frame. Its first nibble is zero, which is how MPLS decoding
// distinguishes it from an IP packet.
type PWControlWord struct {
	Flags          uint8  // 4 bits after the zero nibble
	FragmentBits   uint8  // 2 bits
	Length         uint8  // 6 bits
	SequenceNumber uint16 // 16 bits

	contents, payload []byte
}

// PWControlWordLen is the control word's length.
const PWControlWordLen = 4

// LayerType returns LayerTypePWControlWord.
func (p *PWControlWord) LayerType() LayerType { return LayerTypePWControlWord }

// LayerContents returns the 4 control-word bytes.
func (p *PWControlWord) LayerContents() []byte { return p.contents }

// LayerPayload returns the encapsulated frame bytes.
func (p *PWControlWord) LayerPayload() []byte { return p.payload }

// CanDecode returns LayerTypePWControlWord.
func (p *PWControlWord) CanDecode() LayerType { return LayerTypePWControlWord }

// NextLayerType returns LayerTypeEthernet: an Ethernet pseudowire always
// carries an Ethernet frame.
func (p *PWControlWord) NextLayerType() LayerType { return LayerTypeEthernet }

// DecodeFromBytes parses the control word. A non-zero first nibble is an
// error: that would be an IP packet, not a control word.
func (p *PWControlWord) DecodeFromBytes(data []byte) error {
	if len(data) < PWControlWordLen {
		return errTruncated{PWControlWordLen, len(data)}
	}
	if data[0]>>4 != 0 {
		return fmt.Errorf("pseudowire control word first nibble = %d, want 0", data[0]>>4)
	}
	p.Flags = data[0] & 0x0F
	p.FragmentBits = data[1] >> 6
	p.Length = data[1] & 0x3F
	p.SequenceNumber = binary.BigEndian.Uint16(data[2:4])
	p.contents = data[:PWControlWordLen]
	p.payload = data[PWControlWordLen:]
	return nil
}

// SerializeTo prepends the control word.
func (p *PWControlWord) SerializeTo(b *SerializeBuffer) error {
	bytes, err := b.PrependBytes(PWControlWordLen)
	if err != nil {
		return err
	}
	bytes[0] = p.Flags & 0x0F
	bytes[1] = p.FragmentBits<<6 | p.Length&0x3F
	binary.BigEndian.PutUint16(bytes[2:4], p.SequenceNumber)
	return nil
}

// VXLAN is a VXLAN encapsulation header (RFC 7348); some FABRIC
// experiments build overlay networks with it.
type VXLAN struct {
	ValidIDFlag bool
	VNI         uint32 // 24 bits

	contents, payload []byte
}

// VXLANHeaderLen is the VXLAN header length.
const VXLANHeaderLen = 8

// LayerType returns LayerTypeVXLAN.
func (v *VXLAN) LayerType() LayerType { return LayerTypeVXLAN }

// LayerContents returns the 8 header bytes.
func (v *VXLAN) LayerContents() []byte { return v.contents }

// LayerPayload returns the encapsulated frame.
func (v *VXLAN) LayerPayload() []byte { return v.payload }

// CanDecode returns LayerTypeVXLAN.
func (v *VXLAN) CanDecode() LayerType { return LayerTypeVXLAN }

// NextLayerType returns LayerTypeEthernet.
func (v *VXLAN) NextLayerType() LayerType { return LayerTypeEthernet }

// DecodeFromBytes parses the VXLAN header.
func (v *VXLAN) DecodeFromBytes(data []byte) error {
	if len(data) < VXLANHeaderLen {
		return errTruncated{VXLANHeaderLen, len(data)}
	}
	v.ValidIDFlag = data[0]&0x08 != 0
	v.VNI = binary.BigEndian.Uint32(data[4:8]) >> 8
	v.contents = data[:VXLANHeaderLen]
	v.payload = data[VXLANHeaderLen:]
	return nil
}

// SerializeTo prepends the VXLAN header.
func (v *VXLAN) SerializeTo(b *SerializeBuffer) error {
	bytes, err := b.PrependBytes(VXLANHeaderLen)
	if err != nil {
		return err
	}
	for i := range bytes {
		bytes[i] = 0
	}
	if v.ValidIDFlag {
		bytes[0] = 0x08
	}
	binary.BigEndian.PutUint32(bytes[4:8], v.VNI<<8)
	return nil
}

// GRE is a minimal GRE header (RFC 2784, no optional fields).
type GRE struct {
	Protocol EthernetType

	contents, payload []byte
}

// GREHeaderLen is the base GRE header length.
const GREHeaderLen = 4

// LayerType returns LayerTypeGRE.
func (g *GRE) LayerType() LayerType { return LayerTypeGRE }

// LayerContents returns the header bytes.
func (g *GRE) LayerContents() []byte { return g.contents }

// LayerPayload returns the encapsulated packet.
func (g *GRE) LayerPayload() []byte { return g.payload }

// CanDecode returns LayerTypeGRE.
func (g *GRE) CanDecode() LayerType { return LayerTypeGRE }

// NextLayerType derives from the GRE protocol field.
func (g *GRE) NextLayerType() LayerType { return g.Protocol.LayerType() }

// DecodeFromBytes parses a base GRE header. Headers with optional fields
// (checksum/key/sequence bits) are rejected as unsupported.
func (g *GRE) DecodeFromBytes(data []byte) error {
	if len(data) < GREHeaderLen {
		return errTruncated{GREHeaderLen, len(data)}
	}
	if data[0]&0xB0 != 0 {
		return fmt.Errorf("GRE optional fields unsupported (flags 0x%02x)", data[0])
	}
	g.Protocol = EthernetType(binary.BigEndian.Uint16(data[2:4]))
	g.contents = data[:GREHeaderLen]
	g.payload = data[GREHeaderLen:]
	return nil
}

// SerializeTo prepends the GRE header.
func (g *GRE) SerializeTo(b *SerializeBuffer) error {
	bytes, err := b.PrependBytes(GREHeaderLen)
	if err != nil {
		return err
	}
	bytes[0], bytes[1] = 0, 0
	binary.BigEndian.PutUint16(bytes[2:4], uint16(g.Protocol))
	return nil
}
