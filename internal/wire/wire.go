// Package wire implements packet decoding and serialization for the
// protocol stacks observed on FABRIC's network: Ethernet, 802.1Q VLAN,
// MPLS, Ethernet pseudowires, IPv4/IPv6, TCP/UDP/ICMP/ARP, and the
// application protocols the Patchwork analysis pipeline classifies (DNS,
// TLS, SSH, HTTP, NTP). Its API follows the layering idiom popularized by
// gopacket — Layer, Packet, DecodingLayerParser, SerializeBuffer — but is
// implemented from scratch on the standard library alone.
//
// Two decode paths are provided:
//
//   - NewPacket: allocates a Packet holding a []Layer, supporting lazy and
//     no-copy decoding. Versatile; used by the offline analysis pipeline.
//   - DecodingLayerParser: decodes into caller-owned layer structs with no
//     allocation. The decode ablation's comparator (DESIGN §4).
package wire

import (
	"fmt"
)

// LayerType identifies a protocol layer. The zero value is invalid.
type LayerType int

// Layer types known to this package.
const (
	LayerTypeZero LayerType = iota
	LayerTypeEthernet
	LayerTypeDot1Q
	LayerTypeMPLS
	LayerTypePWControlWord
	LayerTypeIPv4
	LayerTypeIPv6
	LayerTypeIPv6HopByHop
	LayerTypeIPv6Fragment
	LayerTypeTCP
	LayerTypeUDP
	LayerTypeICMPv4
	LayerTypeICMPv6
	LayerTypeARP
	LayerTypeDNS
	LayerTypeTLS
	LayerTypeSSH
	LayerTypeHTTP
	LayerTypeNTP
	LayerTypeVXLAN
	LayerTypeGRE
	LayerTypePayload
	LayerTypeDecodeFailure
	layerTypeMax // sentinel; keep last
)

// LayerTypeCount is the number of layer-type values (including the zero
// value); valid types are in [1, LayerTypeCount). Useful for sizing
// per-type arrays outside this package.
const LayerTypeCount = int(layerTypeMax)

var layerTypeNames = [...]string{
	LayerTypeZero:          "Zero",
	LayerTypeEthernet:      "Ethernet",
	LayerTypeDot1Q:         "Dot1Q",
	LayerTypeMPLS:          "MPLS",
	LayerTypePWControlWord: "PWControlWord",
	LayerTypeIPv4:          "IPv4",
	LayerTypeIPv6:          "IPv6",
	LayerTypeIPv6HopByHop:  "IPv6HopByHop",
	LayerTypeIPv6Fragment:  "IPv6Fragment",
	LayerTypeTCP:           "TCP",
	LayerTypeUDP:           "UDP",
	LayerTypeICMPv4:        "ICMPv4",
	LayerTypeICMPv6:        "ICMPv6",
	LayerTypeARP:           "ARP",
	LayerTypeDNS:           "DNS",
	LayerTypeTLS:           "TLS",
	LayerTypeSSH:           "SSH",
	LayerTypeHTTP:          "HTTP",
	LayerTypeNTP:           "NTP",
	LayerTypeVXLAN:         "VXLAN",
	LayerTypeGRE:           "GRE",
	LayerTypePayload:       "Payload",
	LayerTypeDecodeFailure: "DecodeFailure",
}

// String returns the layer type's protocol name.
func (t LayerType) String() string {
	if t > 0 && int(t) < len(layerTypeNames) {
		return layerTypeNames[t]
	}
	return fmt.Sprintf("LayerType(%d)", int(t))
}

// Layer is one decoded protocol layer within a packet.
type Layer interface {
	// LayerType identifies the protocol of this layer.
	LayerType() LayerType
	// LayerContents returns the bytes that make up this layer's header.
	LayerContents() []byte
	// LayerPayload returns the bytes this layer carries (everything after
	// the header).
	LayerPayload() []byte
}

// DecodingLayer is a Layer that can decode itself from bytes, for use with
// DecodingLayerParser and the Packet decoder. Implementations overwrite
// their fields on each DecodeFromBytes call.
type DecodingLayer interface {
	Layer
	// DecodeFromBytes parses data into the receiver. The receiver keeps
	// references into data; callers must not mutate it while the layer is
	// in use.
	DecodeFromBytes(data []byte) error
	// CanDecode reports the layer type this decoder handles.
	CanDecode() LayerType
	// NextLayerType reports the type of the layer encapsulated by this
	// one, or LayerTypePayload/LayerTypeZero when unknown or absent.
	NextLayerType() LayerType
}

// DecodeError describes a failure to decode a layer. The successfully
// decoded layers preceding the failure remain available on the Packet.
type DecodeError struct {
	Layer LayerType // the layer being decoded when the failure occurred
	Err   error
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("wire: decoding %v: %v", e.Layer, e.Err)
}

func (e *DecodeError) Unwrap() error { return e.Err }

// errTruncated is the common cause for decode errors on short frames
// (frequent in Patchwork captures because frames are truncated to the
// configured snap length).
type errTruncated struct {
	want, have int
}

func (e errTruncated) Error() string {
	return fmt.Sprintf("truncated: need %d bytes, have %d", e.want, e.have)
}

// IsTruncated reports whether err is (or wraps) a truncation error. The
// analysis pipeline uses this to distinguish snap-length artifacts from
// malformed traffic.
func IsTruncated(err error) bool {
	for err != nil {
		if _, ok := err.(errTruncated); ok {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// newDecoder returns a fresh DecodingLayer for the given type, or nil if
// the type has no registered decoder.
func newDecoder(t LayerType) DecodingLayer {
	switch t {
	case LayerTypeEthernet:
		return &Ethernet{}
	case LayerTypeDot1Q:
		return &Dot1Q{}
	case LayerTypeMPLS:
		return &MPLS{}
	case LayerTypePWControlWord:
		return &PWControlWord{}
	case LayerTypeIPv4:
		return &IPv4{}
	case LayerTypeIPv6:
		return &IPv6{}
	case LayerTypeIPv6HopByHop:
		return &IPv6HopByHop{}
	case LayerTypeIPv6Fragment:
		return &IPv6Fragment{}
	case LayerTypeTCP:
		return &TCP{}
	case LayerTypeUDP:
		return &UDP{}
	case LayerTypeICMPv4:
		return &ICMPv4{}
	case LayerTypeICMPv6:
		return &ICMPv6{}
	case LayerTypeARP:
		return &ARP{}
	case LayerTypeDNS:
		return &DNS{}
	case LayerTypeTLS:
		return &TLS{}
	case LayerTypeSSH:
		return &SSH{}
	case LayerTypeHTTP:
		return &HTTP{}
	case LayerTypeNTP:
		return &NTP{}
	case LayerTypeVXLAN:
		return &VXLAN{}
	case LayerTypeGRE:
		return &GRE{}
	case LayerTypePayload:
		p := Payload{}
		return &p
	default:
		return nil
	}
}

// Payload is a terminal layer holding unclassified bytes.
type Payload []byte

// LayerType returns LayerTypePayload.
func (p *Payload) LayerType() LayerType { return LayerTypePayload }

// LayerContents returns the payload bytes.
func (p *Payload) LayerContents() []byte { return *p }

// LayerPayload returns nil; Payload is terminal.
func (p *Payload) LayerPayload() []byte { return nil }

// DecodeFromBytes stores data as the payload.
func (p *Payload) DecodeFromBytes(data []byte) error {
	*p = data
	return nil
}

// CanDecode returns LayerTypePayload.
func (p *Payload) CanDecode() LayerType { return LayerTypePayload }

// NextLayerType returns LayerTypeZero; Payload is terminal.
func (p *Payload) NextLayerType() LayerType { return LayerTypeZero }

// SerializeTo appends the payload bytes.
func (p *Payload) SerializeTo(b *SerializeBuffer) error {
	bytes, err := b.PrependBytes(len(*p))
	if err != nil {
		return err
	}
	copy(bytes, *p)
	return nil
}
