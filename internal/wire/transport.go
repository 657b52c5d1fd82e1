package wire

import (
	"encoding/binary"
	"fmt"
)

// internetChecksum computes the RFC 1071 Internet checksum over data,
// folding in an initial partial sum (for pseudo-headers).
func internetChecksum(data []byte, initial uint32) uint16 {
	sum := initial
	for len(data) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(data[:2]))
		data = data[2:]
	}
	if len(data) == 1 {
		sum += uint32(data[0]) << 8
	}
	for sum > 0xFFFF {
		sum = sum>>16 + sum&0xFFFF
	}
	return ^uint16(sum)
}

// wellKnownTCP maps TCP ports to application layer types. tshark-style
// port classification: the Patchwork analysis pipeline counts these as
// distinct headers above TCP (Section 8.2 of the paper).
func wellKnownTCP(src, dst uint16) LayerType {
	for _, p := range [2]uint16{dst, src} {
		switch p {
		case 22:
			return LayerTypeSSH
		case 53:
			return LayerTypeDNS
		case 80, 8080:
			return LayerTypeHTTP
		case 443, 8443:
			return LayerTypeTLS
		}
	}
	return LayerTypePayload
}

// wellKnownUDP maps UDP ports to application layer types.
func wellKnownUDP(src, dst uint16) LayerType {
	for _, p := range [2]uint16{dst, src} {
		switch p {
		case 53:
			return LayerTypeDNS
		case 123:
			return LayerTypeNTP
		case 443:
			return LayerTypeTLS // QUIC-over-443 classified as TLS by port
		case 4789:
			return LayerTypeVXLAN
		}
	}
	return LayerTypePayload
}

// TCPHeaderLen is the minimum TCP header length (no options).
const TCPHeaderLen = 20

// TCPFlags is the 9-bit TCP flag field (we keep the common low 8).
type TCPFlags uint8

// TCP flag bits.
const (
	TCPFin TCPFlags = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
	TCPUrg
	TCPEce
	TCPCwr
)

// String renders set flags, e.g. "SYN|ACK".
func (f TCPFlags) String() string {
	names := []struct {
		bit  TCPFlags
		name string
	}{
		{TCPFin, "FIN"}, {TCPSyn, "SYN"}, {TCPRst, "RST"}, {TCPPsh, "PSH"},
		{TCPAck, "ACK"}, {TCPUrg, "URG"}, {TCPEce, "ECE"}, {TCPCwr, "CWR"},
	}
	s := ""
	for _, n := range names {
		if f&n.bit != 0 {
			if s != "" {
				s += "|"
			}
			s += n.name
		}
	}
	if s == "" {
		return "none"
	}
	return s
}

// TCP is a TCP segment header.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	DataOffset       uint8 // header length in 32-bit words
	Flags            TCPFlags
	Window           uint16
	Checksum         uint16
	Urgent           uint16
	Options          []byte

	contents, payload []byte
}

// LayerType returns LayerTypeTCP.
func (t *TCP) LayerType() LayerType { return LayerTypeTCP }

// LayerContents returns the header bytes including options.
func (t *TCP) LayerContents() []byte { return t.contents }

// LayerPayload returns the segment payload.
func (t *TCP) LayerPayload() []byte { return t.payload }

// CanDecode returns LayerTypeTCP.
func (t *TCP) CanDecode() LayerType { return LayerTypeTCP }

// NextLayerType classifies the payload by well-known port, returning
// LayerTypeZero for empty payloads (e.g. pure ACKs).
func (t *TCP) NextLayerType() LayerType {
	if len(t.payload) == 0 {
		return LayerTypeZero
	}
	return wellKnownTCP(t.SrcPort, t.DstPort)
}

// DecodeFromBytes parses a TCP header.
func (t *TCP) DecodeFromBytes(data []byte) error {
	if len(data) < TCPHeaderLen {
		return errTruncated{TCPHeaderLen, len(data)}
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	t.DataOffset = data[12] >> 4
	hlen := int(t.DataOffset) * 4
	if hlen < TCPHeaderLen {
		return fmt.Errorf("TCP data offset = %d words, below minimum", t.DataOffset)
	}
	if len(data) < hlen {
		return errTruncated{hlen, len(data)}
	}
	t.Flags = TCPFlags(data[13])
	t.Window = binary.BigEndian.Uint16(data[14:16])
	t.Checksum = binary.BigEndian.Uint16(data[16:18])
	t.Urgent = binary.BigEndian.Uint16(data[18:20])
	t.Options = data[TCPHeaderLen:hlen]
	t.contents = data[:hlen]
	t.payload = data[hlen:]
	return nil
}

// SerializeTo prepends the TCP header. Checksum computation requires a
// network layer to have been provided via SetNetworkLayerForChecksum.
func (t *TCP) SerializeTo(b *SerializeBuffer) error {
	if len(t.Options)%4 != 0 {
		return fmt.Errorf("TCP options length %d not a multiple of 4", len(t.Options))
	}
	hlen := TCPHeaderLen + len(t.Options)
	payloadLen := len(b.Bytes())
	bytes, err := b.PrependBytes(hlen)
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint16(bytes[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(bytes[2:4], t.DstPort)
	binary.BigEndian.PutUint32(bytes[4:8], t.Seq)
	binary.BigEndian.PutUint32(bytes[8:12], t.Ack)
	if b.opts.FixLengths {
		t.DataOffset = uint8(hlen / 4)
	}
	bytes[12] = t.DataOffset << 4
	bytes[13] = uint8(t.Flags)
	binary.BigEndian.PutUint16(bytes[14:16], t.Window)
	binary.BigEndian.PutUint16(bytes[18:20], t.Urgent)
	copy(bytes[20:], t.Options)
	binary.BigEndian.PutUint16(bytes[16:18], 0)
	if b.opts.ComputeChecksums && b.netForChecksum != nil {
		sum := b.netForChecksum.pseudoHeaderChecksum(IPProtocolTCP, hlen+payloadLen)
		t.Checksum = internetChecksum(bytes[:hlen+payloadLen], sum)
	}
	binary.BigEndian.PutUint16(bytes[16:18], t.Checksum)
	return nil
}

// UDPHeaderLen is the UDP header length.
const UDPHeaderLen = 8

// UDP is a UDP datagram header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16

	contents, payload []byte
}

// LayerType returns LayerTypeUDP.
func (u *UDP) LayerType() LayerType { return LayerTypeUDP }

// LayerContents returns the 8 header bytes.
func (u *UDP) LayerContents() []byte { return u.contents }

// LayerPayload returns the datagram payload.
func (u *UDP) LayerPayload() []byte { return u.payload }

// CanDecode returns LayerTypeUDP.
func (u *UDP) CanDecode() LayerType { return LayerTypeUDP }

// NextLayerType classifies the payload by well-known port.
func (u *UDP) NextLayerType() LayerType {
	if len(u.payload) == 0 {
		return LayerTypeZero
	}
	return wellKnownUDP(u.SrcPort, u.DstPort)
}

// DecodeFromBytes parses a UDP header.
func (u *UDP) DecodeFromBytes(data []byte) error {
	if len(data) < UDPHeaderLen {
		return errTruncated{UDPHeaderLen, len(data)}
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	u.Length = binary.BigEndian.Uint16(data[4:6])
	u.Checksum = binary.BigEndian.Uint16(data[6:8])
	u.contents = data[:UDPHeaderLen]
	end := len(data)
	if l := int(u.Length); l >= UDPHeaderLen && l < end {
		end = l
	}
	u.payload = data[UDPHeaderLen:end]
	return nil
}

// SerializeTo prepends the UDP header.
func (u *UDP) SerializeTo(b *SerializeBuffer) error {
	payloadLen := len(b.Bytes())
	bytes, err := b.PrependBytes(UDPHeaderLen)
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint16(bytes[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(bytes[2:4], u.DstPort)
	if b.opts.FixLengths {
		u.Length = uint16(UDPHeaderLen + payloadLen)
	}
	binary.BigEndian.PutUint16(bytes[4:6], u.Length)
	binary.BigEndian.PutUint16(bytes[6:8], 0)
	if b.opts.ComputeChecksums && b.netForChecksum != nil {
		sum := b.netForChecksum.pseudoHeaderChecksum(IPProtocolUDP, UDPHeaderLen+payloadLen)
		u.Checksum = internetChecksum(bytes[:UDPHeaderLen+payloadLen], sum)
	}
	binary.BigEndian.PutUint16(bytes[6:8], u.Checksum)
	return nil
}
