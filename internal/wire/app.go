package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// DNS is a DNS message header with question names. Patchwork's analysis
// counts DNS as a distinct header above UDP/TCP port 53.
type DNS struct {
	ID      uint16
	QR      bool // response flag
	Opcode  uint8
	QDCount uint16
	ANCount uint16
	NSCount uint16
	ARCount uint16
	// Questions holds up to the first 4 question names, decoded with
	// compression-pointer support.
	Questions []string

	contents, payload []byte
}

const dnsHeaderLen = 12

// LayerType returns LayerTypeDNS.
func (d *DNS) LayerType() LayerType { return LayerTypeDNS }

// LayerContents returns the full message bytes.
func (d *DNS) LayerContents() []byte { return d.contents }

// LayerPayload returns nil; DNS is terminal.
func (d *DNS) LayerPayload() []byte { return d.payload }

// CanDecode returns LayerTypeDNS.
func (d *DNS) CanDecode() LayerType { return LayerTypeDNS }

// NextLayerType returns LayerTypeZero.
func (d *DNS) NextLayerType() LayerType { return LayerTypeZero }

// DecodeFromBytes parses the DNS header and question names.
func (d *DNS) DecodeFromBytes(data []byte) error {
	if len(data) < dnsHeaderLen {
		return errTruncated{dnsHeaderLen, len(data)}
	}
	d.ID = binary.BigEndian.Uint16(data[0:2])
	flags := binary.BigEndian.Uint16(data[2:4])
	d.QR = flags&0x8000 != 0
	d.Opcode = uint8(flags>>11) & 0xF
	d.QDCount = binary.BigEndian.Uint16(data[4:6])
	d.ANCount = binary.BigEndian.Uint16(data[6:8])
	d.NSCount = binary.BigEndian.Uint16(data[8:10])
	d.ARCount = binary.BigEndian.Uint16(data[10:12])
	d.Questions = d.Questions[:0]
	off := dnsHeaderLen
	n := int(d.QDCount)
	if n > 4 {
		n = 4
	}
	for q := 0; q < n; q++ {
		name, next, err := dnsName(data, off)
		if err != nil {
			// Truncated captures commonly clip questions; the header alone
			// still classifies the packet, so keep what we have.
			break
		}
		d.Questions = append(d.Questions, name)
		off = next + 4 // skip QTYPE and QCLASS
		if off > len(data) {
			break
		}
	}
	d.contents = data
	d.payload = nil
	return nil
}

// dnsName decodes a possibly-compressed DNS name starting at off,
// returning the dotted name and the offset just past it.
func dnsName(data []byte, off int) (string, int, error) {
	var sb bytes.Buffer
	end := -1 // offset after the name in the original (non-pointer) stream
	hops := 0
	for {
		if off >= len(data) {
			return "", 0, errTruncated{off + 1, len(data)}
		}
		l := int(data[off])
		switch {
		case l == 0:
			if end < 0 {
				end = off + 1
			}
			return sb.String(), end, nil
		case l&0xC0 == 0xC0:
			if off+1 >= len(data) {
				return "", 0, errTruncated{off + 2, len(data)}
			}
			if end < 0 {
				end = off + 2
			}
			off = (l&0x3F)<<8 | int(data[off+1])
			hops++
			if hops > 16 {
				return "", 0, fmt.Errorf("DNS compression loop")
			}
		case l&0xC0 != 0:
			return "", 0, fmt.Errorf("DNS label with reserved length bits")
		default:
			if off+1+l > len(data) {
				return "", 0, errTruncated{off + 1 + l, len(data)}
			}
			if sb.Len() > 0 {
				sb.WriteByte('.')
			}
			sb.Write(data[off+1 : off+1+l])
			off += 1 + l
		}
	}
}

// SerializeTo prepends a DNS header plus uncompressed question names.
func (d *DNS) SerializeTo(b *SerializeBuffer) error {
	total := dnsHeaderLen
	for _, q := range d.Questions {
		n, err := dnsNameLen(q)
		if err != nil {
			return err
		}
		total += n + 4 // name, QTYPE, QCLASS
	}
	bs, err := b.PrependBytes(total)
	if err != nil {
		return err
	}
	off := dnsHeaderLen
	for _, q := range d.Questions {
		off += putDNSName(bs[off:], q)
		binary.BigEndian.PutUint16(bs[off:], 1)   // QTYPE A
		binary.BigEndian.PutUint16(bs[off+2:], 1) // QCLASS IN
		off += 4
	}
	binary.BigEndian.PutUint16(bs[0:2], d.ID)
	var flags uint16
	if d.QR {
		flags |= 0x8000
	}
	flags |= uint16(d.Opcode&0xF) << 11
	binary.BigEndian.PutUint16(bs[2:4], flags)
	binary.BigEndian.PutUint16(bs[4:6], uint16(len(d.Questions)))
	binary.BigEndian.PutUint16(bs[6:8], d.ANCount)
	binary.BigEndian.PutUint16(bs[8:10], d.NSCount)
	binary.BigEndian.PutUint16(bs[10:12], d.ARCount)
	return nil
}

// dnsNameLen validates name's labels and returns its uncompressed wire
// length: a length byte per label, the labels, and the root byte.
func dnsNameLen(name string) (int, error) {
	if name == "" {
		return 1, nil
	}
	start := 0
	for i := 0; i <= len(name); i++ {
		if i == len(name) || name[i] == '.' {
			if l := i - start; l == 0 || l > 63 {
				return 0, fmt.Errorf("DNS label %q invalid", name[start:i])
			}
			start = i + 1
		}
	}
	return len(name) + 2, nil
}

// putDNSName writes a name dnsNameLen accepted into b and returns the
// bytes written.
func putDNSName(b []byte, name string) int {
	if name == "" {
		b[0] = 0
		return 1
	}
	n, start := 0, 0
	for i := 0; i <= len(name); i++ {
		if i == len(name) || name[i] == '.' {
			b[n] = byte(i - start)
			n += 1 + copy(b[n+1:], name[start:i])
			start = i + 1
		}
	}
	b[n] = 0
	return n + 1
}

// TLSRecordType is the TLS record content type.
type TLSRecordType uint8

// TLS record content types.
const (
	TLSChangeCipherSpec TLSRecordType = 20
	TLSAlert            TLSRecordType = 21
	TLSHandshake        TLSRecordType = 22
	TLSApplicationData  TLSRecordType = 23
)

// TLS is a TLS record header. Only the first record in the payload is
// parsed; that is enough for the analysis pipeline to classify the frame.
type TLS struct {
	RecordType TLSRecordType
	Version    uint16 // 0x0301..0x0304
	Length     uint16

	contents, payload []byte
}

const tlsRecordHeaderLen = 5

// LayerType returns LayerTypeTLS.
func (t *TLS) LayerType() LayerType { return LayerTypeTLS }

// LayerContents returns the record bytes present in the capture.
func (t *TLS) LayerContents() []byte { return t.contents }

// LayerPayload returns nil; record contents are opaque.
func (t *TLS) LayerPayload() []byte { return t.payload }

// CanDecode returns LayerTypeTLS.
func (t *TLS) CanDecode() LayerType { return LayerTypeTLS }

// NextLayerType returns LayerTypeZero.
func (t *TLS) NextLayerType() LayerType { return LayerTypeZero }

// DecodeFromBytes validates and parses a TLS record header.
func (t *TLS) DecodeFromBytes(data []byte) error {
	if len(data) < tlsRecordHeaderLen {
		return errTruncated{tlsRecordHeaderLen, len(data)}
	}
	rt := TLSRecordType(data[0])
	if rt < TLSChangeCipherSpec || rt > TLSApplicationData {
		return fmt.Errorf("TLS record type %d out of range", rt)
	}
	ver := binary.BigEndian.Uint16(data[1:3])
	if ver < 0x0300 || ver > 0x0304 {
		return fmt.Errorf("TLS version 0x%04x out of range", ver)
	}
	t.RecordType = rt
	t.Version = ver
	t.Length = binary.BigEndian.Uint16(data[3:5])
	t.contents = data
	t.payload = nil
	return nil
}

// SerializeTo prepends a TLS record header (header only; payload is
// whatever the buffer already contains).
func (t *TLS) SerializeTo(b *SerializeBuffer) error {
	payloadLen := len(b.Bytes())
	bs, err := b.PrependBytes(tlsRecordHeaderLen)
	if err != nil {
		return err
	}
	bs[0] = uint8(t.RecordType)
	binary.BigEndian.PutUint16(bs[1:3], t.Version)
	length := t.Length
	if b.opts.FixLengths {
		length = uint16(payloadLen)
		t.Length = length
	}
	binary.BigEndian.PutUint16(bs[3:5], length)
	return nil
}

// SSH is an SSH protocol classification layer. The version-exchange banner
// is parsed when present; established-session binary packets are
// classified by port and validated loosely.
type SSH struct {
	// Banner is the "SSH-2.0-..." identification string if the payload
	// starts with one, without the trailing CRLF.
	Banner string

	contents, payload []byte
}

// LayerType returns LayerTypeSSH.
func (s *SSH) LayerType() LayerType { return LayerTypeSSH }

// LayerContents returns the payload bytes.
func (s *SSH) LayerContents() []byte { return s.contents }

// LayerPayload returns nil.
func (s *SSH) LayerPayload() []byte { return s.payload }

// CanDecode returns LayerTypeSSH.
func (s *SSH) CanDecode() LayerType { return LayerTypeSSH }

// NextLayerType returns LayerTypeZero.
func (s *SSH) NextLayerType() LayerType { return LayerTypeZero }

// DecodeFromBytes classifies SSH traffic.
func (s *SSH) DecodeFromBytes(data []byte) error {
	if len(data) == 0 {
		return errTruncated{1, 0}
	}
	s.Banner = ""
	if bytes.HasPrefix(data, []byte("SSH-")) {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line = data[:i]
		}
		s.Banner = string(bytes.TrimRight(line, "\r\n"))
	}
	s.contents = data
	s.payload = nil
	return nil
}

// SerializeTo writes the banner (or nothing for binary-phase packets).
func (s *SSH) SerializeTo(b *SerializeBuffer) error {
	if s.Banner == "" {
		return nil
	}
	line := s.Banner + "\r\n"
	bs, err := b.PrependBytes(len(line))
	if err != nil {
		return err
	}
	copy(bs, line)
	return nil
}

// HTTP classifies plaintext HTTP/1.x traffic by request method or status
// line.
type HTTP struct {
	// IsRequest is true when the payload starts with a known method.
	IsRequest bool
	// Method holds the request method or the "HTTP/1.x" token of a
	// response.
	Method string

	contents, payload []byte
}

var httpMethods = [][]byte{
	[]byte("GET "), []byte("POST "), []byte("PUT "), []byte("HEAD "),
	[]byte("DELETE "), []byte("OPTIONS "), []byte("PATCH "), []byte("CONNECT "),
}

// LayerType returns LayerTypeHTTP.
func (h *HTTP) LayerType() LayerType { return LayerTypeHTTP }

// LayerContents returns the payload bytes.
func (h *HTTP) LayerContents() []byte { return h.contents }

// LayerPayload returns nil.
func (h *HTTP) LayerPayload() []byte { return h.payload }

// CanDecode returns LayerTypeHTTP.
func (h *HTTP) CanDecode() LayerType { return LayerTypeHTTP }

// NextLayerType returns LayerTypeZero.
func (h *HTTP) NextLayerType() LayerType { return LayerTypeZero }

// DecodeFromBytes classifies the payload as HTTP request, response, or
// continuation data on a port-80 stream.
func (h *HTTP) DecodeFromBytes(data []byte) error {
	if len(data) == 0 {
		return errTruncated{1, 0}
	}
	h.IsRequest = false
	h.Method = ""
	for _, m := range httpMethods {
		if bytes.HasPrefix(data, m) {
			h.IsRequest = true
			h.Method = string(bytes.TrimSpace(m))
			break
		}
	}
	if !h.IsRequest && bytes.HasPrefix(data, []byte("HTTP/1.")) {
		h.Method = string(data[:8])
	}
	h.contents = data
	h.payload = nil
	return nil
}

// SerializeTo is a no-op placeholder: HTTP content is generated by the
// traffic generator as opaque payload.
func (h *HTTP) SerializeTo(b *SerializeBuffer) error { return nil }

// NTP is an NTP header (RFC 5905), 48 bytes.
type NTP struct {
	LeapIndicator uint8
	Version       uint8
	Mode          uint8
	Stratum       uint8

	contents, payload []byte
}

const ntpHeaderLen = 48

// LayerType returns LayerTypeNTP.
func (n *NTP) LayerType() LayerType { return LayerTypeNTP }

// LayerContents returns the 48 header bytes.
func (n *NTP) LayerContents() []byte { return n.contents }

// LayerPayload returns bytes after the header (extensions, usually none).
func (n *NTP) LayerPayload() []byte { return n.payload }

// CanDecode returns LayerTypeNTP.
func (n *NTP) CanDecode() LayerType { return LayerTypeNTP }

// NextLayerType returns LayerTypeZero.
func (n *NTP) NextLayerType() LayerType { return LayerTypeZero }

// DecodeFromBytes parses the first NTP header byte and stratum.
func (n *NTP) DecodeFromBytes(data []byte) error {
	if len(data) < ntpHeaderLen {
		return errTruncated{ntpHeaderLen, len(data)}
	}
	n.LeapIndicator = data[0] >> 6
	n.Version = (data[0] >> 3) & 0x7
	n.Mode = data[0] & 0x7
	if n.Version < 1 || n.Version > 4 {
		return fmt.Errorf("NTP version %d out of range", n.Version)
	}
	n.Stratum = data[1]
	n.contents = data[:ntpHeaderLen]
	n.payload = data[ntpHeaderLen:]
	return nil
}

// SerializeTo prepends a zero-filled NTP header with the mode byte set.
func (n *NTP) SerializeTo(b *SerializeBuffer) error {
	bs, err := b.PrependBytes(ntpHeaderLen)
	if err != nil {
		return err
	}
	for i := range bs {
		bs[i] = 0
	}
	bs[0] = n.LeapIndicator<<6 | (n.Version&0x7)<<3 | n.Mode&0x7
	bs[1] = n.Stratum
	return nil
}
