package wire

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"
)

var (
	testSrcMAC = MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x01}
	testDstMAC = MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x02}
	testSrcIP4 = netip.MustParseAddr("10.0.1.1")
	testDstIP4 = netip.MustParseAddr("10.0.2.2")
	testSrcIP6 = netip.MustParseAddr("2001:db8::1")
	testDstIP6 = netip.MustParseAddr("2001:db8::2")
)

// buildFrame serializes layers with fixed lengths and checksums.
func buildFrame(t testing.TB, layers ...SerializableLayer) []byte {
	t.Helper()
	buf := NewSerializeBuffer()
	opts := SerializeOptions{FixLengths: true, ComputeChecksums: true}
	if err := SerializeLayers(buf, opts, layers...); err != nil {
		t.Fatalf("SerializeLayers: %v", err)
	}
	out := make([]byte, len(buf.Bytes()))
	copy(out, buf.Bytes())
	return out
}

func TestEthernetRoundTrip(t *testing.T) {
	pay := Payload([]byte("hello"))
	data := buildFrame(t,
		&Ethernet{DstMAC: testDstMAC, SrcMAC: testSrcMAC, EthernetType: EthernetTypeIPv4},
		&pay)
	var eth Ethernet
	if err := eth.DecodeFromBytes(data); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if eth.DstMAC != testDstMAC || eth.SrcMAC != testSrcMAC {
		t.Errorf("MACs = %v/%v", eth.DstMAC, eth.SrcMAC)
	}
	if eth.EthernetType != EthernetTypeIPv4 {
		t.Errorf("EtherType = %v", eth.EthernetType)
	}
	if string(eth.LayerPayload()) != "hello" {
		t.Errorf("payload = %q", eth.LayerPayload())
	}
	if eth.NextLayerType() != LayerTypeIPv4 {
		t.Errorf("next = %v", eth.NextLayerType())
	}
}

func TestEthernetTruncated(t *testing.T) {
	var eth Ethernet
	err := eth.DecodeFromBytes(make([]byte, 13))
	if err == nil || !IsTruncated(err) {
		t.Errorf("13-byte frame should be truncated, got %v", err)
	}
}

func TestDot1QRoundTrip(t *testing.T) {
	pay := Payload([]byte("x"))
	data := buildFrame(t,
		&Dot1Q{Priority: 5, DropEligible: true, VLANID: 3001, EthernetType: EthernetTypeIPv6},
		&pay)
	var d Dot1Q
	if err := d.DecodeFromBytes(data); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if d.Priority != 5 || !d.DropEligible || d.VLANID != 3001 {
		t.Errorf("tag = %+v", d)
	}
	if d.NextLayerType() != LayerTypeIPv6 {
		t.Errorf("next = %v", d.NextLayerType())
	}
}

func TestMPLSStack(t *testing.T) {
	// Two-label stack over IPv4: outer label S=0, inner S=1.
	ip := &IPv4{TTL: 64, Protocol: IPProtocolUDP, SrcIP: testSrcIP4, DstIP: testDstIP4}
	udp := &UDP{SrcPort: 1111, DstPort: 2222}
	pay := Payload([]byte("data"))
	data := buildFrame(t,
		&MPLS{Label: 100, StackBottom: false, TTL: 63},
		&MPLS{Label: 200, StackBottom: true, TTL: 63},
		ip, udp, &pay)

	var outer MPLS
	if err := outer.DecodeFromBytes(data); err != nil {
		t.Fatalf("outer: %v", err)
	}
	if outer.Label != 100 || outer.StackBottom {
		t.Errorf("outer = %+v", outer)
	}
	if outer.NextLayerType() != LayerTypeMPLS {
		t.Errorf("outer next = %v", outer.NextLayerType())
	}
	var inner MPLS
	if err := inner.DecodeFromBytes(outer.LayerPayload()); err != nil {
		t.Fatalf("inner: %v", err)
	}
	if inner.Label != 200 || !inner.StackBottom {
		t.Errorf("inner = %+v", inner)
	}
	if inner.NextLayerType() != LayerTypeIPv4 {
		t.Errorf("inner next = %v (first payload byte %x)", inner.NextLayerType(), inner.LayerPayload()[0])
	}
}

func TestMPLSPseudowireHeuristic(t *testing.T) {
	// Bottom-of-stack MPLS followed by a zero first nibble means an
	// Ethernet pseudowire control word.
	innerEth := &Ethernet{DstMAC: testDstMAC, SrcMAC: testSrcMAC, EthernetType: EthernetTypeIPv4}
	ip := &IPv4{TTL: 4, Protocol: IPProtocolTCP, SrcIP: testSrcIP4, DstIP: testDstIP4}
	tcp := &TCP{SrcPort: 40000, DstPort: 443, DataOffset: 5}
	pay := Payload([]byte{22, 3, 3, 0, 5, 1, 2, 3, 4, 5}) // TLS handshake record
	data := buildFrame(t,
		&MPLS{Label: 16, StackBottom: true, TTL: 64},
		&PWControlWord{SequenceNumber: 7},
		innerEth, ip, tcp, &pay)

	var m MPLS
	if err := m.DecodeFromBytes(data); err != nil {
		t.Fatalf("mpls: %v", err)
	}
	if m.NextLayerType() != LayerTypePWControlWord {
		t.Fatalf("next after BoS = %v, want PWControlWord", m.NextLayerType())
	}
	var cw PWControlWord
	if err := cw.DecodeFromBytes(m.LayerPayload()); err != nil {
		t.Fatalf("cw: %v", err)
	}
	if cw.SequenceNumber != 7 {
		t.Errorf("seq = %d", cw.SequenceNumber)
	}
	if cw.NextLayerType() != LayerTypeEthernet {
		t.Errorf("cw next = %v", cw.NextLayerType())
	}
}

func TestPWControlWordRejectsIP(t *testing.T) {
	var cw PWControlWord
	// An IPv4 header starts with nibble 4.
	if err := cw.DecodeFromBytes([]byte{0x45, 0, 0, 20}); err == nil {
		t.Error("control word with nonzero first nibble should fail")
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	udp := &UDP{SrcPort: 53, DstPort: 9999}
	pay := Payload(bytes.Repeat([]byte{0xAB}, 32))
	data := buildFrame(t,
		&IPv4{TOS: 0x10, ID: 777, Flags: IPv4DontFragment, TTL: 61,
			Protocol: IPProtocolUDP, SrcIP: testSrcIP4, DstIP: testDstIP4},
		udp, &pay)
	var ip IPv4
	if err := ip.DecodeFromBytes(data); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if ip.Version != 4 || ip.IHL != 5 {
		t.Errorf("version/IHL = %d/%d", ip.Version, ip.IHL)
	}
	if ip.SrcIP != testSrcIP4 || ip.DstIP != testDstIP4 {
		t.Errorf("addrs = %v->%v", ip.SrcIP, ip.DstIP)
	}
	if ip.Length != uint16(len(data)) {
		t.Errorf("length = %d, want %d", ip.Length, len(data))
	}
	if ip.Flags&IPv4DontFragment == 0 {
		t.Error("DF flag lost")
	}
	// Verify checksum: re-computing over the header must yield 0 residual
	// (i.e. checksum field validates).
	if got := internetChecksum(ip.LayerContents(), 0); got != 0 {
		t.Errorf("IPv4 header checksum residual = 0x%04x, want 0", got)
	}
}

func TestIPv4PayloadBounding(t *testing.T) {
	// IPv4 total length smaller than the buffer: the payload must be
	// clipped (Ethernet padding case).
	udp := &UDP{SrcPort: 1, DstPort: 2}
	pay := Payload([]byte("ab"))
	data := buildFrame(t,
		&IPv4{TTL: 1, Protocol: IPProtocolUDP, SrcIP: testSrcIP4, DstIP: testDstIP4},
		udp, &pay)
	padded := append(data, make([]byte, 20)...) // trailing padding
	var ip IPv4
	if err := ip.DecodeFromBytes(padded); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(ip.LayerPayload()) != UDPHeaderLen+2 {
		t.Errorf("payload len = %d, want %d", len(ip.LayerPayload()), UDPHeaderLen+2)
	}
}

func TestIPv4BadVersion(t *testing.T) {
	var ip IPv4
	data := make([]byte, 20)
	data[0] = 0x65 // version 6
	if err := ip.DecodeFromBytes(data); err == nil {
		t.Error("version 6 should fail IPv4 decode")
	}
}

func TestIPv6RoundTrip(t *testing.T) {
	tcp := &TCP{SrcPort: 22222, DstPort: 22, DataOffset: 5, Flags: TCPPsh | TCPAck}
	pay := Payload([]byte("SSH-2.0-OpenSSH_9.6\r\n"))
	data := buildFrame(t,
		&IPv6{TrafficClass: 3, FlowLabel: 0xBEEF5, NextHeader: IPProtocolTCP,
			HopLimit: 60, SrcIP: testSrcIP6, DstIP: testDstIP6},
		tcp, &pay)
	var ip IPv6
	if err := ip.DecodeFromBytes(data); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if ip.TrafficClass != 3 || ip.FlowLabel != 0xBEEF5 {
		t.Errorf("tc/flow = %d/%x", ip.TrafficClass, ip.FlowLabel)
	}
	if ip.SrcIP != testSrcIP6 || ip.DstIP != testDstIP6 {
		t.Errorf("addrs = %v->%v", ip.SrcIP, ip.DstIP)
	}
	if int(ip.Length) != len(data)-IPv6HeaderLen {
		t.Errorf("payload length = %d", ip.Length)
	}
}

func TestIPv6ExtensionHeaders(t *testing.T) {
	udp := &UDP{SrcPort: 5000, DstPort: 5001}
	pay := Payload([]byte("z"))
	data := buildFrame(t,
		&IPv6{NextHeader: IPProtocolHopByHop, HopLimit: 64, SrcIP: testSrcIP6, DstIP: testDstIP6},
		&IPv6HopByHop{NextHeader: IPProtocolUDP, Options: make([]byte, 6)},
		udp, &pay)
	p := NewPacket(data, LayerTypeIPv6, Default)
	if p.ErrorLayer() != nil {
		t.Fatalf("error layer: %v", p.ErrorLayer().Error())
	}
	want := []LayerType{LayerTypeIPv6, LayerTypeIPv6HopByHop, LayerTypeUDP, LayerTypePayload}
	got := p.LayerTypes()
	if len(got) != len(want) {
		t.Fatalf("stack = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stack = %v, want %v", got, want)
		}
	}
}

func TestIPv6FragmentContinuation(t *testing.T) {
	frag := &IPv6Fragment{NextHeader: IPProtocolUDP, FragmentOffset: 100, Identification: 9}
	pay := Payload([]byte("frag data"))
	data := buildFrame(t,
		&IPv6{NextHeader: IPProtocolIPv6Fragment, HopLimit: 64, SrcIP: testSrcIP6, DstIP: testDstIP6},
		frag, &pay)
	p := NewPacket(data, LayerTypeIPv6, Default)
	// Non-first fragment: transport header absent, payload follows.
	if l := p.Layer(LayerTypeUDP); l != nil {
		t.Error("continuation fragment should not decode UDP")
	}
	if l := p.Layer(LayerTypePayload); l == nil {
		t.Error("continuation fragment should end in payload")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	opts := []byte{2, 4, 5, 0x6C} // MSS option, padded to 4 bytes
	pay := Payload([]byte("GET / HTTP/1.1\r\n"))
	data := buildFrame(t,
		&IPv4{TTL: 64, Protocol: IPProtocolTCP, SrcIP: testSrcIP4, DstIP: testDstIP4},
		&TCP{SrcPort: 12345, DstPort: 80, Seq: 42, Ack: 43,
			Flags: TCPSyn | TCPAck, Window: 65535, Options: opts},
		&pay)
	var ip IPv4
	if err := ip.DecodeFromBytes(data); err != nil {
		t.Fatal(err)
	}
	var tcp TCP
	if err := tcp.DecodeFromBytes(ip.LayerPayload()); err != nil {
		t.Fatalf("tcp: %v", err)
	}
	if tcp.SrcPort != 12345 || tcp.DstPort != 80 || tcp.Seq != 42 || tcp.Ack != 43 {
		t.Errorf("tcp = %+v", tcp)
	}
	if tcp.DataOffset != 6 {
		t.Errorf("data offset = %d, want 6", tcp.DataOffset)
	}
	if !bytes.Equal(tcp.Options, opts) {
		t.Errorf("options = %v", tcp.Options)
	}
	if tcp.Flags.String() != "SYN|ACK" {
		t.Errorf("flags = %v", tcp.Flags)
	}
	if tcp.NextLayerType() != LayerTypeHTTP {
		t.Errorf("next = %v, want HTTP (port 80)", tcp.NextLayerType())
	}
}

func TestTCPChecksumValidates(t *testing.T) {
	pay := Payload([]byte("abc"))
	ip := &IPv4{TTL: 64, Protocol: IPProtocolTCP, SrcIP: testSrcIP4, DstIP: testDstIP4}
	data := buildFrame(t, ip,
		&TCP{SrcPort: 1, DstPort: 2, DataOffset: 5, Flags: TCPAck}, &pay)
	var dip IPv4
	if err := dip.DecodeFromBytes(data); err != nil {
		t.Fatal(err)
	}
	seg := dip.LayerPayload()
	sum := dip.pseudoHeaderChecksum(IPProtocolTCP, len(seg))
	if got := internetChecksum(seg, sum); got != 0 {
		t.Errorf("TCP checksum residual = 0x%04x, want 0", got)
	}
}

func TestTCPEmptyPayloadIsTerminal(t *testing.T) {
	data := buildFrame(t,
		&IPv4{TTL: 64, Protocol: IPProtocolTCP, SrcIP: testSrcIP4, DstIP: testDstIP4},
		&TCP{SrcPort: 9, DstPort: 443, DataOffset: 5, Flags: TCPAck})
	p := NewPacket(data, LayerTypeIPv4, Default)
	types := p.LayerTypes()
	last := types[len(types)-1]
	if last != LayerTypeTCP {
		t.Errorf("pure ACK should end at TCP, got %v", types)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	ntpBody := make([]byte, 48)
	ntpBody[0] = 4<<3 | 3 // NTPv4, client mode
	pay := Payload(ntpBody)
	data := buildFrame(t,
		&IPv6{NextHeader: IPProtocolUDP, HopLimit: 64, SrcIP: testSrcIP6, DstIP: testDstIP6},
		&UDP{SrcPort: 123, DstPort: 123},
		&pay)
	p := NewPacket(data, LayerTypeIPv6, Default)
	udp, ok := p.Layer(LayerTypeUDP).(*UDP)
	if !ok {
		t.Fatal("no UDP layer")
	}
	if udp.Length != UDPHeaderLen+48 {
		t.Errorf("UDP length = %d", udp.Length)
	}
	if p.Layer(LayerTypeNTP) == nil {
		t.Error("port 123 with 48-byte payload should classify as NTP")
	}
}

func TestICMPv4RoundTrip(t *testing.T) {
	pay := Payload([]byte("pingpayload"))
	data := buildFrame(t,
		&ICMPv4{Type: ICMPv4TypeEchoRequest, ID: 5, Seq: 6},
		&pay)
	var ic ICMPv4
	if err := ic.DecodeFromBytes(data); err != nil {
		t.Fatal(err)
	}
	if ic.Type != ICMPv4TypeEchoRequest || ic.ID != 5 || ic.Seq != 6 {
		t.Errorf("icmp = %+v", ic)
	}
	if got := internetChecksum(data, 0); got != 0 {
		t.Errorf("ICMP checksum residual = 0x%04x", got)
	}
}

func TestARPRoundTrip(t *testing.T) {
	a := &ARP{Operation: ARPRequest, SenderMAC: testSrcMAC, SenderIP: testSrcIP4,
		TargetMAC: MAC{}, TargetIP: testDstIP4}
	data := buildFrame(t, a)
	var d ARP
	if err := d.DecodeFromBytes(data); err != nil {
		t.Fatal(err)
	}
	if d.Operation != ARPRequest || d.SenderIP != testSrcIP4 || d.TargetIP != testDstIP4 {
		t.Errorf("arp = %+v", d)
	}
}

func TestDNSRoundTrip(t *testing.T) {
	q := &DNS{ID: 0x1234, Opcode: 0, Questions: []string{"fabric-testbed.net", "a.b"}}
	data := buildFrame(t, q)
	wantBody := "\x0efabric-testbed\x03net\x00\x00\x01\x00\x01\x01a\x01b\x00\x00\x01\x00\x01"
	if len(data) != dnsHeaderLen+len(wantBody) || string(data[dnsHeaderLen:]) != wantBody {
		t.Errorf("question section = %q, want %q", data[min(len(data), dnsHeaderLen):], wantBody)
	}
	var d DNS
	if err := d.DecodeFromBytes(data); err != nil {
		t.Fatal(err)
	}
	if d.ID != 0x1234 || d.QR {
		t.Errorf("dns header = %+v", d)
	}
	if len(d.Questions) != 2 || d.Questions[0] != "fabric-testbed.net" || d.Questions[1] != "a.b" {
		t.Errorf("questions = %v", d.Questions)
	}
	for _, bad := range []string{"a..b", "a.", strings.Repeat("x", 64)} {
		buf := NewSerializeBuffer()
		if err := SerializeLayers(buf, SerializeOptions{}, &DNS{Questions: []string{bad}}); err == nil {
			t.Errorf("question %q serialized, want a label error", bad)
		}
	}
}

func TestDNSCompressionPointer(t *testing.T) {
	// Hand-build a message with a compressed name: question at offset 12
	// is "a.example.com", then a second name pointing back to "example.com".
	msg := []byte{
		0x00, 0x01, 0x80, 0x00, // ID, QR=1
		0x00, 0x02, 0, 0, 0, 0, 0, 0, // QDCount=2
	}
	msg = append(msg, 1, 'a', 7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 3, 'c', 'o', 'm', 0)
	msg = append(msg, 0, 1, 0, 1) // qtype/qclass
	ptr := len(msg)
	_ = ptr
	msg = append(msg, 0xC0, 14) // pointer to offset 14 ("example.com")
	msg = append(msg, 0, 1, 0, 1)
	var d DNS
	if err := d.DecodeFromBytes(msg); err != nil {
		t.Fatal(err)
	}
	if len(d.Questions) != 2 {
		t.Fatalf("questions = %v", d.Questions)
	}
	if d.Questions[0] != "a.example.com" || d.Questions[1] != "example.com" {
		t.Errorf("questions = %v", d.Questions)
	}
}

func TestDNSCompressionLoopRejected(t *testing.T) {
	msg := make([]byte, 14)
	msg[5] = 1                  // QDCount = 1
	msg[12], msg[13] = 0xC0, 12 // name points at itself
	var d DNS
	if err := d.DecodeFromBytes(msg); err != nil {
		t.Fatal(err)
	}
	// Loop is detected inside name parsing; header still decodes, no
	// questions survive.
	if len(d.Questions) != 0 {
		t.Errorf("questions = %v, want none", d.Questions)
	}
}

func TestTLSValidation(t *testing.T) {
	var tls TLS
	if err := tls.DecodeFromBytes([]byte{22, 3, 3, 0, 100}); err != nil {
		t.Errorf("valid handshake record rejected: %v", err)
	}
	if tls.RecordType != TLSHandshake || tls.Length != 100 {
		t.Errorf("tls = %+v", tls)
	}
	if err := tls.DecodeFromBytes([]byte{99, 3, 3, 0, 1}); err == nil {
		t.Error("record type 99 should fail")
	}
	if err := tls.DecodeFromBytes([]byte{22, 9, 9, 0, 1}); err == nil {
		t.Error("version 0x0909 should fail")
	}
}

func TestSSHBanner(t *testing.T) {
	var s SSH
	if err := s.DecodeFromBytes([]byte("SSH-2.0-OpenSSH_9.6\r\nextra")); err != nil {
		t.Fatal(err)
	}
	if s.Banner != "SSH-2.0-OpenSSH_9.6" {
		t.Errorf("banner = %q", s.Banner)
	}
	// Binary phase: no banner but still classifies.
	if err := s.DecodeFromBytes([]byte{0, 0, 1, 44, 7}); err != nil {
		t.Fatal(err)
	}
	if s.Banner != "" {
		t.Errorf("binary packet banner = %q", s.Banner)
	}
}

func TestHTTPClassification(t *testing.T) {
	var h HTTP
	if err := h.DecodeFromBytes([]byte("GET /index.html HTTP/1.1\r\n")); err != nil {
		t.Fatal(err)
	}
	if !h.IsRequest || h.Method != "GET" {
		t.Errorf("http = %+v", h)
	}
	if err := h.DecodeFromBytes([]byte("HTTP/1.1 200 OK\r\n")); err != nil {
		t.Fatal(err)
	}
	if h.IsRequest || h.Method != "HTTP/1.1" {
		t.Errorf("response = %+v", h)
	}
}

func TestNTPValidation(t *testing.T) {
	data := make([]byte, 48)
	data[0] = 4<<3 | 3 // version 4, client mode
	data[1] = 2
	var n NTP
	if err := n.DecodeFromBytes(data); err != nil {
		t.Fatal(err)
	}
	if n.Version != 4 || n.Mode != 3 || n.Stratum != 2 {
		t.Errorf("ntp = %+v", n)
	}
	bad := make([]byte, 48)
	bad[0] = 7 << 3 // version 7
	if err := n.DecodeFromBytes(bad); err == nil {
		t.Error("version 7 should fail")
	}
}

func TestVXLANRoundTrip(t *testing.T) {
	inner := &Ethernet{DstMAC: testDstMAC, SrcMAC: testSrcMAC, EthernetType: EthernetTypeIPv4}
	ip := &IPv4{TTL: 3, Protocol: IPProtocolICMPv4, SrcIP: testSrcIP4, DstIP: testDstIP4}
	ic := &ICMPv4{Type: ICMPv4TypeEchoRequest}
	data := buildFrame(t, &VXLAN{ValidIDFlag: true, VNI: 0xABCDE}, inner, ip, ic)
	var v VXLAN
	if err := v.DecodeFromBytes(data); err != nil {
		t.Fatal(err)
	}
	if !v.ValidIDFlag || v.VNI != 0xABCDE {
		t.Errorf("vxlan = %+v", v)
	}
	if v.NextLayerType() != LayerTypeEthernet {
		t.Errorf("next = %v", v.NextLayerType())
	}
}

func TestGRERoundTrip(t *testing.T) {
	ip := &IPv4{TTL: 8, Protocol: IPProtocolUDP, SrcIP: testSrcIP4, DstIP: testDstIP4}
	udp := &UDP{SrcPort: 7, DstPort: 8}
	data := buildFrame(t, &GRE{Protocol: EthernetTypeIPv4}, ip, udp)
	var g GRE
	if err := g.DecodeFromBytes(data); err != nil {
		t.Fatal(err)
	}
	if g.NextLayerType() != LayerTypeIPv4 {
		t.Errorf("next = %v", g.NextLayerType())
	}
	if err := g.DecodeFromBytes([]byte{0x80, 0, 0x08, 0}); err == nil {
		t.Error("GRE with checksum bit should be rejected")
	}
}

func TestLayerTypeString(t *testing.T) {
	if LayerTypeEthernet.String() != "Ethernet" {
		t.Error("Ethernet name")
	}
	if LayerType(999).String() != "LayerType(999)" {
		t.Error("unknown name")
	}
}

func TestMinimumFramePadding(t *testing.T) {
	buf := NewSerializeBuffer()
	eth := &Ethernet{EthernetType: EthernetTypeARP}
	arp := &ARP{Operation: ARPRequest, SenderIP: testSrcIP4, TargetIP: testDstIP4}
	if err := SerializeLayers(buf, SerializeOptions{}, eth, arp); err != nil {
		t.Fatal(err)
	}
	if err := PadToMinimumFrame(buf); err != nil {
		t.Fatal(err)
	}
	if len(buf.Bytes()) != 60 {
		t.Errorf("padded frame = %d bytes, want 60", len(buf.Bytes()))
	}
}

func TestZeroAddressSerializesAsZeros(t *testing.T) {
	// An unset netip.Addr field must serialize as 0.0.0.0 / ::, not panic.
	data := buildFrame(t,
		&IPv4{TTL: 1, Protocol: IPProtocolUDP},
		&UDP{SrcPort: 1, DstPort: 2})
	var ip IPv4
	if err := ip.DecodeFromBytes(data); err != nil {
		t.Fatal(err)
	}
	if ip.SrcIP.String() != "0.0.0.0" {
		t.Errorf("src = %v", ip.SrcIP)
	}
	data6 := buildFrame(t,
		&IPv6{NextHeader: IPProtocolUDP, HopLimit: 1},
		&UDP{SrcPort: 1, DstPort: 2})
	var ip6 IPv6
	if err := ip6.DecodeFromBytes(data6); err != nil {
		t.Fatal(err)
	}
	if ip6.SrcIP.String() != "::" {
		t.Errorf("src6 = %v", ip6.SrcIP)
	}
}
