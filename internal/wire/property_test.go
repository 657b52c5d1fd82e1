package wire

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// randomStack builds a random-but-valid layer stack from a seeded source,
// returning the serializable layers and the expected decoded layer types.
func randomStack(r *rng.Source) ([]SerializableLayer, []LayerType) {
	var layers []SerializableLayer
	var want []LayerType

	push := func(l SerializableLayer, t LayerType) {
		layers = append(layers, l)
		want = append(want, t)
	}

	useV6 := r.Bool(0.2)
	innerType := EthernetTypeIPv4
	if useV6 {
		innerType = EthernetTypeIPv6
	}

	// Link + encapsulation.
	vlan := r.Bool(0.8)
	mplsLabels := r.Intn(3) // 0..2
	pw := mplsLabels > 0 && r.Bool(0.5)

	outerNext := innerType
	if vlan {
		outerNext = EthernetTypeDot1Q
	} else if mplsLabels > 0 {
		outerNext = EthernetTypeMPLSUnicast
	}
	push(&Ethernet{SrcMAC: MAC{2, 0, 0, 0, 0, 1}, DstMAC: MAC{2, 0, 0, 0, 0, 2}, EthernetType: outerNext}, LayerTypeEthernet)
	if vlan {
		next := innerType
		if mplsLabels > 0 {
			next = EthernetTypeMPLSUnicast
		}
		push(&Dot1Q{VLANID: uint16(1 + r.Intn(4000)), EthernetType: next}, LayerTypeDot1Q)
	}
	for i := 0; i < mplsLabels; i++ {
		push(&MPLS{Label: uint32(16 + r.Intn(1000)), StackBottom: i == mplsLabels-1, TTL: 64}, LayerTypeMPLS)
	}
	if pw {
		push(&PWControlWord{SequenceNumber: uint16(r.Intn(1 << 16))}, LayerTypePWControlWord)
		push(&Ethernet{SrcMAC: MAC{2, 0, 0, 0, 1, 1}, DstMAC: MAC{2, 0, 0, 0, 1, 2}, EthernetType: innerType}, LayerTypeEthernet)
	}

	// Network + transport.
	useUDP := r.Bool(0.4)
	proto := IPProtocolTCP
	if useUDP {
		proto = IPProtocolUDP
	}
	if useV6 {
		push(&IPv6{NextHeader: proto, HopLimit: 64,
			SrcIP: netip.MustParseAddr("2001:db8::a"), DstIP: netip.MustParseAddr("2001:db8::b")}, LayerTypeIPv6)
	} else {
		push(&IPv4{TTL: 64, Protocol: proto,
			SrcIP: netip.MustParseAddr("10.9.8.7"), DstIP: netip.MustParseAddr("10.9.8.8")}, LayerTypeIPv4)
	}
	// Ports chosen to avoid app-layer classification so the stack ends
	// at transport + payload.
	sport := uint16(20000 + r.Intn(1000))
	dport := uint16(21000 + r.Intn(1000))
	if useUDP {
		push(&UDP{SrcPort: sport, DstPort: dport}, LayerTypeUDP)
	} else {
		push(&TCP{SrcPort: sport, DstPort: dport, DataOffset: 5, Flags: TCPPsh | TCPAck}, LayerTypeTCP)
	}
	payLen := 1 + r.Intn(1200)
	pay := make(Payload, payLen)
	for i := range pay {
		pay[i] = byte(r.Intn(256))
	}
	push(&pay, LayerTypePayload)
	return layers, want
}

// TestRandomStackRoundTrip: any random valid stack serializes and decodes
// back to exactly the same layer-type sequence, with the payload intact.
func TestRandomStackRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		layers, want := randomStack(r)
		buf := NewSerializeBuffer()
		opts := SerializeOptions{FixLengths: true, ComputeChecksums: true}
		if err := SerializeLayers(buf, opts, layers...); err != nil {
			t.Logf("serialize: %v", err)
			return false
		}
		pkt := NewPacket(buf.Bytes(), LayerTypeEthernet, Default)
		if fail := pkt.ErrorLayer(); fail != nil {
			t.Logf("decode failure: %v in %v", fail.Error(), pkt.String())
			return false
		}
		got := pkt.LayerTypes()
		if len(got) != len(want) {
			t.Logf("stack %v != want %v", got, want)
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				t.Logf("stack %v != want %v", got, want)
				return false
			}
		}
		// Payload bytes survive.
		wantPay := layers[len(layers)-1].(*Payload)
		lastLayer := pkt.Layers()[len(got)-1]
		if !bytes.Equal(lastLayer.LayerContents(), *wantPay) {
			t.Log("payload corrupted")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestRandomStackChecksumsValidate: serialized IPv4/TCP/UDP checksums
// validate under pseudo-header recomputation.
func TestRandomStackChecksumsValidate(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		layers, _ := randomStack(r)
		buf := NewSerializeBuffer()
		opts := SerializeOptions{FixLengths: true, ComputeChecksums: true}
		if err := SerializeLayers(buf, opts, layers...); err != nil {
			return false
		}
		pkt := NewPacket(buf.Bytes(), LayerTypeEthernet, Default)
		for _, l := range pkt.Layers() {
			if ip, ok := l.(*IPv4); ok {
				if internetChecksum(ip.LayerContents(), 0) != 0 {
					t.Log("IPv4 checksum invalid")
					return false
				}
				seg := ip.LayerPayload()
				switch ip.Protocol {
				case IPProtocolTCP, IPProtocolUDP:
					sum := ip.pseudoHeaderChecksum(ip.Protocol, len(seg))
					if internetChecksum(seg, sum) != 0 {
						t.Logf("%v checksum invalid", ip.Protocol)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestNestedStackChecksumsUseNearestIP: with ComputeChecksums, every
// transport checksum validates under the pseudo-header of its nearest
// enclosing IP header, in a VXLAN stack (an outer and an inner IPv4/UDP)
// and in an IPv6/TCP stack.
func TestNestedStackChecksumsUseNearestIP(t *testing.T) {
	vxlan := []SerializableLayer{
		&Ethernet{SrcMAC: MAC{2, 0, 0, 0, 0, 1}, DstMAC: MAC{2, 0, 0, 0, 0, 2}, EthernetType: EthernetTypeIPv4},
		&IPv4{TTL: 64, Protocol: IPProtocolUDP, SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("10.0.0.2")},
		&UDP{SrcPort: 40000, DstPort: 4789},
		&VXLAN{ValidIDFlag: true, VNI: 77},
		&Ethernet{SrcMAC: MAC{2, 0, 0, 0, 1, 1}, DstMAC: MAC{2, 0, 0, 0, 1, 2}, EthernetType: EthernetTypeIPv4},
		&IPv4{TTL: 60, Protocol: IPProtocolUDP, SrcIP: netip.MustParseAddr("172.16.9.1"), DstIP: netip.MustParseAddr("172.16.9.2")},
		&UDP{SrcPort: 7000, DstPort: 7001},
		&Payload{1, 2, 3, 4, 5},
	}
	v6 := []SerializableLayer{
		&Ethernet{SrcMAC: MAC{2, 0, 0, 0, 0, 1}, DstMAC: MAC{2, 0, 0, 0, 0, 2}, EthernetType: EthernetTypeIPv6},
		&IPv6{NextHeader: IPProtocolTCP, HopLimit: 64, SrcIP: netip.MustParseAddr("2001:db8::1"), DstIP: netip.MustParseAddr("2001:db8::2")},
		&TCP{SrcPort: 40001, DstPort: 5201, Seq: 7, Ack: 9, Flags: TCPPsh | TCPAck, Window: 65535},
		&Payload{9, 8, 7},
	}
	for _, tc := range []struct {
		name   string
		layers []SerializableLayer
		want   int // transport checksums to check
	}{{"vxlan", vxlan, 2}, {"ipv6/tcp", v6, 1}} {
		buf := NewSerializeBuffer()
		if err := SerializeLayers(buf, SerializeOptions{FixLengths: true, ComputeChecksums: true}, tc.layers...); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checked := 0
		for _, l := range NewPacket(buf.Bytes(), LayerTypeEthernet, Default).Layers() {
			var proto IPProtocol
			var seg []byte
			var sum uint32
			switch ip := l.(type) {
			case *IPv4:
				if internetChecksum(ip.LayerContents(), 0) != 0 {
					t.Errorf("%s: IPv4 %v header checksum invalid", tc.name, ip.SrcIP)
				}
				proto, seg = ip.Protocol, ip.LayerPayload()
				sum = ip.pseudoHeaderChecksum(proto, len(seg))
			case *IPv6:
				proto, seg = ip.NextHeader, ip.LayerPayload()
				sum = ip.pseudoHeaderChecksum(proto, len(seg))
			default:
				continue
			}
			if internetChecksum(seg, sum) != 0 {
				t.Errorf("%s: %v checksum under %v's pseudo-header invalid", tc.name, proto, l.LayerType())
			}
			checked++
		}
		if checked != tc.want {
			t.Errorf("%s: checked %d transport checksums, want %d", tc.name, checked, tc.want)
		}
	}
}

// TestDecodeNeverPanics: arbitrary bytes must never panic the decoder,
// whatever garbage the capture hands it.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("decoder panicked on %d bytes: %v", len(data), r)
			}
		}()
		pkt := NewPacket(data, LayerTypeEthernet, Default)
		_ = pkt.Layers()
		_ = pkt.String()
		_ = pkt.ErrorLayer()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestFastParserNeverPanics: same robustness for the zero-alloc path.
func TestFastParserNeverPanics(t *testing.T) {
	parser, _, _, _, _, _, _, _, _ := newFastParser()
	var decoded []LayerType
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("fast parser panicked: %v", r)
			}
		}()
		_ = parser.DecodeLayers(data, &decoded)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestTruncationMonotonic: decoding a frame truncated at any length never
// yields a longer layer stack than the full frame, and the decoded
// prefix agrees with the full decode.
func TestTruncationMonotonic(t *testing.T) {
	r := rng.New(77)
	layers, _ := randomStack(r)
	buf := NewSerializeBuffer()
	if err := SerializeLayers(buf, SerializeOptions{FixLengths: true}, layers...); err != nil {
		t.Fatal(err)
	}
	full := append([]byte(nil), buf.Bytes()...)
	fullTypes := NewPacket(full, LayerTypeEthernet, Default).LayerTypes()
	for cut := 0; cut <= len(full); cut += 7 {
		types := NewPacket(full[:cut], LayerTypeEthernet, Default).LayerTypes()
		if len(types) > len(fullTypes) {
			t.Fatalf("cut %d produced deeper stack %v than full %v", cut, types, fullTypes)
		}
		for i := range types {
			// The final decoded layer of a truncated frame may differ in
			// type only if the full decode classified further; the prefix
			// up to the last common layer must match.
			if i < len(types)-1 && types[i] != fullTypes[i] {
				t.Fatalf("cut %d stack %v diverges from full %v at %d", cut, types, fullTypes, i)
			}
		}
	}
}
