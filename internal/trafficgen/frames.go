package trafficgen

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Dir is the direction of a frame relative to its flow.
type Dir uint8

// Directions.
const (
	DirForward Dir = iota
	DirReverse
)

// TimedFrame is one synthesized frame with its arrival timestamp within a
// sample window. Data holds the whole frame, except in a sample taken
// with SamplePrefixesInto: there it holds the frame up to its all-zero
// tail, and the frame's other Size-len(Data) bytes are zero.
type TimedFrame struct {
	At   sim.Time
	Data []byte
	// Size is the wire length. An int32 keeps TimedFrame at 40 bytes:
	// every sample is sorted by value.
	Size int32
	Dir  Dir
}

// FlowSpec fixes the invariants of one flow: endpoints, encapsulation,
// and archetype. Frames of a flow share these, so the analysis pipeline
// can classify them together.
type FlowSpec struct {
	Kind Kind
	// VLANID tags the flow (FABRIC's underlay isolates slices by tag).
	VLANID uint16
	// MPLSLabels is the label stack, outermost first (empty = no MPLS).
	MPLSLabels []uint32
	// Pseudowire selects an Ethernet pseudowire (inner Ethernet) under
	// the MPLS stack.
	Pseudowire bool
	// IPv6 selects IPv6 addressing.
	IPv6 bool

	SrcMAC, DstMAC   wire.MAC
	SrcIP, DstIP     netip.Addr
	SrcPort, DstPort uint16
}

// StackDepth returns the number of headers a forward data frame of this
// flow will carry, including the port-classified application layer. The
// paper's Fig. 11 reports maxima between 6 and 12.
func (fs *FlowSpec) StackDepth() int {
	if fs.Kind == KindARP {
		// ARP frames skip the MPLS underlay: Ethernet/VLAN/ARP.
		return 3
	}
	d := 2 // outer Ethernet + VLAN
	d += len(fs.MPLSLabels)
	if fs.Pseudowire {
		d += 2 // control word + inner Ethernet
	}
	d++ // IP
	switch fs.Kind {
	case KindICMP:
		d++ // ICMP
	case KindBulkTCP, KindUDPBulk:
		d++ // transport; payload unclassified
	case KindVXLAN:
		d += 5 // UDP + VXLAN + inner Ethernet + inner IP + inner UDP
	case KindGRE:
		d += 3 // GRE + inner IP + inner UDP
	default:
		d += 2 // transport + app layer
	}
	return d
}

// Generator synthesizes traffic for one site profile. It is driven by a
// deterministic rng stream, so a (seed, profile) pair always produces the
// same capture.
type Generator struct {
	Profile  Profile
	r        *rng.Source
	buf      *wire.SerializeBuffer
	nextIP   uint32
	nextPort uint16

	// ls holds one pooled instance of every serializable layer the
	// generator emits, so a frame build allocates nothing: each build
	// reinitializes the structs it needs by whole-struct assignment.
	ls layerScratch
	// labels is the MPLS stack SampleInto's current flow borrows.
	labels []uint32
	// prefix is the length of the last built frame up to its all-zero
	// tail (zero payload and minimum-frame padding).
	prefix int

	// tmpl is the current TCP flow's header stack per on-wire direction
	// (indexed by Dir), empty until sample builds that direction's first
	// frame and again at every new flow.
	tmpl [2]tcpTemplate
	// frame holds the last frame built from a template. Its bytes from
	// dirty on are zero, so the next one clears only what this one wrote.
	frame []byte
	dirty int
}

// tcpTemplate is one direction of a TCP flow's frames from the Ethernet
// header through the TCP header, as the layered serializer wrote them.
// Within a flow and direction only the IP length and ID and the TCP seq,
// ack and flags vary.
type tcpTemplate struct {
	hdr   []byte // stackOverhead+20 bytes
	ipOff int    // offset of the IP header in hdr
	v6    bool
}

// layerScratch pools serialization state. Fields with two instances
// (eth, ipv4, udp) cover the deepest stacks, which carry an outer and
// one tunneled inner copy of those layers.
type layerScratch struct {
	eth    [2]wire.Ethernet
	dot1q  wire.Dot1Q
	mpls   [2]wire.MPLS
	pw     wire.PWControlWord
	ip4    [2]wire.IPv4
	ip6    wire.IPv6
	arp    wire.ARP
	icmp4  wire.ICMPv4
	icmp6  wire.ICMPv6
	gre    wire.GRE
	vxlan  wire.VXLAN
	udp    [2]wire.UDP
	tcp    wire.TCP
	tls    wire.TLS
	ntp    wire.NTP
	dns    wire.DNS
	dnsQ   [1]string
	pay    wire.Payload
	payBuf []byte
	layers []wire.SerializableLayer
	// zeroTail is how many bytes at the end of the frame being built's
	// payload are zero. The payload is always a frame's last layer.
	zeroTail int
}

// payload returns the pooled payload sized to n, zero-filled — reusing
// the buffer must be indistinguishable from a fresh make([]byte, n).
func (s *layerScratch) payload(n int) *wire.Payload {
	if cap(s.payBuf) < n {
		s.payBuf = make([]byte, n)
	}
	b := s.payBuf[:n]
	clear(b)
	s.pay = wire.Payload(b)
	s.zeroTail = n
	return &s.pay
}

// bannerPayload is payload with as much of text as fits at its start.
func (s *layerScratch) bannerPayload(n int, text string) *wire.Payload {
	pay := s.payload(n)
	s.zeroTail -= copy(*pay, text)
	return pay
}

// NewGenerator binds a profile to a seeded source.
func NewGenerator(p Profile, seed uint64) *Generator {
	return &Generator{
		Profile:  p,
		r:        rng.New(seed),
		buf:      wire.NewSerializeBuffer(),
		nextIP:   1,
		nextPort: 30000,
	}
}

// NewFlow draws a flow specification from the profile.
func (g *Generator) NewFlow() FlowSpec { return g.newFlow(nil) }

// newFlow is NewFlow with the label stack appended to labels[:0], so a
// caller that drops the spec before the next draw can recycle it.
func (g *Generator) newFlow(labels []uint32) FlowSpec {
	p := &g.Profile
	fs := FlowSpec{
		Kind:   p.drawKind(g.r),
		VLANID: uint16(2000 + g.r.Intn(1000)),
		IPv6:   g.r.Bool(p.IPv6Fraction),
	}
	if fs.Kind == KindARP {
		fs.IPv6 = false // ARP is IPv4-only
	}
	depth := 1
	if g.r.Bool(p.MPLSDepth2Fraction) {
		depth = 2
	}
	fs.MPLSLabels = labels[:0]
	for i := 0; i < depth; i++ {
		fs.MPLSLabels = append(fs.MPLSLabels, uint32(16+g.r.Intn(1<<19)))
	}
	fs.Pseudowire = g.r.Bool(p.PWFraction)
	if fs.Kind == KindVXLAN || fs.Kind == KindGRE {
		// Tunnel workloads already nest deeply; the underlay keeps them
		// on a single label without a pseudowire (keeps observed stack
		// depths within the paper's 6-12 range).
		fs.Pseudowire = false
		fs.MPLSLabels = fs.MPLSLabels[:1]
	}
	fs.SrcMAC = wire.MAC{0x02, 0xFA, 0xB0, byte(g.r.Intn(256)), byte(g.r.Intn(256)), byte(g.r.Intn(256))}
	fs.DstMAC = wire.MAC{0x02, 0xFA, 0xB1, byte(g.r.Intn(256)), byte(g.r.Intn(256)), byte(g.r.Intn(256))}
	// Different slices reuse 10/8 space; the VLAN/MPLS tags are what
	// distinguish them (Section 6.2.4).
	a := g.nextIP
	g.nextIP += 2
	if fs.IPv6 {
		fs.SrcIP = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)})
		fs.DstIP = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a + 1)})
	} else {
		fs.SrcIP = netip.AddrFrom4([4]byte{10, byte(a >> 16), byte(a >> 8), byte(a)})
		fs.DstIP = netip.AddrFrom4([4]byte{10, byte(a >> 16), byte(a >> 8), byte(a + 1)})
	}
	fs.SrcPort = g.nextPort
	g.nextPort++
	if g.nextPort > 60000 {
		g.nextPort = 30000
	}
	fs.DstPort = wellKnownPort(fs.Kind, g.r)
	return fs
}

func wellKnownPort(k Kind, r *rng.Source) uint16 {
	switch k {
	case KindTLS:
		return 443
	case KindSSH:
		return 22
	case KindHTTP:
		return 80
	case KindDNS:
		return 53
	case KindNTP:
		return 123
	case KindVXLAN:
		return 4789
	default:
		return uint16(5001 + r.Intn(4000))
	}
}

// DataFrameSize draws the wire size for a forward data frame of the given
// kind. Bulk flows on jumbo-framed sites produce the 1519-2047B class
// that dominates FABRIC traffic (74.7%).
func (g *Generator) DataFrameSize(k Kind) int {
	switch k {
	case KindBulkTCP, KindUDPBulk, KindVXLAN, KindGRE:
		if g.Profile.JumboData {
			return 1519 + g.r.Intn(529) // 1519-2047
		}
		return 1400 + g.r.Intn(119) // near-MTU
	case KindTLS, KindHTTP:
		return 300 + g.r.Intn(1200)
	case KindSSH:
		return 90 + g.r.Intn(160)
	case KindDNS, KindNTP:
		return 90 + g.r.Intn(60)
	case KindICMP:
		return 98
	case KindARP:
		return 64
	default:
		return 128 + g.r.Intn(128)
	}
}

// BuildFrame serializes one frame of the flow. For DirForward the frame
// is padded/filled to approximately wireSize bytes; DirReverse produces a
// minimum-size ACK (TCP kinds) or a small response.
func (g *Generator) BuildFrame(fs *FlowSpec, dir Dir, wireSize int) ([]byte, error) {
	raw, err := g.buildFrameRaw(fs, dir, wireSize)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), raw...), nil
}

// buildFrameRaw is BuildFrame without the defensive copy: the returned
// slice aliases the generator's serialize buffer and is only valid
// until the next build call. It is the zero-allocation fast path behind
// SampleInto.
func (g *Generator) buildFrameRaw(fs *FlowSpec, dir Dir, wireSize int) ([]byte, error) {
	ls := &g.ls
	layers := ls.layers[:0]
	ls.zeroTail = 0
	srcMAC, dstMAC := fs.SrcMAC, fs.DstMAC
	srcIP, dstIP := fs.SrcIP, fs.DstIP
	srcPort, dstPort := fs.SrcPort, fs.DstPort
	if dir == DirReverse {
		srcMAC, dstMAC = dstMAC, srcMAC
		srcIP, dstIP = dstIP, srcIP
		srcPort, dstPort = dstPort, srcPort
	}

	nextOuter := wire.EthernetTypeDot1Q
	ls.eth[0] = wire.Ethernet{DstMAC: dstMAC, SrcMAC: srcMAC, EthernetType: nextOuter}
	layers = append(layers, &ls.eth[0])
	innerType := wire.EthernetTypeIPv4
	if fs.IPv6 {
		innerType = wire.EthernetTypeIPv6
	}
	if fs.Kind == KindARP {
		innerType = wire.EthernetTypeARP
	}
	vlanNext := innerType
	if len(fs.MPLSLabels) > 0 && fs.Kind != KindARP {
		vlanNext = wire.EthernetTypeMPLSUnicast
	}
	ls.dot1q = wire.Dot1Q{VLANID: fs.VLANID, EthernetType: vlanNext}
	layers = append(layers, &ls.dot1q)
	if vlanNext == wire.EthernetTypeMPLSUnicast {
		for i, label := range fs.MPLSLabels {
			ls.mpls[i] = wire.MPLS{
				Label:       label,
				StackBottom: i == len(fs.MPLSLabels)-1,
				TTL:         64,
			}
			layers = append(layers, &ls.mpls[i])
		}
		if fs.Pseudowire {
			ls.pw = wire.PWControlWord{}
			ls.eth[1] = wire.Ethernet{DstMAC: dstMAC, SrcMAC: srcMAC, EthernetType: innerType}
			layers = append(layers, &ls.pw, &ls.eth[1])
		}
	}

	if fs.Kind == KindARP {
		op := uint16(wire.ARPRequest)
		if dir == DirReverse {
			op = wire.ARPReply
		}
		sip, tip := srcIP, dstIP
		ls.arp = wire.ARP{
			Operation: op, SenderMAC: srcMAC, SenderIP: sip,
			TargetMAC: dstMAC, TargetIP: tip,
		}
		layers = append(layers, &ls.arp)
		return g.serializeRaw(layers)
	}

	// Network layer.
	overhead := stackOverhead(fs)
	if fs.IPv6 {
		proto := transportProto(fs.Kind, true)
		ls.ip6 = wire.IPv6{NextHeader: proto, HopLimit: 62, SrcIP: srcIP, DstIP: dstIP}
		layers = append(layers, &ls.ip6)
	} else {
		proto := transportProto(fs.Kind, false)
		ls.ip4[0] = wire.IPv4{TTL: 62, Protocol: proto, ID: uint16(g.r.Intn(1 << 16)), SrcIP: srcIP, DstIP: dstIP}
		layers = append(layers, &ls.ip4[0])
	}

	switch fs.Kind {
	case KindICMP:
		if fs.IPv6 {
			typ := uint8(wire.ICMPv6TypeEchoRequest)
			if dir == DirReverse {
				typ = wire.ICMPv6TypeEchoReply
			}
			ls.icmp6 = wire.ICMPv6{Type: typ}
			layers = append(layers, &ls.icmp6)
		} else {
			typ := uint8(wire.ICMPv4TypeEchoRequest)
			if dir == DirReverse {
				typ = wire.ICMPv4TypeEchoReply
			}
			ls.icmp4 = wire.ICMPv4{Type: typ, ID: 1, Seq: uint16(g.r.Intn(1 << 16))}
			layers = append(layers, &ls.icmp4)
		}
		layers = append(layers, ls.payload(clampPayload(wireSize-overhead-8, 0)))
	case KindGRE:
		inner := wire.EthernetTypeIPv4
		ls.gre = wire.GRE{Protocol: inner}
		ls.ip4[1] = wire.IPv4{TTL: 60, Protocol: wire.IPProtocolUDP, SrcIP: netip.AddrFrom4([4]byte{192, 168, 0, 1}), DstIP: netip.AddrFrom4([4]byte{192, 168, 0, 2})}
		ls.udp[0] = wire.UDP{SrcPort: srcPort, DstPort: 9999}
		layers = append(layers, &ls.gre, &ls.ip4[1], &ls.udp[0])
		layers = append(layers, ls.payload(clampPayload(wireSize-overhead-32, 8)))
	case KindVXLAN:
		ls.udp[0] = wire.UDP{SrcPort: srcPort, DstPort: 4789}
		ls.vxlan = wire.VXLAN{ValidIDFlag: true, VNI: uint32(g.r.Intn(1 << 24))}
		ls.eth[1] = wire.Ethernet{DstMAC: dstMAC, SrcMAC: srcMAC, EthernetType: wire.EthernetTypeIPv4}
		ls.ip4[1] = wire.IPv4{TTL: 60, Protocol: wire.IPProtocolUDP, SrcIP: netip.AddrFrom4([4]byte{172, 16, 0, 1}), DstIP: netip.AddrFrom4([4]byte{172, 16, 0, 2})}
		ls.udp[1] = wire.UDP{SrcPort: 7000, DstPort: 7001}
		layers = append(layers, &ls.udp[0], &ls.vxlan, &ls.eth[1], &ls.ip4[1], &ls.udp[1])
		layers = append(layers, ls.payload(clampPayload(wireSize-overhead-58, 8)))
	case KindDNS:
		ls.udp[0] = wire.UDP{SrcPort: srcPort, DstPort: dstPort}
		ls.dnsQ[0] = dnsHostNames[g.r.Intn(len(dnsHostNames))]
		ls.dns = wire.DNS{ID: uint16(g.r.Intn(1 << 16)), QR: dir == DirReverse,
			Questions: ls.dnsQ[:]}
		layers = append(layers, &ls.udp[0], &ls.dns)
	case KindNTP:
		ls.udp[0] = wire.UDP{SrcPort: srcPort, DstPort: dstPort}
		mode := uint8(3)
		if dir == DirReverse {
			mode = 4
		}
		ls.ntp = wire.NTP{Version: 4, Mode: mode, Stratum: 2}
		layers = append(layers, &ls.udp[0], &ls.ntp)
	case KindUDPBulk:
		ls.udp[0] = wire.UDP{SrcPort: srcPort, DstPort: dstPort}
		layers = append(layers, &ls.udp[0])
		layers = append(layers, ls.payload(clampPayload(wireSize-overhead-8, 8)))
	default:
		// TCP-based kinds.
		ls.tcp = wire.TCP{SrcPort: srcPort, DstPort: dstPort,
			Seq: uint32(g.r.Intn(1 << 30)), Ack: uint32(g.r.Intn(1 << 30)),
			Window: 65535}
		if dir == DirReverse {
			ls.tcp.Flags = wire.TCPAck // payload-free ACK: minimum-size frame
			layers = append(layers, &ls.tcp)
		} else {
			ls.tcp.Flags = wire.TCPPsh | wire.TCPAck
			layers = append(layers, &ls.tcp)
			payLen := clampPayload(wireSize-overhead-20, 1)
			switch fs.Kind {
			case KindTLS:
				ls.tls = wire.TLS{RecordType: wire.TLSApplicationData, Version: tlsVersion}
				layers = append(layers, &ls.tls)
				layers = append(layers, ls.payload(clampPayload(payLen-5, 1)))
			case KindSSH, KindHTTP:
				layers = append(layers, ls.bannerPayload(payLen, banner(fs.Kind)))
			default:
				layers = append(layers, ls.payload(payLen))
			}
		}
	}
	return g.serializeRaw(layers)
}

// tlsVersion is the record-layer version of TLS data frames (TLS 1.2).
const tlsVersion = 0x0303

// banner is the text an SSH or HTTP data frame's payload starts with.
func banner(k Kind) string {
	if k == KindSSH {
		return "SSH-2.0-OpenSSH_9.6\r\n"
	}
	return "GET /data HTTP/1.1\r\nHost: x\r\n\r\n"
}

// dnsHostNames are the query names DNS flows draw from, built once so a
// DNS frame costs no formatting.
var dnsHostNames = func() (names [1000]string) {
	for i := range names {
		names[i] = fmt.Sprintf("host%d.fabric-testbed.net", i)
	}
	return names
}()

func clampPayload(n, min int) int {
	if n < min {
		return min
	}
	return n
}

func transportProto(k Kind, v6 bool) wire.IPProtocol {
	switch k {
	case KindICMP:
		if v6 {
			return wire.IPProtocolICMPv6
		}
		return wire.IPProtocolICMPv4
	case KindDNS, KindNTP, KindUDPBulk, KindVXLAN:
		return wire.IPProtocolUDP
	case KindGRE:
		return wire.IPProtocolGRE
	default:
		return wire.IPProtocolTCP
	}
}

// stackOverhead estimates encapsulation bytes above the transport payload
// for sizing purposes.
func stackOverhead(fs *FlowSpec) int {
	n := wire.EthernetHeaderLen + wire.Dot1QHeaderLen
	n += len(fs.MPLSLabels) * wire.MPLSHeaderLen
	if fs.Pseudowire {
		n += wire.PWControlWordLen + wire.EthernetHeaderLen
	}
	if fs.IPv6 {
		n += wire.IPv6HeaderLen
	} else {
		n += wire.IPv4HeaderLen
	}
	return n
}

// serializeRaw serializes into the generator's reusable buffer and
// returns the borrowed bytes — valid only until the next build call.
// It records where the frame's all-zero tail starts: the payload's zero
// run ends the serialized layers, and padding only appends zeros.
func (g *Generator) serializeRaw(layers []wire.SerializableLayer) ([]byte, error) {
	g.ls.layers = layers[:0] // keep the grown slice for the next build
	if err := wire.SerializeLayers(g.buf, wire.SerializeOptions{FixLengths: true}, layers...); err != nil {
		return nil, err
	}
	g.prefix = len(g.buf.Bytes()) - g.ls.zeroTail
	if err := wire.PadToMinimumFrame(g.buf); err != nil {
		return nil, err
	}
	return g.buf.Bytes(), nil
}

// SampleConfig bounds one synthesized capture window.
type SampleConfig struct {
	// Duration of the window (the paper samples 20 seconds at a time).
	Duration sim.Duration
	// MaxFrames caps the number of frames generated.
	MaxFrames int
	// MaxBytes caps the total wire bytes (roughly rate * duration).
	MaxBytes int64
	// FlowCount overrides the profile's lognormal flow-count draw when
	// positive.
	FlowCount int
}

// Sample synthesizes one capture window: a set of flows drawn from the
// profile, their frames spread over the window, sorted by timestamp.
func (g *Generator) Sample(cfg SampleConfig) ([]TimedFrame, error) {
	return g.SampleInto(cfg, nil, func(b []byte) []byte { return append([]byte(nil), b...) })
}

// SampleInto is Sample with caller-controlled memory: frames are
// appended to the passed slice (pass a recycled slice's [:0] to reuse
// its backing array, or nil) and each frame's bytes are stabilized
// through clone — typically a FrameArena's Alloc — instead of an
// individual heap copy. The RNG draw sequence is identical to Sample's,
// so from equal generator states the two produce byte-identical frame
// sequences. MaxBytes counts each frame's Size, whatever clone returns.
func (g *Generator) SampleInto(cfg SampleConfig, frames []TimedFrame, clone func([]byte) []byte) ([]TimedFrame, error) {
	return g.sample(cfg, frames, clone, false)
}

// SamplePrefixesInto is SampleInto that hands clone each frame only up
// to its all-zero tail (zero payload bytes and minimum-frame padding),
// which is most of a data frame's bytes. A consumer rebuilds a frame by
// extending Data with zeros to Size. The generator knows where each
// tail starts, so nothing scans the bytes for it.
func (g *Generator) SamplePrefixesInto(cfg SampleConfig, frames []TimedFrame, clone func([]byte) []byte) ([]TimedFrame, error) {
	return g.sample(cfg, frames, clone, true)
}

// keep stabilizes the frame just built through clone: all of it, or
// with prefixes only the bytes before its all-zero tail.
func (g *Generator) keep(raw []byte, clone func([]byte) []byte, prefixes bool) []byte {
	if prefixes {
		raw = raw[:g.prefix]
	}
	return clone(raw)
}

func (g *Generator) sample(cfg SampleConfig, frames []TimedFrame, clone func([]byte) []byte, prefixes bool) ([]TimedFrame, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = 20 * sim.Second
	}
	if cfg.MaxFrames <= 0 {
		cfg.MaxFrames = 50000
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 1 << 30
	}
	nFlows := cfg.FlowCount
	if nFlows <= 0 {
		nFlows = g.Profile.drawFlowCount(g.r)
	}
	if frames == nil {
		frames = make([]TimedFrame, 0, minInt(cfg.MaxFrames, nFlows*4))
	}
	var totalBytes int64

	// A flow-storm sample (port scans, connection stress tests) has a
	// huge number of single-frame flows; normal samples have heavy-tailed
	// per-flow budgets where bulk flows dominate the bytes.
	scanMode := nFlows > 5000
	framesLeft := cfg.MaxFrames
	for i := 0; i < nFlows && framesLeft > 0 && totalBytes < cfg.MaxBytes; i++ {
		// The spec lives only for this iteration: recycle its labels.
		fs := g.newFlow(g.labels)
		g.labels = fs.MPLSLabels
		g.tmpl[DirForward].hdr = g.tmpl[DirForward].hdr[:0]
		g.tmpl[DirReverse].hdr = g.tmpl[DirReverse].hdr[:0]
		var nData int
		switch {
		case scanMode:
			nData = 1
		case fs.Kind == KindBulkTCP || fs.Kind == KindUDPBulk:
			nData = 6 + int(g.r.Pareto(4, 1.05))
		default:
			nData = 1 + int(g.r.Pareto(1, 1.4))
			if nData > 20 {
				nData = 20
			}
		}
		if nData > framesLeft {
			nData = framesLeft
		}
		if nData > 400 {
			nData = 400
		}
		// Flows that begin inside the window show their handshake.
		flowStart := sim.Time(g.r.Int63n(int64(cfg.Duration)))
		if isTCPKind(fs.Kind) && !scanMode && g.r.Bool(0.35) && framesLeft >= 2 {
			raw, err := g.tcpSegment(&fs, DirForward, wire.TCPSyn)
			if err != nil {
				return nil, err
			}
			// The raw bytes alias the generator's buffers: stabilize each
			// frame before the next build overwrites it.
			syn, synSize := g.keep(raw, clone, prefixes), int32(len(raw))
			raw, err = g.tcpSegment(&fs, DirReverse, wire.TCPSyn|wire.TCPAck)
			if err != nil {
				return nil, err
			}
			synAck := g.keep(raw, clone, prefixes)
			frames = append(frames, TimedFrame{At: flowStart, Data: syn, Size: synSize, Dir: DirForward})
			frames = append(frames, TimedFrame{At: flowStart + sim.Time(g.r.Int63n(int64(2*sim.Millisecond))), Data: synAck, Size: int32(len(raw)), Dir: DirReverse})
			totalBytes += int64(synSize) + int64(len(raw))
			framesLeft -= 2
		}
		var lastAt sim.Time
		for j := 0; j < nData && framesLeft > 0 && totalBytes < cfg.MaxBytes; j++ {
			size := g.DataFrameSize(fs.Kind)
			if scanMode {
				size = 0 // probe-sized frames
			}
			var raw []byte
			var err error
			switch {
			case scanMode && isTCPKind(fs.Kind):
				// Port-scan probes are bare SYNs.
				raw, err = g.tcpSegment(&fs, DirForward, wire.TCPSyn)
			case isTCPKind(fs.Kind):
				raw, err = g.tcpData(&fs, size)
			default:
				raw, err = g.buildFrameRaw(&fs, DirForward, size)
			}
			if err != nil {
				return nil, fmt.Errorf("trafficgen: building %v frame: %w", fs.Kind, err)
			}
			data := g.keep(raw, clone, prefixes)
			at := sim.Time(g.r.Int63n(int64(cfg.Duration)))
			if at > lastAt {
				lastAt = at
			}
			frames = append(frames, TimedFrame{At: at, Data: data, Size: int32(len(raw)), Dir: DirForward})
			totalBytes += int64(len(raw))
			framesLeft--
			// Bulk TCP flows generate a reverse ACK for roughly every
			// fourth data frame (delayed ACKs plus receive coalescing) —
			// the source of the 65-127B frame class.
			if isTCPKind(fs.Kind) && !scanMode && j%4 == 3 && framesLeft > 0 {
				raw, err := g.tcpSegment(&fs, DirReverse, wire.TCPAck)
				if err != nil {
					return nil, err
				}
				ack := g.keep(raw, clone, prefixes)
				frames = append(frames, TimedFrame{At: at + sim.Time(g.r.Int63n(int64(sim.Millisecond))), Data: ack, Size: int32(len(raw)), Dir: DirReverse})
				totalBytes += int64(len(raw))
				framesLeft--
			}
			// Request/response kinds answer once.
			if (fs.Kind == KindDNS || fs.Kind == KindNTP || fs.Kind == KindICMP || fs.Kind == KindARP) &&
				!scanMode && framesLeft > 0 {
				raw, err := g.buildFrameRaw(&fs, DirReverse, g.DataFrameSize(fs.Kind))
				if err != nil {
					return nil, err
				}
				resp := g.keep(raw, clone, prefixes)
				frames = append(frames, TimedFrame{At: at + sim.Time(g.r.Int63n(int64(10*sim.Millisecond))), Data: resp, Size: int32(len(raw)), Dir: DirReverse})
				totalBytes += int64(len(raw))
				framesLeft--
			}
		}
		// Flows that end inside the window show their teardown; a small
		// fraction end abnormally (the RST class the profile definition
		// calls out).
		if isTCPKind(fs.Kind) && !scanMode && framesLeft > 0 {
			switch {
			case g.r.Bool(0.02):
				raw, err := g.tcpSegment(&fs, DirForward, wire.TCPRst)
				if err != nil {
					return nil, err
				}
				rst := g.keep(raw, clone, prefixes)
				frames = append(frames, TimedFrame{At: lastAt, Data: rst, Size: int32(len(raw)), Dir: DirForward})
				totalBytes += int64(len(raw))
				framesLeft--
			case g.r.Bool(0.3):
				raw, err := g.tcpSegment(&fs, DirForward, wire.TCPFin|wire.TCPAck)
				if err != nil {
					return nil, err
				}
				fin := g.keep(raw, clone, prefixes)
				frames = append(frames, TimedFrame{At: lastAt, Data: fin, Size: int32(len(raw)), Dir: DirForward})
				totalBytes += int64(len(raw))
				framesLeft--
			}
		}
	}
	// slices.SortFunc runs the same pdqsort as sort.Slice (both are
	// generated from one template), so frames with equal timestamps keep
	// the order they always had, without sort.Slice's reflection allocs.
	slices.SortFunc(frames, func(a, b TimedFrame) int { return cmp.Compare(a.At, b.At) })
	return frames, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// isTCPKind reports whether the archetype rides TCP.
func isTCPKind(k Kind) bool {
	switch k {
	case KindBulkTCP, KindTLS, KindSSH, KindHTTP:
		return true
	default:
		return false
	}
}

// BuildTCPControl builds a payload-free TCP segment of the flow carrying
// the given flags (SYN, SYN|ACK, FIN|ACK, RST, ...). It fails for
// non-TCP archetypes.
func (g *Generator) BuildTCPControl(fs *FlowSpec, dir Dir, flags wire.TCPFlags) ([]byte, error) {
	raw, err := g.buildTCPControlRaw(fs, dir, flags)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), raw...), nil
}

// buildTCPControlRaw is BuildTCPControl on the borrowed serialize
// buffer (valid until the next build call).
func (g *Generator) buildTCPControlRaw(fs *FlowSpec, dir Dir, flags wire.TCPFlags) ([]byte, error) {
	if !isTCPKind(fs.Kind) {
		return nil, fmt.Errorf("trafficgen: %v is not a TCP archetype", fs.Kind)
	}
	spec := *fs
	if dir == DirForward {
		// BuildFrame's DirReverse path emits the payload-free frame; the
		// reverse of a swapped spec travels forward.
		spec.SrcMAC, spec.DstMAC = spec.DstMAC, spec.SrcMAC
		spec.SrcIP, spec.DstIP = spec.DstIP, spec.SrcIP
		spec.SrcPort, spec.DstPort = spec.DstPort, spec.SrcPort
	}
	data, err := g.buildFrameRaw(&spec, DirReverse, 0)
	if err != nil {
		return nil, err
	}
	// The TCP header starts where the encapsulation ends; byte 13 is its
	// flags.
	data[stackOverhead(&spec)+13] = uint8(flags)
	return data, nil
}

// tcpSegment builds a payload-free segment (SYN, SYN-ACK, ACK, FIN or
// RST) of sample's current TCP flow travelling in direction dir, on the
// borrowed buffers. The flow's first frame in a direction goes through
// the layered serializer and becomes that direction's template.
func (g *Generator) tcpSegment(fs *FlowSpec, dir Dir, flags wire.TCPFlags) ([]byte, error) {
	t := &g.tmpl[dir]
	if len(t.hdr) == 0 {
		raw, err := g.buildTCPControlRaw(fs, dir, flags)
		if err != nil {
			return nil, err
		}
		t.set(fs, raw)
		return raw, nil
	}
	return g.fromTemplate(t, flags, 0, 0), nil
}

// tcpData builds a forward data frame of sample's current TCP flow, as
// buildFrameRaw would, from the forward template once there is one.
func (g *Generator) tcpData(fs *FlowSpec, wireSize int) ([]byte, error) {
	t := &g.tmpl[DirForward]
	if len(t.hdr) == 0 {
		raw, err := g.buildFrameRaw(fs, DirForward, wireSize)
		if err != nil {
			return nil, err
		}
		t.set(fs, raw)
		return raw, nil
	}
	const pshAck = wire.TCPPsh | wire.TCPAck
	payLen := clampPayload(wireSize-len(t.hdr), 1)
	switch fs.Kind {
	case KindTLS:
		n := clampPayload(payLen-5, 1)
		f := g.fromTemplate(t, pshAck, 5+n, 5)
		rec := f[len(t.hdr):]
		rec[0] = uint8(wire.TLSApplicationData)
		binary.BigEndian.PutUint16(rec[1:3], tlsVersion)
		binary.BigEndian.PutUint16(rec[3:5], uint16(n))
		return f, nil
	case KindSSH, KindHTTP:
		text := banner(fs.Kind)
		n := min(payLen, len(text))
		f := g.fromTemplate(t, pshAck, payLen, n)
		copy(f[len(t.hdr):], text[:n])
		return f, nil
	default:
		return g.fromTemplate(t, pshAck, payLen, 0), nil
	}
}

// set makes the first stackOverhead+20 bytes of raw, a frame of fs
// built by the layered serializer, the template.
func (t *tcpTemplate) set(fs *FlowSpec, raw []byte) {
	n := stackOverhead(fs)
	t.hdr = append(t.hdr[:0], raw[:n+wire.TCPHeaderLen]...)
	t.v6 = fs.IPv6
	t.ipOff = n - wire.IPv4HeaderLen
	if fs.IPv6 {
		t.ipOff = n - wire.IPv6HeaderLen
	}
}

// fromTemplate builds a frame of t's flow and direction into g.frame and
// returns it: t's headers with the IP length (and IPv4 ID) and the TCP
// seq, ack and flags written, then a payload of app bytes, padded to
// the minimum frame. The payload is zero except for its first head
// bytes, which the caller writes. It draws from the rng as the layered
// serializer does: the IPv4 ID, then seq, then ack.
func (g *Generator) fromTemplate(t *tcpTemplate, flags wire.TCPFlags, app, head int) []byte {
	hl := len(t.hdr)
	n := max(hl+app, wire.EthernetMinFrame-4)
	g.prefix = hl + head
	if len(g.frame) < n {
		g.frame = make([]byte, max(n, wire.EthernetJumboMax))
	} else if g.dirty > g.prefix {
		clear(g.frame[g.prefix:g.dirty])
	}
	g.dirty = g.prefix
	f := g.frame[:n]
	copy(f, t.hdr)
	ip, tcp := f[t.ipOff:], f[hl-wire.TCPHeaderLen:]
	if t.v6 {
		binary.BigEndian.PutUint16(ip[4:6], uint16(wire.TCPHeaderLen+app))
	} else {
		binary.BigEndian.PutUint16(ip[2:4], uint16(wire.IPv4HeaderLen+wire.TCPHeaderLen+app))
		binary.BigEndian.PutUint16(ip[4:6], uint16(g.r.Intn(1<<16)))
	}
	binary.BigEndian.PutUint32(tcp[4:8], uint32(g.r.Intn(1<<30)))
	binary.BigEndian.PutUint32(tcp[8:12], uint32(g.r.Intn(1<<30)))
	tcp[13] = uint8(flags)
	return f
}
