// Package analysis implements Patchwork's offline analysis phase
// (Section 6.2.4 of the paper): the Digest step turns raw pcap files into
// abstract header stacks ("acaps"), the Index step makes large capture
// corpora addressable, the Analyze step computes the statistics behind
// the paper's Section 8.2 figures, and the Process step emits CSV files.
//
// Flows are classified using the virtualization tags (VLAN and MPLS) in
// addition to network- and transport-layer fields, so two slices reusing
// the same 10/8 addresses are kept distinct.
package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"strconv"

	"repro/internal/pcap"
	"repro/internal/wire"
)

// FlowKey identifies a flow. Keys are comparable and usable as map keys.
type FlowKey struct {
	// VLANID and MPLSTop are the virtualization tags (0 when absent).
	VLANID  uint16
	MPLSTop uint32
	// Src and Dst are the first network-layer endpoints.
	Src, Dst wire.Endpoint
	// Proto is the transport layer type (TCP/UDP/ICMPv4/...), or
	// LayerTypeZero when none decoded.
	Proto wire.LayerType
	// SrcPort and DstPort are transport ports (0 when not applicable).
	SrcPort, DstPort uint16
}

// Canonical returns the key with src/dst ordered so both directions of a
// conversation map to the same key.
func (k FlowKey) Canonical() FlowKey {
	if shouldSwap(k) {
		k.Src, k.Dst = k.Dst, k.Src
		k.SrcPort, k.DstPort = k.DstPort, k.SrcPort
	}
	return k
}

func shouldSwap(k FlowKey) bool {
	a, b := k.Src.Raw(), k.Dst.Raw()
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] > b[i]
		}
	}
	return k.SrcPort > k.DstPort
}

// Record is one digested frame: its abstract header stack plus the
// timing, size, and flow metadata retained from the pcap.
type Record struct {
	// TimestampNanos is the capture timestamp.
	TimestampNanos int64
	// WireLen is the frame's original on-wire length.
	WireLen int
	// StoredLen is the truncated length stored in the capture.
	StoredLen int
	// Stack is the decoded header stack, outermost first.
	Stack []wire.LayerType
	// Flow is the classification key.
	Flow FlowKey
	// DecodeTruncated marks frames whose decode stopped at the snap
	// length (expected for deep payloads under truncation).
	DecodeTruncated bool
}

// Acap is the digest of one capture sample: an abstract capture.
type Acap struct {
	// Site is the (pseudonymized) site the sample came from.
	Site string
	// SampleStartNanos is the beginning of the sample window.
	SampleStartNanos int64
	// Records holds one entry per captured frame.
	Records []Record
}

// Digest runs the protocol dissectors over a pcap stream and produces the
// abstract capture. It is the analysis pipeline's slowest step, as in the
// paper ("most of this time is taken up by protocol dissectors").
func Digest(site string, r *pcap.Reader) (*Acap, error) {
	a := &Acap{Site: site}
	err := r.ForEach(func(rec *pcap.Record) error {
		a.Records = append(a.Records, DigestFrame(rec.TimestampNanos, rec.Data, rec.OriginalLength))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: digesting %s: %w", site, err)
	}
	if len(a.Records) > 0 {
		a.SampleStartNanos = a.Records[0].TimestampNanos
	}
	return a, nil
}

// DigestFrame dissects one frame into a Record.
func DigestFrame(tsNanos int64, data []byte, wireLen int) Record {
	pkt := wire.NewPacket(data, wire.LayerTypeEthernet, wire.Default)
	return frameRecord(pkt, pkt.LayerTypes(), tsNanos, len(data), wireLen)
}

// frameRecord builds the Record of a frame already decoded into pkt;
// stack is its header stack and is stored, not copied.
func frameRecord(pkt *wire.Packet, stack []wire.LayerType, tsNanos int64, storedLen, wireLen int) Record {
	fail := pkt.ErrorLayer()
	return Record{
		TimestampNanos:  tsNanos,
		WireLen:         wireLen,
		StoredLen:       storedLen,
		Stack:           stack,
		Flow:            extractFlowKey(pkt.Layers()),
		DecodeTruncated: fail != nil && wire.IsTruncated(fail.Error()),
	}
}

// extractFlowKey pulls the virtualization tags and first network and
// transport fields from a decoded layer stack.
func extractFlowKey(layers []wire.Layer) FlowKey {
	var k FlowKey
	for _, l := range layers {
		switch v := l.(type) {
		case *wire.Dot1Q:
			if k.VLANID == 0 {
				k.VLANID = v.VLANID
			}
		case *wire.MPLS:
			if k.MPLSTop == 0 {
				k.MPLSTop = v.Label
			}
		case *wire.IPv4:
			if k.Proto == wire.LayerTypeZero && k.Src == (wire.Endpoint{}) {
				k.Src = wire.NewIPEndpoint(v.SrcIP)
				k.Dst = wire.NewIPEndpoint(v.DstIP)
			}
		case *wire.IPv6:
			if k.Proto == wire.LayerTypeZero && k.Src == (wire.Endpoint{}) {
				k.Src = wire.NewIPEndpoint(v.SrcIP)
				k.Dst = wire.NewIPEndpoint(v.DstIP)
			}
		case *wire.TCP:
			if k.Proto == wire.LayerTypeZero {
				k.Proto = wire.LayerTypeTCP
				k.SrcPort, k.DstPort = v.SrcPort, v.DstPort
			}
		case *wire.UDP:
			if k.Proto == wire.LayerTypeZero {
				k.Proto = wire.LayerTypeUDP
				k.SrcPort, k.DstPort = v.SrcPort, v.DstPort
			}
		case *wire.ICMPv4:
			if k.Proto == wire.LayerTypeZero {
				k.Proto = wire.LayerTypeICMPv4
			}
		case *wire.ICMPv6:
			if k.Proto == wire.LayerTypeZero {
				k.Proto = wire.LayerTypeICMPv6
			}
		case *wire.ARP:
			if k.Proto == wire.LayerTypeZero {
				k.Proto = wire.LayerTypeARP
				k.Src = wire.NewIPEndpoint(v.SenderIP)
				k.Dst = wire.NewIPEndpoint(v.TargetIP)
			}
		}
	}
	return k
}

// Encode serializes the acap as JSON (one object and a newline) through
// an AcapEncoder. The format is stable across runs for a given input.
func (a *Acap) Encode(w io.Writer) error {
	var enc AcapEncoder
	enc.Begin(w, a.Site, a.SampleStartNanos)
	for i := range a.Records {
		if err := enc.Write(&a.Records[i]); err != nil {
			return err
		}
	}
	_, err := enc.End()
	return err
}

// AcapEncoder streams acaps as JSON one record at a time through a
// reused buffer, so writing an acap needs neither its records in memory
// nor reflection. An acap is
//
//	{"site":S,"start":T,"records":[R,...]}
//
// and a newline, where each record R is
//
//	{"ts":…,"wire":…,"stored":…,"stack":[…],"vlan":…,"mpls":…,"src":"…","dst":"…","proto":…,"sport":…,"dport":…,"trunc":true}
//
// with stack the layer types as integers, endpoints in their text form
// ("invalid" for the zero endpoint), and vlan, mpls, proto, sport, dport
// and trunc omitted when zero. These are exactly the bytes encoding/json
// writes for that structure with omitempty on the optional fields; the
// package tests keep the reflective form as the oracle. One encoder
// writes any number of acaps in turn. Not safe for concurrent use.
type AcapEncoder struct {
	w     io.Writer
	buf   []byte
	entry IndexEntry
	err   error
}

// acapFlushBytes is the buffered size at which Write hands the encoded
// bytes to the writer.
const acapFlushBytes = 64 << 10

// Begin starts an acap for site whose sample starts at startNanos,
// written to w.
func (e *AcapEncoder) Begin(w io.Writer, site string, startNanos int64) {
	e.w, e.err = w, nil
	e.entry = IndexEntry{Site: site}
	// The site goes through encoding/json itself, once per acap, so its
	// escaping (HTML-safe, U+2028/U+2029, invalid UTF-8) is the oracle's.
	// Marshaling a string cannot fail.
	quoted, _ := json.Marshal(site)
	e.buf = append(e.buf[:0], `{"site":`...)
	e.buf = append(e.buf, quoted...)
	e.buf = append(e.buf, `,"start":`...)
	e.buf = strconv.AppendInt(e.buf, startNanos, 10)
	e.buf = append(e.buf, `,"records":[`...)
}

// Write appends one record to the acap begun last. r is only read
// during the call.
func (e *AcapEncoder) Write(r *Record) error {
	if e.entry.Frames > 0 {
		e.buf = append(e.buf, ',')
	}
	e.entry.add(r)
	e.buf = appendRecordJSON(e.buf, r)
	if len(e.buf) >= acapFlushBytes {
		return e.flush()
	}
	return e.err
}

// End finishes the acap and writes out what is still buffered. It
// returns the acap's index entry with Site, the time span, Frames and
// Bytes filled in; Path and DistinctFlows are the caller's.
func (e *AcapEncoder) End() (IndexEntry, error) {
	e.buf = append(e.buf, "]}\n"...)
	return e.entry, e.flush()
}

// flush hands the buffer to the writer. After a write error the acap's
// remaining bytes are dropped and every call reports that error.
func (e *AcapEncoder) flush() error {
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
	return e.err
}

// appendRecordJSON appends one record's JSON object.
func appendRecordJSON(b []byte, r *Record) []byte {
	b = append(b, `{"ts":`...)
	b = strconv.AppendInt(b, r.TimestampNanos, 10)
	b = append(b, `,"wire":`...)
	b = strconv.AppendInt(b, int64(r.WireLen), 10)
	b = append(b, `,"stored":`...)
	b = strconv.AppendInt(b, int64(r.StoredLen), 10)
	b = append(b, `,"stack":[`...)
	for i, t := range r.Stack {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(t), 10)
	}
	b = append(b, ']')
	f := &r.Flow
	b = appendNonZero(b, `,"vlan":`, int64(f.VLANID))
	b = appendNonZero(b, `,"mpls":`, int64(f.MPLSTop))
	// An endpoint's text is never empty, so src and dst are always
	// present, and never needs JSON escaping.
	b = append(b, `,"src":"`...)
	b = appendEndpoint(b, f.Src)
	b = append(b, `","dst":"`...)
	b = appendEndpoint(b, f.Dst)
	b = append(b, '"')
	b = appendNonZero(b, `,"proto":`, int64(f.Proto))
	b = appendNonZero(b, `,"sport":`, int64(f.SrcPort))
	b = appendNonZero(b, `,"dport":`, int64(f.DstPort))
	if r.DecodeTruncated {
		b = append(b, `,"trunc":true`...)
	}
	return append(b, '}')
}

// appendNonZero appends key and v, or nothing when v is zero (the
// omitempty fields).
func appendNonZero(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), v, 10)
}

// appendEndpoint appends ep.String(), without allocating for the IP
// families and the zero endpoint (the only kinds a FlowKey holds).
func appendEndpoint(b []byte, ep wire.Endpoint) []byte {
	switch ep.Type() {
	case wire.EndpointIPv4:
		return netip.AddrFrom4([4]byte(ep.Raw())).AppendTo(b)
	case wire.EndpointIPv6:
		return netip.AddrFrom16([16]byte(ep.Raw())).AppendTo(b)
	}
	return append(b, ep.String()...)
}

// StackString renders a record's header stack like
// "Ethernet/Dot1Q/MPLS/IPv4/TCP".
func (r *Record) StackString() string {
	s := ""
	for i, t := range r.Stack {
		if i > 0 {
			s += "/"
		}
		s += t.String()
	}
	return s
}
