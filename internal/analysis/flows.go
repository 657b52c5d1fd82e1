package analysis

import (
	"sort"

	"repro/internal/wire"
)

// This file extends the Analyze step with the flow-level characteristics
// the paper's profile definition calls for (Section 4): flow durations,
// the presence of important control information such as RST-flagged
// packets, and the census of encapsulation patterns.

// TCPFlagCounts tallies control-flag occurrences across TCP frames.
type TCPFlagCounts struct {
	Segments int // TCP frames seen
	Syn      int
	SynAck   int
	Fin      int
	Rst      int
	PureAck  int // payload-free ACKs (the minimum-size frame class)
}

// CountTCPFlags re-dissects stored frame bytes for flag analysis. It
// accepts raw stored frames (from pcap records) because the acap
// representation deliberately discards header field values.
func CountTCPFlags(frames [][]byte) TCPFlagCounts {
	var out TCPFlagCounts
	// One pooled packet serves every frame: Reset reuses the layer
	// structs, and LazyNoCopy borrows the frame bytes (safe — nothing
	// here outlives the loop iteration).
	var pkt wire.Packet
	for _, data := range frames {
		pkt.Reset(data, wire.LayerTypeEthernet, wire.LazyNoCopy)
		tl := pkt.Layer(wire.LayerTypeTCP)
		if tl == nil {
			continue
		}
		out.add(summarizeTCP(tl.(*wire.TCP)))
	}
	return out
}

// TCPSummary is what the flag tally needs of a frame's first TCP layer.
type TCPSummary struct {
	Present bool          // the frame has a TCP layer
	Flags   wire.TCPFlags // its flags
	Empty   bool          // it carries no payload
}

// summarizeTCP summarizes one TCP segment.
func summarizeTCP(tcp *wire.TCP) TCPSummary {
	return TCPSummary{Present: true, Flags: tcp.Flags, Empty: len(tcp.LayerPayload()) == 0}
}

// add tallies one TCP segment.
func (c *TCPFlagCounts) add(tcp TCPSummary) {
	c.Segments++
	switch {
	case tcp.Flags&wire.TCPRst != 0:
		c.Rst++
	case tcp.Flags&wire.TCPSyn != 0 && tcp.Flags&wire.TCPAck != 0:
		c.SynAck++
	case tcp.Flags&wire.TCPSyn != 0:
		c.Syn++
	}
	if tcp.Flags&wire.TCPFin != 0 {
		c.Fin++
	}
	if tcp.Flags == wire.TCPAck && tcp.Empty {
		c.PureAck++
	}
}

// FlowTimes summarizes one flow's observed lifetime within the capture.
type FlowTimes struct {
	Key                   FlowKey
	FirstNanos, LastNanos int64
	Frames                int
}

// DurationNanos is the observed span. A single-frame flow has zero
// duration (the paper notes samples rarely capture entire flows).
func (f FlowTimes) DurationNanos() int64 { return f.LastNanos - f.FirstNanos }

// FlowDurations computes the observed first/last timestamps per
// canonical flow across the given acaps, sorted by duration descending.
func FlowDurations(acaps []*Acap) []FlowTimes {
	m := map[FlowKey]*FlowTimes{}
	var order []FlowKey
	for _, a := range acaps {
		for _, r := range a.Records {
			k := r.Flow.Canonical()
			ft, ok := m[k]
			if !ok {
				ft = &FlowTimes{Key: k, FirstNanos: r.TimestampNanos, LastNanos: r.TimestampNanos}
				m[k] = ft
				order = append(order, k)
			}
			if r.TimestampNanos < ft.FirstNanos {
				ft.FirstNanos = r.TimestampNanos
			}
			if r.TimestampNanos > ft.LastNanos {
				ft.LastNanos = r.TimestampNanos
			}
			ft.Frames++
		}
	}
	out := make([]FlowTimes, 0, len(order))
	for _, k := range order {
		out = append(out, *m[k])
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].DurationNanos() > out[j].DurationNanos()
	})
	return out
}

// StackPattern is one encapsulation pattern and its frequency.
type StackPattern struct {
	Pattern string
	Frames  int
}

// EncapsulationCensus counts the distinct header-stack patterns in the
// records, most frequent first — the "typical encapsulations" view
// behind the paper's examples like
// Ethernet/VLAN/MPLS/MPLS/PseudoWire/Ethernet/IPv4/TCP/TLS.
func EncapsulationCensus(recs []Record) []StackPattern {
	counts := map[string]int{}
	var order []string
	for i := range recs {
		p := recs[i].StackString()
		if _, seen := counts[p]; !seen {
			order = append(order, p)
		}
		counts[p]++
	}
	out := make([]StackPattern, 0, len(order))
	for _, p := range order {
		out = append(out, StackPattern{Pattern: p, Frames: counts[p]})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Frames != out[j].Frames {
			return out[i].Frames > out[j].Frames
		}
		return out[i].Pattern < out[j].Pattern
	})
	return out
}

// SiteProtocolShare reports one site's IPv4/IPv6 and TCP/UDP splits.
type SiteProtocolShare struct {
	Site        string
	Frames      int
	IPv4Percent float64
	IPv6Percent float64
	TCPPercent  float64
	UDPPercent  float64
}

// ProtocolShareBySite computes per-site protocol shares (the per-site
// breakdown behind the testbed-wide Fig. 12 aggregates).
func ProtocolShareBySite(acaps []*Acap) []SiteProtocolShare {
	type agg struct {
		frames, v4, v6, tcp, udp int
	}
	m := map[string]*agg{}
	var order []string
	for _, a := range acaps {
		st, ok := m[a.Site]
		if !ok {
			st = &agg{}
			m[a.Site] = st
			order = append(order, a.Site)
		}
		for _, r := range a.Records {
			st.frames++
			for _, t := range r.Stack {
				switch t {
				case wire.LayerTypeIPv4:
					st.v4++
				case wire.LayerTypeIPv6:
					st.v6++
				case wire.LayerTypeTCP:
					st.tcp++
				case wire.LayerTypeUDP:
					st.udp++
				}
			}
		}
	}
	out := make([]SiteProtocolShare, 0, len(order))
	for _, site := range order {
		st := m[site]
		s := SiteProtocolShare{Site: site, Frames: st.frames}
		if st.frames > 0 {
			n := float64(st.frames)
			s.IPv4Percent = float64(st.v4) / n * 100
			s.IPv6Percent = float64(st.v6) / n * 100
			s.TCPPercent = float64(st.tcp) / n * 100
			s.UDPPercent = float64(st.udp) / n * 100
		}
		out = append(out, s)
	}
	return out
}

// TruncatedDecodeShare reports the fraction of records whose dissection
// stopped at the snap length — a sanity signal for choosing truncation
// lengths (200 bytes keeps the full header stack for nearly all FABRIC
// traffic).
func TruncatedDecodeShare(recs []Record) float64 {
	if len(recs) == 0 {
		return 0
	}
	n := 0
	for _, r := range recs {
		if r.DecodeTruncated {
			n++
		}
	}
	return float64(n) / float64(len(recs))
}
