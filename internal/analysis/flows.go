package analysis

import "repro/internal/wire"

// This file holds the flow-level characteristics the paper's profile
// definition calls for (Section 4) beyond sizes and header counts: the
// presence of important control information such as RST-flagged
// packets, the census of encapsulation patterns, and per-site protocol
// shares.

// TCPFlagCounts tallies control-flag occurrences across TCP frames.
type TCPFlagCounts struct {
	Segments int // TCP frames seen
	Syn      int
	SynAck   int
	Fin      int
	Rst      int
	PureAck  int // payload-free ACKs (the minimum-size frame class)
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

// StackPattern is one encapsulation pattern and its frequency: the
// "typical encapsulations" view behind the paper's examples like
// Ethernet/VLAN/MPLS/MPLS/PseudoWire/Ethernet/IPv4/TCP/TLS.
type StackPattern struct {
	Pattern string
	Frames  int
}

// SiteProtocolShare reports one site's IPv4/IPv6 and TCP/UDP splits
// (the per-site breakdown behind the testbed-wide Fig. 12 aggregates).
type SiteProtocolShare struct {
	Site        string
	Frames      int
	IPv4Percent float64
	IPv6Percent float64
	TCPPercent  float64
	UDPPercent  float64
}
