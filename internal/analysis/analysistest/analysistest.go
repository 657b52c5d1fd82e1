// Package analysistest is the reference the streaming analysis.Digester
// is checked against: the materialized pipeline, which holds every acap
// record in memory and folds each statistic over the whole slice. Only
// tests import it.
//
// Each function here is built from Record and Acap fields alone (and
// CountTCPFlags from the raw frames) and shares no fold code with the
// Digester: its own size bucketing, stack names and TCP flag tally. A
// fault in the Digester's fold therefore shows up as a difference
// instead of hiding on both sides of the comparison.
package analysistest

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/pcap"
	"repro/internal/wire"
)

// Digest reads every frame of a capture into a materialized acap whose
// sample start is its first record's timestamp.
func Digest(site string, r *pcap.Reader) (*analysis.Acap, error) {
	a := &analysis.Acap{Site: site}
	err := r.ForEach(func(rec *pcap.Record) error {
		a.Records = append(a.Records, analysis.DigestFrame(rec.TimestampNanos, rec.Data, rec.OriginalLength))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("analysistest: digesting %s: %w", site, err)
	}
	if len(a.Records) > 0 {
		a.SampleStartNanos = a.Records[0].TimestampNanos
	}
	return a, nil
}

// FrameSizeHistogram counts frames per analysis.FrameSizeBuckets bucket
// by original wire length; the final slot counts frames above the last
// bound.
func FrameSizeHistogram(recs []analysis.Record) []int {
	h := make([]int, len(analysis.FrameSizeBuckets)+1)
	for _, r := range recs {
		i := sort.SearchInts(analysis.FrameSizeBuckets, r.WireLen)
		h[i]++
	}
	return h
}

// HeaderOccurrence reports, per layer type, occurrences per frame as a
// percentage of frames (Fig. 12); nil for no frames.
func HeaderOccurrence(recs []analysis.Record) map[wire.LayerType]float64 {
	if len(recs) == 0 {
		return nil
	}
	counts := make(map[wire.LayerType]int)
	for _, r := range recs {
		for _, t := range r.Stack {
			counts[t]++
		}
	}
	out := make(map[wire.LayerType]float64, len(counts))
	for t, c := range counts {
		out[t] = float64(c) / float64(len(recs)) * 100
	}
	return out
}

// HeaderStatsBySite computes Fig. 11's rows: sites in first-seen order,
// stably sorted by distinct-header count descending.
func HeaderStatsBySite(acaps []*analysis.Acap) []analysis.SiteHeaderStats {
	var out []analysis.SiteHeaderStats
	var distinct []map[wire.LayerType]bool
	at := map[string]int{}
	for _, a := range acaps {
		i, ok := at[a.Site]
		if !ok {
			i = len(out)
			at[a.Site] = i
			out = append(out, analysis.SiteHeaderStats{Site: a.Site})
			distinct = append(distinct, map[wire.LayerType]bool{})
		}
		st := &out[i]
		for _, r := range a.Records {
			st.Frames++
			st.MaxStackDepth = max(st.MaxStackDepth, len(r.Stack))
			for _, t := range r.Stack {
				distinct[i][t] = true
			}
		}
	}
	for i := range out {
		out[i].DistinctHeaders = len(distinct[i])
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].DistinctHeaders > out[j].DistinctHeaders
	})
	return out
}

// AggregateFlows merges every canonical flow's frames and bytes across
// samples: flows in first-seen order, stably sorted by bytes descending.
func AggregateFlows(acaps []*analysis.Acap) []analysis.FlowAggregate {
	var out []analysis.FlowAggregate
	at := map[analysis.FlowKey]int{}
	for _, a := range acaps {
		for _, r := range a.Records {
			k := r.Flow.Canonical()
			i, ok := at[k]
			if !ok {
				i = len(out)
				at[k] = i
				out = append(out, analysis.FlowAggregate{Key: k})
			}
			out[i].Frames++
			out[i].Bytes += int64(r.WireLen)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Bytes > out[j].Bytes })
	return out
}

// EncapsulationCensus counts the distinct header-stack patterns, named
// like "Ethernet/Dot1Q/MPLS/IPv4/TCP": first-seen order, stably sorted
// by frames descending, then by pattern.
func EncapsulationCensus(recs []analysis.Record) []analysis.StackPattern {
	var out []analysis.StackPattern
	at := map[string]int{}
	for _, r := range recs {
		names := make([]string, len(r.Stack))
		for i, t := range r.Stack {
			names[i] = t.String()
		}
		p := strings.Join(names, "/")
		i, ok := at[p]
		if !ok {
			i = len(out)
			at[p] = i
			out = append(out, analysis.StackPattern{Pattern: p})
		}
		out[i].Frames++
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Frames != out[j].Frames {
			return out[i].Frames > out[j].Frames
		}
		return out[i].Pattern < out[j].Pattern
	})
	return out
}

// ProtocolShareBySite computes each site's IPv4/IPv6 and TCP/UDP shares
// of its frames, sites in first-seen order.
func ProtocolShareBySite(acaps []*analysis.Acap) []analysis.SiteProtocolShare {
	var recs [][]analysis.Record
	var out []analysis.SiteProtocolShare
	at := map[string]int{}
	for _, a := range acaps {
		i, ok := at[a.Site]
		if !ok {
			i = len(out)
			at[a.Site] = i
			out = append(out, analysis.SiteProtocolShare{Site: a.Site})
			recs = append(recs, nil)
		}
		recs[i] = append(recs[i], a.Records...)
	}
	for i := range out {
		s := &out[i]
		s.Frames = len(recs[i])
		if s.Frames == 0 {
			continue
		}
		occ := HeaderOccurrence(recs[i])
		s.IPv4Percent = occ[wire.LayerTypeIPv4]
		s.IPv6Percent = occ[wire.LayerTypeIPv6]
		s.TCPPercent = occ[wire.LayerTypeTCP]
		s.UDPPercent = occ[wire.LayerTypeUDP]
	}
	return out
}

// CountTCPFlags decodes each raw frame again and tallies the flags of
// its first TCP layer. A RST counts as Rst alone, whatever else is set;
// otherwise a SYN counts as SynAck with ACK and as Syn without. FIN
// counts whatever else is set. A PureAck has only ACK set and carries
// no payload.
func CountTCPFlags(frames [][]byte) analysis.TCPFlagCounts {
	var c analysis.TCPFlagCounts
	var pkt wire.Packet
	for _, data := range frames {
		pkt.Reset(data, wire.LayerTypeEthernet, wire.LazyNoCopy)
		tcp, ok := pkt.Layer(wire.LayerTypeTCP).(*wire.TCP)
		if !ok {
			continue
		}
		c.Segments++
		f := tcp.Flags
		syn, ack := f&wire.TCPSyn != 0, f&wire.TCPAck != 0
		if f&wire.TCPRst != 0 {
			c.Rst++
		} else if syn && ack {
			c.SynAck++
		} else if syn {
			c.Syn++
		}
		if f&wire.TCPFin != 0 {
			c.Fin++
		}
		if f == wire.TCPAck && len(tcp.LayerPayload()) == 0 {
			c.PureAck++
		}
	}
	return c
}

// CSVs writes the CSV set pwanalyze writes, by file name, from the
// materialized acaps and the raw frames they were digested from.
func CSVs(acaps []*analysis.Acap, raw [][]byte) (map[string][]byte, error) {
	var recs []analysis.Record
	counts := make([]int, len(acaps))
	for i, a := range acaps {
		recs = append(recs, a.Records...)
		counts[i] = analysis.FlowsInSample(a)
	}
	out := map[string][]byte{}
	for _, c := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"frame_sizes.csv", func(w io.Writer) error {
			return analysis.WriteFrameSizeHistCSV(w, FrameSizeHistogram(recs))
		}},
		{"header_occurrence.csv", func(w io.Writer) error {
			return analysis.WriteHeaderOccurrenceMapCSV(w, HeaderOccurrence(recs))
		}},
		{"site_headers.csv", func(w io.Writer) error {
			return analysis.WriteSiteHeaderStatsCSV(w, HeaderStatsBySite(acaps))
		}},
		{"flow_counts.csv", func(w io.Writer) error { return analysis.WriteFlowCountCSV(w, counts) }},
		{"flow_aggregate.csv", func(w io.Writer) error {
			return analysis.WriteFlowAggregateCSV(w, AggregateFlows(acaps), 100)
		}},
		{"encapsulations.csv", func(w io.Writer) error {
			return analysis.WriteStackPatternsCSV(w, EncapsulationCensus(recs), 50)
		}},
		{"site_protocols.csv", func(w io.Writer) error {
			return analysis.WriteSiteProtocolCSV(w, ProtocolShareBySite(acaps))
		}},
		{"tcp_flags.csv", func(w io.Writer) error { return analysis.WriteTCPFlagsCSV(w, CountTCPFlags(raw)) }},
	} {
		var b bytes.Buffer
		if err := c.write(&b); err != nil {
			return nil, fmt.Errorf("analysistest: %s: %w", c.name, err)
		}
		out[c.name] = b.Bytes()
	}
	return out, nil
}
