package analysis

import (
	"encoding/csv"
	"io"
	"sort"
	"strconv"

	"repro/internal/wire"
)

// The Process step: CSV emitters matching the paper's analysis outputs.
// Each writer produces a header row followed by data rows; numbers use
// plain decimal formatting so downstream plotting scripts stay simple.

// WriteFrameSizeHistCSV emits a frame-size histogram (Fig. 15 per site /
// Section 8.2 aggregate): bucket,count,percent.
func WriteFrameSizeHistCSV(w io.Writer, h []int) error {
	total := 0
	for _, c := range h {
		total += c
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"bucket", "count", "percent"}); err != nil {
		return err
	}
	for i, c := range h {
		pct := 0.0
		if total > 0 {
			pct = float64(c) / float64(total) * 100
		}
		if err := cw.Write([]string{
			FrameSizeBucketLabel(i),
			strconv.Itoa(c),
			strconv.FormatFloat(pct, 'f', 2, 64),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteHeaderOccurrenceMapCSV emits Fig. 12 from a header-occurrence
// map: header,percent (sorted descending).
func WriteHeaderOccurrenceMapCSV(w io.Writer, occ map[wire.LayerType]float64) error {
	type row struct {
		t   wire.LayerType
		pct float64
	}
	rows := make([]row, 0, len(occ))
	for t, p := range occ {
		rows = append(rows, row{t, p})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].pct != rows[j].pct {
			return rows[i].pct > rows[j].pct
		}
		return rows[i].t < rows[j].t
	})
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"header", "percent_of_frames"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write([]string{r.t.String(), strconv.FormatFloat(r.pct, 'f', 2, 64)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSiteHeaderStatsCSV emits Fig. 11: site,distinct_headers,max_depth.
func WriteSiteHeaderStatsCSV(w io.Writer, stats []SiteHeaderStats) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"site", "distinct_headers", "max_stack_depth", "frames"}); err != nil {
		return err
	}
	for _, s := range stats {
		if err := cw.Write([]string{
			s.Site, strconv.Itoa(s.DistinctHeaders),
			strconv.Itoa(s.MaxStackDepth), strconv.Itoa(s.Frames),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFlowCountCSV emits Fig. 13: flows_bucket,samples.
func WriteFlowCountCSV(w io.Writer, counts []int) error {
	h := FlowCountHistogram(counts)
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"flows_in_sample", "samples"}); err != nil {
		return err
	}
	for i, c := range h {
		if err := cw.Write([]string{FlowCountBucketLabel(i), strconv.Itoa(c)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFlowAggregateCSV emits the flow-size aggregation: rank,frames,bytes.
// Only the top n flows are written when n > 0.
func WriteFlowAggregateCSV(w io.Writer, flows []FlowAggregate, n int) error {
	if n <= 0 || n > len(flows) {
		n = len(flows)
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"rank", "frames", "bytes", "proto"}); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		f := flows[i]
		if err := cw.Write([]string{
			strconv.Itoa(i + 1), strconv.Itoa(f.Frames),
			strconv.FormatInt(f.Bytes, 10), f.Key.Proto.String(),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteStackPatternsCSV emits the encapsulation census: pattern,frames.
// Only the top n patterns are written when n > 0.
func WriteStackPatternsCSV(w io.Writer, ps []StackPattern, n int) error {
	if n <= 0 || n > len(ps) {
		n = len(ps)
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"pattern", "frames"}); err != nil {
		return err
	}
	for _, p := range ps[:n] {
		if err := cw.Write([]string{p.Pattern, strconv.Itoa(p.Frames)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSiteProtocolCSV emits per-site protocol shares.
func WriteSiteProtocolCSV(w io.Writer, shares []SiteProtocolShare) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"site", "frames", "ipv4_pct", "ipv6_pct", "tcp_pct", "udp_pct"}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
	for _, s := range shares {
		if err := cw.Write([]string{
			s.Site, strconv.Itoa(s.Frames),
			f(s.IPv4Percent), f(s.IPv6Percent), f(s.TCPPercent), f(s.UDPPercent),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTCPFlagsCSV emits the control-information summary.
func WriteTCPFlagsCSV(w io.Writer, c TCPFlagCounts) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"metric", "count"}); err != nil {
		return err
	}
	rows := [][2]string{
		{"tcp_segments", strconv.Itoa(c.Segments)},
		{"syn", strconv.Itoa(c.Syn)},
		{"syn_ack", strconv.Itoa(c.SynAck)},
		{"fin", strconv.Itoa(c.Fin)},
		{"rst", strconv.Itoa(c.Rst)},
		{"pure_ack", strconv.Itoa(c.PureAck)},
	}
	for _, r := range rows {
		if err := cw.Write(r[:]); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
