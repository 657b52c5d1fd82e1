package analysis

import (
	"fmt"
	"sort"

	"repro/internal/flowstore"
	"repro/internal/pcap"
	"repro/internal/wire"
)

// This file is the Analyze step: a single-pass, bounded-memory digest
// pipeline. The Digester folds every statistic in one pass over frames
// delivered through a reusable buffer, decoding each frame once with a
// pooled wire.Packet. Its results are defined to be identical —
// bit-for-bit, including orderings — to those of the materialized
// pipeline in package analysistest, which folds every record held in
// memory; the equivalence tests pin that.
//
// Memory is bounded two ways: the packet/stack/pattern scratch is
// reused per frame, and the flow table spills its coldest entries to a
// columnar on-disk flow store when it exceeds the hot budget.

// DigestOptions configure a Digester.
type DigestOptions struct {
	// MaxHotFlows bounds the in-memory flow table; when exceeded, the
	// coldest half (least-recently-seen) is spilled to Spill. Zero means
	// unbounded (nothing spills).
	MaxHotFlows int
	// Spill receives spilled flow rows. With MaxHotFlows > 0 and no
	// writer, spilled rows are dropped: memory stays bounded and the
	// per-sample flow counts stay exact, but Aggregates loses the
	// counts of spilled flows.
	Spill *flowstore.Writer
}

// Digester folds analysis statistics over a stream of frames grouped
// into site samples. Not safe for concurrent use.
type Digester struct {
	dec Decoder // Frame's

	frames   int
	sizeHist []int

	headerCounts [wire.LayerTypeCount]int

	sites     map[string]*siteAcc
	siteOrder []string
	curSite   *siteAcc

	// The encapsulation census is keyed by the stack's layer types, one
	// byte each; a pattern's "Ethernet/Dot1Q/..." name is built once,
	// when the pattern is first seen.
	censusKey []byte
	census    map[string]int // census key -> index in patterns
	patterns  []StackPattern // first-seen order

	flags TCPFlagCounts

	flows *FlowTable

	sampleCounts []int
	inSample     bool
}

// siteAcc accumulates one site's statistics.
type siteAcc struct {
	name             string
	frames           int
	maxDepth         int
	distinct         [wire.LayerTypeCount]bool
	nDistinct        int
	v4, v6, tcp, udp int
	sizeHist         []int
	jumbo            int
}

// NewDigester builds a streaming digester.
func NewDigester(opt DigestOptions) *Digester {
	return &Digester{
		sizeHist: make([]int, len(FrameSizeBuckets)+1),
		sites:    make(map[string]*siteAcc),
		census:   make(map[string]int),
		flows:    NewFlowTable(opt.MaxHotFlows, opt.Spill),
	}
}

// Flows exposes the digester's flow table.
func (d *Digester) Flows() *FlowTable { return d.flows }

// StartSample begins a new capture sample attributed to site.
func (d *Digester) StartSample(site string) {
	if d.inSample {
		d.EndSample()
	}
	sa, ok := d.sites[site]
	if !ok {
		sa = &siteAcc{name: site, sizeHist: make([]int, len(FrameSizeBuckets)+1)}
		d.sites[site] = sa
		d.siteOrder = append(d.siteOrder, site)
	}
	d.curSite = sa
	d.flows.startSample(site)
	d.inSample = true
}

// EndSample closes the current sample and returns its distinct-flow
// count (FlowsInSample's quantity).
func (d *Digester) EndSample() int {
	if !d.inSample {
		return 0
	}
	n := d.flows.endSample()
	d.sampleCounts = append(d.sampleCounts, n)
	d.inSample = false
	return n
}

// Frame digests one frame: data is the stored (possibly truncated)
// bytes, wireLen the original on-wire length. The data slice is only
// read during the call and may be reused by the caller afterwards.
// StartSample must have been called. Frame is a Decode and a Fold; the
// frame's acap record is then available from Record.
func (d *Digester) Frame(tsNanos int64, data []byte, wireLen int) error {
	return d.Fold(d.dec.Decode(tsNanos, data, wireLen))
}

// Record returns the acap record of the frame last passed to Frame:
// what DigestFrame returns for the same frame. The record and its Stack
// are borrowed: the next Frame overwrites them.
func (d *Digester) Record() *Record { return &d.dec.rec }

// Fold folds one decoded frame into every statistic: the frame sizes,
// the header and site counters, the encapsulation census, the TCP flags
// and the flow table. It reads only r, and only during the call.
// StartSample must have been called.
func (d *Digester) Fold(r *Record) error {
	if d.curSite == nil {
		return fmt.Errorf("analysis: Frame before StartSample")
	}
	d.frames++
	sa := d.curSite
	sa.frames++

	// Size statistics, by original wire length.
	sb := sizeBucket(r.WireLen)
	d.sizeHist[sb]++
	sa.sizeHist[sb]++
	if r.WireLen > JumboThreshold {
		sa.jumbo++
	}
	if len(r.Stack) > sa.maxDepth {
		sa.maxDepth = len(r.Stack)
	}
	if r.TCP.Present {
		d.flags.add(r.TCP)
	}

	// One pass over the stack yields the census key and the header and
	// site counters.
	d.censusKey = d.censusKey[:0]
	for _, t := range r.Stack {
		d.censusKey = append(d.censusKey, byte(t))
		d.headerCounts[t]++
		if !sa.distinct[t] {
			sa.distinct[t] = true
			sa.nDistinct++
		}
		switch t {
		case wire.LayerTypeIPv4:
			sa.v4++
		case wire.LayerTypeIPv6:
			sa.v6++
		case wire.LayerTypeTCP:
			sa.tcp++
		case wire.LayerTypeUDP:
			sa.udp++
		}
	}
	// string(censusKey) in a lookup does not allocate; only a new
	// pattern stores its key and builds its name.
	if i, ok := d.census[string(d.censusKey)]; ok {
		d.patterns[i].Frames++
	} else {
		d.census[string(d.censusKey)] = len(d.patterns)
		d.patterns = append(d.patterns, StackPattern{Pattern: stackName(r.Stack), Frames: 1})
	}

	// Flow accounting on the canonical key.
	return d.flows.Observe(r.Flow.Canonical(), r.TimestampNanos, r.WireLen)
}

// DigestStream runs a pcap.Stream through the digester as one sample.
func (d *Digester) DigestStream(site string, s pcap.Stream) error {
	d.StartSample(site)
	err := pcap.ForEachStream(s, func(rec *pcap.Record) error {
		return d.Frame(rec.TimestampNanos, rec.Data, rec.OriginalLength)
	})
	d.EndSample()
	return err
}

// --- Result views ---

// Frames returns the total frames digested.
func (d *Digester) Frames() int { return d.frames }

// FrameSizeHist returns the frame count per FrameSizeBuckets bucket, by
// original wire length, over every digested frame; the final slot counts
// frames above the last bound.
func (d *Digester) FrameSizeHist() []int {
	return append([]int(nil), d.sizeHist...)
}

// SiteFrameSizeHist returns the per-site histogram, frame count and
// count of frames above JumboThreshold (Fig. 15's per-site rows); ok is
// false for unseen sites.
func (d *Digester) SiteFrameSizeHist(site string) (hist []int, frames, jumbo int, ok bool) {
	sa, found := d.sites[site]
	if !found {
		return nil, 0, 0, false
	}
	return append([]int(nil), sa.sizeHist...), sa.frames, sa.jumbo, true
}

// HeaderOccurrence reports, for each layer type, occurrences per frame
// as a percentage of frames; nil before the first frame. Ethernet
// exceeds 100% when frames carry inner Ethernet headers (pseudowires),
// exactly as in the paper's Fig. 12.
func (d *Digester) HeaderOccurrence() map[wire.LayerType]float64 {
	if d.frames == 0 {
		return nil
	}
	out := make(map[wire.LayerType]float64)
	for t, c := range d.headerCounts {
		if c > 0 {
			out[wire.LayerType(t)] = float64(c) / float64(d.frames) * 100
		}
	}
	return out
}

// SiteOrder returns sites in first-seen order.
func (d *Digester) SiteOrder() []string {
	return append([]string(nil), d.siteOrder...)
}

// SiteHeaderStats returns Fig. 11's rows: first-seen site order, stably
// sorted by distinct-header count descending.
func (d *Digester) SiteHeaderStats() []SiteHeaderStats {
	out := make([]SiteHeaderStats, 0, len(d.siteOrder))
	for _, site := range d.siteOrder {
		sa := d.sites[site]
		out = append(out, SiteHeaderStats{
			Site:            sa.name,
			DistinctHeaders: sa.nDistinct,
			MaxStackDepth:   sa.maxDepth,
			Frames:          sa.frames,
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].DistinctHeaders > out[j].DistinctHeaders
	})
	return out
}

// SiteProtocolShares returns each site's protocol shares in first-seen
// site order.
func (d *Digester) SiteProtocolShares() []SiteProtocolShare {
	out := make([]SiteProtocolShare, 0, len(d.siteOrder))
	for _, site := range d.siteOrder {
		sa := d.sites[site]
		s := SiteProtocolShare{Site: sa.name, Frames: sa.frames}
		if sa.frames > 0 {
			n := float64(sa.frames)
			s.IPv4Percent = float64(sa.v4) / n * 100
			s.IPv6Percent = float64(sa.v6) / n * 100
			s.TCPPercent = float64(sa.tcp) / n * 100
			s.UDPPercent = float64(sa.udp) / n * 100
		}
		out = append(out, s)
	}
	return out
}

// EncapCensus returns the distinct header-stack patterns, named like
// "Ethernet/Dot1Q/MPLS/IPv4/TCP": first-seen pattern order, stably
// sorted by frequency descending then pattern.
func (d *Digester) EncapCensus() []StackPattern {
	out := append([]StackPattern(nil), d.patterns...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Frames != out[j].Frames {
			return out[i].Frames > out[j].Frames
		}
		return out[i].Pattern < out[j].Pattern
	})
	return out
}

// TCPFlags returns the control-flag tally of every digested frame's
// first TCP layer.
func (d *Digester) TCPFlags() TCPFlagCounts { return d.flags }

// SampleFlowCounts returns FlowsInSample per sample, in sample order
// (Fig. 13's inputs).
func (d *Digester) SampleFlowCounts() []int {
	return append([]int(nil), d.sampleCounts...)
}

// --- Spillable flow table ---

// flowEntry is one hot flow.
type flowEntry struct {
	key      FlowKey
	site     string
	firstNs  int64
	lastNs   int64
	firstSeq uint64
	frames   uint64
	bytes    uint64
	sample   uint64 // the last sample the flow was seen in
}

// FlowTable aggregates per-flow totals with a bounded hot set. Flows
// beyond the hot budget spill — least-recently-seen first — to a
// columnar flowstore, from which Aggregates can merge them back.
//
// A frame of a hot flow costs one map lookup: its entry carries the
// sample it was last seen in, so counting the sample's distinct flows
// needs no set of its own.
type FlowTable struct {
	hot     map[FlowKey]*flowEntry
	free    []*flowEntry // spilled entries, reused by flows entering
	maxHot  int
	spill   *flowstore.Writer
	site    string
	seq     uint64
	spilled int64

	// sample numbers the current sample and sampleFlows counts the
	// distinct flows seen in it. spilledIn holds the flows spilled
	// during the sample after being seen in it, so that one re-entering
	// the hot set is not counted twice.
	sample      uint64
	inSample    bool
	sampleFlows int
	spilledIn   map[FlowKey]struct{}

	scratch []*flowEntry
	recBuf  []flowstore.Rec
}

// NewFlowTable builds a table. maxHot <= 0 disables spilling.
func NewFlowTable(maxHot int, spill *flowstore.Writer) *FlowTable {
	return &FlowTable{
		hot:    make(map[FlowKey]*flowEntry),
		maxHot: maxHot,
		spill:  spill,
	}
}

// StoreKey converts an analysis FlowKey to its flowstore form.
func StoreKey(k FlowKey) flowstore.Key {
	return flowstore.Key{
		VLANID: k.VLANID, MPLSTop: k.MPLSTop,
		Src: k.Src, Dst: k.Dst, Proto: k.Proto,
		SrcPort: k.SrcPort, DstPort: k.DstPort,
	}
}

// FromStoreKey converts a flowstore key back to an analysis FlowKey.
func FromStoreKey(k flowstore.Key) FlowKey {
	return FlowKey{
		VLANID: k.VLANID, MPLSTop: k.MPLSTop,
		Src: k.Src, Dst: k.Dst, Proto: k.Proto,
		SrcPort: k.SrcPort, DstPort: k.DstPort,
	}
}

// Observe accounts one frame to key at tsNanos.
func (t *FlowTable) Observe(key FlowKey, tsNanos int64, wireLen int) error {
	e, ok := t.hot[key]
	if !ok {
		e = t.enter(key, tsNanos)
	} else if e.sample != t.sample {
		e.sample = t.sample
		t.sampleFlows++
	}
	t.seq++
	if tsNanos < e.firstNs {
		e.firstNs = tsNanos
	}
	if tsNanos > e.lastNs {
		e.lastNs = tsNanos
	}
	e.frames++
	e.bytes += uint64(wireLen)
	// Spill after accounting so a just-inserted entry can never be
	// written out before its first frame is recorded.
	if !ok && t.maxHot > 0 && len(t.hot) > t.maxHot {
		return t.spillColdest()
	}
	return nil
}

// enter adds key to the hot set, in a recycled entry when one is free.
func (t *FlowTable) enter(key FlowKey, tsNanos int64) *flowEntry {
	var e *flowEntry
	if n := len(t.free); n > 0 {
		e, t.free = t.free[n-1], t.free[:n-1]
	} else {
		e = new(flowEntry)
	}
	*e = flowEntry{
		key: key, site: t.site, firstNs: tsNanos, lastNs: tsNanos,
		firstSeq: t.seq, sample: t.sample,
	}
	if _, counted := t.spilledIn[key]; !counted {
		t.sampleFlows++
	}
	t.hot[key] = e
	return e
}

// startSample begins sample accounting for a sample of site.
func (t *FlowTable) startSample(site string) {
	t.site = site
	t.sample++
	t.inSample = true
	t.sampleFlows = 0
	clear(t.spilledIn)
}

// endSample ends the sample and returns its distinct-flow count.
func (t *FlowTable) endSample() int {
	t.inSample = false
	clear(t.spilledIn)
	return t.sampleFlows
}

// spillColdest moves the least-recently-seen half of the hot set to the
// store. Within the spill batch rows are grouped by origin site (one
// segment per site, sites in name order) and ordered by first-seen
// sequence, so the on-disk layout is a pure function of the stream.
func (t *FlowTable) spillColdest() error {
	n := len(t.hot) / 2
	if n == 0 {
		return nil
	}
	t.scratch = t.scratch[:0]
	for _, e := range t.hot {
		t.scratch = append(t.scratch, e)
	}
	selectColdest(t.scratch, n)
	return t.spillEntries(t.scratch[:n])
}

// colder is the spill order: oldest last-seen first, ties on first-seen
// sequence. The sequence is unique, so the order is total and map
// iteration cannot leak into which entries spill.
func colder(a, b *flowEntry) bool {
	if a.lastNs != b.lastNs {
		return a.lastNs < b.lastNs
	}
	return a.firstSeq < b.firstSeq
}

// selectColdest reorders es so that es[:n] holds its n coldest entries,
// in no particular order: a quickselect, linear in len(es) on average.
// The order is total, so es[:n] is the set a full sort would put first.
func selectColdest(es []*flowEntry, n int) {
	lo, hi := 0, len(es)
	for lo < n && n < hi {
		p := lo + partitionColdest(es[lo:hi])
		if p < n {
			lo = p + 1
		} else {
			hi = p
		}
	}
}

// partitionColdest partitions es around the median of its first, middle
// and last entries and returns the pivot's index: every entry before it
// is colder, every entry after it warmer.
func partitionColdest(es []*flowEntry) int {
	m, last := len(es)/2, len(es)-1
	if colder(es[m], es[0]) {
		es[m], es[0] = es[0], es[m]
	}
	if colder(es[last], es[0]) {
		es[last], es[0] = es[0], es[last]
	}
	if colder(es[m], es[last]) {
		es[m], es[last] = es[last], es[m]
	}
	pivot, i := es[last], 0
	for j := 0; j < last; j++ {
		if colder(es[j], pivot) {
			es[i], es[j] = es[j], es[i]
			i++
		}
	}
	es[i], es[last] = es[last], es[i]
	return i
}

// spillEntries writes the given entries out (grouped by origin site,
// one segment per site in name order, rows by first-seen sequence) and
// removes them from the hot set. With no spill writer attached the
// entries are simply dropped — the bounded-memory, no-disk mode — and
// their order does not matter.
func (t *FlowTable) spillEntries(victims []*flowEntry) error {
	if t.spill != nil {
		if err := t.writeEntries(victims); err != nil {
			return err
		}
	}
	for _, e := range victims {
		if t.inSample && e.sample == t.sample {
			if t.spilledIn == nil {
				t.spilledIn = make(map[FlowKey]struct{})
			}
			t.spilledIn[e.key] = struct{}{}
		}
		delete(t.hot, e.key)
		t.free = append(t.free, e)
	}
	t.spilled += int64(len(victims))
	return nil
}

// writeEntries sorts the entries by origin site and first-seen sequence
// and appends one segment per site to the spill writer.
func (t *FlowTable) writeEntries(victims []*flowEntry) error {
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].site != victims[j].site {
			return victims[i].site < victims[j].site
		}
		return victims[i].firstSeq < victims[j].firstSeq
	})
	for start := 0; start < len(victims); {
		end := start
		site := victims[start].site
		for end < len(victims) && victims[end].site == site {
			end++
		}
		t.recBuf = t.recBuf[:0]
		for _, e := range victims[start:end] {
			t.recBuf = append(t.recBuf, flowstore.Rec{
				Key: StoreKey(e.key), Site: e.site,
				FirstNs: e.firstNs, LastNs: e.lastNs,
				FirstSeq: e.firstSeq, Frames: e.frames, Bytes: e.bytes,
			})
		}
		if err := t.spill.Append(site, t.recBuf); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// Flush spills every remaining hot flow and clears the hot set, making
// the spill target a complete record of all observed flows (each flow
// appears in the store at least once; Aggregates over the reopened
// store merges multi-spill rows back together). Call after the last
// frame, before closing the spill writer.
func (t *FlowTable) Flush() error {
	if len(t.hot) == 0 {
		return nil
	}
	t.scratch = t.scratch[:0]
	for _, e := range t.hot {
		t.scratch = append(t.scratch, e)
	}
	return t.spillEntries(t.scratch)
}

// SpilledFlows returns the number of rows spilled to the store (a flow
// spilled and re-observed counts once per spill).
func (t *FlowTable) SpilledFlows() int64 { return t.spilled }

// Aggregates merges hot and spilled rows into one row per canonical
// key, ordered by first observation (insertion order), stably re-sorted
// by Bytes descending. store is the
// reopened spill target; pass nil when nothing spilled.
func (t *FlowTable) Aggregates(store *flowstore.Store) ([]FlowAggregate, error) {
	type agg struct {
		FlowAggregate
		firstSeq uint64
	}
	merged := make(map[FlowKey]*agg, len(t.hot))
	add := func(k FlowKey, firstSeq, frames, bytes uint64) {
		a, ok := merged[k]
		if !ok {
			merged[k] = &agg{FlowAggregate{Key: k, Frames: int(frames), Bytes: int64(bytes)}, firstSeq}
			return
		}
		a.Frames += int(frames)
		a.Bytes += int64(bytes)
		if firstSeq < a.firstSeq {
			a.firstSeq = firstSeq
		}
	}
	if store != nil {
		err := store.ForEach(func(r flowstore.Rec) error {
			add(FromStoreKey(r.Key), r.FirstSeq, r.Frames, r.Bytes)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	for _, e := range t.hot {
		add(e.key, e.firstSeq, e.frames, e.bytes)
	}
	out := make([]*agg, 0, len(merged))
	for _, a := range merged {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].firstSeq < out[j].firstSeq })
	sort.SliceStable(out, func(i, j int) bool { return out[i].Bytes > out[j].Bytes })
	res := make([]FlowAggregate, len(out))
	for i, a := range out {
		res[i] = a.FlowAggregate
	}
	return res, nil
}
