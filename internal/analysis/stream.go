package analysis

import (
	"fmt"
	"sort"

	"repro/internal/flowstore"
	"repro/internal/pcap"
	"repro/internal/sketch"
	"repro/internal/wire"
)

// This file is the streaming Analyze step: a single-pass, bounded-memory
// digest pipeline. Where the in-memory functions (FrameSizeHistogram,
// HeaderOccurrence, FlowsInSample, AggregateFlows, ...) each walk a
// materialized []Record or []*Acap, the Digester folds every statistic
// in one pass over frames delivered through a reusable buffer, decoding
// each frame once with a pooled wire.Packet. Results are defined to be
// identical — bit-for-bit, including orderings — to the in-memory
// functions applied to the same frames; the equivalence tests pin that.
//
// Memory is bounded three ways: the packet/stack/pattern scratch is
// reused per frame, the flow table spills its coldest entries to a
// columnar on-disk flow store when it exceeds the hot budget, and flow
// cardinality plus heavy hitters are additionally tracked in O(1)
// sketches (HyperLogLog, space-saving).

// DigestOptions configure a Digester.
type DigestOptions struct {
	// MaxHotFlows bounds the in-memory flow table; when exceeded, the
	// coldest half (least-recently-seen) is spilled to Spill. Zero means
	// unbounded (nothing spills).
	MaxHotFlows int
	// Spill receives spilled flow rows. With MaxHotFlows > 0 and no
	// writer, spilled rows are dropped: memory stays bounded and the
	// sketches keep approximate totals, but Aggregates loses the exact
	// counts for spilled flows.
	Spill *flowstore.Writer
	// HLLPrecision sets the cardinality sketch's register exponent
	// (default 14 ≈ 0.8% error in 16 KiB).
	HLLPrecision uint8
	// HeavyK sets the heavy-hitter summary capacity (default 64).
	HeavyK int
}

// Digester folds analysis statistics over a stream of frames grouped
// into site samples. Not safe for concurrent use.
type Digester struct {
	opt DigestOptions

	pkt      wire.Packet
	stackBuf []wire.LayerType
	patBuf   []byte
	rec      Record

	frames    int
	truncated int
	sizeHist  []int
	jumbo     int

	headerCounts map[wire.LayerType]int

	sites     map[string]*siteAcc
	siteOrder []string
	curSite   *siteAcc

	encap      map[string]*int
	encapOrder []string

	flags TCPFlagCounts

	flows *FlowTable

	sampleSeen   map[FlowKey]struct{}
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
	if opt.HLLPrecision == 0 {
		opt.HLLPrecision = 14
	}
	if opt.HeavyK == 0 {
		opt.HeavyK = 64
	}
	return &Digester{
		opt:          opt,
		sizeHist:     make([]int, len(FrameSizeBuckets)+1),
		headerCounts: make(map[wire.LayerType]int),
		sites:        make(map[string]*siteAcc),
		encap:        make(map[string]*int),
		flows:        NewFlowTable(opt.MaxHotFlows, opt.Spill, opt.HLLPrecision, opt.HeavyK),
		sampleSeen:   make(map[FlowKey]struct{}),
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
	d.flows.site = site
	clear(d.sampleSeen)
	d.inSample = true
}

// EndSample closes the current sample and returns its distinct-flow
// count (FlowsInSample's quantity).
func (d *Digester) EndSample() int {
	if !d.inSample {
		return 0
	}
	n := len(d.sampleSeen)
	d.sampleCounts = append(d.sampleCounts, n)
	d.inSample = false
	return n
}

// Frame digests one frame: data is the stored (possibly truncated)
// bytes, wireLen the original on-wire length. The data slice is only
// read during the call and may be reused by the caller afterwards.
// StartSample must have been called. The frame's acap record is then
// available from Record, from the same decode.
func (d *Digester) Frame(tsNanos int64, data []byte, wireLen int) error {
	if d.curSite == nil {
		return fmt.Errorf("analysis: Frame before StartSample")
	}
	d.frames++
	sa := d.curSite
	sa.frames++

	// Size statistics (by original wire length, as the in-memory pass).
	sb := sizeBucket(wireLen)
	d.sizeHist[sb]++
	sa.sizeHist[sb]++
	if wireLen > JumboThreshold {
		d.jumbo++
		sa.jumbo++
	}

	// One decode per frame through the pooled packet. NoCopy is safe:
	// nothing below retains layer or data references past the call.
	d.pkt.Reset(data, wire.LayerTypeEthernet, wire.NoCopy)
	layers := d.pkt.Layers()

	// Header stack statistics + encapsulation census.
	d.stackBuf = d.stackBuf[:0]
	d.patBuf = d.patBuf[:0]
	depth := len(layers)
	if depth > sa.maxDepth {
		sa.maxDepth = depth
	}
	for i, l := range layers {
		t := l.LayerType()
		d.stackBuf = append(d.stackBuf, t)
		d.headerCounts[t]++
		if int(t) < len(sa.distinct) && !sa.distinct[t] {
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
		if i > 0 {
			d.patBuf = append(d.patBuf, '/')
		}
		d.patBuf = append(d.patBuf, t.String()...)
	}
	d.rec = frameRecord(&d.pkt, d.stackBuf, tsNanos, len(data), wireLen)
	if d.rec.DecodeTruncated {
		d.truncated++
	}
	// map[string]*int: the read side is allocation-free (string(patBuf)
	// lookups don't materialize the string); only a new pattern interns.
	if c, ok := d.encap[string(d.patBuf)]; ok {
		*c++
	} else {
		p := string(d.patBuf)
		n := 1
		d.encap[p] = &n
		d.encapOrder = append(d.encapOrder, p)
	}

	// TCP control flags (CountTCPFlags semantics, on the same decode).
	for _, l := range layers {
		if tcp, ok := l.(*wire.TCP); ok {
			d.flags.Segments++
			switch {
			case tcp.Flags&wire.TCPRst != 0:
				d.flags.Rst++
			case tcp.Flags&wire.TCPSyn != 0 && tcp.Flags&wire.TCPAck != 0:
				d.flags.SynAck++
			case tcp.Flags&wire.TCPSyn != 0:
				d.flags.Syn++
			}
			if tcp.Flags&wire.TCPFin != 0 {
				d.flags.Fin++
			}
			if tcp.Flags == wire.TCPAck && len(tcp.LayerPayload()) == 0 {
				d.flags.PureAck++
			}
			break
		}
	}

	// Flow accounting on the canonical key.
	key := d.rec.Flow.Canonical()
	d.sampleSeen[key] = struct{}{}
	return d.flows.Observe(key, tsNanos, wireLen)
}

// Record returns the acap record of the frame last passed to Frame:
// what DigestFrame returns for the same frame. The record and its Stack
// are borrowed: the next Frame overwrites them.
func (d *Digester) Record() *Record { return &d.rec }

// DigestStream runs a pcap.Stream through the digester as one sample.
func (d *Digester) DigestStream(site string, s pcap.Stream) error {
	d.StartSample(site)
	err := pcap.ForEachStream(s, func(rec *pcap.Record) error {
		return d.Frame(rec.TimestampNanos, rec.Data, rec.OriginalLength)
	})
	d.EndSample()
	return err
}

// --- Result views: each reproduces its in-memory counterpart exactly ---

// Frames returns the total frames digested.
func (d *Digester) Frames() int { return d.frames }

// FrameSizeHist returns FrameSizeHistogram over every digested frame.
func (d *Digester) FrameSizeHist() []int {
	return append([]int(nil), d.sizeHist...)
}

// SiteFrameSizeHist returns the per-site histogram and frame count
// (Fig. 15's per-site rows); ok is false for unseen sites.
func (d *Digester) SiteFrameSizeHist(site string) (hist []int, frames, jumbo int, ok bool) {
	sa, found := d.sites[site]
	if !found {
		return nil, 0, 0, false
	}
	return append([]int(nil), sa.sizeHist...), sa.frames, sa.jumbo, true
}

// JumboFrac returns JumboFraction over every digested frame.
func (d *Digester) JumboFrac() float64 {
	if d.frames == 0 {
		return 0
	}
	return float64(d.jumbo) / float64(d.frames)
}

// TruncatedShare returns TruncatedDecodeShare over every digested frame.
func (d *Digester) TruncatedShare() float64 {
	if d.frames == 0 {
		return 0
	}
	return float64(d.truncated) / float64(d.frames)
}

// HeaderOccurrence returns header occurrences per frame as percentages,
// exactly as the in-memory HeaderOccurrence.
func (d *Digester) HeaderOccurrence() map[wire.LayerType]float64 {
	if d.frames == 0 {
		return nil
	}
	out := make(map[wire.LayerType]float64, len(d.headerCounts))
	for t, c := range d.headerCounts {
		out[t] = float64(c) / float64(d.frames) * 100
	}
	return out
}

// SiteOrder returns sites in first-seen order.
func (d *Digester) SiteOrder() []string {
	return append([]string(nil), d.siteOrder...)
}

// SiteHeaderStats returns HeaderStatsBySite's rows: first-seen site
// order, stably sorted by distinct-header count descending.
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

// SiteProtocolShares returns ProtocolShareBySite's rows in first-seen
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

// EncapCensus returns EncapsulationCensus's rows: first-seen pattern
// order, stably sorted by frequency descending then pattern.
func (d *Digester) EncapCensus() []StackPattern {
	out := make([]StackPattern, 0, len(d.encapOrder))
	for _, p := range d.encapOrder {
		out = append(out, StackPattern{Pattern: p, Frames: *d.encap[p]})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Frames != out[j].Frames {
			return out[i].Frames > out[j].Frames
		}
		return out[i].Pattern < out[j].Pattern
	})
	return out
}

// TCPFlags returns CountTCPFlags's tally over every digested frame.
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
}

// FlowTable aggregates per-flow totals with a bounded hot set. Flows
// beyond the hot budget spill — least-recently-seen first — to a
// columnar flowstore, from which Aggregates can merge them back. The
// table also maintains O(1) sketches: a HyperLogLog over distinct keys
// and a space-saving summary of heavy-hitter flows by frame count.
type FlowTable struct {
	hot     map[FlowKey]*flowEntry
	maxHot  int
	spill   *flowstore.Writer
	site    string
	seq     uint64
	spilled int64

	hll    *sketch.HLL
	heavy  *sketch.TopK[FlowKey]
	keyBuf []byte

	scratch []*flowEntry
	recBuf  []flowstore.Rec
}

// flowKeyLess orders FlowKeys deterministically (for eviction and
// heavy-hitter tie-breaks).
func flowKeyLess(a, b FlowKey) bool {
	if a.VLANID != b.VLANID {
		return a.VLANID < b.VLANID
	}
	if a.MPLSTop != b.MPLSTop {
		return a.MPLSTop < b.MPLSTop
	}
	ar, br := a.Src.Raw(), b.Src.Raw()
	for i := 0; i < len(ar) && i < len(br); i++ {
		if ar[i] != br[i] {
			return ar[i] < br[i]
		}
	}
	if len(ar) != len(br) {
		return len(ar) < len(br)
	}
	ar, br = a.Dst.Raw(), b.Dst.Raw()
	for i := 0; i < len(ar) && i < len(br); i++ {
		if ar[i] != br[i] {
			return ar[i] < br[i]
		}
	}
	if len(ar) != len(br) {
		return len(ar) < len(br)
	}
	if a.Proto != b.Proto {
		return a.Proto < b.Proto
	}
	if a.SrcPort != b.SrcPort {
		return a.SrcPort < b.SrcPort
	}
	return a.DstPort < b.DstPort
}

// NewFlowTable builds a table. maxHot <= 0 disables spilling.
func NewFlowTable(maxHot int, spill *flowstore.Writer, hllPrecision uint8, heavyK int) *FlowTable {
	if hllPrecision == 0 {
		hllPrecision = 14
	}
	if heavyK <= 0 {
		heavyK = 64
	}
	return &FlowTable{
		hot:    make(map[FlowKey]*flowEntry),
		maxHot: maxHot,
		spill:  spill,
		hll:    sketch.NewHLL(hllPrecision),
		heavy:  sketch.NewTopK[FlowKey](heavyK, flowKeyLess),
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
	t.keyBuf = appendFlowKeyBytes(t.keyBuf[:0], key)
	t.hll.AddHash(sketch.Hash64(t.keyBuf))
	t.heavy.Add(key, 1)
	e, ok := t.hot[key]
	if !ok {
		e = &flowEntry{key: key, site: t.site, firstNs: tsNanos, lastNs: tsNanos, firstSeq: t.seq}
		t.hot[key] = e
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

// appendFlowKeyBytes mirrors the flowstore's canonical key encoding so
// sketch hashes agree between the table and the store.
func appendFlowKeyBytes(dst []byte, k FlowKey) []byte {
	dst = append(dst, byte(k.VLANID>>8), byte(k.VLANID),
		byte(k.MPLSTop>>24), byte(k.MPLSTop>>16), byte(k.MPLSTop>>8), byte(k.MPLSTop),
		byte(k.Proto), byte(k.SrcPort>>8), byte(k.SrcPort), byte(k.DstPort>>8), byte(k.DstPort),
		byte(k.Src.Type()), byte(k.Dst.Type()))
	dst = append(dst, k.Src.Raw()...)
	dst = append(dst, k.Dst.Raw()...)
	return dst
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
	// Coldest first: oldest last-seen, ties on first-seen sequence
	// (unique, so the order is total and map iteration cannot leak in).
	sort.Slice(t.scratch, func(i, j int) bool {
		a, b := t.scratch[i], t.scratch[j]
		if a.lastNs != b.lastNs {
			return a.lastNs < b.lastNs
		}
		return a.firstSeq < b.firstSeq
	})
	return t.spillEntries(t.scratch[:n])
}

// spillEntries writes the given entries out (grouped by origin site,
// one segment per site in name order, rows by first-seen sequence) and
// removes them from the hot set. With no spill writer attached the
// entries are simply dropped — the bounded-memory, no-disk mode.
func (t *FlowTable) spillEntries(victims []*flowEntry) error {
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].site != victims[j].site {
			return victims[i].site < victims[j].site
		}
		return victims[i].firstSeq < victims[j].firstSeq
	})
	for start := 0; t.spill != nil && start < len(victims); {
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
	for _, e := range victims {
		delete(t.hot, e.key)
	}
	t.spilled += int64(len(victims))
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

// HotFlows returns the current in-memory flow count.
func (t *FlowTable) HotFlows() int { return len(t.hot) }

// SpilledFlows returns the number of rows spilled to the store (a flow
// spilled and re-observed counts once per spill).
func (t *FlowTable) SpilledFlows() int64 { return t.spilled }

// CardinalityEstimate returns the HLL's distinct-flow estimate and its
// standard error.
func (t *FlowTable) CardinalityEstimate() (uint64, float64) {
	return t.hll.Count(), t.hll.StdError()
}

// HeavyHitters returns the top-n flows by frame count with
// overestimation bounds.
func (t *FlowTable) HeavyHitters(n int) []sketch.HeavyK[FlowKey] {
	return t.heavy.Top(n)
}

// Aggregates merges hot and spilled rows into AggregateFlows's exact
// output: one row per canonical key, ordered by first observation
// (insertion order), stably re-sorted by Bytes descending. store is the
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
