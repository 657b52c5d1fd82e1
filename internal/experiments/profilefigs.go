package experiments

import (
	"sort"

	"repro/internal/analysis"
	"repro/internal/sim"
	"repro/internal/trafficgen"
	"repro/internal/units"
	"repro/internal/wire"
)

func init() {
	register("fig11", Fig11)
	register("fig12", Fig12)
	register("fig13", Fig13)
	register("fig15", Fig15)
	register("framesizes", FrameSizes)
}

// profileCorpusSites is the number of pseudonymized sites in the traffic
// profile corpus (the paper's S0-S29).
const profileCorpusSites = 30

// corpusSnapLen is the number of bytes of each corpus frame the digester
// sees, the platform's default truncation length.
const corpusSnapLen = 200

// streamDigest builds the multi-site corpus behind the Section 8.2
// figures and runs it through the streaming digester in a single pass.
// flowCount > 0 pins the number of flows per sample (long flow snippets,
// as a 20s line-rate capture sees); flowCount == 0 draws it from the
// site's profile (for the flow-count figure). Frames are generated into
// two recycled arenas, digested, and dropped — nothing proportional to
// the corpus size stays resident. The flow table's hot set is bounded;
// the figures never read exact aggregates, so spilled rows are dropped
// rather than written out.
func streamDigest(seed uint64, samplesPerSite, framesPerSample, flowCount int) (*analysis.Digester, error) {
	d := analysis.NewDigester(analysis.DigestOptions{MaxHotFlows: 4096})
	var snap snapBuf
	err := streamCorpus(seed, samplesPerSite, framesPerSample, flowCount, func(site string, frames []trafficgen.TimedFrame) error {
		d.StartSample(site)
		for i := range frames {
			if err := snap.digest(d, &frames[i]); err != nil {
				return err
			}
		}
		d.EndSample()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// snapBuf is streamDigest's scratch frame. It is all zero between
// digest calls.
type snapBuf [corpusSnapLen]byte

// digest hands d the first corpusSnapLen bytes of tf, a frame stored up
// to its all-zero tail. A shorter stored prefix is expanded into b and
// zeroed again after the call; the digester does not keep the bytes.
func (b *snapBuf) digest(d *analysis.Digester, tf *trafficgen.TimedFrame) error {
	n := min(int(tf.Size), corpusSnapLen)
	if len(tf.Data) >= n {
		return d.Frame(int64(tf.At), tf.Data[:n], int(tf.Size))
	}
	copy(b[:], tf.Data)
	err := d.Frame(int64(tf.At), b[:n], int(tf.Size))
	clear(b[:len(tf.Data)])
	return err
}

// corpusSample is one sample of the Section 8.2 corpus: its site and
// its frames, each stored up to its all-zero tail in the arena.
type corpusSample struct {
	site   string
	frames []trafficgen.TimedFrame
	arena  trafficgen.FrameArena
	err    error
}

// streamCorpus generates the corpus streamDigest digests and hands fn
// each sample in corpus order: every site's samples in turn, from one
// generator per site. A producer goroutine builds sample k+1 into the
// other of two buffers while fn reads sample k, so fn must not keep the
// frames past its return. Only the producer touches the generators and
// only fn's goroutine runs fn, so the corpus does not depend on
// goroutine timing. streamCorpus returns the first error of either side
// and joins the producer on every return path.
func streamCorpus(seed uint64, samplesPerSite, framesPerSample, flowCount int, fn func(site string, frames []trafficgen.TimedFrame) error) error {
	var bufs [2]corpusSample
	// Each channel can hold both buffers, so no send blocks.
	free := make(chan *corpusSample, len(bufs))
	full := make(chan *corpusSample, len(bufs))
	quit := make(chan struct{})
	for i := range bufs {
		free <- &bufs[i]
	}
	go func() {
		defer close(full)
		produceCorpus(seed, samplesPerSite, framesPerSample, flowCount, free, full, quit)
	}()
	defer func() {
		close(quit)
		for range full {
		}
	}()
	for b := range full {
		if b.err != nil {
			return b.err
		}
		if err := fn(b.site, b.frames); err != nil {
			return err
		}
		free <- b
	}
	return nil
}

// produceCorpus is streamCorpus's producer. It fills each buffer taken
// from free with the next sample and passes it on through full, and
// returns after the last sample, after a failed one, or once quit is
// closed.
func produceCorpus(seed uint64, samplesPerSite, framesPerSample, flowCount int, free <-chan *corpusSample, full chan<- *corpusSample, quit <-chan struct{}) {
	for i, p := range trafficgen.MakeSiteProfiles(seed, profileCorpusSites) {
		gen := trafficgen.NewGenerator(p, seed*1000+uint64(i))
		for s := 0; s < samplesPerSite; s++ {
			var b *corpusSample
			select {
			case b = <-free:
			case <-quit:
				return
			}
			b.arena.Reset()
			b.site = p.Site
			b.frames, b.err = gen.SamplePrefixesInto(trafficgen.SampleConfig{
				Duration:  20 * sim.Second,
				MaxFrames: framesPerSample,
				FlowCount: flowCount,
			}, b.frames[:0], b.arena.Alloc)
			full <- b
			if b.err != nil {
				return
			}
		}
	}
}

// Fig11 regenerates the per-site header-diversity figure: distinct
// headers observed and deepest header stack per site.
func Fig11(seed uint64) (*Result, error) {
	d, err := streamDigest(seed, 3, 3000, 75)
	if err != nil {
		return nil, err
	}
	return fig11From(d.SiteHeaderStats()), nil
}

// fig11From renders the figure from the computed per-site stats.
func fig11From(stats []analysis.SiteHeaderStats) *Result {
	res := &Result{
		ID:     "fig11",
		Title:  "Distinct headers and deepest stack per (anonymized) site",
		Header: []string{"site", "distinct_headers", "max_stack_depth"},
	}
	minD, maxD := 99, 0
	minH, maxH := 99, 0
	for _, s := range stats {
		res.AddRow(s.Site, s.DistinctHeaders, s.MaxStackDepth)
		if s.MaxStackDepth < minD {
			minD = s.MaxStackDepth
		}
		if s.MaxStackDepth > maxD {
			maxD = s.MaxStackDepth
		}
		if s.DistinctHeaders < minH {
			minH = s.DistinctHeaders
		}
		if s.DistinctHeaders > maxH {
			maxH = s.DistinctHeaders
		}
	}
	res.Notef("paper: sites exhibit a range of distinct headers; maximal header prefixes span 6 to 12 headers")
	res.Notef("measured: distinct headers span %d-%d; max stack depth spans %d-%d", minH, maxH, minD, maxD)
	return res
}

// Fig12 regenerates the header-occurrence figure: percentage of frames
// carrying each protocol header, aggregated over all sites.
func Fig12(seed uint64) (*Result, error) {
	d, err := streamDigest(seed, 2, 3000, 75)
	if err != nil {
		return nil, err
	}
	return fig12From(d.HeaderOccurrence()), nil
}

// fig12From renders the figure from the computed occurrence map.
func fig12From(occ map[wire.LayerType]float64) *Result {
	res := &Result{
		ID:     "fig12",
		Title:  "Occurrence of protocol headers in FABRIC traffic",
		Header: []string{"header", "percent_of_frames"},
	}
	type row struct {
		t   wire.LayerType
		pct float64
	}
	var rows []row
	for t, p := range occ {
		rows = append(rows, row{t, p})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].pct != rows[j].pct {
			return rows[i].pct > rows[j].pct
		}
		return rows[i].t < rows[j].t
	})
	for _, r := range rows {
		res.AddRow(r.t.String(), r.pct)
	}
	sh := analysis.Shares(occ)
	res.Notef("paper: Ethernet exceeds 100%% (inner Ethernet frames); IPv4 dominant; IPv6 = 1.93%% of frames; TCP most prevalent; most traffic VLAN/MPLS tagged")
	res.Notef("measured: Ethernet %.1f%%, IPv4 %.1f%%, IPv6 %.2f%%, TCP %.1f%%, VLAN %.1f%%, MPLS %.1f%%",
		sh.EthPercent, sh.IPv4Percent, sh.IPv6Percent, sh.TCPPercent, sh.VLANPercent, sh.MPLSPercent)
	return res
}

// Fig13 regenerates the flows-per-sample frequency figure.
func Fig13(seed uint64) (*Result, error) {
	d, err := streamDigest(seed, 4, 30000, 0)
	if err != nil {
		return nil, err
	}
	return fig13From(d.SampleFlowCounts()), nil
}

// fig13From renders the figure from the per-sample flow counts.
func fig13From(counts []int) *Result {
	h := analysis.FlowCountHistogram(counts)
	res := &Result{
		ID:     "fig13",
		Title:  "Frequency of flow counts per 20s traffic sample",
		Header: []string{"flows_in_sample", "samples"},
	}
	for i, c := range h {
		res.AddRow(analysis.FlowCountBucketLabel(i), c)
	}
	below3000 := 0
	for _, c := range counts {
		if c < 3000 {
			below3000++
		}
	}
	res.Notef("paper: most samples have fewer than 3,000 distinct flows; a handful exceed 20,000")
	res.Notef("measured: %d/%d samples below 3,000 flows; max sample = %d flows", below3000, len(counts), maxOf(counts))
	return res
}

func maxOf(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// siteSizeRow is one site's frame-size view for fig15From.
type siteSizeRow struct {
	site   string
	hist   []int
	frames int
	jumbo  int
}

// Fig15 regenerates the per-site frame-size distribution (Appendix C).
func Fig15(seed uint64) (*Result, error) {
	d, err := streamDigest(seed, 2, 2500, 60)
	if err != nil {
		return nil, err
	}
	var rows []siteSizeRow
	for _, site := range d.SiteOrder() {
		h, frames, jumbo, _ := d.SiteFrameSizeHist(site)
		rows = append(rows, siteSizeRow{site: site, hist: h, frames: frames, jumbo: jumbo})
	}
	return fig15From(rows), nil
}

// fig15From renders the figure from per-site histograms.
func fig15From(rows []siteSizeRow) *Result {
	header := []string{"site"}
	for i := 0; i <= len(analysis.FrameSizeBuckets); i++ {
		header = append(header, analysis.FrameSizeBucketLabel(i))
	}
	header = append(header, "jumbo_pct")
	res := &Result{
		ID:     "fig15",
		Title:  "Distribution of frame sizes at different (pseudonymized) sites",
		Header: header,
	}
	jumboSites, smallSites := 0, 0
	for _, sr := range rows {
		row := []any{sr.site}
		for _, c := range sr.hist {
			row = append(row, units.PercentOf(int64(c), int64(sr.frames)).String())
		}
		jumbo := 0.0
		if sr.frames > 0 {
			jumbo = float64(sr.jumbo) / float64(sr.frames) * 100
		}
		row = append(row, trimFloat(jumbo))
		res.AddRow(row...)
		if jumbo > 50 {
			jumboSites++
		}
		if jumbo < 20 {
			smallSites++
		}
	}
	res.Notef("paper: significant variety across sites; several sites notable for jumbo frames, most carry a proportion of smaller packets")
	res.Notef("measured: %d sites majority-jumbo, %d sites mostly sub-jumbo, of %d", jumboSites, smallSites, len(rows))
	return res
}

// FrameSizes regenerates the Section 8.2 aggregate frame-size breakdown:
// 1519-2047 B = 74.7%, 65-127 B = 14.15%, 128-255 B = 5.79%.
func FrameSizes(seed uint64) (*Result, error) {
	d, err := streamDigest(seed, 2, 3000, 75)
	if err != nil {
		return nil, err
	}
	return framesizesFrom(d.FrameSizeHist(), d.Frames()), nil
}

// framesizesFrom renders the breakdown from the aggregate histogram.
func framesizesFrom(h []int, total int) *Result {
	res := &Result{
		ID:     "framesizes",
		Title:  "Aggregate frame-size distribution across FABRIC",
		Header: []string{"bucket", "frames", "percent"},
	}
	var jumboPct, ackPct, smallPct float64
	for i, c := range h {
		pct := float64(units.PercentOf(int64(c), int64(total)))
		res.AddRow(analysis.FrameSizeBucketLabel(i), c, pct)
		switch analysis.FrameSizeBucketLabel(i) {
		case "1519-2047":
			jumboPct = pct
		case "65-127":
			ackPct = pct
		case "128-255":
			smallPct = pct
		}
	}
	res.Notef("paper: 1519-2047B = 74.7%%, 65-127B = 14.15%%, 128-255B = 5.79%%")
	res.Notef("measured: 1519-2047B = %.1f%%, 65-127B = %.1f%%, 128-255B = %.1f%%", jumboPct, ackPct, smallPct)
	return res
}
