package analysis

import "repro/internal/wire"

// FrameSizeBuckets are the bucket upper bounds used in the paper's
// frame-size breakdown. Bucket i covers (lower, FrameSizeBuckets[i]],
// with the first bucket starting at 0.
var FrameSizeBuckets = []int{64, 127, 255, 511, 1023, 1518, 2047, 4095, 9215}

// FrameSizeBucketLabel names bucket i, e.g. "1519-2047".
func FrameSizeBucketLabel(i int) string {
	lo := 1
	if i > 0 {
		lo = FrameSizeBuckets[i-1] + 1
	}
	if i >= len(FrameSizeBuckets) {
		return "9216+"
	}
	return itoa(lo) + "-" + itoa(FrameSizeBuckets[i])
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// JumboThreshold is the wire length above which a frame counts as jumbo.
const JumboThreshold = 1518

func sizeBucket(n int) int {
	for i, ub := range FrameSizeBuckets {
		if n <= ub {
			return i
		}
	}
	return len(FrameSizeBuckets)
}

// SiteHeaderStats summarizes Fig. 11 for one site: the number of distinct
// header types observed and the deepest header stack.
type SiteHeaderStats struct {
	Site            string
	DistinctHeaders int
	MaxStackDepth   int
	Frames          int
}

// FlowsInSample counts distinct canonical flow keys in one sample
// (Fig. 13's x-axis quantity).
func FlowsInSample(a *Acap) int {
	seen := make(map[FlowKey]bool)
	for _, r := range a.Records {
		seen[r.Flow.Canonical()] = true
	}
	return len(seen)
}

// FlowCountBuckets are the Fig. 13 histogram boundaries.
var FlowCountBuckets = []int{100, 300, 1000, 3000, 10000, 20000, 50000}

// FlowCountBucketLabel names bucket i of FlowCountHistogram, e.g.
// "<=100", "101-300" or ">50000".
func FlowCountBucketLabel(i int) string {
	b := FlowCountBuckets
	switch {
	case i == 0:
		return "<=" + itoa(b[0])
	case i < len(b):
		return itoa(b[i-1]+1) + "-" + itoa(b[i])
	default:
		return ">" + itoa(b[len(b)-1])
	}
}

// FlowCountHistogram buckets per-sample flow counts.
func FlowCountHistogram(counts []int) []int {
	h := make([]int, len(FlowCountBuckets)+1)
	for _, c := range counts {
		i := 0
		for i < len(FlowCountBuckets) && c > FlowCountBuckets[i] {
			i++
		}
		h[i]++
	}
	return h
}

// FlowAggregate is one flow's totals pieced together across samples.
type FlowAggregate struct {
	Key    FlowKey
	Frames int
	Bytes  int64
}

// ProtocolShare summarizes the headline Fig. 12 numbers.
type ProtocolShare struct {
	IPv4Percent float64
	IPv6Percent float64
	TCPPercent  float64
	UDPPercent  float64
	VLANPercent float64
	MPLSPercent float64
	EthPercent  float64 // may exceed 100
}

// Shares extracts the headline percentages from a header-occurrence map
// (Digester.HeaderOccurrence).
func Shares(occ map[wire.LayerType]float64) ProtocolShare {
	return ProtocolShare{
		IPv4Percent: occ[wire.LayerTypeIPv4],
		IPv6Percent: occ[wire.LayerTypeIPv6],
		TCPPercent:  occ[wire.LayerTypeTCP],
		UDPPercent:  occ[wire.LayerTypeUDP],
		VLANPercent: occ[wire.LayerTypeDot1Q],
		MPLSPercent: occ[wire.LayerTypeMPLS],
		EthPercent:  occ[wire.LayerTypeEthernet],
	}
}
