package experiments

import (
	"fmt"

	"repro/internal/capture"
	"repro/internal/hostsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/units"
)

func init() {
	register("tcpdump", TcpdumpCeiling)
	register("table1", Table1)
	register("table2", Table2)
	register("fig14", Fig14)
}

// TcpdumpCeiling regenerates the Section 8.1.2 result: tcpdump with a
// 32 MB buffer captures 1500-byte frames without loss up to about
// 8.5 Gbps on an 11 Gbps-capable path.
func TcpdumpCeiling(seed uint64) (*Result, error) {
	res := &Result{
		ID:     "tcpdump",
		Title:  "Software capture ceiling (tcpdump, 1500B frames, 64B snaplen)",
		Header: []string{"offered_rate", "loss_percent"},
	}
	var ceiling units.BitRate
	for g := 6; g <= 12; g++ {
		rate := units.BitRate(g) * units.Gbps
		k := sim.NewKernel()
		// A small buffer keeps time-to-overflow short; the throughput
		// ceiling itself is buffer-independent.
		e, err := capture.NewEngine(k, capture.Config{
			Method: capture.MethodTcpdump, SnapLen: 64, BufferBytes: 1 << 20,
		})
		if err != nil {
			return nil, err
		}
		st := capture.OfferLoad(k, e, 1500, rate, 500*sim.Millisecond)
		loss := float64(st.LossPercent())
		res.AddRow(rate.String(), loss)
		if loss < 0.01 {
			ceiling = rate
		}
	}
	res.Notef("paper: tcpdump captured without loss until about 8.5 Gbps; the path sustained 11 Gbps")
	res.Notef("measured: lossless ceiling = %v", ceiling)
	return res, nil
}

// tableRow is one Table 1/2 row: frame size, the paper's operating rate,
// and the paper's core count.
type tableRow struct {
	frameSize  int
	paperRate  units.BitRate
	paperCores int
	paperLoss  float64
}

// tableMaxCores is the largest core count a Table 1/2 search probes.
const tableMaxCores = 15

// tableProbe is one Table 1/2 probe: a row's frame size at the paper's
// rate, offered for 30 ms to a DPDK engine with a given number of cores.
type tableProbe struct {
	k *sim.Kernel
	e *capture.Engine
	// n is the number of frames the load offers. No frame is filtered,
	// so the probe's loss is PercentOf(Dropped, n) once it has run.
	n int64
	// failAt is the least drop count whose loss reaches 1% (n+1, which
	// no probe reaches, when n is 0).
	failAt int64
}

// newTableProbe builds a probe with its load scheduled but not run.
func newTableProbe(snap int, row tableRow, cores int) (*tableProbe, error) {
	k := sim.NewKernel()
	host, err := hostsim.New(hostsim.Config{DirtyBackgroundRatio: 60, DirtyRatio: 80})
	if err != nil {
		return nil, err
	}
	e, err := capture.NewEngine(k, capture.Config{
		Method: capture.MethodDPDK, SnapLen: snap, Cores: cores,
		RxQueueDepth: 4096, Host: host,
	})
	if err != nil {
		return nil, err
	}
	p := &tableProbe{k: k, e: e}
	p.n = capture.ScheduleLoad(k, e, row.frameSize, row.paperRate, 30*sim.Millisecond)
	p.failAt = p.n / 100
	for p.failAt <= p.n && units.PercentOf(p.failAt, p.n) < 1 {
		p.failAt++
	}
	return p, nil
}

// settle runs the probe until it is certain to fail or its load is
// done, and reports whether it failed. Drops only grow, so once they
// reach failAt the probe's loss is at least 1% however it ends.
func (p *tableProbe) settle() bool {
	for p.e.Stats.Dropped < p.failAt && p.k.Step() {
	}
	return p.e.Stats.Dropped >= p.failAt
}

// loss runs the probe to the end and returns its loss percentage.
func (p *tableProbe) loss() float64 {
	return float64(capture.Drain(p.k, p.e).LossPercent())
}

// runTable produces the Table 1/2 reproduction for a truncation length:
// for each frame size it reports the minimum cores sustaining the
// paper's rate at <1% loss, or the loss at 15 cores when no count up to
// 15 sustains it. A probe below 15 cores stops as soon as its failure
// is certain; passing probes and the 15-core probe run to the end,
// because their loss is printed.
func runTable(id, title string, snap int, rows []tableRow) (*Result, error) {
	res := &Result{
		ID:     id,
		Title:  title,
		Header: []string{"frame_size_B", "rate", "paper_cores", "min_cores_measured", "loss_percent"},
	}
	for _, row := range rows {
		minCores := 0
		var loss float64
		for c := 1; c <= tableMaxCores; c++ {
			p, err := newTableProbe(snap, row, c)
			if err != nil {
				return nil, err
			}
			if c < tableMaxCores && p.settle() {
				continue
			}
			l := p.loss()
			if l < 1 {
				minCores, loss = c, l
				break
			}
			loss = l
		}
		coresCell := "infeasible<=15"
		if minCores > 0 {
			coresCell = fmt.Sprintf("%d", minCores)
		}
		res.AddRow(row.frameSize, row.paperRate.String(), row.paperCores, coresCell, loss)
	}
	res.Notef("paper rows (size,rate,cores,loss%%): %v", describeRows(rows))
	res.Notef("shape checks: larger truncation costs more cores; small frames cap the achievable rate")
	return res, nil
}

func describeRows(rows []tableRow) string {
	s := ""
	for i, r := range rows {
		if i > 0 {
			s += "; "
		}
		s += fmt.Sprintf("%dB@%v/%dc/%.2f%%", r.frameSize, r.paperRate, r.paperCores, r.paperLoss)
	}
	return s
}

// table1Rows and table2Rows are the paper's Table 1 (200B truncation)
// and Table 2 (64B truncation) operating points.
var (
	table1Rows = []tableRow{
		{1514, 100 * units.Gbps, 5, 0.67},
		{1024, 100 * units.Gbps, 10, 0.13},
		{512, 60 * units.Gbps, 15, 0.03},
		{128, 15 * units.Gbps, 15, 0.10},
	}
	table2Rows = []tableRow{
		{1514, 100 * units.Gbps, 3, 0.17},
		{1024, 100 * units.Gbps, 5, 0.32},
		{512, 100 * units.Gbps, 15, 0.07},
		{128, 28 * units.Gbps, 15, 0.13},
	}
)

// Table1 regenerates "200B truncation, 60:80 threshold".
func Table1(seed uint64) (*Result, error) {
	return runTable("table1", "DPDK capture, 200B truncation, 60:80 thresholds", 200, table1Rows)
}

// Table2 regenerates "64B truncation, 60:80 threshold".
func Table2(seed uint64) (*Result, error) {
	return runTable("table2", "DPDK capture, 64B truncation, 60:80 thresholds", 64, table2Rows)
}

// Fig14 regenerates the Appendix B storage-bottleneck study: summed
// writev latency (bucket upper bounds, tail buckets only) as a function
// of the percentage of free cache memory used, for 10:20 and 20:50
// dirty-ratio thresholds.
func Fig14(seed uint64) (*Result, error) {
	res := &Result{
		ID:     "fig14",
		Title:  "Summed writev latency vs page-cache usage (10:20 vs 20:50 thresholds)",
		Header: []string{"cache_used_percent", "summed_latency_ms_10_20", "summed_latency_ms_20_50"},
	}
	// Fig14 drives hostsim with a manual clock (no kernel), so a
	// nil-clock registry stamps observations at t=0; the latency
	// histograms per threshold pair are the interesting output.
	var reg *obs.Registry
	if Observe {
		reg = obs.NewRegistry(nil)
		res.Metrics = reg
	}
	// The DPDK writer feeds ~8.5 GB/s of pcap data (100 Gbps of 1514B
	// frames truncated to 200B would be less; Appendix B measures the
	// full-rate firehose) in 128-frame writev batches.
	const batchBytes = 128 * (200 + 16)
	run := func(bg, hard int) []float64 {
		host, err := hostsim.New(hostsim.Config{
			FreeCache:            100 * units.GB,
			DirtyBackgroundRatio: bg, DirtyRatio: hard,
		})
		if err != nil {
			panic(err)
		}
		host.Instrument(reg, obs.L("thresholds", fmt.Sprintf("%d:%d", bg, hard)))
		ingestBps := int64(8_500_000_000)
		interval := sim.Duration(int64(sim.Second) * batchBytes / ingestBps)
		var now sim.Time
		out := make([]float64, 0, 26)
		nextPct := 1
		// Once the writer is hard-throttled, cache usage plateaus at
		// dirty_ratio and never reaches the next percentage; cap the
		// virtual time and extend the plateau value across the remaining
		// x positions (the paper's 10:20 curve likewise saturates just
		// past its hard threshold).
		for nextPct <= 25 && now < 30*sim.Second {
			host.Writev(now, batchBytes)
			now += interval // arrival-driven clock; see ablation-thresholds
			used := host.DirtyFraction(now) * 100
			for float64(nextPct) <= used && nextPct <= 25 {
				// Summed tail latency (>=32us buckets) so far, in ms.
				out = append(out, float64(host.WritevHist.SumUpperBounds(32*1024))/1e6)
				nextPct++
			}
		}
		final := float64(host.WritevHist.SumUpperBounds(32*1024)) / 1e6
		for nextPct <= 25 {
			out = append(out, final)
			nextPct++
		}
		return out
	}
	tight := run(10, 20)
	wide := run(20, 50)
	for p := 1; p <= 25; p++ {
		tv, wv := "-", "-"
		if p-1 < len(tight) {
			tv = trimFloat(tight[p-1])
		}
		if p-1 < len(wide) {
			wv = trimFloat(wide[p-1])
		}
		res.Rows = append(res.Rows, []string{fmt.Sprintf("%d", p), tv, wv})
	}
	// The paper's headline comparison: at 21% cache usage, 10:20 sums to
	// ~3283 ms while 20:50 sums to ~13 ms — two orders of magnitude.
	var t21, w21 float64
	if len(tight) >= 21 {
		t21 = tight[20]
	}
	if len(wide) >= 21 {
		w21 = wide[20]
	}
	res.Notef("paper: at 21%% RAM usage, 10:20 summed latency = 3283 ms vs 13 ms for 20:50 (two orders of magnitude)")
	ratio := "unbounded (20:50 shows no tail >=32us in this window)"
	if w21 > 0 {
		ratio = fmt.Sprintf("%.0fx", t21/w21)
	}
	res.Notef("measured: at 21%%, 10:20 = %.1f ms vs 20:50 = %.3f ms (ratio %s)", t21, w21, ratio)
	res.Notef("steep climb begins at the midpoint of (dirty_background_ratio, dirty_ratio), before dirty_ratio")
	return res, nil
}
