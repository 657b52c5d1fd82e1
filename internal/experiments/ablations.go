package experiments

import (
	"fmt"

	"repro/internal/capture"
	patchwork "repro/internal/core"
	"repro/internal/hostsim"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/switchsim"
	"repro/internal/telemetry"
	"repro/internal/testbed"
	"repro/internal/units"
)

func init() {
	register("ablation-cycling", AblationCycling)
	register("ablation-truncation", AblationTruncation)
	register("ablation-thresholds", AblationThresholds)
	register("ablation-mirror-direction", AblationMirrorDirection)
	register("ablation-methods", AblationMethods)
}

// AblationCycling compares port-selection heuristics on coverage (distinct
// ports visited) and busy-port hit rate (fraction of selections landing
// on the site's busiest third of ports) over many cycles.
func AblationCycling(seed uint64) (*Result, error) {
	k := sim.NewKernel()
	fed, err := testbed.NewFederation(k, []testbed.SiteSpec{{
		Name: "S", Uplinks: 2, Downlinks: 16, DedicatedNICs: 2,
		Cores: 32, RAM: 128 * units.GB, Storage: units.TB,
	}})
	if err != nil {
		return nil, err
	}
	site := fed.Sites()[0]
	store := telemetry.NewStore()
	poller := telemetry.NewPoller(k, store, 30*sim.Second)
	poller.Watch(site.Switch)
	poller.Start()

	// Synthetic skewed load: P1 busiest, decaying down the port list;
	// half the ports idle.
	names := site.Switch.PortNames()
	busy := map[string]float64{}
	for i, n := range names {
		if i < len(names)/2 {
			busy[n] = 1.0 / float64(i+1)
		}
	}
	tick := k.Every(sim.Second, func(sim.Time) {
		for n, w := range busy {
			size := int(w * 1e6)
			if size > 0 {
				_ = site.Switch.Transit(n, switchsim.DirRx, switchsim.Frame{Size: size})
			}
		}
	})
	k.RunUntil(3 * sim.Minute)
	tick.Stop()
	poller.Stop()

	busiestThird := map[string]bool{}
	ranked := store.BusiestPorts("S", 3*sim.Minute)
	for i, pr := range ranked {
		if i < len(names)/3 {
			busiestThird[pr.Key.Port] = true
		}
	}

	res := &Result{
		ID:     "ablation-cycling",
		Title:  "Port-cycling heuristics: coverage vs busy-port bias (30 cycles, 1 mirror)",
		Header: []string{"heuristic", "distinct_ports", "nonidle_coverage", "busy_hits_percent"},
	}
	selectors := []struct {
		name string
		sel  patchwork.PortSelector
	}{
		{"busiest-bias-1/3", &patchwork.BusiestBiasSelector{N: 3}},
		{"all-ports-roundrobin", &patchwork.AllPortsSelector{}},
		{"fixed-P1", &patchwork.FixedSelector{Ports: []string{"P1"}}},
		{"uplinks-only", &patchwork.UplinkSelector{}},
	}
	nonIdle := len(store.NonIdlePorts("S", 3*sim.Minute))
	for _, s := range selectors {
		hist := map[string]int{}
		visited := map[string]bool{}
		visitedNonIdle := map[string]bool{}
		busyHits, picks := 0, 0
		rr := rng.New(seed)
		for cycle := 0; cycle < 30; cycle++ {
			ctx := &patchwork.SelectContext{
				Site: site, Store: store, Candidates: names,
				History: hist, Cycle: cycle, Want: 1, Rand: rr,
				Window: 3 * sim.Minute,
			}
			for _, p := range s.sel.SelectPorts(ctx) {
				hist[p] = cycle
				visited[p] = true
				if busy[p] > 0 {
					visitedNonIdle[p] = true
				}
				if busiestThird[p] {
					busyHits++
				}
				picks++
			}
		}
		cov := "0/0"
		if nonIdle > 0 {
			cov = fmt.Sprintf("%d/%d", len(visitedNonIdle), nonIdle)
		}
		hitPct := 0.0
		if picks > 0 {
			hitPct = float64(busyHits) / float64(picks) * 100
		}
		res.AddRow(s.name, len(visited), cov, hitPct)
	}
	res.Notef("design claim: busiest-bias keeps a high busy-port hit rate without starving other non-idle ports")
	return res, nil
}

// AblationTruncation sweeps the stored snap length at a fixed offered
// load, showing the capture cost of keeping more bytes per frame.
func AblationTruncation(seed uint64) (*Result, error) {
	res := &Result{
		ID:     "ablation-truncation",
		Title:  "Truncation length vs DPDK loss (1024B frames @ 100Gbps, 6 cores)",
		Header: []string{"snaplen_B", "loss_percent", "stored_MB_per_s"},
	}
	for _, snap := range []int{64, 128, 200, 512, 1024} {
		k := sim.NewKernel()
		e, err := capture.NewEngine(k, capture.Config{
			Method: capture.MethodDPDK, SnapLen: snap, Cores: 6,
		})
		if err != nil {
			return nil, err
		}
		st := capture.OfferLoad(k, e, 1024, 100*units.Gbps, 20*sim.Millisecond)
		storedRate := float64(st.StoredBytes) / 0.020 / 1e6
		res.AddRow(snap, float64(st.LossPercent()), storedRate)
	}
	res.Notef("expected shape: loss grows with snap length at fixed cores; smaller truncation trades fidelity for rate")
	return res, nil
}

// AblationThresholds sweeps dirty-ratio threshold pairs at a fixed ingest
// and reports when the writer first stalls.
func AblationThresholds(seed uint64) (*Result, error) {
	res := &Result{
		ID:     "ablation-thresholds",
		Title:  "Dirty-ratio thresholds vs time to first writer stall (8.5 GB/s ingest, 100 GB cache)",
		Header: []string{"thresholds", "first_stall_s", "tail_latency_ms_at_10s"},
	}
	pairs := [][2]int{{10, 20}, {20, 50}, {40, 60}, {60, 80}}
	for _, p := range pairs {
		host, err := hostsim.New(hostsim.Config{
			FreeCache:            100 * units.GB,
			DirtyBackgroundRatio: p[0], DirtyRatio: p[1],
		})
		if err != nil {
			return nil, err
		}
		const chunk = 128 * 216
		ingest := int64(8_500_000_000)
		interval := sim.Duration(int64(sim.Second) * chunk / ingest)
		var now sim.Time
		firstStall := sim.Time(-1)
		// The clock is arrival-driven: frames keep landing at the ingest
		// rate whether or not the writer is stalled (a stalled writer
		// shows up as loss in the capture engine, not as back-pressure on
		// the wire).
		for now < 10*sim.Second {
			host.Writev(now, chunk)
			if firstStall < 0 && host.Stats.ThrottledCalls+host.Stats.BlockedCalls > 0 {
				firstStall = now
			}
			now += interval
		}
		stallCell := ">10"
		if firstStall >= 0 {
			stallCell = trimFloat(firstStall.Seconds())
		}
		res.AddRow(fmt.Sprintf("%d:%d", p[0], p[1]), stallCell,
			float64(host.WritevHist.SumUpperBounds(32*1024))/1e6)
	}
	res.Notef("paper (Appendix B): with 60:80 thresholds the bottleneck arrives after ~8-9 seconds at 8.5 GB/s")
	return res, nil
}

// AblationMirrorDirection compares mirroring both directions of a
// saturated port against a single direction: both-direction mirroring
// overflows the egress channel, single-direction does not.
func AblationMirrorDirection(seed uint64) (*Result, error) {
	res := &Result{
		ID:     "ablation-mirror-direction",
		Title:  "Mirror direction vs clone loss at a line-rate port",
		Header: []string{"directions", "offered_frames", "clone_drops", "loss_percent"},
	}
	for _, both := range []bool{true, false} {
		k := sim.NewKernel()
		fed, err := testbed.NewFederation(k, []testbed.SiteSpec{{
			Name: "S", Uplinks: 1, Downlinks: 4, DedicatedNICs: 1,
			Cores: 8, RAM: 64 * units.GB, Storage: units.TB,
		}})
		if err != nil {
			return nil, err
		}
		sw := fed.Sites()[0].Switch
		dirs := switchsim.DirRx
		label := "rx-only"
		if both {
			dirs = switchsim.DirBoth
			label = "both"
		}
		if _, err := sw.StartMirror("P1", dirs, "P2"); err != nil {
			return nil, err
		}
		// Drive P1 at line rate in both directions for 200 ms, one
		// event that reschedules itself per frame pair. P2 has no
		// receiver, so a transit schedules nothing.
		lineRate := 100 * units.Gbps
		const frame = 9000
		interval := sim.Duration(lineRate.TransmitNanos(frame))
		var ts sim.Time
		var step func()
		step = func() {
			_ = sw.Transit("P1", switchsim.DirRx, switchsim.Frame{Size: frame})
			_ = sw.Transit("P1", switchsim.DirTx, switchsim.Frame{Size: frame})
			if ts += interval; ts < 200*sim.Millisecond {
				k.At(ts, step)
			}
		}
		k.At(ts, step)
		k.Run()
		m := sw.Mirrors()[0]
		offered := m.Cloned + m.CloneDrops
		loss := 0.0
		if offered > 0 {
			loss = float64(m.CloneDrops) / float64(offered) * 100
		}
		res.AddRow(label, offered, m.CloneDrops, loss)
	}
	res.Notef("paper (Section 6.2.2): samples are incomplete when Mirrored(Tx)+Mirrored(Rx) exceeds the egress channel's rate")
	return res, nil
}

// AblationMethods compares the three capture methods at a mid-range load.
func AblationMethods(seed uint64) (*Result, error) {
	res := &Result{
		ID:     "ablation-methods",
		Title:  "Capture methods at 20 Gbps of 1514B frames (200B snaplen, 2 cores)",
		Header: []string{"method", "loss_percent", "captured_frames"},
	}
	for _, m := range []capture.Method{capture.MethodTcpdump, capture.MethodDPDK, capture.MethodFPGADPDK} {
		k := sim.NewKernel()
		e, err := capture.NewEngine(k, capture.Config{
			Method: m, SnapLen: 200, Cores: 2, BufferBytes: 1 << 20,
		})
		if err != nil {
			return nil, err
		}
		st := capture.OfferLoad(k, e, 1514, 20*units.Gbps, 100*sim.Millisecond)
		res.AddRow(m.String(), float64(st.LossPercent()), st.Captured)
	}
	res.Notef("expected shape: tcpdump saturates far below the DPDK paths; FPGA offload loses no more than host DPDK")
	return res, nil
}
