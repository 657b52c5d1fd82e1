package capture

import (
	"bytes"
	"testing"

	"repro/internal/hostsim"
	"repro/internal/pcap"
	"repro/internal/sim"
	"repro/internal/switchsim"
	"repro/internal/units"
)

func newEngine(t testing.TB, cfg Config) (*sim.Kernel, *Engine) {
	t.Helper()
	k := sim.NewKernel()
	e, err := NewEngine(k, cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return k, e
}

func TestDefaults(t *testing.T) {
	_, e := newEngine(t, Config{Method: MethodDPDK})
	cfg := e.Config()
	if cfg.SnapLen != 200 || cfg.RxQueueDepth != 4096 || cfg.Cores != 1 {
		t.Errorf("defaults = %+v", cfg)
	}
	_, e = newEngine(t, Config{Method: MethodTcpdump, Cores: 8})
	if e.Config().Cores != 1 {
		t.Error("tcpdump must be single-core")
	}
	if e.Config().BufferBytes != 32<<20 {
		t.Errorf("tcpdump buffer = %d", e.Config().BufferBytes)
	}
}

func TestInvalidConfig(t *testing.T) {
	k := sim.NewKernel()
	if _, err := NewEngine(k, Config{Cores: 1000}); err == nil {
		t.Error("absurd core count should fail")
	}
	if _, err := NewEngine(k, Config{SnapLen: -1}); err == nil {
		t.Error("negative snaplen should fail")
	}
}

// TestScheduleLoadCountsFrames checks ScheduleLoad's frame count
// against the frames the load delivers, including durations that are
// and are not a multiple of the frame interval.
func TestScheduleLoadCountsFrames(t *testing.T) {
	rate := 100 * units.Gbps
	interval := sim.Duration(rate.TransmitNanos(1514))
	for _, dur := range []sim.Duration{0, 1, interval - 1, interval, interval + 1, 7 * interval, 30 * sim.Millisecond} {
		k, e := newEngine(t, Config{Method: MethodDPDK, Cores: 4})
		n := ScheduleLoad(k, e, 1514, rate, dur)
		if st := Drain(k, e); st.Received != n {
			t.Errorf("dur %v: ScheduleLoad counts %d frames, %d delivered", dur, n, st.Received)
		}
	}
}

func TestTcpdumpLosslessAt8Gbps(t *testing.T) {
	// Section 8.1.2: tcpdump captures without loss until about 8.5 Gbps
	// of 1500-byte frames.
	k, e := newEngine(t, Config{Method: MethodTcpdump, SnapLen: 64})
	st := OfferLoad(k, e, 1500, 8*units.Gbps, 200*sim.Millisecond)
	if st.Dropped != 0 {
		t.Errorf("8 Gbps: dropped %d of %d", st.Dropped, st.Received)
	}
	if st.Captured == 0 {
		t.Error("nothing captured")
	}
}

func TestTcpdumpLossAt11Gbps(t *testing.T) {
	// A small buffer shortens the time-to-overflow without changing the
	// throughput ceiling, keeping the simulation quick.
	k, e := newEngine(t, Config{Method: MethodTcpdump, SnapLen: 64, BufferBytes: 2 << 20})
	st := OfferLoad(k, e, 1500, 11*units.Gbps, 500*sim.Millisecond)
	loss := float64(st.LossPercent())
	// 11 Gbps is ~30% beyond the ~8.5 Gbps ceiling: substantial loss.
	if loss < 5 {
		t.Errorf("11 Gbps loss = %.2f%%, expected substantial", loss)
	}
}

func TestTcpdumpCeilingBetween8And9(t *testing.T) {
	// Bisect the lossless ceiling: it must fall in [8, 9] Gbps.
	ceiling := 0
	for g := 6; g <= 12; g++ {
		k, e := newEngine(t, Config{Method: MethodTcpdump, SnapLen: 64, BufferBytes: 1 << 20})
		st := OfferLoad(k, e, 1500, units.BitRate(g)*units.Gbps, 500*sim.Millisecond)
		if st.LossPercent() < 0.01 {
			ceiling = g
		}
	}
	if ceiling < 8 || ceiling > 9 {
		t.Errorf("tcpdump lossless ceiling = %d Gbps, want 8-9", ceiling)
	}
}

func TestDPDKJumboAt100GbpsFiveCores(t *testing.T) {
	// Table 1 row 1: 1514B frames at 100 Gbps, 200B truncation, 5 cores,
	// loss < 1%.
	host, err := hostsim.New(hostsim.Config{DirtyBackgroundRatio: 60, DirtyRatio: 80})
	if err != nil {
		t.Fatal(err)
	}
	k, e := newEngine(t, Config{Method: MethodDPDK, SnapLen: 200, Cores: 5, Host: host})
	st := OfferLoad(k, e, 1514, 100*units.Gbps, 50*sim.Millisecond)
	if loss := float64(st.LossPercent()); loss >= 1 {
		t.Errorf("loss = %.3f%%, want < 1%%", loss)
	}
}

func TestDPDK512At100GbpsInfeasibleWith200B(t *testing.T) {
	// Table 1: at 512B frames the pipeline cannot hold 100 Gbps with
	// 200-byte truncation even with 15 cores (the paper runs it at 60).
	k, e := newEngine(t, Config{Method: MethodDPDK, SnapLen: 200, Cores: 15})
	st := OfferLoad(k, e, 512, 100*units.Gbps, 30*sim.Millisecond)
	if loss := float64(st.LossPercent()); loss < 5 {
		t.Errorf("512B@100G/200B loss = %.3f%%, expected heavy loss", loss)
	}
	// But 60 Gbps is sustainable.
	k2, e2 := newEngine(t, Config{Method: MethodDPDK, SnapLen: 200, Cores: 15})
	st2 := OfferLoad(k2, e2, 512, 60*units.Gbps, 30*sim.Millisecond)
	if loss := float64(st2.LossPercent()); loss >= 1 {
		t.Errorf("512B@60G/200B loss = %.3f%%, want < 1%%", loss)
	}
}

func TestTruncation64BeatsTruncation200(t *testing.T) {
	// Table 2 vs Table 1: 64-byte truncation sustains 512B frames at
	// 100 Gbps with 15 cores, which 200-byte truncation cannot.
	k, e := newEngine(t, Config{Method: MethodDPDK, SnapLen: 64, Cores: 15})
	st := OfferLoad(k, e, 512, 100*units.Gbps, 30*sim.Millisecond)
	if loss := float64(st.LossPercent()); loss >= 1 {
		t.Errorf("512B@100G/64B loss = %.3f%%, want < 1%%", loss)
	}
}

func TestFewerCoresNeededAt64B(t *testing.T) {
	// Table 2: 1514B at 100 Gbps needs only ~3 cores with 64B truncation.
	k, e := newEngine(t, Config{Method: MethodDPDK, SnapLen: 64, Cores: 3})
	st := OfferLoad(k, e, 1514, 100*units.Gbps, 30*sim.Millisecond)
	if loss := float64(st.LossPercent()); loss >= 1 {
		t.Errorf("1514B@100G/64B/3cores loss = %.3f%%, want < 1%%", loss)
	}
	// The same 3 cores with 200B truncation cannot hold 100 Gbps.
	k2, e2 := newEngine(t, Config{Method: MethodDPDK, SnapLen: 200, Cores: 3})
	st2 := OfferLoad(k2, e2, 1514, 100*units.Gbps, 30*sim.Millisecond)
	if loss := float64(st2.LossPercent()); loss < 1 {
		t.Errorf("1514B@100G/200B/3cores loss = %.3f%%, expected lossy", loss)
	}
}

func TestSmallFramesCapRate(t *testing.T) {
	// 128B frames: ~15 Gbps max at 200B trunc, ~28 Gbps at 64B trunc.
	k, e := newEngine(t, Config{Method: MethodDPDK, SnapLen: 200, Cores: 15})
	st := OfferLoad(k, e, 128, 15*units.Gbps, 20*sim.Millisecond)
	if loss := float64(st.LossPercent()); loss >= 1.5 {
		t.Errorf("128B@15G/200B loss = %.3f%%", loss)
	}
	k2, e2 := newEngine(t, Config{Method: MethodDPDK, SnapLen: 200, Cores: 15})
	st2 := OfferLoad(k2, e2, 128, 40*units.Gbps, 20*sim.Millisecond)
	if loss := float64(st2.LossPercent()); loss < 5 {
		t.Errorf("128B@40G/200B loss = %.3f%%, expected heavy", loss)
	}
	k3, e3 := newEngine(t, Config{Method: MethodFPGADPDK, SnapLen: 64, Cores: 15})
	st3 := OfferLoad(k3, e3, 128, 28*units.Gbps, 20*sim.Millisecond)
	if loss := float64(st3.LossPercent()); loss >= 1.5 {
		t.Errorf("128B@28G/64B FPGA loss = %.3f%%", loss)
	}
}

func TestFPGABeatsHostDPDKOnSmallFrames(t *testing.T) {
	// The FPGA path avoids per-wire-byte host costs; with equal cores it
	// must lose no more than plain DPDK.
	run := func(m Method) float64 {
		k, e := newEngine(t, Config{Method: m, SnapLen: 200, Cores: 10})
		st := OfferLoad(k, e, 1024, 100*units.Gbps, 20*sim.Millisecond)
		return float64(st.LossPercent())
	}
	dpdk := run(MethodDPDK)
	fpga := run(MethodFPGADPDK)
	if fpga > dpdk+0.01 {
		t.Errorf("fpga loss %.3f%% > dpdk loss %.3f%%", fpga, dpdk)
	}
}

func TestFilterExcludesFrames(t *testing.T) {
	k, e := newEngine(t, Config{Method: MethodDPDK, Filter: func(data []byte) bool {
		return len(data) > 0 && data[0] == 0xAA
	}})
	keep := switchsim.NewFrame(bytes.Repeat([]byte{0xAA}, 100))
	drop := switchsim.NewFrame(bytes.Repeat([]byte{0xBB}, 100))
	e.DeliverFrame(0, keep)
	e.DeliverFrame(0, drop)
	k.Run()
	if e.Stats.Captured != 1 || e.Stats.Filtered != 1 {
		t.Errorf("stats = %+v", e.Stats)
	}
}

func TestSampling(t *testing.T) {
	k, e := newEngine(t, Config{Method: MethodDPDK, SampleEvery: 4})
	for i := 0; i < 100; i++ {
		e.DeliverFrame(sim.Time(i*1000), switchsim.Frame{Size: 100})
	}
	k.Run()
	e.Flush()
	if e.Stats.Captured != 25 {
		t.Errorf("captured = %d, want 25 (1 in 4)", e.Stats.Captured)
	}
}

func TestPcapOutputTruncated(t *testing.T) {
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, pcap.FileHeader{SnapLen: 200})
	if err != nil {
		t.Fatal(err)
	}
	k, e := newEngine(t, Config{Method: MethodDPDK, SnapLen: 200, Writer: w})
	data := bytes.Repeat([]byte{0xCC}, 1514)
	e.DeliverFrame(0, switchsim.NewFrame(data))
	k.Run()
	e.Flush()
	rd, err := pcap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Data) != 200 || rec.OriginalLength != 1514 {
		t.Errorf("record = %d/%d, want 200/1514", len(rec.Data), rec.OriginalLength)
	}
}

// TestDeliverFrameBorrowsData pins the switchsim.Frame contract from the
// receiver side: DeliverFrame may only borrow f.Data, so overwriting the
// caller's bytes while the frame still waits for its core must not
// change the pcap record.
func TestDeliverFrameBorrowsData(t *testing.T) {
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, pcap.FileHeader{SnapLen: 200})
	if err != nil {
		t.Fatal(err)
	}
	k, e := newEngine(t, Config{Method: MethodDPDK, SnapLen: 200, Writer: w})
	src := make([]byte, 300)
	for i := range src {
		src[i] = byte(i)
	}
	want := bytes.Clone(src[:200])
	e.DeliverFrame(0, switchsim.NewFrame(src))
	if e.CoreSnapshots()[0].Queued != 1 {
		t.Fatal("frame should still be queued")
	}
	for i := range src {
		src[i] = 0xEE
	}
	k.Run()
	e.Flush()
	rd, err := pcap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Data, want) || rec.OriginalLength != 300 {
		t.Errorf("record = % x... (%d/%d), want the bytes delivered", rec.Data[:8], len(rec.Data), rec.OriginalLength)
	}
}

func TestStorageStallCausesLoss(t *testing.T) {
	// With tight dirty thresholds and slow storage, the writev stalls
	// must translate into Rx-queue drops that would not occur otherwise.
	mk := func(host *hostsim.Host) Stats {
		k, e := newEngine(t, Config{Method: MethodDPDK, SnapLen: 200, Cores: 5, Host: host})
		return OfferLoad(k, e, 1514, 100*units.Gbps, 200*sim.Millisecond)
	}
	slow, err := hostsim.New(hostsim.Config{
		FreeCache:            64 * units.MB, // tiny cache: cliff arrives fast
		DirtyBackgroundRatio: 10, DirtyRatio: 20,
		StorageWriteRate: 1 * units.Gbps, // 125 MB/s disk
	})
	if err != nil {
		t.Fatal(err)
	}
	withStall := mk(slow)
	noHost := mk(nil)
	if noHost.Dropped != 0 {
		t.Errorf("free storage run dropped %d", noHost.Dropped)
	}
	if withStall.Dropped == 0 {
		t.Error("storage stalls should cause drops")
	}
}

func TestLossPercentEdgeCases(t *testing.T) {
	if (Stats{}).LossPercent() != 0 {
		t.Error("zero stats should be 0 loss")
	}
	s := Stats{Received: 100, Filtered: 100}
	if s.LossPercent() != 0 {
		t.Error("all-filtered should be 0 loss")
	}
}

func TestMethodString(t *testing.T) {
	if MethodTcpdump.String() != "tcpdump" || MethodDPDK.String() != "dpdk" ||
		MethodFPGADPDK.String() != "fpga+dpdk" {
		t.Error("method names")
	}
}

func TestCoreSnapshotsBalanced(t *testing.T) {
	k, e := newEngine(t, Config{Method: MethodDPDK, Cores: 4})
	// Deliver 40 frames at one instant: round-robin spreads them evenly.
	for i := 0; i < 40; i++ {
		e.DeliverFrame(0, switchsim.Frame{Size: 1000})
	}
	snaps := e.CoreSnapshots()
	if len(snaps) != 4 {
		t.Fatalf("cores = %d", len(snaps))
	}
	for i, s := range snaps {
		if s.Queued != 10 {
			t.Errorf("core %d queued = %d, want 10", i, s.Queued)
		}
		if s.BusyUntil == 0 {
			t.Errorf("core %d never busy", i)
		}
	}
	k.Run()
	for i, s := range e.CoreSnapshots() {
		if s.Queued != 0 || s.QueuedBytes != 0 {
			t.Errorf("core %d not drained: %+v", i, s)
		}
	}
}

// TestDeliverFrameAllocFree pins the per-frame fast path at zero
// steady-state allocations: completion records recycle through the
// engine's pool and kernel events through the arena, so once both are
// warm, delivering and completing a frame must not touch the heap.
func TestDeliverFrameAllocFree(t *testing.T) {
	k, e := newEngine(t, Config{Method: MethodDPDK, SnapLen: 200, Cores: 4})
	now := sim.Time(0)
	deliver := func(n int) {
		for i := 0; i < n; i++ {
			e.DeliverFrame(now, switchsim.Frame{Size: 1514})
			now += 200 * sim.Nanosecond
			k.RunUntil(now)
		}
	}
	deliver(4096) // warm the pools to the schedule's high-water mark
	allocs := testing.AllocsPerRun(10, func() { deliver(512) })
	perFrame := allocs / 512
	if perFrame > 0.01 {
		t.Errorf("DeliverFrame allocates %.4f objects/frame, want ~0", perFrame)
	}
	k.Run()
}
