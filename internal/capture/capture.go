// Package capture models Patchwork's three frame-capture methods
// (Section 6.2.2 of the paper):
//
//  1. tcpdump with an enlarged (32 MB) capture buffer — the default:
//     simple, single-core, lossless up to roughly 8.5 Gbps of 1500-byte
//     frames on FABRIC hosts;
//  2. a custom DPDK application — kernel-bypass, multi-core, truncating
//     frames on the host before serializing them to pcap;
//  3. Alveo FPGA preprocessing (filtering, truncation, sampling, packet
//     editing at line rate on the NIC) feeding the DPDK pcap writer.
//
// The engine is a switchsim.Receiver: it consumes frames delivered from a
// mirrored switch port and writes (optionally truncated) records through
// a hostsim page-cache model into a pcap stream. Loss arises exactly as
// on the real system — Rx queue overflow when cores cannot keep up, and
// writer stalls when the page cache crosses its dirty thresholds.
//
// Cost-model calibration (documented in DESIGN.md): per-frame CPU cost is
//
//	cost = base + perStoredByte*(stored-64) + perWireByte*wire + contention
//
// where contention grows with the total arrival rate, reproducing the
// system-wide packets-per-second ceiling visible in the paper's Tables 1
// and 2 (~15 Mpps at 200-byte truncation, ~26 Mpps at 64-byte).
package capture

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/hostsim"
	"repro/internal/obs"
	"repro/internal/pcap"
	"repro/internal/sim"
	"repro/internal/switchsim"
	"repro/internal/units"
)

// Method selects the capture implementation.
type Method uint8

// Capture methods.
const (
	// MethodTcpdump is the software default (single core, kernel path).
	MethodTcpdump Method = iota
	// MethodDPDK is the kernel-bypass multi-core path.
	MethodDPDK
	// MethodFPGADPDK offloads preprocessing to the FPGA NIC, then uses
	// the DPDK writer.
	MethodFPGADPDK
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodTcpdump:
		return "tcpdump"
	case MethodDPDK:
		return "dpdk"
	case MethodFPGADPDK:
		return "fpga+dpdk"
	default:
		return fmt.Sprintf("Method(%d)", uint8(m))
	}
}

// Cost-model constants (see package comment).
const (
	tcpdumpBaseCost    = 1400 * sim.Nanosecond // syscall+kernel path per frame
	tcpdumpPerByteCost = 0.5                   // ns per stored byte (copy to user)

	dpdkBaseCost      = 150.0 // ns per frame
	dpdkPerStoredByte = 1.9   // ns per stored byte above 64
	dpdkPerWireByte   = 0.03  // ns per wire byte (DMA/PCIe of full frame)
	// contentionNsPerMpps models shared writer/memory-bus serialization:
	// each frame pays this many extra ns per Mpps of total arrival rate.
	contentionNsPerMpps = 11.0

	// tcpdumpSlotOverhead approximates the kernel ring's per-frame slot
	// overhead (tpacket header + alignment) counted against the capture
	// buffer.
	tcpdumpSlotOverhead = 112

	// WritevBatchFrames matches Patchwork's DPDK writer: one writev per
	// 128 frames.
	WritevBatchFrames = 128
	// pcapRecordOverhead is the per-record pcap header.
	pcapRecordOverhead = 16
)

// Config configures a capture engine.
type Config struct {
	Method Method
	// SnapLen is the truncation length (Patchwork's default is 200 bytes
	// to keep header stacks; 64 is the cheaper variant of Table 2).
	SnapLen int
	// Cores is the number of worker cores (ignored for tcpdump, which is
	// single-core).
	Cores int
	// RxQueueDepth is the per-core Rx descriptor ring size (paper: 4096).
	RxQueueDepth int
	// BufferBytes is tcpdump's capture buffer (default 32 MB).
	BufferBytes int64
	// Host supplies the page-cache storage path. Nil means storage is
	// free (useful for isolating CPU effects in ablations).
	Host *hostsim.Host
	// Writer receives captured records; nil counts without storing.
	Writer *pcap.Writer
	// Filter drops frames before capture when it returns false. It sees
	// the frame's Data, which may leave off an all-zero tail
	// (switchsim.Frame). On the FPGA method it runs at line rate for
	// free; on the host methods it costs CPU.
	Filter func(data []byte) bool
	// SampleEvery keeps only every Nth frame when > 1 (sampling
	// offload).
	SampleEvery int
	// Stall, when set, is consulted once per captured frame and may
	// return extra time the processing core loses before the frame
	// completes — the capture-core stall injection point
	// (internal/faults). Zero means no stall; with Stall nil the hot path
	// pays a single branch.
	Stall func(now sim.Time) sim.Duration
	// Obs receives capture metrics when non-nil. Instruments are
	// resolved once at engine construction, so with Obs nil (the
	// default) the per-frame cost of observability is a nil check.
	Obs *obs.Registry
	// ObsLabels distinguish engines sharing a registry (e.g. site and
	// egress port); the engine adds a "method" label itself.
	ObsLabels []obs.Label
}

func (c Config) withDefaults() Config {
	if c.SnapLen == 0 {
		c.SnapLen = 200
	}
	if c.Cores == 0 {
		c.Cores = 1
	}
	if c.Method == MethodTcpdump {
		c.Cores = 1
	}
	if c.RxQueueDepth == 0 {
		c.RxQueueDepth = 4096
	}
	if c.BufferBytes == 0 {
		c.BufferBytes = 32 << 20
	}
	if c.SampleEvery < 1 {
		c.SampleEvery = 1
	}
	return c
}

// Stats accumulates capture-engine counters.
type Stats struct {
	// Received counts frames delivered to the NIC.
	Received int64
	// Filtered counts frames rejected by the filter or sampler.
	Filtered int64
	// Dropped counts frames lost to queue/buffer overflow.
	Dropped int64
	// Captured counts frames fully processed into the capture.
	Captured int64
	// StoredBytes counts stored (truncated) bytes.
	StoredBytes int64
	// Stalls counts injected capture-core stalls (Config.Stall).
	Stalls int64
}

// LossPercent is dropped / (received - filtered).
func (s Stats) LossPercent() units.Percent {
	eligible := s.Received - s.Filtered
	if eligible <= 0 {
		return 0
	}
	return units.PercentOf(s.Dropped, eligible)
}

// frameDone is a pooled completion record for one in-flight frame: the
// state its kernel event needs, carried as the event's argument instead
// of a per-frame closure. The delivered frame's bytes are only borrowed,
// so the record keeps its own copy of the frame's Data, at most stored
// bytes of it; the rest of the stored bytes are zero (switchsim.Frame).
// Records recycle through Engine.doneFree with their buffers, so the
// steady-state per-frame path allocates nothing.
type frameDone struct {
	core   *coreState
	data   []byte // the frame's first bytes, at most stored of them
	size   int    // wire length
	stored int
	slot   int64
	next   *frameDone
}

type coreState struct {
	queued      int
	queuedBytes int64
	busyUntil   sim.Time
	// done is the core's completion stream. A frame completes at the
	// core's new busyUntil, which only grows, so completions are
	// scheduled in time order and the kernel keeps one heap entry per
	// core however deep the Rx queue is.
	done        *sim.FIFO
	batchFrames int
	batchBytes  int
	// occupancy is the per-core queue-depth high-watermark gauge (nil
	// unless the engine is instrumented).
	occupancy *obs.Gauge
}

// Engine is one capture instance. It implements switchsim.Receiver. Not
// safe for concurrent use; drive it from the simulation goroutine.
type Engine struct {
	cfg    Config
	sched  sim.Scheduler
	cores  []coreState
	rr     int
	sample int
	paused bool

	// Arrival-rate estimator for the contention term.
	rateWindowStart sim.Time
	rateWindowCount int64
	currentMpps     float64

	// Stats is exported state; read freely between events.
	Stats Stats

	// Completion-event pool: free list of frameDone records plus the
	// method value every core's completion stream runs (bound once here
	// so the per-frame path does not allocate a closure).
	doneFree *frameDone
	doneFn   func(any)

	// Pre-resolved obs instruments (all nil when Config.Obs is nil).
	mReceived, mFiltered, mDropped, mCaptured, mStoredBytes *obs.Counter
}

// NewEngine builds an engine bound to a scheduler — the simulation
// kernel in serial runs, a lane in sharded ones.
func NewEngine(k sim.Scheduler, cfg Config) (*Engine, error) {
	if cfg.Cores < 0 || cfg.Cores > 256 {
		return nil, fmt.Errorf("capture: core count %d out of range", cfg.Cores)
	}
	if cfg.SnapLen < 0 {
		return nil, fmt.Errorf("capture: snap length %d invalid", cfg.SnapLen)
	}
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:   cfg,
		sched: k,
		cores: make([]coreState, cfg.Cores),
	}
	e.doneFn = e.frameDone
	for i := range e.cores {
		e.cores[i].done = sim.NewFIFO(e.doneFn)
	}
	if reg := cfg.Obs; reg != nil {
		labels := append(append([]obs.Label(nil), cfg.ObsLabels...),
			obs.L("method", cfg.Method.String()))
		reg.Help("capture_frames_received_total", "frames delivered to the capture NIC")
		reg.Help("capture_frames_filtered_total", "frames rejected by filter or sampler")
		reg.Help("capture_frames_dropped_total", "frames lost to Rx queue or buffer overflow")
		reg.Help("capture_frames_captured_total", "frames fully processed into the capture")
		reg.Help("capture_stored_bytes_total", "stored (truncated) bytes")
		reg.Help("capture_core_queue_highwater", "per-core Rx queue depth high-watermark")
		e.mReceived = reg.Counter("capture_frames_received_total", labels...)
		e.mFiltered = reg.Counter("capture_frames_filtered_total", labels...)
		e.mDropped = reg.Counter("capture_frames_dropped_total", labels...)
		e.mCaptured = reg.Counter("capture_frames_captured_total", labels...)
		e.mStoredBytes = reg.Counter("capture_stored_bytes_total", labels...)
		for i := range e.cores {
			e.cores[i].occupancy = reg.Gauge("capture_core_queue_highwater",
				append(append([]obs.Label(nil), labels...), obs.L("core", strconv.Itoa(i)))...)
		}
	}
	return e, nil
}

// Config returns the engine's effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// estimateRate updates the arrival-rate estimate (Mpps) over 1 ms
// windows.
func (e *Engine) estimateRate(now sim.Time) {
	const window = sim.Millisecond
	if e.rateWindowCount == 0 {
		e.rateWindowStart = now
	}
	e.rateWindowCount++
	if elapsed := now - e.rateWindowStart; elapsed >= window {
		e.currentMpps = float64(e.rateWindowCount) / (float64(elapsed) / 1000)
		e.rateWindowCount = 0
	}
}

// perFrameCost returns the CPU time one core spends on a frame.
func (e *Engine) perFrameCost(stored, wireLen int) sim.Duration {
	switch e.cfg.Method {
	case MethodTcpdump:
		return tcpdumpBaseCost + sim.Duration(float64(stored)*tcpdumpPerByteCost)
	case MethodDPDK:
		ns := dpdkBaseCost +
			dpdkPerStoredByte*float64(maxInt(0, stored-64)) +
			dpdkPerWireByte*float64(wireLen) +
			contentionNsPerMpps*e.currentMpps
		return sim.Duration(ns)
	default: // MethodFPGADPDK
		// The FPGA truncates at line rate, so the host DMAs and touches
		// only the stored bytes; the wire-size term disappears.
		ns := dpdkBaseCost +
			dpdkPerStoredByte*float64(maxInt(0, stored-64)) +
			contentionNsPerMpps*e.currentMpps
		return sim.Duration(ns)
	}
}

// DeliverFrame implements switchsim.Receiver: one frame arrives from the
// mirrored port at virtual time now.
func (e *Engine) DeliverFrame(now sim.Time, f switchsim.Frame) {
	e.Stats.Received++
	e.mReceived.IncAt(now)
	e.estimateRate(now)

	// A paused engine (ENOSPC degradation) sheds every frame before it
	// can reach a core and fill the disk further. The drops are counted
	// honestly: pausing trades capture completeness for campaign
	// survival, and the loss must show in the stats.
	if e.paused {
		e.Stats.Dropped++
		e.mDropped.IncAt(now)
		return
	}

	// Sampling and filtering. On the FPGA these run on the NIC before
	// the host sees the frame; on host methods they spend core time, but
	// the dominant effect either way is the reduction in frames stored.
	if e.cfg.SampleEvery > 1 {
		e.sample++
		if e.sample%e.cfg.SampleEvery != 0 {
			e.Stats.Filtered++
			e.mFiltered.IncAt(now)
			return
		}
	}
	if e.cfg.Filter != nil && !e.cfg.Filter(f.Data) {
		e.Stats.Filtered++
		e.mFiltered.IncAt(now)
		return
	}

	stored := f.Size
	if stored > e.cfg.SnapLen {
		stored = e.cfg.SnapLen
	}

	core := &e.cores[e.rr]
	e.rr = (e.rr + 1) % len(e.cores)

	// Overflow checks: frame-count ring for DPDK paths, byte buffer for
	// tcpdump.
	slotBytes := int64(stored)
	if e.cfg.Method == MethodTcpdump {
		slotBytes += tcpdumpSlotOverhead
		if core.queuedBytes+slotBytes > e.cfg.BufferBytes {
			e.Stats.Dropped++
			e.mDropped.IncAt(now)
			return
		}
	} else if core.queued >= e.cfg.RxQueueDepth {
		e.Stats.Dropped++
		e.mDropped.IncAt(now)
		return
	}

	core.queued++
	core.queuedBytes += slotBytes
	core.occupancy.SetMaxAt(float64(core.queued), now)
	start := core.busyUntil
	if start < now {
		start = now
	}
	done := start + e.perFrameCost(stored, f.Size)
	if e.cfg.Stall != nil {
		if extra := e.cfg.Stall(now); extra > 0 {
			e.Stats.Stalls++
			done += extra
		}
	}
	core.busyUntil = done

	// Batch the pcap write: one writev per 128 frames, charged to the
	// core that fills the batch (this is where dirty-page stalls block
	// the pipeline).
	core.batchFrames++
	core.batchBytes += stored + pcapRecordOverhead
	if core.batchFrames >= WritevBatchFrames {
		if e.cfg.Host != nil {
			lat := e.cfg.Host.Writev(done, core.batchBytes)
			core.busyUntil += lat
			done = core.busyUntil
		}
		core.batchFrames = 0
		core.batchBytes = 0
	}

	fd := e.doneFree
	if fd == nil {
		fd = new(frameDone)
	} else {
		e.doneFree = fd.next
	}
	fd.core = core
	fd.data = append(fd.data[:0], f.Data[:min(len(f.Data), stored)]...)
	fd.size = f.Size
	fd.stored = stored
	fd.slot = slotBytes
	e.sched.FIFOAt(core.done, done, fd)
}

// SetPaused pauses or resumes the engine. A paused engine keeps
// accounting frame arrivals but drops every frame before it queues —
// the storage-degradation lever: stop filling a full disk without
// tearing the listener down. In-flight frames complete normally.
func (e *Engine) SetPaused(p bool) { e.paused = p }

// Paused reports whether the engine is currently shedding all frames.
func (e *Engine) Paused() bool { return e.paused }

// frameDone completes one captured frame (the completion streams'
// callback) and returns the record to the pool.
func (e *Engine) frameDone(a any) {
	fd := a.(*frameDone)
	c := fd.core
	c.queued--
	c.queuedBytes -= fd.slot
	now := e.sched.Now()
	e.Stats.Captured++
	e.Stats.StoredBytes += int64(fd.stored)
	e.mCaptured.IncAt(now)
	e.mStoredBytes.AddAt(int64(fd.stored), now)
	if e.cfg.Writer != nil {
		// The record stores the frame's first stored bytes: extend the
		// copied Data with the zeros it left off.
		n := len(fd.data)
		fd.data = slices.Grow(fd.data, fd.stored-n)[:fd.stored]
		clear(fd.data[n:])
		_ = e.cfg.Writer.WriteRecord(int64(now), fd.data, fd.size)
	}
	fd.core = nil
	fd.next = e.doneFree
	e.doneFree = fd
}

// Flush finalizes any partial writev batch (end of a sampling window).
func (e *Engine) Flush() {
	for i := range e.cores {
		c := &e.cores[i]
		if c.batchFrames > 0 && e.cfg.Host != nil {
			lat := e.cfg.Host.Writev(maxTime(e.sched.Now(), c.busyUntil), c.batchBytes)
			c.busyUntil += lat
		}
		c.batchFrames = 0
		c.batchBytes = 0
	}
	if e.cfg.Writer != nil {
		_ = e.cfg.Writer.Flush()
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

// loadDriver emits one frame per firing and reschedules itself through
// the kernel's arg-carrying fast path — one driver allocation for the
// whole offered load instead of one closure per frame.
type loadDriver struct {
	k         *sim.Kernel
	e         *Engine
	frameSize int
	interval  sim.Duration
	next      sim.Time
	end       sim.Time
}

func loadStep(a any) {
	d := a.(*loadDriver)
	d.e.DeliverFrame(d.next, switchsim.Frame{Size: d.frameSize})
	d.next += d.interval
	if d.next < d.end {
		d.k.AtArg(d.next, loadStep, d)
	}
}

// OfferLoad is a convenience harness for the performance experiments: it
// offers frames of the given wire size at the given rate for the given
// duration (deterministic spacing), runs the kernel, flushes, and returns
// the engine's stats. The frames carry no data bytes (rate modeling
// only). It is ScheduleLoad followed by Drain.
func OfferLoad(k *sim.Kernel, e *Engine, frameSize int, rate units.BitRate, dur sim.Duration) Stats {
	ScheduleLoad(k, e, frameSize, rate, dur)
	return Drain(k, e)
}

// ScheduleLoad schedules OfferLoad's load on k without running it and
// returns the number of frames it offers. A caller that steps the kernel
// itself can stop early, or finish with Drain.
func ScheduleLoad(k *sim.Kernel, e *Engine, frameSize int, rate units.BitRate, dur sim.Duration) int64 {
	if dur <= 0 {
		return 0
	}
	interval := sim.Duration(rate.TransmitNanos(frameSize))
	if interval < 1 {
		interval = 1
	}
	d := &loadDriver{k: k, e: e, frameSize: frameSize, interval: interval,
		next: k.Now(), end: k.Now() + dur}
	k.AtArg(d.next, loadStep, d)
	// One frame at each multiple of interval below dur.
	return int64((dur + interval - 1) / interval)
}

// Drain runs the kernel until it is idle, flushes the engine's partial
// writev batches and returns the engine's stats.
func Drain(k *sim.Kernel, e *Engine) Stats {
	k.Run()
	e.Flush()
	k.Run()
	return e.Stats
}

// CoreSnapshot reports one worker core's instantaneous state.
type CoreSnapshot struct {
	Queued      int
	QueuedBytes int64
	BusyUntil   sim.Time
}

// CoreSnapshots returns the per-core state, for load-balance inspection
// and ablations.
func (e *Engine) CoreSnapshots() []CoreSnapshot {
	out := make([]CoreSnapshot, len(e.cores))
	for i := range e.cores {
		out[i] = CoreSnapshot{
			Queued:      e.cores[i].queued,
			QueuedBytes: e.cores[i].queuedBytes,
			BusyUntil:   e.cores[i].busyUntil,
		}
	}
	return out
}
