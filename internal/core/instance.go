package patchwork

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/capture"
	"repro/internal/hostsim"
	"repro/internal/obs"
	"repro/internal/pcap"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/switchsim"
	"repro/internal/telemetry"
	"repro/internal/testbed"
)

// Level is a log severity. Typed constants (rather than free-form
// strings) make levels typo-proof and let the obs layer count log
// events per level.
type Level uint8

// Log levels, in increasing severity.
const (
	LevelInfo Level = iota
	LevelWarn
	LevelError
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// LogEvent is one entry in an instance's run log. Logs travel with the
// capture bundle so problems can be diagnosed offline (requirement R3).
type LogEvent struct {
	At      sim.Time
	Level   Level
	Message string
}

// String renders "t=12.000000000s warn message".
func (e LogEvent) String() string {
	return fmt.Sprintf("t=%v %s %s", e.At, e.Level, e.Message)
}

// CongestionEvent records a suspected incomplete sample: the mirrored
// port's Tx+Rx rate exceeded the egress channel's capacity (Section
// 6.2.2).
type CongestionEvent struct {
	At           sim.Time
	MirroredPort string
	EgressPort   string
	// OfferedBps is Mirrored(Tx)+Mirrored(Rx) in bytes/s.
	OfferedBps float64
	// CapacityBps is the egress channel's byte rate.
	CapacityBps float64
}

// SampleRecord summarizes one capture sample for the bundle.
type SampleRecord struct {
	Run, Sample  int
	MirroredPort string
	EgressPort   string
	Start        sim.Time
	Frames       int64
	StoredBytes  int64
	DroppedAtNIC int64
	CloneDrops   uint64 // drops at the switch's mirror egress
}

// Bundle is what the coordinator downloads from one site after the
// sampling phase: compressed pcaps, logs, and per-sample statistics.
type Bundle struct {
	Site          string
	Outcome       Outcome
	FailureReason string
	// InstancesRequested/Granted document back-off.
	InstancesRequested int
	InstancesGranted   int
	// CompressedPcaps holds one gzip-compressed pcap per (instance,
	// mirror-port) capture stream.
	CompressedPcaps [][]byte
	Samples         []SampleRecord
	Congestion      []CongestionEvent
	Logs            []LogEvent
	// PortsSampled lists distinct mirrored ports across all cycles.
	PortsSampled []string
	// ScaleEvents records nice-factor footprint changes (empty unless
	// Config.Nice is set).
	ScaleEvents []ScaleEvent
}

// siteInstance runs the per-site profiling workflow. One siteInstance
// manages all listener instances at its site (each listener = 1 VM + 1
// dual-port dedicated NIC = 2 mirror egress ports).
type siteInstance struct {
	cfg    Config
	site   *testbed.Site
	store  *telemetry.Store
	poller *telemetry.Poller
	kernel *sim.Kernel
	r      *rng.Source
	// retryR feeds back-off jitter. A dedicated split keeps the retry
	// schedule from perturbing port-selection draws: with or without
	// faults, si.r produces the same sequence.
	retryR *rng.Source

	slivers []*testbed.Sliver // one per listener (VM + dedicated NIC)

	// Remediation state. pendingAvoid/pendingRealloc carry a
	// half-finished re-allocation across retries (released but not yet
	// replaced, with the failed sliver's NICs excluded); evictedBytes
	// counts harvested bytes rotated off the VM's disk; finished marks
	// the bundle delivered (no further remediation possible).
	pendingAvoid   []int
	pendingRealloc bool
	evictedBytes   int64
	finished       bool

	// egress ports reserved for the listeners' NICs (not mirrorable).
	egress []string
	// candidates are the mirrorable ports.
	candidates []string
	history    map[string]int

	// mirrors are the current cycle's active mirror sessions, in
	// mirror-establishment order (empty between cycles). Kept on the
	// instance so a remediation can re-arm them mid-cycle.
	mirrors []mirrorPair

	bundle  Bundle
	crashed bool

	// capture state per egress port, rebuilt each cycle.
	engines map[string]*capture.Engine
	writers map[string]*pcap.Writer
	bufs    map[string]*chunkStream

	// harvested holds the bundle's capture streams in harvest order.
	// compress is the coordinator's, which gzips each off the simulation
	// goroutine; pending counts this site's streams still being
	// compressed, and finish waits for them. chunks is the coordinator's
	// free list, which the streams take their chunks from.
	harvested []*harvestedPcap
	compress  func(*harvestedPcap, *sync.WaitGroup)
	pending   sync.WaitGroup
	chunks    *chunkList

	totalStored int64

	done func(Bundle)

	// Setup-phase state: the retry loop is event-driven (scheduled on the
	// kernel) so back-off delays consume sim time like everything else.
	setupSpan     *obs.Span
	setupStart    sim.Time
	setupDeadline sim.Time
	setupWant     int
	// stallFn, when non-nil, injects capture-core stalls (resolved once
	// from cfg.Faults and shared by every per-cycle engine).
	stallFn func(sim.Time) sim.Duration
	// host models the listener VM's storage stack when cfg.Storage is
	// set; capture engines write through it and storage-slowdown faults
	// apply to it. Nil keeps the zero-latency write path.
	host *hostsim.Host

	// Observability state (all nil/no-op when cfg.Obs and cfg.Tracer are
	// unset — the default).
	parentSpan  *obs.Span // the coordinator's experiment span
	siteSpan    *obs.Span
	cycleSpan   *obs.Span
	mBackoffs   *obs.Counter
	mRetries    *obs.Counter
	mDowngrades *obs.Counter
	mTimeouts   *obs.Counter
	mMirrored   *obs.Counter
	mCongested  *obs.Counter
	mLogs       [3]*obs.Counter // indexed by Level
	mFreeBytes  *obs.Gauge
}

// instrument resolves the instance's obs instruments. Called once at
// run start; with a nil registry every handle stays nil and recording
// costs one branch.
func (si *siteInstance) instrument() {
	reg := si.cfg.Obs
	if reg == nil {
		return
	}
	site := obs.L("site", si.site.Spec.Name)
	reg.Help("patchwork_setup_backoffs_total", "listener requests abandoned during iterative back-off")
	reg.Help("patchwork_setup_retries_total", "transient allocation failures retried with back-off")
	reg.Help("patchwork_setup_downgrades_total", "sites degraded to fewer listeners after exhausting retries")
	reg.Help("patchwork_setup_timeouts_total", "setup phases cut short by the per-phase deadline")
	reg.Help("patchwork_ports_mirrored_total", "mirror sessions established by port cycling")
	reg.Help("patchwork_congestion_events_total", "suspected incomplete samples (mirror egress overload)")
	reg.Help("patchwork_log_events_total", "run-log events by level")
	reg.Help("patchwork_runs_total", "site runs by outcome")
	reg.Help("patchwork_storage_free_bytes", "capture storage remaining before the watchdog limit")
	si.mBackoffs = reg.Counter("patchwork_setup_backoffs_total", site)
	si.mRetries = reg.Counter("patchwork_setup_retries_total", site)
	si.mDowngrades = reg.Counter("patchwork_setup_downgrades_total", site)
	si.mTimeouts = reg.Counter("patchwork_setup_timeouts_total", site)
	si.mMirrored = reg.Counter("patchwork_ports_mirrored_total", site)
	si.mCongested = reg.Counter("patchwork_congestion_events_total", site)
	for l := LevelInfo; l <= LevelError; l++ {
		si.mLogs[l] = reg.Counter("patchwork_log_events_total", site, obs.L("level", l.String()))
	}
	si.mFreeBytes = reg.Gauge("patchwork_storage_free_bytes", site)
	si.mFreeBytes.Set(float64(si.cfg.StorageLimitBytes))
}

// granted reports the current listener count.
func (si *siteInstance) granted() int { return len(si.slivers) }

// activeEgress returns the egress ports backed by currently-held NICs.
func (si *siteInstance) activeEgress() []string {
	n := si.granted() * testbed.PortsPerNIC
	if n > len(si.egress) {
		n = len(si.egress)
	}
	return si.egress[:n]
}

// mirrorPair tracks one active mirror session and the egress it clones
// into.
type mirrorPair struct {
	mirrored, egress string
	session          *switchsim.MirrorSession
}

// noteMutation feeds the campaign journal's mutation hook.
func (si *siteInstance) noteMutation(kind, note string) {
	if si.cfg.Mutations != nil {
		si.cfg.Mutations.Mutate(kind, si.site.Spec.Name, note)
	}
}

// releaseAll yields every held sliver. A sliver that is already gone
// (released or reaped while we weren't looking — the site-outage case)
// is the outcome we wanted, not an error.
func (si *siteInstance) releaseAll() {
	for _, sl := range si.slivers {
		err := si.site.Release(sl)
		switch {
		case err == nil:
			si.noteMutation("release", fmt.Sprintf("sliver=%d", sl.ID))
		case testbed.IsGone(err):
			si.logf(LevelInfo, "teardown: sliver %d already gone", sl.ID)
		default:
			si.logf(LevelError, "teardown: %v", err)
		}
	}
	si.slivers = nil
}

func (si *siteInstance) logf(level Level, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	si.bundle.Logs = append(si.bundle.Logs, LogEvent{
		At: si.kernel.Now(), Level: level, Message: msg,
	})
	if int(level) < len(si.mLogs) {
		si.mLogs[level].Inc()
	}
	if si.cfg.LogSink != nil {
		si.cfg.LogSink.Logf(si.site.Spec.Name, level.String(), "%s", msg)
	}
}

// beginSetup performs discovery and request formulation (Section 6.2.1),
// then enters the event-driven allocation loop. Transient back-end
// failures are retried with jittered exponential back-off under a
// per-phase deadline; exhausting either degrades the site to the
// listeners it already holds rather than aborting the experiment.
func (si *siteInstance) beginSetup() {
	want := si.cfg.InstancesWanted
	free := si.site.FreeDedicatedNICs()
	if free < want {
		want = free
	}
	si.bundle.InstancesRequested = si.cfg.InstancesWanted
	if want == 0 {
		si.bundle.Outcome = OutcomeFailed
		si.bundle.FailureReason = "no dedicated NICs available"
		si.logf(LevelError, "setup: site has no free dedicated NICs")
		si.endSetup(false)
		return
	}
	si.setupWant = want
	si.allocateListener(0, 0)
}

// allocateListener tries to allocate listener n (0-based); attempt
// counts prior tries for this same listener. Iterative back-off: each
// listener (VM + NIC) is a separate small slice — the testbed's
// allocator handles small slices better than large ones, and
// per-listener slivers let the nice-factor controller scale the
// footprint at runtime.
func (si *siteInstance) allocateListener(n, attempt int) {
	if n >= si.setupWant {
		si.settleSetup()
		return
	}
	now := si.kernel.Now()
	req := defaultRequest(fmt.Sprintf("patchwork-%s-%d", si.site.Spec.Name, n), 1)
	// Patchwork runs its own allocation simulation first so the
	// testbed's allocator is not burdened with doomed requests.
	err := si.site.CanAllocate(now, req)
	var sliver *testbed.Sliver
	if err == nil {
		sliver, err = si.site.Allocate(now, req)
	}
	switch {
	case err == nil:
		si.slivers = append(si.slivers, sliver)
		si.noteMutation("setup", fmt.Sprintf("listener=%d sliver=%d nics=%v", n, sliver.ID, sliver.NICs))
		si.allocateListener(n+1, 0)
	case testbed.IsResourceExhaustion(err):
		// A genuine shortage is not worth retrying: stop asking for more
		// listeners and run with what we hold.
		si.mBackoffs.Inc()
		si.logf(LevelWarn, "setup: backing off at %d instances: %v", n, err)
		si.settleSetup()
	default:
		si.retryOrDegrade(n, attempt, err)
	}
}

// retryOrDegrade handles a transient back-end failure for listener n.
// While the retry budget and the setup deadline allow, the request is
// rescheduled after a jittered back-off; otherwise the site degrades to
// the listeners already held, or fails when it holds none.
func (si *siteInstance) retryOrDegrade(n, attempt int, err error) {
	pol := si.cfg.Retry
	if !pol.Exhausted(attempt + 1) {
		delay := pol.Delay(attempt, si.retryR)
		// Both budgets must allow the retry: the phase deadline and the
		// policy's own elapsed-time budget (MaxElapsed), measured from
		// setup start.
		next := si.kernel.Now() + sim.Time(delay)
		if next <= si.setupDeadline && !pol.Expired(si.setupStart, next) {
			si.mRetries.Inc()
			si.logf(LevelWarn, "setup: transient failure for listener %d (attempt %d): %v; retrying in %v",
				n, attempt+1, err, delay)
			si.kernel.After(delay, func() { si.allocateListener(n, attempt+1) })
			return
		}
		si.mTimeouts.Inc()
		si.logf(LevelError, "setup: phase deadline reached after %d attempts for listener %d: %v",
			attempt+1, n, err)
	} else {
		si.logf(LevelError, "setup: retries exhausted for listener %d: %v", n, err)
	}
	if si.granted() > 0 {
		// Graceful degradation: a flaky back end costs listeners, not the
		// whole site run.
		si.mDowngrades.Inc()
		si.logf(LevelWarn, "setup: degrading to %d/%d listeners", si.granted(), si.cfg.InstancesWanted)
		si.settleSetup()
		return
	}
	si.bundle.Outcome = OutcomeFailed
	si.bundle.FailureReason = fmt.Sprintf("backend: %v", err)
	si.logf(LevelError, "setup: backend failure: %v", err)
	si.releaseAll()
	si.endSetup(false)
}

// settleSetup closes the allocation loop with whatever was granted.
func (si *siteInstance) settleSetup() {
	if si.granted() == 0 {
		si.bundle.Outcome = OutcomeFailed
		si.bundle.FailureReason = "resources exhausted after back-off"
		si.logf(LevelError, "setup: could not allocate even one instance")
		si.endSetup(false)
		return
	}
	si.bundle.InstancesGranted = si.granted()
	si.logf(LevelInfo, "setup: %d/%d instances allocated", si.granted(), si.cfg.InstancesWanted)
	si.reservePorts()
	si.endSetup(true)
}

// reservePorts picks the tail downlink ports as the listeners' NIC
// attachment points (mirror egresses); everything else is a candidate.
// The reservation covers the configured maximum so runtime scale-up has
// ports to grow into.
func (si *siteInstance) reservePorts() {
	egressCount := si.cfg.InstancesWanted * testbed.PortsPerNIC
	names := si.site.Switch.PortNames()
	var downlinks []string
	for _, n := range names {
		if p := si.site.Switch.Port(n); p != nil && p.Role == switchsim.RoleDownlink {
			downlinks = append(downlinks, n)
		}
	}
	if egressCount > len(downlinks) {
		egressCount = len(downlinks)
	}
	si.egress = downlinks[len(downlinks)-egressCount:]
	reserved := map[string]bool{}
	for _, e := range si.egress {
		reserved[e] = true
	}
	for _, n := range names {
		if !reserved[n] {
			si.candidates = append(si.candidates, n)
		}
	}
	si.history = make(map[string]int)
}

// endSetup closes the setup span and either finishes the failed run or
// moves into the sampling phase.
func (si *siteInstance) endSetup(ok bool) {
	si.setupSpan.Annotate("granted", fmt.Sprintf("%d", si.granted()))
	si.setupSpan.End()
	si.setupSpan = nil
	if !ok {
		si.finish()
		return
	}
	if si.r.Bool(si.cfg.CrashProbability) {
		// The injected "bug in Patchwork": pick a random point mid-run to
		// crash; the watchdog reports abnormal termination.
		si.crashed = true
	}
	si.cycle(0)
}

// run executes the sampling phase and schedules completion. done is
// invoked exactly once with the final bundle.
func (si *siteInstance) run(done func(Bundle)) {
	si.done = done
	si.instrument()
	si.retryR = si.r.Split()
	if si.cfg.Faults != nil {
		si.stallFn = si.cfg.Faults.CaptureStallFn(si.site.Spec.Name)
	}
	if si.cfg.Storage != nil {
		host, err := hostsim.New(*si.cfg.Storage)
		if err != nil {
			si.logf(LevelError, "setup: storage model: %v; continuing without one", err)
		} else {
			si.host = host
			if si.cfg.Obs != nil {
				host.Instrument(si.cfg.Obs, obs.L("site", si.site.Spec.Name))
			}
			if si.cfg.Faults != nil {
				if f := si.cfg.Faults.StorageFaultFn(si.site.Spec.Name); f != nil {
					host.SetWriteFault(f)
				}
			}
		}
	}
	si.siteSpan = si.parentSpan.Child("site", obs.L("site", si.site.Spec.Name))
	si.setupSpan = si.siteSpan.Child("setup")
	si.setupStart = si.kernel.Now()
	si.setupDeadline = si.setupStart + sim.Time(si.cfg.SetupTimeout)
	si.beginSetup()
}

// cycle starts run r: select ports, set up mirrors and engines, take
// samples, then advance to the next cycle.
func (si *siteInstance) cycle(runIdx int) {
	if runIdx >= si.cfg.Runs {
		si.finish()
		return
	}
	if si.crashed && runIdx >= si.cfg.Runs/2 {
		si.logf(LevelError, "watchdog: instance terminated abnormally (crash)")
		si.bundle.Outcome = OutcomeIncomplete
		if si.bundle.FailureReason == "" {
			si.bundle.FailureReason = "crashed mid-run"
		}
		si.finish()
		return
	}
	si.cycleSpan = si.siteSpan.Child("cycle", obs.L("run", fmt.Sprintf("%d", runIdx)))
	si.poller.PollNow()
	si.applyNicePolicy()
	egress := si.activeEgress()
	if len(egress) == 0 {
		si.logf(LevelWarn, "cycle %d: no listeners held, skipping", runIdx)
		si.cycleSpan.Annotate("skipped", "no-listeners")
		si.cycleSpan.End()
		si.kernel.After(si.cfg.SampleInterval, func() { si.cycle(runIdx + 1) })
		return
	}
	ctx := &SelectContext{
		Site: si.site, Store: si.store,
		Candidates: si.candidates, History: si.history,
		Cycle: runIdx, Want: len(egress),
		Rand: si.r, Window: 2 * si.cfg.SampleInterval,
	}
	ports := si.cfg.Selector.SelectPorts(ctx)
	if len(ports) == 0 {
		si.logf(LevelWarn, "cycle %d: selector returned no ports", runIdx)
		si.cycleSpan.Annotate("skipped", "no-ports")
		si.cycleSpan.End()
		si.kernel.After(si.cfg.SampleInterval, func() { si.cycle(runIdx + 1) })
		return
	}
	si.logf(LevelInfo, "cycle %d: mirroring %v", runIdx, ports)

	si.mirrors = nil
	si.engines = make(map[string]*capture.Engine)
	si.writers = make(map[string]*pcap.Writer)
	si.bufs = make(map[string]*chunkStream)
	for i, p := range ports {
		eg := egress[i%len(egress)]
		sess, err := si.site.Switch.StartMirror(p, switchsim.DirBoth, eg)
		if err != nil {
			si.logf(LevelWarn, "cycle %d: mirror %s->%s: %v", runIdx, p, eg, err)
			continue
		}
		si.history[p] = runIdx
		si.notePortSampled(p)
		si.mMirrored.Inc()

		buf := &chunkStream{free: si.chunks}
		w, err := pcap.NewWriter(buf, pcap.FileHeader{
			SnapLen: uint32(si.cfg.TruncateBytes), Nanosecond: true,
		})
		if err != nil {
			si.logf(LevelError, "cycle %d: pcap writer: %v", runIdx, err)
			si.site.Switch.StopMirror(p)
			continue
		}
		eng, err := si.buildEngine(w)
		if err != nil {
			si.logf(LevelError, "cycle %d: capture engine: %v", runIdx, err)
			si.site.Switch.StopMirror(p)
			continue
		}
		si.site.Switch.Port(eg).SetReceiver(eng)
		si.engines[eg] = eng
		si.writers[eg] = w
		si.bufs[eg] = buf
		si.mirrors = append(si.mirrors, mirrorPair{p, eg, sess})
	}

	// Take SamplesPerRun samples at SampleInterval spacing; each sample
	// lasts SampleDuration. Between samples the mirrors stay configured
	// but we snapshot stats per sample boundary.
	sampleIdx := 0
	var takeSample func()
	takeSample = func() {
		if sampleIdx >= si.cfg.SamplesPerRun {
			// End of run: tear down mirrors, bundle this cycle's pcaps.
			for _, mp := range si.mirrors {
				si.site.Switch.StopMirror(mp.mirrored)
				si.site.Switch.Port(mp.egress).SetReceiver(nil)
			}
			si.mirrors = nil
			harvestSpan := si.cycleSpan.Child("harvest")
			si.harvestCycle()
			harvestSpan.Annotate("pcaps", fmt.Sprintf("%d", len(si.harvested)))
			harvestSpan.End()
			si.cycleSpan.End()
			si.kernel.After(si.cfg.SampleInterval, func() { si.cycle(runIdx + 1) })
			return
		}
		start := si.kernel.Now()
		sampleSpan := si.cycleSpan.Child("sample", obs.L("sample", fmt.Sprintf("%d", sampleIdx)))
		si.kernel.After(si.cfg.SampleDuration, func() {
			// Sample ends: snapshot stats and check for switch congestion.
			si.poller.PollNow()
			for _, mp := range si.mirrors {
				eng := si.engines[mp.egress]
				if eng == nil {
					continue
				}
				rec := SampleRecord{
					Run: runIdx, Sample: sampleIdx,
					MirroredPort: mp.mirrored, EgressPort: mp.egress,
					Start:        start,
					Frames:       eng.Stats.Captured,
					StoredBytes:  eng.Stats.StoredBytes,
					DroppedAtNIC: eng.Stats.Dropped,
					CloneDrops:   mp.session.CloneDrops,
				}
				si.bundle.Samples = append(si.bundle.Samples, rec)
				si.checkCongestion(mp.mirrored, mp.egress)
			}
			si.checkStorage()
			sampleSpan.End()
			sampleIdx++
			gap := si.cfg.SampleInterval - si.cfg.SampleDuration
			if sampleIdx >= si.cfg.SamplesPerRun {
				takeSample()
			} else {
				si.kernel.After(gap, takeSample)
			}
		})
	}
	takeSample()
}

// checkCongestion implements the paper's incomplete-sample detection:
// query the switch (via telemetry) for the mirrored port's Tx and Rx
// rates and flag when their sum exceeds the egress channel's capacity.
func (si *siteInstance) checkCongestion(mirrored, egress string) {
	rate, ok := si.store.LatestRate(telemetry.PortKey{Switch: si.site.Spec.Name, Port: mirrored})
	if !ok {
		return
	}
	egPort := si.site.Switch.Port(egress)
	capacity := float64(egPort.LineRate.BytesPerSecond())
	offered := rate.TotalBps()
	if offered > capacity {
		ev := CongestionEvent{
			At: si.kernel.Now(), MirroredPort: mirrored, EgressPort: egress,
			OfferedBps: offered, CapacityBps: capacity,
		}
		si.bundle.Congestion = append(si.bundle.Congestion, ev)
		si.mCongested.Inc()
		si.logf(LevelWarn, "congestion: %s tx+rx %.0f B/s exceeds egress %s capacity %.0f B/s — sample likely incomplete",
			mirrored, offered, egress, capacity)
	}
}

// buildEngine constructs a capture engine over an existing pcap writer
// with the instance's standing configuration — used at cycle start and
// again when a remediation restarts a stalled listener in place.
func (si *siteInstance) buildEngine(w *pcap.Writer) (*capture.Engine, error) {
	return capture.NewEngine(si.site.Scheduler(), capture.Config{
		Method:    si.cfg.Method,
		SnapLen:   si.cfg.TruncateBytes,
		Cores:     si.cfg.CaptureCores,
		Host:      si.host,
		Writer:    w,
		Stall:     si.stallFn,
		Obs:       si.cfg.Obs,
		ObsLabels: []obs.Label{obs.L("site", si.site.Spec.Name)},
	})
}

// onDiskBytes is the watchdog's view of occupied VM storage: harvested
// bytes plus the live engines' stored bytes, minus what rotation has
// evicted.
func (si *siteInstance) onDiskBytes() int64 {
	var stored int64
	for _, eng := range si.engines {
		stored += eng.Stats.StoredBytes
	}
	return si.totalStored + stored - si.evictedBytes
}

// checkStorage is the watchdog's out-of-storage check: a VM that fills
// its allocation crashes the instance (the paper's example of abnormal
// termination).
func (si *siteInstance) checkStorage() {
	onDisk := si.onDiskBytes()
	free := si.cfg.StorageLimitBytes - onDisk
	if free < 0 {
		free = 0
	}
	si.mFreeBytes.Set(float64(free))
	if onDisk > si.cfg.StorageLimitBytes {
		si.logf(LevelError, "watchdog: VM storage exhausted (%d bytes captured)", onDisk)
		si.bundle.Outcome = OutcomeIncomplete
		si.bundle.FailureReason = "out of storage"
		si.crashed = true
	}
}

// remediateRestart tears down and rebuilds every live capture engine in
// place: stats-to-date are folded into the harvest accounting, a fresh
// engine takes over the same pcap stream, and the egress port's
// receiver is re-pointed. Egress ports are visited in sorted order so
// the action's effects are deterministic.
func (si *siteInstance) remediateRestart() (string, error) {
	if len(si.engines) == 0 {
		return "", fmt.Errorf("no live capture engines to restart")
	}
	egs := make([]string, 0, len(si.engines))
	for eg := range si.engines {
		egs = append(egs, eg)
	}
	sort.Strings(egs)
	for _, eg := range egs {
		old := si.engines[eg]
		old.Flush()
		si.totalStored += old.Stats.StoredBytes
		eng, err := si.buildEngine(si.writers[eg])
		if err != nil {
			return "", fmt.Errorf("rebuilding engine on %s: %w", eg, err)
		}
		si.site.Switch.Port(eg).SetReceiver(eng)
		si.engines[eg] = eng
	}
	note := fmt.Sprintf("restarted %d capture engines on %v", len(egs), egs)
	si.noteMutation("restart-listener", note)
	si.logf(LevelInfo, "remedy: %s", note)
	return note, nil
}

// remediateReallocate moves the newest listener to different hardware:
// release the sliver (already-gone counts as released — the testbed may
// have reaped it during the outage we are recovering from), then
// allocate a replacement excluding the NICs the failed sliver held. The
// half-finished state survives retries: a failed allocation leaves the
// release in place and the next attempt resumes at the allocate step.
func (si *siteInstance) remediateReallocate() (string, error) {
	now := si.kernel.Now()
	if !si.pendingRealloc {
		if len(si.slivers) == 0 {
			return "", fmt.Errorf("no slivers held")
		}
		last := si.slivers[len(si.slivers)-1]
		avoid := append([]int(nil), last.NICs...)
		err := si.site.Release(last)
		switch {
		case err == nil:
			si.noteMutation("release", fmt.Sprintf("sliver=%d reason=reallocate", last.ID))
		case testbed.IsGone(err):
			// Already reaped: exactly the outcome a release wants.
			si.logf(LevelInfo, "remedy: sliver %d already gone, proceeding to re-allocate", last.ID)
		default:
			return "", fmt.Errorf("releasing sliver %d: %w", last.ID, err)
		}
		si.slivers = si.slivers[:len(si.slivers)-1]
		si.pendingRealloc, si.pendingAvoid = true, avoid
	}
	req := defaultRequest(fmt.Sprintf("patchwork-%s-realloc", si.site.Spec.Name), 1)
	req.AvoidNICs = si.pendingAvoid
	sliver, err := si.site.Allocate(now, req)
	if err != nil {
		return "", err
	}
	si.slivers = append(si.slivers, sliver)
	note := fmt.Sprintf("sliver=%d nics=%v avoided=%v", sliver.ID, sliver.NICs, si.pendingAvoid)
	si.pendingRealloc, si.pendingAvoid = false, nil
	si.noteMutation("setup", "reallocated "+note)
	si.logf(LevelInfo, "remedy: reallocated %s", note)
	return "reallocated " + note, nil
}

// remediateRearmMirror stops and restarts every active mirror session,
// clearing a corrupted mirror-table entry; the fresh sessions replace
// the old in the cycle's sample accounting.
func (si *siteInstance) remediateRearmMirror() (string, error) {
	if len(si.mirrors) == 0 {
		return "", fmt.Errorf("no active mirror sessions")
	}
	for i := range si.mirrors {
		mp := &si.mirrors[i]
		si.site.Switch.StopMirror(mp.mirrored)
		sess, err := si.site.Switch.StartMirror(mp.mirrored, switchsim.DirBoth, mp.egress)
		if err != nil {
			return "", fmt.Errorf("re-arming mirror %s->%s: %w", mp.mirrored, mp.egress, err)
		}
		mp.session = sess
	}
	note := fmt.Sprintf("rearmed %d mirror sessions", len(si.mirrors))
	si.noteMutation("rearm-mirror", note)
	si.logf(LevelInfo, "remedy: %s", note)
	return note, nil
}

// remediateRotateStorage evicts harvested capture bytes from the VM's
// disk (the bundle keeps its compressed copies — rotation models
// shipping them off-VM), pulling the free-bytes gauge back up before
// the watchdog kills the run. Bytes still held by live engines cannot
// be rotated.
func (si *siteInstance) remediateRotateStorage() (string, error) {
	evict := si.totalStored - si.evictedBytes
	if evict <= 0 {
		return "", fmt.Errorf("nothing to rotate: no harvested bytes on disk")
	}
	si.evictedBytes += evict
	free := si.cfg.StorageLimitBytes - si.onDiskBytes()
	if free < 0 {
		free = 0
	}
	si.mFreeBytes.Set(float64(free))
	note := fmt.Sprintf("evicted %d harvested bytes, %d free", evict, free)
	si.noteMutation("rotate-storage", note)
	si.logf(LevelInfo, "remedy: %s", note)
	return note, nil
}

// pauseCapture pauses or resumes every engine on the site, returning
// how many engines changed state.
func (si *siteInstance) pauseCapture(p bool) int {
	n := 0
	for _, eng := range si.engines {
		if eng.Paused() != p {
			eng.SetPaused(p)
			n++
		}
	}
	return n
}

// remediateFreeSpace is the campaign-scoped ENOSPC recovery: evict
// every harvested byte still on the VM disk (like rotate-storage) and
// resume any engines the degradation path paused, so capture restarts
// once space is back.
func (si *siteInstance) remediateFreeSpace() (string, error) {
	evict := si.totalStored - si.evictedBytes
	if evict > 0 {
		si.evictedBytes += evict
	}
	resumed := si.pauseCapture(false)
	if evict <= 0 && resumed == 0 {
		return "", fmt.Errorf("nothing to free: no harvested bytes, no paused engines")
	}
	free := si.cfg.StorageLimitBytes - si.onDiskBytes()
	if free < 0 {
		free = 0
	}
	si.mFreeBytes.Set(float64(free))
	note := fmt.Sprintf("evicted %d bytes, resumed %d engines, %d free", evict, resumed, free)
	si.noteMutation("free-space", note)
	si.logf(LevelInfo, "remedy: %s", note)
	return note, nil
}

// harvestCycle hands each engine's pcap stream to the coordinator for
// compression, in egress-port order so the bundle layout is
// deterministic (map iteration order would shuffle pcaps between runs of
// the same seed). No simulated quantity reads the compressed bytes, so
// compression overlaps the simulation until finish joins it.
func (si *siteInstance) harvestCycle() {
	egs := make([]string, 0, len(si.engines))
	for eg := range si.engines {
		egs = append(egs, eg)
	}
	sort.Strings(egs)
	for _, eg := range egs {
		eng := si.engines[eg]
		eng.Flush()
		buf := si.bufs[eg]
		if buf == nil || len(buf.chunks) == 0 {
			continue
		}
		si.totalStored += eng.Stats.StoredBytes
		// Frames still queued on a capture core complete after harvest
		// and write on into this stream. Detaching the chunks sends those
		// late records to new chunks nobody reads or returns, so the
		// bundle holds exactly what was captured by now and the
		// compressing goroutine shares no memory with the writer.
		h := &harvestedPcap{raw: buf.detach()}
		si.harvested = append(si.harvested, h)
		si.compress(h, &si.pending)
	}
	si.engines, si.writers, si.bufs = nil, nil, nil
}

// gather waits for this site's compressed streams and moves them into
// the bundle in harvest order.
func (si *siteInstance) gather() {
	si.pending.Wait()
	for _, h := range si.harvested {
		if h.err != nil {
			si.logf(LevelError, "gather: %v", h.err)
			continue
		}
		si.bundle.CompressedPcaps = append(si.bundle.CompressedPcaps, h.z)
	}
	si.harvested = nil
}

func (si *siteInstance) notePortSampled(p string) {
	for _, seen := range si.bundle.PortsSampled {
		if seen == p {
			return
		}
	}
	si.bundle.PortsSampled = append(si.bundle.PortsSampled, p)
}

// finish yields resources back to the testbed and delivers the bundle.
func (si *siteInstance) finish() {
	si.finished = true
	si.gather()
	si.releaseAll()
	if si.bundle.Outcome == OutcomeSuccess && si.bundle.InstancesGranted < si.bundle.InstancesRequested &&
		si.bundle.InstancesGranted > 0 {
		si.bundle.Outcome = OutcomeDegraded
	}
	si.logf(LevelInfo, "run complete: outcome=%v", si.bundle.Outcome)
	if si.cfg.Obs != nil {
		si.cfg.Obs.Counter("patchwork_runs_total",
			obs.L("site", si.site.Spec.Name),
			obs.L("outcome", si.bundle.Outcome.String())).Inc()
	}
	si.siteSpan.Annotate("outcome", si.bundle.Outcome.String())
	si.siteSpan.End()
	done := si.done
	si.done = nil
	if done != nil {
		done(si.bundle)
	}
}
