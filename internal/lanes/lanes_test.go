package lanes

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/prof"
	"repro/internal/rng"
	"repro/internal/sim"
)

// The differential harness: a synthetic multi-node network runs once on
// the serial kernel and once per laned configuration, and every
// observable — per-node event digests, a cross-lane global observer
// digest, channel counters, the kernel checkpoint, and the queue/tick
// accounting — must match byte for byte at every worker count.

// netConfig sizes one synthetic network scenario.
type netConfig struct {
	nodes      int
	lanesN     int
	seed       uint64
	horizon    sim.Time
	stepPeriod sim.Duration
	// jitterMax bounds self-event jitter; set above the lookahead to
	// mix in-window local events with staged beyond-horizon ones.
	jitterMax sim.Duration
	lookahead sim.Duration
	maxWindow int
	// channel ring parameters
	chanLatency sim.Duration
	chanCap     int
	sendProb    float64
	// hostile extras
	decoyGlobals int // cancelled global events littering the heap
	// provenance/profiling extras (prov_test.go, profile_test.go)
	prov    func(sim.ProvRecord) // provenance hook to install on the kernel
	tagged  bool                 // wrap node schedulers with prof.TagScheduler
	profile bool                 // attach a wall-clock profiler to the World
}

// node is one synthetic dataplane endpoint. All its state is touched
// only by its own events (its lane), except the digest reads done by
// the global observer at quiescent points. Besides its jittered ticks,
// a node is a server whose completions go onto a sim.FIFO: on the
// serial kernel they wait in the stream, on a lane they are staged as
// plain events, and both must run identically.
type node struct {
	id    int
	sched sim.Scheduler
	r     *rng.Source
	cfg   *netConfig
	out   *Channel
	dig   uint64
	stop  bool
	srv   *sim.FIFO
	busy  sim.Time // when the server's last queued job completes
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

func fold(h uint64, vs ...uint64) uint64 {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * fnvPrime
			v >>= 8
		}
	}
	return h
}

func (n *node) fold(kind uint64, vs ...uint64) {
	n.dig = fold(fold(n.dig, kind), vs...)
}

// step is the node's main loop: schedule a burst of jittered ticks,
// then reschedule itself.
func (n *node) step() {
	now := n.sched.Now()
	if n.stop || now >= n.cfg.horizon {
		return
	}
	n.fold(1, uint64(now))
	burst := 1 + n.r.Intn(3)
	for i := 0; i < burst; i++ {
		d := sim.Duration(n.r.Int63n(int64(n.cfg.jitterMax))) + 1
		n.sched.After(d, n.tick)
	}
	n.sched.After(n.cfg.stepPeriod, n.step)
}

// tick records itself, sometimes pushes a message into the ring, and
// sometimes queues a job on the node's server.
func (n *node) tick() {
	now := n.sched.Now()
	n.fold(2, uint64(now))
	if n.out != nil && n.r.Bool(n.cfg.sendProb) {
		payload := n.r.Uint64()
		if n.out.Send(now, payload) {
			n.fold(3, payload)
		} else {
			n.fold(4, payload)
		}
	}
	if n.r.Bool(0.5) {
		// Service times up to the jitter bound mix completions that run
		// inside the window with ones staged past its horizon.
		n.busy = max(n.busy, now) + sim.Duration(n.r.Int63n(int64(n.cfg.jitterMax)))
		n.sched.FIFOAt(n.srv, n.busy, n)
	}
}

// served folds a completed job; the callback of every node's FIFO.
func served(a any) {
	n := a.(*node)
	n.fold(6, uint64(n.sched.Now()))
}

// recv folds an arriving ring message; runs on this node's lane.
func (n *node) recv(at sim.Time, msg any) {
	n.fold(5, uint64(at), msg.(uint64))
}

// netResult is everything the harness compares.
type netResult struct {
	nodeDigs  []uint64
	globalDig uint64
	sent      []int64
	dropped   []int64
	cp        sim.Checkpoint
	hw        int
	maxTick   uint64
	windows   uint64
	profr     *Profiler
}

// runNet executes one scenario. workers < 0 selects the serial kernel
// baseline (no World at all); workers >= 0 runs laned.
func runNet(t *testing.T, cfg netConfig, workers int) netResult {
	t.Helper()
	k := sim.NewKernel()
	var w *World
	if workers >= 0 {
		w = NewWorld(k, Config{
			Lanes: cfg.lanesN, Workers: workers,
			Lookahead: cfg.lookahead, MaxWindow: cfg.maxWindow,
		})
		defer w.Close()
		if cfg.profile {
			w.EnableProfiling(0)
		}
	}
	if cfg.prov != nil {
		k.SetProvenance(cfg.prov)
	}

	nodes := make([]*node, cfg.nodes)
	for i := range nodes {
		n := &node{id: i, r: rng.New(cfg.seed + uint64(i)*7919), cfg: &cfg, srv: sim.NewFIFO(served)}
		if w != nil {
			n.sched = w.Lane(i%cfg.lanesN + 1)
		} else {
			n.sched = k
		}
		nodes[i] = n
	}
	// Ring channels: node i sends to node (i+1)%N. The destination
	// binding decides where recv runs; the source binding decides whose
	// window stages the delivery.
	chans := make([]*Channel, cfg.nodes)
	for i, n := range nodes {
		dst := nodes[(i+1)%cfg.nodes]
		var c *Channel
		var err error
		if w != nil {
			c, err = w.NewChannel(n.sched.(*Lane), dst.sched.(*Lane), cfg.chanLatency, cfg.chanCap, dst.recv)
		} else {
			c, err = NewSerialChannel(k, cfg.chanLatency, cfg.chanCap, dst.recv)
		}
		if err != nil {
			t.Fatalf("channel %d: %v", i, err)
		}
		n.out = c
		chans[i] = c
	}

	// Tag wrapping happens after channel creation (which needs the raw
	// *Lane) and before the initial schedule, so every node-originated
	// event is attributed to its node in both modes.
	if cfg.tagged {
		for _, n := range nodes {
			n.sched = prof.TagScheduler(n.sched, int32(n.id+1))
		}
	}

	// Initial schedule, same call order in both modes so sequence
	// numbers line up.
	for i, n := range nodes {
		n.sched.At(sim.Time(i+1)*sim.Millisecond, n.step)
	}

	// Hostile decoys: global events scheduled across the run, half of
	// them cancelled up front so they sit in the heap as reap fodder.
	dr := rng.New(cfg.seed ^ 0xdecaf)
	for i := 0; i < cfg.decoyGlobals; i++ {
		at := sim.Time(dr.Int63n(int64(cfg.horizon))) + 1
		h := k.At(at, func() {})
		if i%2 == 0 {
			h.Cancel()
		}
	}

	// Global observer: a control-plane event that reads cross-lane
	// state. Lane windows never span a global event, so at each
	// observation every lane is quiescent and has executed exactly the
	// serial prefix.
	var globalDig uint64 = fnvOffset
	obsPeriod := cfg.horizon / 16
	if obsPeriod <= 0 {
		obsPeriod = sim.Millisecond
	}
	var observe func()
	observe = func() {
		globalDig = fold(globalDig, uint64(k.Now()))
		for _, n := range nodes {
			globalDig = fold(globalDig, n.dig)
		}
		for _, c := range chans {
			globalDig = fold(globalDig, uint64(c.Sent), uint64(c.Dropped))
		}
		if t := k.Now() + obsPeriod; t < cfg.horizon {
			k.At(t, observe)
		}
	}
	k.At(obsPeriod, observe)

	// Second observer: a kernel FIFO stream scheduled up front, half a
	// period out of phase, so windows form while the stream has events
	// waiting. Each of its events also schedules a plain global event,
	// whose parent in the provenance trace is the FIFO event.
	audit := sim.NewFIFO(func(any) {
		globalDig = fold(globalDig, 7, uint64(k.Now()))
		for _, n := range nodes {
			globalDig = fold(globalDig, n.dig)
		}
		k.After(obsPeriod/4, func() {
			globalDig = fold(globalDig, 8, uint64(k.Now()))
		})
	})
	for t := obsPeriod / 2; t < cfg.horizon; t += obsPeriod {
		k.FIFOAt(audit, t, nil)
	}

	if w != nil {
		w.Run()
	} else {
		k.Run()
	}

	res := netResult{
		globalDig: globalDig,
		cp:        k.Checkpoint(),
		hw:        k.QueueHighWatermark(),
		maxTick:   k.MaxEventsPerTick(),
	}
	if w != nil {
		res.windows = w.Windows()
		res.profr = w.Profiler()
	}
	for _, n := range nodes {
		res.nodeDigs = append(res.nodeDigs, n.dig)
	}
	for _, c := range chans {
		res.sent = append(res.sent, c.Sent)
		res.dropped = append(res.dropped, c.Dropped)
	}
	return res
}

func diffResults(t *testing.T, label string, want, got netResult) {
	t.Helper()
	for i := range want.nodeDigs {
		if want.nodeDigs[i] != got.nodeDigs[i] {
			t.Errorf("%s: node %d digest = %#x, serial %#x", label, i, got.nodeDigs[i], want.nodeDigs[i])
		}
	}
	if want.globalDig != got.globalDig {
		t.Errorf("%s: global digest = %#x, serial %#x", label, got.globalDig, want.globalDig)
	}
	for i := range want.sent {
		if want.sent[i] != got.sent[i] || want.dropped[i] != got.dropped[i] {
			t.Errorf("%s: channel %d sent/dropped = %d/%d, serial %d/%d",
				label, i, got.sent[i], got.dropped[i], want.sent[i], want.dropped[i])
		}
	}
	if want.cp != got.cp {
		t.Errorf("%s: checkpoint = %+v, serial %+v", label, got.cp, want.cp)
	}
	if want.hw != got.hw {
		t.Errorf("%s: queue high-watermark = %d, serial %d", label, got.hw, want.hw)
	}
	if want.maxTick != got.maxTick {
		t.Errorf("%s: max events/tick = %d, serial %d", label, got.maxTick, want.maxTick)
	}
}

func workerCounts() []int {
	counts := []int{1, 2, 4, 8}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 && n != 8 {
		counts = append(counts, n)
	}
	return counts
}

// TestLanedEquivalence is the determinism gate: every laned
// configuration must reproduce the serial kernel's observables exactly.
func TestLanedEquivalence(t *testing.T) {
	scenarios := []struct {
		name string
		cfg  netConfig
	}{
		{"baseline", netConfig{
			nodes: 12, lanesN: 4, seed: 42,
			horizon: 2 * sim.Second, stepPeriod: 20 * sim.Millisecond,
			jitterMax: 150 * sim.Millisecond, // ~3x lookahead: mixes local and staged
			lookahead: 50 * sim.Millisecond, maxWindow: 4096,
			chanLatency: 50 * sim.Millisecond, chanCap: 64, sendProb: 0.3,
		}},
		{"hostile", netConfig{
			// Tiny lookahead and window force many small windows; a
			// starved channel overflows constantly; cancelled global
			// decoys exercise reap accounting mid-window.
			nodes: 9, lanesN: 3, seed: 1337,
			horizon: 1 * sim.Second, stepPeriod: 5 * sim.Millisecond,
			jitterMax: 8 * sim.Millisecond,
			lookahead: 2 * sim.Millisecond, maxWindow: 16,
			chanLatency: 2 * sim.Millisecond, chanCap: 2, sendProb: 0.8,
			decoyGlobals: 64,
		}},
		{"one-lane", netConfig{
			// Degenerate sharding: everything on one lane must still
			// match the serial kernel exactly.
			nodes: 5, lanesN: 1, seed: 7,
			horizon: 1 * sim.Second, stepPeriod: 10 * sim.Millisecond,
			jitterMax: 120 * sim.Millisecond,
			lookahead: 40 * sim.Millisecond, maxWindow: 256,
			chanLatency: 40 * sim.Millisecond, chanCap: 8, sendProb: 0.5,
		}},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			serial := runNet(t, sc.cfg, -1)
			if serial.cp.Events == 0 {
				t.Fatal("serial baseline executed no events")
			}
			for _, workers := range workerCounts() {
				got := runNet(t, sc.cfg, workers)
				if got.windows == 0 {
					t.Errorf("workers=%d: no parallel windows executed", workers)
				}
				diffResults(t, fmt.Sprintf("workers=%d", workers), serial, got)
			}
		})
	}
}

// TestLanedRepeatable checks that two identical laned runs agree with
// each other (not just with serial) — the REPETITA bar applied to the
// parallel executor itself.
func TestLanedRepeatable(t *testing.T) {
	cfg := netConfig{
		nodes: 8, lanesN: 4, seed: 99,
		horizon: 1 * sim.Second, stepPeriod: 15 * sim.Millisecond,
		jitterMax: 100 * sim.Millisecond,
		lookahead: 25 * sim.Millisecond, maxWindow: 512,
		chanLatency: 25 * sim.Millisecond, chanCap: 16, sendProb: 0.4,
	}
	a := runNet(t, cfg, 4)
	b := runNet(t, cfg, 4)
	diffResults(t, "repeat", a, b)
}

// TestLaneHorizonOrdering checks the executor never runs an event out
// of timestamp order within a lane, including local in-window events.
func TestLaneHorizonOrdering(t *testing.T) {
	k := sim.NewKernel()
	w := NewWorld(k, Config{Lanes: 2, Workers: 1, Lookahead: 10 * sim.Millisecond})
	defer w.Close()
	l := w.Lane(1)
	var times []sim.Time
	var chain func()
	chain = func() {
		now := l.Now()
		times = append(times, now)
		if now < 100*sim.Millisecond {
			// One short hop (in-window local) and one long hop (staged).
			l.After(1*sim.Millisecond, func() { times = append(times, l.Now()) })
			l.After(15*sim.Millisecond, chain)
		}
	}
	l.At(sim.Millisecond, chain)
	w.Run()
	if len(times) < 10 {
		t.Fatalf("chain too short: %d events", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("time went backwards at %d: %v after %v", i, times[i], times[i-1])
		}
	}
}

// TestLaneHandleInert documents the cancellation contract: handles from
// in-window lane scheduling are inert.
func TestLaneHandleInert(t *testing.T) {
	k := sim.NewKernel()
	w := NewWorld(k, Config{Lanes: 1, Workers: 1})
	defer w.Close()
	l := w.Lane(1)
	ran := false
	l.At(sim.Millisecond, func() {
		h := l.After(sim.Millisecond, func() { ran = true })
		if h.Cancel() {
			t.Error("in-window lane handle should be inert")
		}
	})
	w.Run()
	if !ran {
		t.Error("staged lane event never ran despite inert Cancel")
	}
}

// TestWindowReapAccounting pins the two ways window formation can meet
// a cancelled global entry, each giving a queue high-watermark that
// matches the serial kernel only if the reap is accounted for: an entry
// right after a window cut short by MaxWindow must be recorded when
// reaped, and one lying beyond the lookahead horizon must stay queued,
// because events the window stages can run before it.
func TestWindowReapAccounting(t *testing.T) {
	cases := []struct {
		name      string
		maxWindow int
		decoyAt   sim.Time
		laneAt    []sim.Time // lane events besides the first one, at t=0
		selfAt    []sim.Time // lane events the first one schedules
	}{
		{"after-max-window", 1, 1, []sim.Time{5}, []sim.Time{3, 4}},
		{"beyond-horizon", 0, 15, nil, []sim.Time{12, 13, 14}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(laned bool) int {
				k := sim.NewKernel()
				var s sim.Scheduler = k
				var w *World
				if laned {
					w = NewWorld(k, Config{Lanes: 1, Workers: 1, Lookahead: 10, MaxWindow: tc.maxWindow})
					defer w.Close()
					s = w.Lane(1)
				}
				s.At(0, func() {
					for _, at := range tc.selfAt {
						s.At(at, func() {})
					}
				})
				for _, at := range tc.laneAt {
					s.At(at, func() {})
				}
				k.At(tc.decoyAt, func() {}).Cancel()
				k.At(30, func() {})
				if w != nil {
					w.Run()
				} else {
					k.Run()
				}
				return k.QueueHighWatermark()
			}
			if serial, laned := run(false), run(true); laned != serial {
				t.Errorf("laned queue high-watermark = %d, serial %d", laned, serial)
			}
		})
	}
}
