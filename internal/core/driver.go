package patchwork

import (
	"repro/internal/sim"
	"repro/internal/switchsim"
	"repro/internal/testbed"
	"repro/internal/trafficgen"
)

// TrafficDriver injects synthesized workload traffic onto a site's
// switch ports, so that mirrored ports have something to capture. It
// stands in for the other researchers' experiments running on the
// testbed: Patchwork itself never generates the traffic it profiles.
//
// Each window is generated one window ahead, on a goroutine beside the
// simulation: while window k's frames fire, window k+1 is built into the
// other of two window buffers. The window event takes the built buffer,
// waiting only if the build has not finished, schedules its frames and
// starts the next build. Only a build draws from the generator and
// builds run one at a time in window order, so the traffic does not
// depend on goroutine timing. The first window after Start is built
// inline. A build reads ActivePorts, WindowFrames and Window when it
// starts, one window ahead, so set them before Start.
//
// A buffer's arena stores each frame without its all-zero tail (zero
// payload and padding, most of a data frame's bytes), and fire hands the
// switch those bytes as they are: a switchsim.Frame's bytes past
// len(Data) are zero by definition. Transit only borrows them for the
// call, so a frame that no mirror clones is never read.
//
// The steady-state path allocates nothing per frame. Frames are described
// by records in one reused slice, recycled at the next window event
// together with the buffer the build then refills. That is safe because
// every frame due at or before the window's end was scheduled before the
// next window event, so it fires first even at an equal timestamp. The
// few frames due after the window's end (a late ACK, SYN-ACK or
// response) get a pooled record owning a copy of their bytes instead.
//
// Each active port's in-window frames go onto that port's FIFO stream:
// a sample is sorted by time and every frame of a window is due by the
// next window's start, so a port's frames are scheduled in time order
// across windows too. Stragglers can fall after the next window's first
// frames, so they are scheduled as plain events.
type TrafficDriver struct {
	sched sim.Scheduler
	site  *testbed.Site
	gen   *trafficgen.Generator

	// ActivePorts are the downlink ports carrying traffic. Ports not
	// listed stay idle (FABRIC utilization is often low).
	ActivePorts []string
	// WindowFrames bounds frames generated per port per window.
	WindowFrames int
	// Window is the generation granularity (default 1 s).
	Window sim.Duration

	stopped bool
	armed   bool // a window event is pending

	bufs     [2]windowBuf
	next     *windowBuf    // the next window, built or being built; nil before the first
	building bool          // a goroutine is building next
	built    chan struct{} // a build goroutine's completion (one slot)
	buildFn  func()

	recs     []driverFrame // the current window's frames
	spare    *driverFrame  // free list of straggler records
	streams  []*sim.FIFO   // in-window frames, one stream per ActivePorts index
	fireFn   func(any)
	windowFn func()
}

// windowBuf is one window's traffic: the configuration it was built
// with, one sample per port and the arena holding the frames' prefixes.
type windowBuf struct {
	ports     []string
	window    sim.Duration
	maxFrames int
	arena     trafficgen.FrameArena
	samples   [][]trafficgen.TimedFrame // by ports index; empty if sampling failed
}

// driverFrame is one scheduled frame: the event argument of
// TrafficDriver.fire. data is the frame up to its all-zero tail and size
// its wire length. Records of in-window frames live in
// TrafficDriver.recs and borrow arena bytes; straggler records own a
// copy and recycle through TrafficDriver.spare.
type driverFrame struct {
	data       []byte
	size       int
	port, peer string
	dir        trafficgen.Dir
	straggler  bool
	next       *driverFrame
}

// NewTrafficDriver builds a driver for one site, scheduling on k — the
// shared kernel in serial runs, the site's lane in sharded ones.
// activePorts defaults to the first half of the site's downlinks when
// nil.
func NewTrafficDriver(k sim.Scheduler, site *testbed.Site, gen *trafficgen.Generator, activePorts []string) *TrafficDriver {
	if activePorts == nil {
		for _, n := range site.Switch.PortNames() {
			if p := site.Switch.Port(n); p != nil && p.Role == switchsim.RoleDownlink {
				activePorts = append(activePorts, n)
			}
		}
		activePorts = activePorts[:(len(activePorts)+1)/2]
	}
	d := &TrafficDriver{
		sched: k, site: site, gen: gen,
		ActivePorts:  activePorts,
		WindowFrames: 400,
		Window:       sim.Second,
		built:        make(chan struct{}, 1),
	}
	d.fireFn = d.fire
	d.windowFn = d.window
	d.buildFn = d.buildNext
	return d
}

// Start begins injecting traffic until Stop is called. Each window, every
// active port receives an independent flow sample; a frame's forward
// direction counts as Rx on the source port and Tx on a peer port,
// matching how a frame between two VMs crosses the switch. Starting a
// driver whose next window is still pending only cancels a prior Stop;
// restarting one whose windows ended resumes with the window built
// before they did.
func (d *TrafficDriver) Start() {
	d.stopped = false
	if !d.armed {
		d.window()
	}
}

// Stop halts traffic generation after the current window.
func (d *TrafficDriver) Stop() { d.stopped = true }

// Wait blocks until no window build is in flight. Call it before
// abandoning the driver, so that no build outlives the run.
func (d *TrafficDriver) Wait() {
	if d.building {
		<-d.built
		d.building = false
	}
}

func (d *TrafficDriver) window() {
	d.armed = false
	if d.stopped || len(d.ActivePorts) == 0 {
		return
	}
	d.Wait()
	b := d.next
	if b == nil {
		b = d.configure(&d.bufs[0])
		d.build(b)
	}
	base := d.sched.Now()
	d.recs = d.recs[:0]
	for pi, port := range b.ports {
		peer := b.ports[(pi+1)%len(b.ports)]
		for len(d.streams) <= pi {
			d.streams = append(d.streams, sim.NewFIFO(d.fireFn))
		}
		sample := b.samples[pi]
		for i := range sample {
			tf := &sample[i]
			if tf.At > b.window {
				r := d.straggler(tf)
				r.port, r.peer, r.dir = port, peer, tf.Dir
				d.sched.AtArg(base+tf.At, d.fireFn, r)
				continue
			}
			d.recs = append(d.recs, driverFrame{data: tf.Data, size: int(tf.Size), port: port, peer: peer, dir: tf.Dir})
			d.sched.FIFOAt(d.streams[pi], base+tf.At, &d.recs[len(d.recs)-1])
		}
	}
	// The other buffer's window is over: its in-window frames all fired
	// before this event. Refill it with the next window meanwhile.
	next := &d.bufs[0]
	if b == next {
		next = &d.bufs[1]
	}
	d.next = d.configure(next)
	d.building = true
	go d.buildFn()
	d.sched.At(base+b.window, d.windowFn)
	d.armed = true
}

// configure fixes the window b will hold to the driver's current
// settings and returns b.
func (d *TrafficDriver) configure(b *windowBuf) *windowBuf {
	b.ports, b.window, b.maxFrames = d.ActivePorts, d.Window, d.WindowFrames
	return b
}

// build generates b's window: one sample per port, each frame stored
// without its all-zero tail.
func (d *TrafficDriver) build(b *windowBuf) {
	b.arena.Reset()
	for len(b.samples) < len(b.ports) {
		b.samples = append(b.samples, nil)
	}
	for pi := range b.ports {
		frames, err := d.gen.SamplePrefixesInto(trafficgen.SampleConfig{
			Duration:  b.window,
			MaxFrames: b.maxFrames,
			FlowCount: 2 + pi%5,
		}, b.samples[pi][:0], b.arena.Alloc)
		if err != nil {
			frames = b.samples[pi][:0]
		}
		b.samples[pi] = frames
	}
}

// buildNext is the build goroutine: it builds d.next and signals.
func (d *TrafficDriver) buildNext() {
	d.build(d.next)
	d.built <- struct{}{}
}

// straggler returns a pooled record holding its own copy of tf's bytes,
// for a frame that fires after the next window event has recycled the
// arena.
func (d *TrafficDriver) straggler(tf *trafficgen.TimedFrame) *driverFrame {
	r := d.spare
	if r == nil {
		r = &driverFrame{straggler: true}
	} else {
		d.spare = r.next
	}
	r.data = append(r.data[:0], tf.Data...)
	r.size = int(tf.Size)
	return r
}

// fire crosses one frame over the switch (the event callback), its
// stored prefix as the frame's Data. Transit borrows the bytes only for
// the call, so a straggler record is free for reuse as soon as it
// returns.
func (d *TrafficDriver) fire(a any) {
	r := a.(*driverFrame)
	f := switchsim.Frame{Data: r.data, Size: r.size}
	if r.dir == trafficgen.DirForward {
		_ = d.site.Switch.Transit(r.port, switchsim.DirRx, f)
		_ = d.site.Switch.Transit(r.peer, switchsim.DirTx, f)
	} else {
		_ = d.site.Switch.Transit(r.peer, switchsim.DirRx, f)
		_ = d.site.Switch.Transit(r.port, switchsim.DirTx, f)
	}
	if r.straggler {
		r.next = d.spare
		d.spare = r
	}
}
