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
// The steady-state path allocates nothing per frame. Each window's
// frames are generated into one FrameArena and described by records in
// one reused slice; both are recycled at the next window event. That is
// safe because every frame due at or before the window's end was
// scheduled before the next window event, so it fires first even at an
// equal timestamp. The few frames due after the window's end (a late
// ACK, SYN-ACK or response) get a pooled record owning a copy of their
// bytes instead.
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

	arena    *trafficgen.FrameArena
	sample   []trafficgen.TimedFrame // SampleInto scratch
	recs     []driverFrame           // the current window's frames
	spare    *driverFrame            // free list of straggler records
	streams  []*sim.FIFO             // in-window frames, one stream per ActivePorts index
	fireFn   func(any)
	windowFn func()
}

// driverFrame is one scheduled frame: the event argument of
// TrafficDriver.fire. Records of in-window frames live in
// TrafficDriver.recs and borrow arena bytes; straggler records own a
// copy and recycle through TrafficDriver.spare.
type driverFrame struct {
	data       []byte
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
		arena:        trafficgen.NewFrameArena(),
	}
	d.fireFn = d.fire
	d.windowFn = d.window
	return d
}

// Start begins injecting traffic until Stop is called. Each window, every
// active port receives an independent flow sample; a frame's forward
// direction counts as Rx on the source port and Tx on a peer port,
// matching how a frame between two VMs crosses the switch. Starting a
// driver whose next window is still pending only cancels a prior Stop.
func (d *TrafficDriver) Start() {
	d.stopped = false
	if !d.armed {
		d.window()
	}
}

// Stop halts traffic generation after the current window.
func (d *TrafficDriver) Stop() { d.stopped = true }

func (d *TrafficDriver) window() {
	d.armed = false
	if d.stopped || len(d.ActivePorts) == 0 {
		return
	}
	base := d.sched.Now()
	d.arena.Reset()
	d.recs = d.recs[:0]
	for pi, port := range d.ActivePorts {
		frames, err := d.gen.SampleInto(trafficgen.SampleConfig{
			Duration:  d.Window,
			MaxFrames: d.WindowFrames,
			FlowCount: 2 + pi%5,
		}, d.sample[:0], d.arena.Alloc)
		if err != nil {
			continue
		}
		d.sample = frames
		peer := d.ActivePorts[(pi+1)%len(d.ActivePorts)]
		for len(d.streams) <= pi {
			d.streams = append(d.streams, sim.NewFIFO(d.fireFn))
		}
		for _, tf := range frames {
			if tf.At > d.Window {
				r := d.straggler(tf.Data)
				r.port, r.peer, r.dir = port, peer, tf.Dir
				d.sched.AtArg(base+tf.At, d.fireFn, r)
				continue
			}
			d.recs = append(d.recs, driverFrame{data: tf.Data, port: port, peer: peer, dir: tf.Dir})
			d.sched.FIFOAt(d.streams[pi], base+tf.At, &d.recs[len(d.recs)-1])
		}
	}
	d.sched.At(base+d.Window, d.windowFn)
	d.armed = true
}

// straggler returns a pooled record holding its own copy of data, for a
// frame that fires after the next window event has recycled the arena.
func (d *TrafficDriver) straggler(data []byte) *driverFrame {
	r := d.spare
	if r == nil {
		r = &driverFrame{straggler: true}
	} else {
		d.spare = r.next
	}
	r.data = append(r.data[:0], data...)
	return r
}

// fire crosses one frame over the switch (the event callback). Transit
// borrows the bytes only for the call, so a straggler record is free
// for reuse as soon as it returns.
func (d *TrafficDriver) fire(a any) {
	r := a.(*driverFrame)
	f := switchsim.NewFrame(r.data)
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
