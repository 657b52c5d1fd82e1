package patchwork

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/switchsim"
	"repro/internal/testbed"
	"repro/internal/trafficgen"
	"repro/internal/units"
)

// refDriver is the straightforward driver the arena-backed TrafficDriver
// must reproduce: every window is a fresh gen.Sample (one heap copy per
// frame) and every frame its own closure.
type refDriver struct {
	k            *sim.Kernel
	site         *testbed.Site
	gen          *trafficgen.Generator
	ports        []string
	windowFrames int
	window       sim.Duration
	stopped      bool
}

func (d *refDriver) tick() {
	if d.stopped {
		return
	}
	base := d.k.Now()
	for pi, port := range d.ports {
		frames, err := d.gen.Sample(trafficgen.SampleConfig{
			Duration: d.window, MaxFrames: d.windowFrames, FlowCount: 2 + pi%5,
		})
		if err != nil {
			continue
		}
		port, peer := port, d.ports[(pi+1)%len(d.ports)]
		for _, tf := range frames {
			tf := tf
			d.k.At(base+tf.At, func() {
				f := switchsim.NewFrame(tf.Data)
				if tf.Dir == trafficgen.DirForward {
					_ = d.site.Switch.Transit(port, switchsim.DirRx, f)
					_ = d.site.Switch.Transit(peer, switchsim.DirTx, f)
				} else {
					_ = d.site.Switch.Transit(peer, switchsim.DirRx, f)
					_ = d.site.Switch.Transit(port, switchsim.DirTx, f)
				}
			})
		}
	}
	d.k.At(base+d.window, d.tick)
}

// driverSite is one site with eight downlinks: P1-P4 carry traffic and
// P5-P8 are free to serve as mirror egress ports.
func driverSite(t *testing.T) (*sim.Kernel, *testbed.Site, []string) {
	t.Helper()
	k := sim.NewKernel()
	fed, err := testbed.NewFederation(k, []testbed.SiteSpec{{
		Name: "DRV", Uplinks: 1, Downlinks: 8,
		DedicatedNICs: 1, Cores: 8, RAM: 64 * units.GB, Storage: units.TB,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return k, fed.Sites()[0], []string{"P1", "P2", "P3", "P4"}
}

// transit is one observed frame crossing: the mirrored port, the
// direction mirrored, when the clone left the egress queue, and its
// bytes: the clone's Data extended with zeros to its Size. The clone
// leaves at a fixed function of its transit time, so equal sequences
// mean equal transits.
type transit struct {
	port string
	dir  switchsim.Direction
	at   sim.Time
	data string
}

// observeTransits runs the driver start builds for n windows, with every
// active port mirrored in direction dir, and returns the transit
// sequence plus every port's counters.
func observeTransits(t *testing.T, dir switchsim.Direction, window sim.Duration, n int,
	start func(*sim.Kernel, *testbed.Site, []string) (stop func())) ([]transit, []switchsim.Counters) {
	t.Helper()
	k, site, active := driverSite(t)
	var seen []transit
	for i, p := range active {
		egress := fmt.Sprintf("P%d", i+5)
		if _, err := site.Switch.StartMirror(p, dir, egress); err != nil {
			t.Fatal(err)
		}
		p := p
		site.Switch.Port(egress).SetReceiver(switchsim.ReceiverFunc(func(at sim.Time, f switchsim.Frame) {
			if len(f.Data) > f.Size {
				t.Fatalf("%s: a frame of %d bytes carries %d bytes of Data", p, f.Size, len(f.Data))
			}
			whole := append(append([]byte(nil), f.Data...), make([]byte, f.Size-len(f.Data))...)
			seen = append(seen, transit{p, dir, at, string(whole)})
		}))
	}
	stop := start(k, site, active)
	k.RunUntil(sim.Time(n) * window)
	stop()
	k.Run()
	var counters []switchsim.Counters
	for _, p := range site.Switch.Ports() {
		counters = append(counters, p.Counters())
	}
	return seen, counters
}

// newCheckedDriver is NewTrafficDriver with every fire followed by a
// check that the frame's stored bytes are unchanged: the switch borrows
// them for the call, and a consumer that wrote into them would corrupt
// the frame. The driver's last build is joined when the test ends.
func newCheckedDriver(t *testing.T, k sim.Scheduler, s *testbed.Site, gen *trafficgen.Generator, ports []string) *TrafficDriver {
	t.Helper()
	d := NewTrafficDriver(k, s, gen, ports)
	var before []byte
	d.fireFn = func(a any) {
		r := a.(*driverFrame)
		before = append(before[:0], r.data...)
		d.fire(a)
		if string(r.data) != string(before) {
			t.Fatalf("a frame's %d stored bytes changed during its fire", len(before))
		}
	}
	t.Cleanup(d.Wait)
	return d
}

// forProcs runs f as one subtest per GOMAXPROCS setting: the traffic
// must not depend on when the build goroutines run.
func forProcs(t *testing.T, f func(t *testing.T)) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

// sameTransits fails t unless the driver's transits and port counters
// equal the reference's.
func sameTransits(t *testing.T, name string, got, want []transit, gotC, wantC []switchsim.Counters) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("%s: reference transited nothing", name)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d transits, reference %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: transit %d = {%s %v %v %d bytes}, reference {%s %v %v %d bytes} (bytes equal: %v)",
				name, i, got[i].port, got[i].dir, got[i].at, len(got[i].data),
				want[i].port, want[i].dir, want[i].at, len(want[i].data), got[i].data == want[i].data)
		}
	}
	for i := range wantC {
		if gotC[i] != wantC[i] {
			t.Errorf("%s: port %d counters %+v, reference %+v", name, i, gotC[i], wantC[i])
		}
	}
}

// TestDriverMatchesReference checks that the prefetching, arena-backed
// driver crosses the switch with exactly the (port, direction, time,
// bytes) sequence of the per-frame-closure reference, including at a
// 5 ms window where many frames (late ACKs, SYN-ACKs, responses) are due
// after the arena has been recycled.
func TestDriverMatchesReference(t *testing.T) {
	profile := trafficgen.MakeSiteProfiles(3, 4)[1]
	forProcs(t, func(t *testing.T) {
		for _, tc := range []struct {
			window sim.Duration
			frames int
			n      int
		}{
			{sim.Second, 150, 4},
			{50 * sim.Millisecond, 80, 12},
			{5 * sim.Millisecond, 40, 40},
		} {
			for _, dir := range []switchsim.Direction{switchsim.DirRx, switchsim.DirTx} {
				want, wantC := observeTransits(t, dir, tc.window, tc.n, func(k *sim.Kernel, s *testbed.Site, ports []string) func() {
					d := &refDriver{k: k, site: s, gen: trafficgen.NewGenerator(profile, 17),
						ports: ports, windowFrames: tc.frames, window: tc.window}
					d.tick()
					return func() { d.stopped = true }
				})
				got, gotC := observeTransits(t, dir, tc.window, tc.n, func(k *sim.Kernel, s *testbed.Site, ports []string) func() {
					d := newCheckedDriver(t, k, s, trafficgen.NewGenerator(profile, 17), ports)
					d.WindowFrames, d.Window = tc.frames, tc.window
					d.Start()
					return d.Stop
				})
				sameTransits(t, fmt.Sprintf("window=%v/%v", tc.window, dir), got, want, gotC, wantC)
			}
		}
	})
}

// TestDriverRestartMatchesReference stops a driver and restarts it after
// its window chain has ended, while the window built ahead before the
// stop may still be in flight. The restart must resume the reference's
// traffic exactly: nothing the build drew from the generator is lost.
func TestDriverRestartMatchesReference(t *testing.T) {
	profile := trafficgen.MakeSiteProfiles(3, 4)[1]
	forProcs(t, func(t *testing.T) {
		for _, tc := range []struct {
			window sim.Duration
			frames int
			n      int
		}{
			{sim.Second, 150, 6},
			{5 * sim.Millisecond, 40, 12},
		} {
			for _, wait := range []bool{false, true} {
				stopAt, restartAt := tc.window*5/2, tc.window*13/4
				want, wantC := observeTransits(t, switchsim.DirRx, tc.window, tc.n, func(k *sim.Kernel, s *testbed.Site, ports []string) func() {
					d := &refDriver{k: k, site: s, gen: trafficgen.NewGenerator(profile, 17),
						ports: ports, windowFrames: tc.frames, window: tc.window}
					d.tick()
					k.At(stopAt, func() { d.stopped = true })
					k.At(restartAt, func() { d.stopped = false; d.tick() })
					return func() { d.stopped = true }
				})
				got, gotC := observeTransits(t, switchsim.DirRx, tc.window, tc.n, func(k *sim.Kernel, s *testbed.Site, ports []string) func() {
					d := newCheckedDriver(t, k, s, trafficgen.NewGenerator(profile, 17), ports)
					d.WindowFrames, d.Window = tc.frames, tc.window
					d.Start()
					k.At(stopAt, d.Stop)
					k.At(restartAt, func() {
						if !d.building {
							t.Errorf("window=%v: no build pending at the restart", tc.window)
						}
						if wait {
							d.Wait()
						}
						d.Start()
					})
					return d.Stop
				})
				sameTransits(t, fmt.Sprintf("window=%v/wait=%v", tc.window, wait), got, want, gotC, wantC)
			}
		}
	})
}

// stragglers counts, per window, the frames d schedules past the
// window's end, by replaying d's sampling on a twin generator.
func stragglers(profile trafficgen.Profile, seed uint64, d *TrafficDriver, windows int) []int {
	gen := trafficgen.NewGenerator(profile, seed)
	out := make([]int, windows)
	for w := range out {
		for pi := range d.ActivePorts {
			frames, _ := gen.Sample(trafficgen.SampleConfig{Duration: d.Window, MaxFrames: d.WindowFrames, FlowCount: 2 + pi%5})
			for _, f := range frames {
				if f.At > d.Window {
					out[w]++
				}
			}
		}
	}
	return out
}

// TestDriverSteadyStateAllocs: after warm-up, a window allocates no more
// objects than it has straggler frames. Frame bytes, records and
// scheduling all run on recycled memory.
func TestDriverSteadyStateAllocs(t *testing.T) {
	const warm, measured = 20, 10
	profile := trafficgen.MakeSiteProfiles(3, 4)[1]
	for _, window := range []sim.Duration{sim.Second, 5 * sim.Millisecond} {
		k, site, active := driverSite(t)
		d := NewTrafficDriver(k, site, trafficgen.NewGenerator(profile, 17), active)
		d.WindowFrames, d.Window = 150, window
		late := stragglers(profile, 17, d, warm+measured+1)
		d.Start()
		k.RunUntil(sim.Time(warm) * window)
		// AllocsPerRun runs one extra window first and averages the rest.
		total := 0
		for _, n := range late[warm+1:] {
			total += n
		}
		allocs := testing.AllocsPerRun(measured, func() {
			k.RunUntil(k.Now() + window)
		})
		if mean := float64(total) / measured; allocs > mean {
			t.Errorf("window %v: %.0f allocs per window, want <= %.1f (stragglers per window)", window, allocs, mean)
		}
		d.Stop()
		k.Run()
	}
}

// TestDriverStartStopStart: restarting a stopped driver before its next
// window fires must not start a second window chain (which would also
// recycle the arena under frames still in flight).
func TestDriverStartStopStart(t *testing.T) {
	profile := trafficgen.MakeSiteProfiles(3, 4)[1]
	run := func(restart bool) switchsim.Counters {
		k, site, active := driverSite(t)
		d := NewTrafficDriver(k, site, trafficgen.NewGenerator(profile, 17), active)
		d.WindowFrames = 50
		d.Start()
		k.RunUntil(sim.Second / 2)
		if restart {
			d.Stop()
			d.Start()
		}
		k.RunUntil(3 * sim.Second)
		d.Stop()
		k.Run()
		return site.Switch.Port("P1").Counters()
	}
	if a, b := run(false), run(true); a != b {
		t.Errorf("stop+start mid-window changed traffic: %+v vs %+v", b, a)
	}
}
