package sim

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
)

// The FIFO contract: a stream of non-decreasing times scheduled through
// FIFOAt runs exactly as the same calls made through AtArg would. The
// differential harness below runs one random schedule twice — monotone
// streams on FIFOs, then the same calls on AtArg — steps both kernels in
// lockstep, and compares everything observable after every step.

// fifoRun is one side of the differential harness. Its callbacks draw
// from r, so two sides seeded alike draw the same numbers as long as
// they execute the same events in the same order.
type fifoRun struct {
	k       *Kernel
	useFIFO bool
	r       *rand.Rand

	streams []*FIFO
	last    []Time // each stream's latest scheduled time
	plain   []Handle
	nextID  int
	log     strings.Builder
	prov    []ProvRecord

	plainFn, streamFn func(any)
}

// fifoEv is an event's argument: its id and, for stream events, the
// stream it belongs to (-1 for plain events).
type fifoEv struct {
	id, stream int
}

func newFIFORun(seed uint64, streams int, useFIFO bool) *fifoRun {
	h := &fifoRun{
		k:       NewKernel(),
		useFIFO: useFIFO,
		r:       rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		last:    make([]Time, streams),
	}
	h.plainFn, h.streamFn = h.onPlain, h.onStream
	for i := 0; i < streams; i++ {
		h.streams = append(h.streams, NewFIFO(h.streamFn))
	}
	h.k.SetProvenance(func(r ProvRecord) { h.prov = append(h.prov, r) })
	return h
}

func (h *fifoRun) newEv(stream int) *fifoEv {
	h.nextID++
	return &fifoEv{id: h.nextID, stream: stream}
}

// schedPlain schedules a cancellable plain event up to 3 ns from now,
// so timestamps collide often.
func (h *fifoRun) schedPlain() {
	t := h.k.Now() + Time(h.r.IntN(4))
	h.plain = append(h.plain, h.k.AtArg(t, h.plainFn, h.newEv(-1)))
}

// schedStream appends an event to stream s, at or after its latest one.
func (h *fifoRun) schedStream(s int) {
	t := max(h.last[s], h.k.Now()) + Time(h.r.IntN(3))
	h.last[s] = t
	ev := h.newEv(s)
	if h.useFIFO {
		h.k.FIFOAt(h.streams[s], t, ev)
	} else {
		h.k.AtArg(t, h.streams[s].Func(), ev)
	}
}

// cancelOne cancels a random plain event (it may already have run).
func (h *fifoRun) cancelOne() {
	if len(h.plain) == 0 {
		return
	}
	i := h.r.IntN(len(h.plain))
	fmt.Fprintf(&h.log, "cancel %d:%v ", i, h.plain[i].Cancel())
}

// act is what every callback does: draw a few follow-up actions. The
// budget keeps the schedule finite.
func (h *fifoRun) act(ev *fifoEv) {
	if h.nextID > 600 {
		return
	}
	for n := 1 + h.r.IntN(3); n > 0; n-- {
		switch h.r.IntN(6) {
		case 0, 1:
			h.schedPlain()
		case 2:
			h.cancelOne()
		case 3:
			if ev.stream >= 0 {
				h.schedStream(ev.stream) // push onto its own stream
			} else {
				h.schedStream(h.r.IntN(len(h.streams)))
			}
		case 4:
			h.schedStream(h.r.IntN(len(h.streams)))
		case 5:
			h.k.SetProvTag(int32(h.r.IntN(3)))
		}
	}
}

func (h *fifoRun) onPlain(a any) {
	ev := a.(*fifoEv)
	fmt.Fprintf(&h.log, "%d:p%d ", h.k.Now(), ev.id)
	h.act(ev)
}

func (h *fifoRun) onStream(a any) {
	ev := a.(*fifoEv)
	fmt.Fprintf(&h.log, "%d:s%d/%d ", h.k.Now(), ev.stream, ev.id)
	h.act(ev)
}

// state is everything the two sides must agree on after each step.
func (h *fifoRun) state() string {
	k := h.k
	return fmt.Sprintf("now=%d seq=%d events=%d pending=%d hw=%d maxTick=%d prov=%d",
		k.Now(), k.Seq(), k.EventsProcessed(), k.Pending(),
		k.QueueHighWatermark(), k.MaxEventsPerTick(), len(h.prov))
}

// runFIFODifferential runs one seeded schedule on both sides and reports
// the first divergence.
func runFIFODifferential(t *testing.T, seed uint64, streams int) {
	t.Helper()
	if streams < 1 {
		streams = 1
	}
	a := newFIFORun(seed, streams, true)
	b := newFIFORun(seed, streams, false)
	setup := func(h *fifoRun) {
		for i := 0; i < 8; i++ {
			h.schedPlain()
			h.schedStream(i % streams)
		}
		h.cancelOne()
	}
	setup(a)
	setup(b)
	// The driver mixes single steps with RunUntil deadlines that can
	// fall between a stream's events. It draws from its own generator,
	// so both sides get the same driver decisions.
	drv := rand.New(rand.NewPCG(seed, 1))
	for step := 0; ; step++ {
		var okA, okB bool
		if drv.IntN(4) == 0 {
			d := a.k.Now() + Time(drv.IntN(5))
			a.k.RunUntil(d)
			b.k.RunUntil(d)
			okA, okB = a.k.Pending() > 0, b.k.Pending() > 0
		} else {
			okA, okB = a.k.Step(), b.k.Step()
		}
		if sa, sb := a.state(), b.state(); sa != sb || okA != okB {
			t.Fatalf("seed %d streams %d: step %d diverged\nFIFO:  %s (more=%v)\nAtArg: %s (more=%v)\nFIFO log:  %s\nAtArg log: %s",
				seed, streams, step, sa, okA, sb, okB, a.log.String(), b.log.String())
		}
		if !okA {
			break
		}
	}
	if la, lb := a.log.String(), b.log.String(); la != lb {
		t.Fatalf("seed %d streams %d: execution order differs\nFIFO:  %s\nAtArg: %s", seed, streams, la, lb)
	}
	if len(a.prov) != len(b.prov) {
		t.Fatalf("seed %d: %d provenance records with FIFOs, %d with AtArg", seed, len(a.prov), len(b.prov))
	}
	for i := range a.prov {
		if a.prov[i] != b.prov[i] {
			t.Fatalf("seed %d: provenance record %d = %+v with FIFOs, %+v with AtArg", seed, i, a.prov[i], b.prov[i])
		}
	}
	if free, size := a.k.arenaFree(), a.k.arenaSize(); free != size {
		t.Errorf("seed %d: arena leak with FIFOs: %d free of %d slots", seed, free, size)
	}
	if a.k.Pending() != 0 {
		t.Errorf("seed %d: %d events pending after the drain", seed, a.k.Pending())
	}
}

// TestFIFOMatchesAtArg runs the differential harness over many seeds
// and stream counts.
func TestFIFOMatchesAtArg(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		runFIFODifferential(t, seed, 1+int(seed%5))
	}
}

// FuzzFIFOMatchesAtArg wraps the same harness for the fuzzer.
func FuzzFIFOMatchesAtArg(f *testing.F) {
	f.Add(uint64(1), uint8(1))
	f.Add(uint64(7), uint8(3))
	f.Add(uint64(0xfeed), uint8(8))
	f.Fuzz(func(t *testing.T, seed uint64, streams uint8) {
		runFIFODifferential(t, seed, 1+int(streams%16))
	})
}

// TestFIFOBeforeLastPanics: a stream's times must not decrease, even
// when the earlier time is still in the future.
func TestFIFOBeforeLastPanics(t *testing.T) {
	k := NewKernel()
	f := NewFIFO(func(any) {})
	k.FIFOAt(f, 10, nil)
	defer func() {
		if recover() == nil {
			t.Error("FIFOAt before the stream's last event should panic")
		}
	}()
	k.FIFOAt(f, 9, nil)
}

// TestFIFOPastPanics: like At, a FIFO event cannot be scheduled before
// now, also on a stream whose earlier events have all run.
func TestFIFOPastPanics(t *testing.T) {
	k := NewKernel()
	f := NewFIFO(func(any) {})
	k.At(20, func() {})
	k.FIFOAt(f, 5, nil)
	k.Run()
	defer func() {
		if recover() == nil {
			t.Error("FIFOAt before now should panic")
		}
	}()
	k.FIFOAt(f, 19, nil)
}

// TestFIFOHeapEntryPerStream checks the point of the exercise: however
// deep a stream is, it holds one heap entry, while Pending counts every
// event.
func TestFIFOHeapEntryPerStream(t *testing.T) {
	k := NewKernel()
	var ran []int
	fn := func(a any) { ran = append(ran, a.(int)) }
	s1, s2 := NewFIFO(fn), NewFIFO(fn)
	for i := 0; i < 100; i++ {
		k.FIFOAt(s1, Time(2*i), i)
		k.FIFOAt(s2, Time(2*i+1), 1000+i)
	}
	if len(k.heap) != 2 || k.Pending() != 200 || s1.n != 100 {
		t.Fatalf("heap %d, pending %d, stream len %d; want 2, 200, 100", len(k.heap), k.Pending(), s1.n)
	}
	k.Run()
	for i := range ran {
		want := i / 2
		if i%2 == 1 {
			want += 1000
		}
		if ran[i] != want {
			t.Fatalf("event %d ran arg %d, want %d", i, ran[i], want)
		}
	}
	if k.Pending() != 0 || s1.n != 0 || k.arenaFree() != k.arenaSize() {
		t.Errorf("after drain: pending %d, stream len %d, arena %d free of %d", k.Pending(), s1.n, k.arenaFree(), k.arenaSize())
	}
}

// BenchmarkKernelFIFO measures S streams each kept D events deep: every
// event schedules its successor on its own stream, so the queue holds
// S*D events throughout. With FIFOs the heap holds S entries and
// ns/event stays flat as D grows; the atarg variant schedules the same
// events through AtArg, whose heap holds all S*D. Steady state is 0
// allocs/op on both.
func BenchmarkKernelFIFO(b *testing.B) {
	for _, mode := range []string{"fifo", "atarg"} {
		for _, s := range []int{1, 16} {
			for _, d := range []int{16, 256, 4096} {
				b.Run(fmt.Sprintf("%s/S=%d/D=%d", mode, s, d), func(b *testing.B) {
					benchStreams(b, mode == "fifo", s, d)
				})
			}
		}
	}
}

// benchServer is one stream: a server that completes an event every
// period and schedules the next completion behind its queue.
type benchServer struct {
	k      *Kernel
	f      *FIFO
	onFIFO bool
	next   Time
	period Duration
}

func benchServe(a any) {
	s := a.(*benchServer)
	s.next += s.period
	if s.onFIFO {
		s.k.FIFOAt(s.f, s.next, s)
	} else {
		s.k.AtArg(s.next, benchServe, s)
	}
}

func benchStreams(b *testing.B, useFIFO bool, streams, depth int) {
	k := NewKernel()
	for i := 0; i < streams; i++ {
		s := &benchServer{k: k, f: NewFIFO(benchServe), onFIFO: useFIFO, next: Time(i), period: 7}
		for j := 0; j < depth; j++ {
			benchServe(s)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
}
