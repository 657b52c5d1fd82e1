// Package lanes shards one simulated world into per-site event lanes
// that execute in parallel while producing output byte-identical to the
// serial kernel — the SimBricks decomposition (loosely coupled
// components synchronized by timestamped channels under a conservative
// lookahead) applied inside a single process, held to the REPETITA
// repeatability bar.
//
// The design keeps ONE sim.Kernel as the source of truth. Events carry
// a lane tag: lane 0 (sim.GlobalLane) is the control plane — the
// coordinator, pollers, health monitor, fault triggers, checkpoints —
// and lanes 1..N are site dataplanes (traffic windows, switch clone
// deliveries, capture completions). The executor alternates two phases:
//
//   - Global phase: the next live event is global, so the kernel steps
//     it serially with every lane quiescent. Globals therefore observe
//     exactly the state a serial run would — every earlier lane event
//     has executed and its effects are visible (the barrier provides
//     the happens-before edge).
//   - Window phase: the next live event is a lane event. PopLaneWindow
//     pops the maximal serial-order prefix of lane events below a
//     conservative lookahead horizon (stopping at the first global
//     event), the events are grouped per lane, and a worker pool
//     executes the lanes concurrently — each lane's subsequence in
//     exact serial order.
//
// Determinism is restored at the window barrier. Every schedule call a
// lane makes during the window is recorded; the barrier merges the
// per-lane records by the serial key of the event that made the call
// and re-assigns the exact sequence numbers a serial kernel would have
// handed out, flushing still-pending events back to the kernel heap
// with those numbers. An event a lane schedules onto itself below the
// window's execution horizon runs inside the window (nothing outside
// the lane can affect it — the horizon is bounded by the next event
// left in the heap); everything else is staged and flushed. Cross-lane
// traffic must flow through a Channel whose latency is at least the
// lookahead, which guarantees deliveries land at or beyond the horizon
// and never need to execute inside the sending window.
//
// The contract a lane component must obey (enforced by convention and
// the equivalence/race harnesses in this package):
//
//   - Lane events touch only their own lane's state, and schedule only
//     onto their own lane (or across lanes through a Channel).
//   - Lane-scheduled events are never cancelled: Lane.At returns an
//     inert Handle during window execution.
//   - Shared instruments use the obs *At variants, which are
//     commutative (atomic add + CAS-max timestamp), so concurrent lane
//     writes fold to the serial value.
package lanes

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// Default window parameters.
const (
	// DefaultLookahead is the conservative synchronization window: lane
	// events within one lookahead of the window's first event may run
	// concurrently. Larger windows amortize barrier cost; the bound on
	// cross-lane latency (Channel latency >= lookahead) is what makes
	// the concurrency safe.
	DefaultLookahead = 50 * sim.Millisecond
	// DefaultMaxWindow bounds events popped per window, keeping barrier
	// scratch memory and latency predictable under event storms.
	DefaultMaxWindow = 4096
)

// Config sizes a World.
type Config struct {
	// Lanes is the number of dataplane lanes (ids 1..Lanes; 0 is the
	// global control plane). Minimum 1.
	Lanes int
	// Workers is the number of goroutines executing lanes inside a
	// window, including the coordinator itself. <= 1 executes every
	// lane inline on the coordinator (useful as the determinism
	// baseline); 0 defaults to min(Lanes, GOMAXPROCS).
	Workers int
	// Lookahead is the window width (default DefaultLookahead).
	Lookahead sim.Duration
	// MaxWindow caps events per window (default DefaultMaxWindow).
	MaxWindow int
}

func (c Config) withDefaults() Config {
	if c.Lanes < 1 {
		c.Lanes = 1
	}
	if c.Workers == 0 {
		c.Workers = c.Lanes
		if p := runtime.GOMAXPROCS(0); c.Workers > p {
			c.Workers = p
		}
	}
	if c.Lookahead <= 0 {
		c.Lookahead = DefaultLookahead
	}
	if c.MaxWindow <= 0 {
		c.MaxWindow = DefaultMaxWindow
	}
	return c
}

// World drives one kernel with parallel lane windows. Not safe for
// concurrent use: one goroutine calls Step/Run, and the worker pool is
// internal.
type World struct {
	k   *sim.Kernel
	cfg Config

	lanes []*Lane

	// Window scratch, reused across windows.
	evBuf   []sim.LaneEvent
	reapBuf []sim.ReapMark
	ticks   []sim.TickRun
	active  []*Lane
	win     sim.Window

	// Worker pool (nil roundCh when Workers <= 1).
	roundCh chan struct{}
	doneWg  sync.WaitGroup
	next    atomic.Int32
	closed  bool

	windows uint64 // windows executed (introspection)

	// Wall-clock profiler (nil when disabled; see profile.go). Wall
	// time never feeds back into the simulation — this is the "wall
	// plane", kept strictly out of sim-time artifacts.
	profr *Profiler
}

// NewWorld builds a laned executor over k. Call Close when done to stop
// the worker pool.
func NewWorld(k *sim.Kernel, cfg Config) *World {
	cfg = cfg.withDefaults()
	w := &World{k: k, cfg: cfg}
	w.lanes = make([]*Lane, cfg.Lanes)
	for i := range w.lanes {
		w.lanes[i] = &Lane{w: w, id: int32(i + 1)}
	}
	if cfg.Workers > 1 {
		w.roundCh = make(chan struct{})
		for i := 0; i < cfg.Workers-1; i++ {
			go func(worker int) {
				for range w.roundCh {
					w.drainLanes(worker)
					w.doneWg.Done()
				}
			}(i + 1) // worker 0 is the coordinator
		}
	}
	return w
}

// Kernel returns the underlying kernel.
func (w *World) Kernel() *sim.Kernel { return w.k }

// Lanes returns the configured lane count.
func (w *World) Lanes() int { return len(w.lanes) }

// Windows reports how many parallel windows have executed.
func (w *World) Windows() uint64 { return w.windows }

// Lane returns the lane with the given id (1-based; lane 0 is the
// global control plane and has no Lane object — schedule on the kernel
// directly).
func (w *World) Lane(id int) *Lane {
	if id < 1 || id > len(w.lanes) {
		panic(fmt.Sprintf("lanes: lane id %d out of range [1, %d]", id, len(w.lanes)))
	}
	return w.lanes[id-1]
}

// Close stops the worker pool. The World must not Step afterwards.
func (w *World) Close() {
	if w.roundCh != nil && !w.closed {
		close(w.roundCh)
	}
	w.closed = true
}

// Step advances the simulation: one serial kernel step when the next
// event is global, one parallel lane window otherwise. It reports false
// when the queue is empty.
func (w *World) Step() bool {
	lane, _, ok := w.k.NextLane()
	if !ok {
		return false
	}
	if lane == sim.GlobalLane {
		if p := w.profr; p != nil {
			start := time.Now()
			ok := w.k.Step()
			p.recordGlobal(time.Since(start))
			return ok
		}
		return w.k.Step()
	}
	w.window()
	return true
}

// Run executes until the queue is empty.
func (w *World) Run() {
	for w.Step() {
	}
}

// window pops one lane window, executes it across the pool, and folds
// the results back into the kernel.
func (w *World) window() {
	p := w.profr
	var t0, tPop, tExec, tStall time.Time
	if p != nil {
		t0 = time.Now()
	}
	w.win, w.evBuf, w.reapBuf = w.k.PopLaneWindow(w.cfg.Lookahead, w.cfg.MaxWindow, w.evBuf[:0], w.reapBuf[:0])
	win := w.win
	if p != nil {
		tPop = time.Now()
	}

	// Group the popped prefix into per-lane runqueues (order within a
	// lane is serial order — the prefix was popped in serial order).
	w.active = w.active[:0]
	for i := range w.evBuf {
		e := &w.evBuf[i]
		if e.Lane < 1 || int(e.Lane) > len(w.lanes) {
			panic(fmt.Sprintf("lanes: event tagged with unknown lane %d", e.Lane))
		}
		l := w.lanes[e.Lane-1]
		if len(l.run) == 0 {
			l.beginWindow(win)
			w.active = append(w.active, l)
		}
		l.run = append(l.run, *e)
	}

	// Execute the active lanes. The coordinator always participates;
	// extra pool workers join when there is enough work to share.
	extra := 0
	if w.roundCh != nil {
		extra = w.cfg.Workers - 1
		if n := len(w.active) - 1; extra > n {
			extra = n
		}
	}
	w.next.Store(0)
	w.doneWg.Add(extra)
	for i := 0; i < extra; i++ {
		w.roundCh <- struct{}{}
	}
	w.drainLanes(0)
	if p != nil {
		tExec = time.Now()
	}
	w.doneWg.Wait()
	if p != nil {
		tStall = time.Now()
	}

	w.barrier(win)
	if p != nil {
		p.recordWindow(w.windows, win, len(w.active), t0, tPop, tExec, tStall, time.Now())
	}
	w.windows++
}

// drainLanes claims and executes lanes off the shared cursor until none
// remain. Runs on the coordinator (worker 0) and on pool workers.
func (w *World) drainLanes(worker int) {
	for {
		n := int(w.next.Add(1)) - 1
		if n >= len(w.active) {
			return
		}
		l := w.active[n]
		if p := w.profr; p != nil {
			start := time.Now()
			l.exec()
			var events uint64
			for i := range l.ticks {
				events += l.ticks[i].Exec
			}
			p.recordExec(w.windows, l.id, worker, start, time.Now(), events)
		} else {
			l.exec()
		}
	}
}

// barrier reconstructs the serial schedule order of every call the
// lanes made during the window, flushes staged events back to the
// kernel with their exact serial sequence numbers, merges the per-lane
// tick accounting, and applies the window to the kernel.
func (w *World) barrier(win sim.Window) {
	// Phase 1: k-way merge of the per-lane stagedCall lists by the
	// serial key of the scheduling event. Each lane's list is already
	// in serial order, so the merge assigns sequence numbers exactly as
	// a serial kernel would have. A call made by a locally-executed
	// event resolves its key through the record that created that event
	// (always earlier in the same lane's list, hence already assigned).
	total := 0
	for _, l := range w.active {
		l.ptr = 0
		total += len(l.calls)
	}
	// Schedule calls merged here bypassed Kernel.schedule, so the
	// barrier emits their provenance records instead — in assigned-seq
	// order with the resolved serial key as the causal parent, exactly
	// the records a serial kernel would have produced.
	prov := w.k.Provenance()
	seq := win.SeqBase
	for n := 0; n < total; n++ {
		var best *Lane
		var bestAt sim.Time
		var bestSeq uint64
		for _, l := range w.active {
			if l.ptr >= len(l.calls) {
				continue
			}
			c := &l.calls[l.ptr]
			at, s := c.schedAt, c.schedSeq
			if c.schedIdx >= 0 {
				s = l.calls[c.schedIdx].seq
			}
			if best == nil || at < bestAt || (at == bestAt && s < bestSeq) {
				best, bestAt, bestSeq = l, at, s
			}
		}
		c := &best.calls[best.ptr]
		best.ptr++
		c.seq = seq
		seq++
		if prov != nil {
			prov(sim.ProvRecord{
				Seq: c.seq, Parent: bestSeq, At: c.at,
				PC: sim.CallbackPC(c.fn, c.argFn), Tag: c.tag,
			})
		}
		if !c.local {
			w.k.FlushLane(c.lane, c.at, c.seq, c.fn, c.argFn, c.arg)
		}
		c.fn, c.argFn, c.arg = nil, nil, nil
	}

	// Phase 2: merge per-lane tick runs by timestamp and count, for
	// each merged tick, how many reaped cancellations a serial kernel
	// would have processed before sampling at that tick (the reap list
	// is in heap-pop order, i.e. key order, so a single sweep works).
	w.ticks = w.ticks[:0]
	for _, l := range w.active {
		l.ptr = 0
	}
	for {
		var at sim.Time
		found := false
		for _, l := range w.active {
			if l.ptr >= len(l.ticks) {
				continue
			}
			if t := l.ticks[l.ptr].At; !found || t < at {
				at, found = t, true
			}
		}
		if !found {
			break
		}
		merged := sim.TickRun{At: at, FirstSeq: ^uint64(0)}
		for _, l := range w.active {
			if l.ptr >= len(l.ticks) || l.ticks[l.ptr].At != at {
				continue
			}
			tr := &l.ticks[l.ptr]
			l.ptr++
			merged.Exec += tr.Exec
			merged.Push += tr.Push
			if tr.FirstSeq < merged.FirstSeq {
				merged.FirstSeq = tr.FirstSeq
			}
		}
		w.ticks = append(w.ticks, merged)
	}
	rp := 0
	for i := range w.ticks {
		tr := &w.ticks[i]
		for rp < len(w.reapBuf) {
			r := &w.reapBuf[rp]
			if r.At < tr.At || (r.At == tr.At && r.Seq < tr.FirstSeq) {
				rp++
				continue
			}
			break
		}
		tr.ReapBefore = rp
	}

	w.k.ApplyWindow(win, w.ticks, win.SeqBase+uint64(total))

	for _, l := range w.active {
		l.endWindow()
	}
}

// localEvt is an event a lane scheduled onto itself inside the current
// window, ordered by (at, seq) where seq is a provisional lane-local
// number above every prepopped serial sequence — so the merged
// execution order within the lane matches the serial order exactly.
type localEvt struct {
	at     sim.Time
	seq    uint64
	recIdx int32 // index of the stagedCall that created this event
	fn     func()
	argFn  func(any)
	arg    any
}

// stagedCall records one schedule call made during window execution, in
// the order the lane made it. (schedAt, schedSeq/schedIdx) identify the
// serial key of the event that made the call: schedIdx >= 0 points at
// the same lane's record that created the calling event (its assigned
// seq becomes the key); -1 means the caller was a prepopped event whose
// serial seq is schedSeq.
type stagedCall struct {
	schedAt  sim.Time
	schedSeq uint64
	schedIdx int32

	at    sim.Time
	fn    func()
	argFn func(any)
	arg   any
	lane  int32 // destination lane
	tag   int32 // provenance domain tag at stage time (0 = untagged)
	local bool  // executed inside the window; consumes a seq but is not flushed
	seq   uint64
}

// Lane is one dataplane shard's scheduler. It implements sim.Scheduler,
// so substrate components (switches, capture engines, traffic drivers)
// bind to it exactly as they bind to the kernel. Outside a window —
// during setup or a global-phase event — calls route straight to the
// kernel tagged with the lane id; inside a window they are staged for
// the barrier (or run locally when safely below the execution horizon).
type Lane struct {
	w  *World
	id int32

	// Window-execution state. Owned by the executing worker during a
	// window round and by the coordinator between rounds; the round
	// dispatch channel and the barrier WaitGroup order the handoff.
	running     bool
	now         sim.Time
	execHorizon sim.Time
	run         []sim.LaneEvent
	local       []localEvt // binary min-heap by (at, seq)
	calls       []stagedCall
	ticks       []sim.TickRun
	localSeq    uint64
	curAt       sim.Time
	curSeq      uint64
	curIdx      int32
	ptr         int // barrier merge cursor

	// provTag is the provenance domain applied to staged calls (see
	// SetProvTag). Owned by whichever goroutine owns the lane: the
	// executing worker during a window, the coordinator otherwise.
	provTag int32
}

// ID returns the lane id (1-based; 0 is the global control plane).
func (l *Lane) ID() int32 { return l.id }

// SetProvTag sets the provenance domain tag applied to subsequent
// schedule calls made through this lane (the lane-executor counterpart
// of Kernel.SetProvTag). During a window the tag rides on the staged
// call; outside one it forwards to the kernel, which will emit the
// record directly.
func (l *Lane) SetProvTag(tag int32) {
	if l.running {
		l.provTag = tag
		return
	}
	l.w.k.SetProvTag(tag)
}

func (l *Lane) beginWindow(win sim.Window) {
	l.calls = l.calls[:0]
	l.ticks = l.ticks[:0]
	l.local = l.local[:0]
	l.localSeq = win.SeqBase
	l.execHorizon = win.ExecHorizon
}

func (l *Lane) endWindow() {
	l.run = l.run[:0]
	// Call records were cleared during the merge; local heap is empty
	// (every local event executed before the lane went quiescent).
}

// exec runs the lane's window subsequence: the prepopped runqueue
// merged with the self-scheduled local heap, in (at, seq) order.
func (l *Lane) exec() {
	l.running = true
	ri := 0
	for ri < len(l.run) || len(l.local) > 0 {
		if len(l.local) > 0 && (ri >= len(l.run) ||
			l.local[0].at < l.run[ri].At ||
			(l.local[0].at == l.run[ri].At && l.local[0].seq < l.run[ri].Seq)) {
			ev := l.popLocal()
			l.beginTick(ev.at, ev.seq)
			l.now, l.curAt, l.curSeq, l.curIdx = ev.at, ev.at, ev.seq, ev.recIdx
			if ev.argFn != nil {
				ev.argFn(ev.arg)
			} else {
				ev.fn()
			}
		} else {
			ev := &l.run[ri]
			ri++
			l.beginTick(ev.At, ev.Seq)
			l.now, l.curAt, l.curSeq, l.curIdx = ev.At, ev.At, ev.Seq, -1
			ev.Call()
		}
	}
	l.running = false
}

// beginTick opens (or continues) the tick-accounting record for at and
// counts one execution.
func (l *Lane) beginTick(at sim.Time, seq uint64) {
	if n := len(l.ticks); n == 0 || l.ticks[n-1].At != at {
		l.ticks = append(l.ticks, sim.TickRun{At: at, FirstSeq: seq})
	}
	l.ticks[len(l.ticks)-1].Exec++
}

// stage records one schedule call made during window execution,
// dispatching it to the local heap when it targets this lane below the
// execution horizon (it will run inside the window) and leaving it for
// the barrier flush otherwise.
func (l *Lane) stage(dst int32, t sim.Time, fn func(), argFn func(any), arg any) {
	l.ticks[len(l.ticks)-1].Push++
	rec := stagedCall{
		schedAt: l.curAt, schedSeq: l.curSeq, schedIdx: l.curIdx,
		at: t, fn: fn, argFn: argFn, arg: arg, lane: dst, tag: l.provTag,
	}
	if dst == l.id && t < l.execHorizon {
		rec.local = true
		l.pushLocal(localEvt{
			at: t, seq: l.localSeq, recIdx: int32(len(l.calls)),
			fn: fn, argFn: argFn, arg: arg,
		})
		l.localSeq++
	}
	l.calls = append(l.calls, rec)
}

// schedule is the shared core of the Scheduler methods.
func (l *Lane) schedule(t sim.Time, fn func(), argFn func(any), arg any) sim.Handle {
	if !l.running {
		// Global phase (setup, remediation restarts): schedule on the
		// kernel directly, tagged with this lane.
		if fn != nil {
			return l.w.k.LaneAt(l.id, t, fn)
		}
		return l.w.k.LaneAtArg(l.id, t, argFn, arg)
	}
	if t < l.now {
		panic(fmt.Sprintf("lanes: scheduling at %v before now %v", t, l.now))
	}
	l.stage(l.id, t, fn, argFn, arg)
	// Lane-scheduled events are not cancellable: the returned Handle is
	// inert (Cancel reports false). Components driven on lanes must
	// stop via flags, not cancellation.
	return sim.Handle{}
}

// Now returns the executing event's timestamp during a window, and the
// kernel clock otherwise — exactly what Kernel.Now reports serially.
func (l *Lane) Now() sim.Time {
	if l.running {
		return l.now
	}
	return l.w.k.Now()
}

// At implements sim.Scheduler.
func (l *Lane) At(t sim.Time, fn func()) sim.Handle {
	return l.schedule(t, fn, nil, nil)
}

// AtArg implements sim.Scheduler.
func (l *Lane) AtArg(t sim.Time, fn func(any), arg any) sim.Handle {
	return l.schedule(t, nil, fn, arg)
}

// After implements sim.Scheduler.
func (l *Lane) After(d sim.Duration, fn func()) sim.Handle {
	if d < 0 {
		panic("lanes: negative delay")
	}
	return l.schedule(l.Now()+d, fn, nil, nil)
}

// AfterArg implements sim.Scheduler.
func (l *Lane) AfterArg(d sim.Duration, fn func(any), arg any) sim.Handle {
	if d < 0 {
		panic("lanes: negative delay")
	}
	return l.schedule(l.Now()+d, nil, fn, arg)
}

// FIFOAt implements sim.Scheduler. A lane stages FIFO events as plain
// AtArg events: the barrier already rebuilds every staged call's serial
// sequence number, and lane events cannot be cancelled anyway.
func (l *Lane) FIFOAt(f *sim.FIFO, t sim.Time, arg any) {
	l.schedule(t, nil, f.Func(), arg)
}

// Every implements sim.Scheduler. Note that a lane ticker's Stop only
// takes effect while the lane is outside a window (lane events are not
// cancellable); prefer flag-guarded self-rescheduling on dataplanes.
func (l *Lane) Every(d sim.Duration, fn func(sim.Time)) *sim.Ticker {
	return sim.NewTicker(l, d, fn)
}

// sendTo stages a cross-lane delivery on behalf of a Channel: the call
// is recorded against the sending lane's current event (that is its
// serial position) while the scheduled event lands on the destination
// lane. Outside a window it schedules directly.
func (l *Lane) sendTo(dst int32, t sim.Time, argFn func(any), arg any) {
	if !l.running {
		l.w.k.LaneAtArg(dst, t, argFn, arg)
		return
	}
	if t < l.now {
		panic(fmt.Sprintf("lanes: cross-lane delivery at %v before now %v", t, l.now))
	}
	l.stage(dst, t, nil, argFn, arg)
}

// --- local min-heap on (at, seq) ---

func localLess(a, b localEvt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (l *Lane) pushLocal(e localEvt) {
	l.local = append(l.local, e)
	i := len(l.local) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !localLess(l.local[i], l.local[p]) {
			break
		}
		l.local[i], l.local[p] = l.local[p], l.local[i]
		i = p
	}
}

func (l *Lane) popLocal() localEvt {
	h := l.local
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = localEvt{} // drop callback references
	l.local = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && localLess(h[c+1], h[c]) {
			c++
		}
		if !localLess(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top
}
