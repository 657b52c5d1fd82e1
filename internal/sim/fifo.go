package sim

import "fmt"

// FIFO is a caller-owned stream of events that all run one callback and
// are scheduled with non-decreasing times: the completions of a server
// whose busy-until time only grows, or the departures of a FIFO queue.
//
// A kernel keeps only the stream's earliest event in its heap. The other
// events wait in the stream's ring buffer with the (time, sequence) key
// FIFOAt gave them, and when the head pops the kernel pushes the next
// one with its stored key. Keys are unique and a stream's keys are
// already sorted, so events run in exactly the order AtArg would have
// given them, while the heap holds one entry per stream instead of one
// per event.
//
// A FIFO belongs to one kernel while it has events waiting. It is not
// safe for concurrent use.
type FIFO struct {
	fn   func(any)
	q    []fifoEvent // ring buffer; len is zero or a power of two
	head int
	n    int
}

// fifoEvent is one waiting event: its ordering key and argument.
type fifoEvent struct {
	at  Time
	seq uint64
	arg any
}

// NewFIFO returns an empty stream whose events run fn.
func NewFIFO(fn func(any)) *FIFO { return &FIFO{fn: fn} }

// Func returns the callback every event on the stream runs. A scheduler
// that keeps no streams (a lanes.Lane) schedules FIFO events as plain
// AtArg events with it.
func (f *FIFO) Func() func(any) { return f.fn }

func (f *FIFO) push(e fifoEvent) {
	if f.n == len(f.q) {
		size := 2 * len(f.q)
		if size == 0 {
			size = 16
		}
		q := make([]fifoEvent, size)
		c := copy(q, f.q[f.head:])
		copy(q[c:], f.q[:f.head])
		f.q, f.head = q, 0
	}
	f.q[(f.head+f.n)&(len(f.q)-1)] = e
	f.n++
}

// pop removes the head event and returns its argument.
func (f *FIFO) pop() any {
	e := &f.q[f.head]
	arg := e.arg
	*e = fifoEvent{} // drop the argument reference
	f.head = (f.head + 1) & (len(f.q) - 1)
	f.n--
	return arg
}

// FIFOAt schedules f's callback with arg at absolute time t on stream f.
// The event gets its sequence number and provenance record at the call,
// exactly as AtArg(t, f.Func(), arg) would give them, so the run is the
// same either way. Unlike AtArg it returns no Handle: FIFO events cannot
// be cancelled. t must not precede the stream's previous event, nor now;
// either is a logic error and panics.
func (k *Kernel) FIFOAt(f *FIFO, t Time, arg any) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, k.now))
	}
	if f.n == 0 {
		// The stream's earlier events have all run, at or before now.
		idx := k.alloc()
		s := &k.slots[idx]
		s.arg = f
		s.state = slotFIFO
		s.lane = GlobalLane
		k.heapPush(heapEntry{at: t, seq: k.seq, idx: idx})
	} else {
		if last := f.q[(f.head+f.n-1)&(len(f.q)-1)].at; t < last {
			panic(fmt.Sprintf("sim: FIFO event at %v before the stream's last event at %v", t, last))
		}
		k.fifoWaiting++
	}
	f.push(fifoEvent{at: t, seq: k.seq, arg: arg})
	if k.prov != nil {
		k.prov(ProvRecord{Seq: k.seq, Parent: k.provParent, At: t, PC: CallbackPC(nil, f.fn), Tag: k.provTag})
	}
	k.seq++
}

// popFIFO takes the head event of stream f, whose entry (arena slot
// idx) is at the top of the heap, and returns its argument. The stream's
// next event, if any, replaces the popped entry with its stored key (one
// sift instead of a pop and a push); otherwise the entry and its slot
// are released.
func (k *Kernel) popFIFO(f *FIFO, idx int32) any {
	arg := f.pop()
	if f.n > 0 {
		next := &f.q[f.head]
		k.heap[0] = heapEntry{at: next.at, seq: next.seq, idx: idx}
		k.siftDown(0)
		k.fifoWaiting--
	} else {
		k.heapPop()
		k.release(idx)
	}
	return arg
}
