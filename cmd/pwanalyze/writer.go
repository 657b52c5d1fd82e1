package main

import (
	"errors"
	"os"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/wire"
)

// The acap writer: the walk reads and digests frames while one encoder
// goroutine writes the acaps and their index entries. Records cross in
// a fixed set of batches, allocated once and recycled, so the hand-off
// costs one channel send per batch and no allocation per frame.
const (
	acapBatches      = 4
	acapBatchRecords = 2048
	// acapBatchStacks is a batch's room for header stacks, in layers:
	// a full batch of ten-layer stacks, the deepest the synthetic
	// captures hold (seven on average). A batch of deeper stacks grows
	// its store once.
	acapBatchStacks = acapBatchRecords * 10
)

// errWriterFailed stops the walk once the writer has failed; run
// reports the writer's own error instead.
var errWriterFailed = errors.New("acap writer failed")

// acapBatch carries consecutive records of one capture. first marks the
// capture's first batch, which opens its acap; last marks its final
// batch, which closes the acap and carries the capture's distinct-flow
// count.
type acapBatch struct {
	site, path  string
	first, last bool
	flows       int
	recs        []analysis.Record
	stacks      []wire.LayerType // backing store of the records' stacks
}

// full reports whether the batch has no room for another record.
func (b *acapBatch) full() bool { return len(b.recs) == cap(b.recs) }

// add copies r, whose Stack is borrowed, into the batch. Records keep
// their stacks' backing array if the store grows.
func (b *acapBatch) add(r *analysis.Record) {
	n := len(b.stacks)
	b.stacks = append(b.stacks, r.Stack...)
	b.recs = append(b.recs, *r)
	b.recs[len(b.recs)-1].Stack = b.stacks[n:len(b.stacks):len(b.stacks)]
}

// acapWriter encodes batches into acap files and index entries, in the
// order they are handed off, on its own goroutine.
type acapWriter struct {
	work, free chan *acapBatch
	done       chan struct{}
	failed     atomic.Bool // err is set

	// The writer goroutine's side; err and index are read after done.
	err     error
	index   analysis.Index
	enc     analysis.AcapEncoder
	f       *os.File // the acap being written, if any
	started bool     // the open acap has begun
}

// startAcapWriter starts the writer goroutine. Take the first batch
// from free, and end with close.
func startAcapWriter() *acapWriter {
	// Each channel can hold every batch, so the writer never blocks
	// returning one; the walk waits only when all are in flight.
	w := &acapWriter{
		work: make(chan *acapBatch, acapBatches),
		free: make(chan *acapBatch, acapBatches),
		done: make(chan struct{}),
	}
	for i := 0; i < acapBatches; i++ {
		w.free <- &acapBatch{
			recs:   make([]analysis.Record, 0, acapBatchRecords),
			stacks: make([]wire.LayerType, 0, acapBatchStacks),
		}
	}
	go w.loop()
	return w
}

// handOff passes b to the writer and returns an empty batch, which
// continues b's capture unless b was its last. Once the writer has
// failed it returns errWriterFailed instead.
func (w *acapWriter) handOff(b *acapBatch) (*acapBatch, error) {
	if w.failed.Load() {
		return nil, errWriterFailed
	}
	site, path, more := b.site, b.path, !b.last
	w.work <- b
	next := <-w.free
	if more {
		next.site, next.path = site, path
	}
	return next, nil
}

// close ends the hand-offs, waits for the writer to finish and returns
// its first error.
func (w *acapWriter) close() error {
	close(w.work)
	<-w.done
	return w.err
}

// loop writes every batch handed off, skipping the rest after an error,
// and closes an acap that an error or an abandoned walk left open.
func (w *acapWriter) loop() {
	defer close(w.done)
	for b := range w.work {
		if w.err == nil {
			if w.err = w.write(b); w.err != nil {
				w.failed.Store(true)
			}
		}
		b.site, b.path, b.first, b.last, b.flows = "", "", false, false, 0
		b.recs, b.stacks = b.recs[:0], b.stacks[:0]
		w.free <- b
	}
	if w.f != nil {
		_ = w.f.Close() // the run already failed
	}
}

// write encodes one batch.
func (w *acapWriter) write(b *acapBatch) error {
	if b.first {
		f, err := os.Create(b.path)
		if err != nil {
			return err
		}
		w.f, w.started = f, false
	}
	for i := range b.recs {
		r := &b.recs[i]
		if !w.started {
			// The sample starts at its first record, as in
			// analysis.Digest.
			w.enc.Begin(w.f, b.site, r.TimestampNanos)
			w.started = true
		}
		if err := w.enc.Write(r); err != nil {
			return err
		}
	}
	if !b.last {
		return nil
	}
	if !w.started {
		w.enc.Begin(w.f, b.site, 0)
	}
	entry, err := w.enc.End()
	if err != nil {
		return err
	}
	f := w.f
	w.f = nil
	if err := f.Close(); err != nil {
		return err
	}
	entry.Path = b.path
	entry.DistinctFlows = b.flows
	w.index.Add(entry)
	return nil
}
