package main

import (
	"errors"
	"os"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/wire"
)

// The pipeline: the walk reads and decodes frames on run's goroutine,
// one fold goroutine folds their records into the digester, and one
// writer goroutine encodes the acaps and their index entries. Records
// pass through the three stages in a fixed set of batches, allocated
// once and recycled, so a hand-off costs one channel send per batch and
// no allocation per frame, and every stage sees the batches in capture
// order.
const (
	batches      = 8
	batchRecords = 1024
	// batchStacks is a batch's room for header stacks, in layers: a
	// full batch of ten-layer stacks, the deepest the synthetic captures
	// hold (seven on average). A batch of deeper stacks grows its store
	// once.
	batchStacks = batchRecords * 10
)

// errPipelineFailed stops the walk once the fold or the writer has
// failed; run reports that stage's own error instead.
var errPipelineFailed = errors.New("analysis pipeline failed")

// batch carries consecutive records of one capture. first marks the
// capture's first batch, which starts its sample and opens its acap;
// last marks its final batch, which ends the sample and closes the
// acap.
type batch struct {
	site, path  string
	first, last bool
	flows       int   // the capture's distinct flows, set by the fold on its last batch
	err         error // the fold's failure on this batch
	recs        []analysis.Record
	stacks      []wire.LayerType // backing store of the records' stacks
}

// full reports whether the batch has no room for another record.
func (b *batch) full() bool { return len(b.recs) == cap(b.recs) }

// add copies r, whose Stack is borrowed, into the batch. Records keep
// their stacks' backing array if the store grows.
func (b *batch) add(r *analysis.Record) {
	n := len(b.stacks)
	b.stacks = append(b.stacks, r.Stack...)
	b.recs = append(b.recs, *r)
	b.recs[len(b.recs)-1].Stack = b.stacks[n:len(b.stacks):len(b.stacks)]
}

// reset empties the batch for reuse.
func (b *batch) reset() {
	b.site, b.path, b.first, b.last, b.flows, b.err = "", "", false, false, 0, nil
	b.recs, b.stacks = b.recs[:0], b.stacks[:0]
}

// pipeline runs the fold and writer goroutines. The walk takes its
// first batch from free, hands each one off, and ends with close.
type pipeline struct {
	// Batches go walk → fold → write → free → walk. Each channel can
	// hold every batch, so only the walk ever waits: for a free batch.
	fold, write, free chan *batch
	folded, written   chan struct{} // closed as each goroutine ends
	failed            atomic.Bool   // the fold or the writer has failed

	d *analysis.Digester // the fold goroutine's until folded is closed

	// The writer goroutine's; err and index are read after written is
	// closed.
	err     error
	index   analysis.Index
	enc     analysis.AcapEncoder
	f       *os.File // the acap being written, if any
	started bool     // the open acap has begun
}

// startPipeline starts the fold goroutine, folding into d, and the
// writer goroutine.
func startPipeline(d *analysis.Digester) *pipeline {
	p := &pipeline{
		fold:    make(chan *batch, batches),
		write:   make(chan *batch, batches),
		free:    make(chan *batch, batches),
		folded:  make(chan struct{}),
		written: make(chan struct{}),
		d:       d,
	}
	for i := 0; i < batches; i++ {
		p.free <- &batch{
			recs:   make([]analysis.Record, 0, batchRecords),
			stacks: make([]wire.LayerType, 0, batchStacks),
		}
	}
	go p.foldLoop()
	go p.writeLoop()
	return p
}

// handOff passes b to the fold and returns an empty batch, which
// continues b's capture unless b was its last. Once a stage has failed
// it returns errPipelineFailed instead.
func (p *pipeline) handOff(b *batch) (*batch, error) {
	if p.failed.Load() {
		return nil, errPipelineFailed
	}
	site, path, more := b.site, b.path, !b.last
	p.fold <- b
	next := <-p.free
	if more {
		next.site, next.path = site, path
	}
	return next, nil
}

// close ends the hand-offs and joins the fold goroutine, then the
// writer goroutine. It returns the pipeline's first failure in capture
// order: the writer writes only batches the fold folded, and adopts the
// fold's failure when it reaches the batch that carries it.
func (p *pipeline) close() error {
	close(p.fold)
	<-p.folded
	close(p.write)
	<-p.written
	return p.err
}

// foldLoop folds every batch handed off until a stage fails, then
// passes the rest on unfolded, and hands each batch to the writer.
func (p *pipeline) foldLoop() {
	defer close(p.folded)
	for b := range p.fold {
		if !p.failed.Load() {
			if b.err = p.foldBatch(b); b.err != nil {
				p.failed.Store(true)
			}
		}
		p.write <- b
	}
}

// foldBatch folds one batch's records, starting the capture's sample on
// its first batch and ending it on its last.
func (p *pipeline) foldBatch(b *batch) error {
	if b.first {
		p.d.StartSample(b.site)
	}
	for i := range b.recs {
		if err := p.d.Fold(&b.recs[i]); err != nil {
			return err
		}
	}
	if b.last {
		b.flows = p.d.EndSample()
	}
	return nil
}
