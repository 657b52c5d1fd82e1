package main

import "os"

// writeLoop writes every folded batch, recycles it, and closes an acap
// that a failure or an abandoned walk left open. After the first
// failure, its own or one a batch carries from the fold, it writes no
// more.
func (p *pipeline) writeLoop() {
	defer close(p.written)
	for b := range p.write {
		if p.err == nil {
			if p.err = b.err; p.err == nil {
				if p.err = p.writeBatch(b); p.err != nil {
					p.failed.Store(true)
				}
			}
		}
		b.reset()
		p.free <- b
	}
	if p.f != nil {
		_ = p.f.Close() // the run already failed
	}
}

// writeBatch encodes one batch.
func (p *pipeline) writeBatch(b *batch) error {
	if b.first {
		f, err := os.Create(b.path)
		if err != nil {
			return err
		}
		p.f, p.started = f, false
	}
	for i := range b.recs {
		r := &b.recs[i]
		if !p.started {
			// The sample starts at its first record, as in
			// analysis.Digest.
			p.enc.Begin(p.f, b.site, r.TimestampNanos)
			p.started = true
		}
		if err := p.enc.Write(r); err != nil {
			return err
		}
	}
	if !b.last {
		return nil
	}
	if !p.started {
		p.enc.Begin(p.f, b.site, 0)
	}
	entry, err := p.enc.End()
	if err != nil {
		return err
	}
	f := p.f
	p.f = nil
	if err := f.Close(); err != nil {
		return err
	}
	entry.Path = b.path
	entry.DistinctFlows = b.flows
	p.index.Add(entry)
	return nil
}
