package prof

import "repro/internal/sim"

// tagSetter is the capability both the serial kernel and a lanes.Lane
// expose for provenance domain tagging.
type tagSetter interface {
	SetProvTag(tag int32)
}

// TagScheduler wraps a scheduler so every schedule call made through it
// is provenance-tagged with tag — the campaign layer wraps each site's
// scheduler this way, attributing the site's events to it in the causal
// DAG. The wrapper sets the tag around each delegated call and restores
// the untagged state, so schedulers shared across components never leak
// a tag. If s cannot tag (or tag is 0), s is returned unchanged.
func TagScheduler(s sim.Scheduler, tag int32) sim.Scheduler {
	ts, ok := s.(tagSetter)
	if !ok || tag == 0 {
		return s
	}
	return &taggedScheduler{s: s, ts: ts, tag: tag}
}

type taggedScheduler struct {
	s   sim.Scheduler
	ts  tagSetter
	tag int32
}

func (t *taggedScheduler) Now() sim.Time { return t.s.Now() }

func (t *taggedScheduler) At(at sim.Time, fn func()) sim.Handle {
	t.ts.SetProvTag(t.tag)
	h := t.s.At(at, fn)
	t.ts.SetProvTag(0)
	return h
}

func (t *taggedScheduler) AtArg(at sim.Time, fn func(any), arg any) sim.Handle {
	t.ts.SetProvTag(t.tag)
	h := t.s.AtArg(at, fn, arg)
	t.ts.SetProvTag(0)
	return h
}

func (t *taggedScheduler) After(d sim.Duration, fn func()) sim.Handle {
	t.ts.SetProvTag(t.tag)
	h := t.s.After(d, fn)
	t.ts.SetProvTag(0)
	return h
}

func (t *taggedScheduler) AfterArg(d sim.Duration, fn func(any), arg any) sim.Handle {
	t.ts.SetProvTag(t.tag)
	h := t.s.AfterArg(d, fn, arg)
	t.ts.SetProvTag(0)
	return h
}

func (t *taggedScheduler) FIFOAt(f *sim.FIFO, at sim.Time, arg any) {
	t.ts.SetProvTag(t.tag)
	t.s.FIFOAt(f, at, arg)
	t.ts.SetProvTag(0)
}

// Every builds the ticker on the wrapper itself, so every firing's
// reschedule carries the tag too.
func (t *taggedScheduler) Every(d sim.Duration, fn func(sim.Time)) *sim.Ticker {
	return sim.NewTicker(t, d, fn)
}
