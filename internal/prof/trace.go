package prof

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/crcline"
	"repro/internal/sim"
)

// Event is one loaded provenance record: a node of the causal DAG.
type Event struct {
	Seq    uint64
	Parent int64 // -1 for roots
	At     sim.Time
	Fn     int32
	Tag    int32
}

// Trace is a loaded provenance trace.
type Trace struct {
	FnNames  []string
	TagNames map[int32]string
	Events   []Event
	// Torn reports that a damaged trailing frame was truncated (the
	// writer died mid-line); everything before it is intact.
	Torn bool

	bySeq map[uint64]int // seq → Events index
}

// lineRec is the union of every frame body shape.
type lineRec struct {
	K      string `json:"k"`
	Format string `json:"format"`
	V      int    `json:"v"`
	ID     int32  `json:"id"`
	Name   string `json:"name"`
	S      uint64 `json:"s"`
	P      int64  `json:"p"`
	T      int64  `json:"t"`
	F      int32  `json:"f"`
	G      int32  `json:"g"`
}

// LoadTrace reads a provenance trace, tolerating a torn tail.
func LoadTrace(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("prof: %w", err)
	}
	defer f.Close()

	t := &Trace{TagNames: make(map[int32]string), bySeq: make(map[uint64]int)}
	var (
		rec    lineRec
		header bool  // the header frame was read
		herr   error // the header names another format or version, or a frame is malformed
	)
	ext, err := crcline.Scan(f, func(body []byte) bool {
		rec = lineRec{}
		if json.Unmarshal(body, &rec) != nil {
			return false
		}
		if !header {
			switch {
			case rec.K != "hdr" || rec.Format != TraceFormat:
				herr = fmt.Errorf("prof: %s: not a provenance trace (header %q)", path, rec.Format)
				return false
			case rec.V != TraceVersion:
				herr = fmt.Errorf("prof: %s: unsupported trace version %d", path, rec.V)
				return false
			}
			header = true
			return true
		}
		switch rec.K {
		case "fn":
			// The writer interns callbacks densely from 0, so every
			// definition names the next id.
			if int(rec.ID) != len(t.FnNames) {
				herr = fmt.Errorf("prof: %s: fn id %d out of order (want %d)", path, rec.ID, len(t.FnNames))
				return false
			}
			t.FnNames = append(t.FnNames, rec.Name)
		case "tag":
			t.TagNames[rec.ID] = rec.Name
		case "ev":
			t.bySeq[rec.S] = len(t.Events)
			t.Events = append(t.Events, Event{
				Seq: rec.S, Parent: rec.P, At: sim.Time(rec.T),
				Fn: rec.F, Tag: rec.G,
			})
		}
		return true
	})
	switch {
	case err != nil:
		return nil, fmt.Errorf("prof: %w", err)
	case herr != nil:
		return nil, herr
	case !header && ext.Size == 0:
		return nil, fmt.Errorf("prof: %s: empty trace", path)
	case !header:
		return nil, fmt.Errorf("prof: %s: not a provenance trace", path)
	}
	t.Torn = ext.Damaged()
	return t, nil
}

// FnName returns the interned name for a callback id.
func (t *Trace) FnName(id int32) string {
	if id >= 0 && int(id) < len(t.FnNames) && t.FnNames[id] != "" {
		return t.FnNames[id]
	}
	return fmt.Sprintf("fn#%d", id)
}

// TagName returns the registered name for a tag (site) id.
func (t *Trace) TagName(id int32) string {
	if id == 0 {
		return "(untagged)"
	}
	if n, ok := t.TagNames[id]; ok {
		return n
	}
	return fmt.Sprintf("tag#%d", id)
}

// Span reports the last event timestamp in the trace.
func (t *Trace) Span() sim.Time {
	var end sim.Time
	for i := range t.Events {
		if t.Events[i].At > end {
			end = t.Events[i].At
		}
	}
	return end
}

// PathStep is one hop on the critical path. Delta is the sim time this
// hop contributes: the event's timestamp minus its parent's (the
// scheduling latency the parent imposed), or the event's absolute
// timestamp for a root.
type PathStep struct {
	Ev    Event
	Delta sim.Duration
}

// CriticalPath walks parent pointers back from the latest event (ties
// broken by highest sequence number) and returns the chain root-first.
// In a DAG whose edges all point backward in time, this chain is the
// causal dependency path that determined the run's end time.
func (t *Trace) CriticalPath() []PathStep {
	if len(t.Events) == 0 {
		return nil
	}
	end := 0
	for i := range t.Events {
		e, b := &t.Events[i], &t.Events[end]
		if e.At > b.At || (e.At == b.At && e.Seq > b.Seq) {
			end = i
		}
	}
	var rev []PathStep
	i := end
	for {
		e := t.Events[i]
		step := PathStep{Ev: e, Delta: sim.Duration(e.At)}
		next := -1
		if e.Parent >= 0 {
			if j, ok := t.bySeq[uint64(e.Parent)]; ok {
				next = j
				step.Delta = e.At - t.Events[j].At
			}
		}
		rev = append(rev, step)
		if next < 0 {
			break
		}
		i = next
	}
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	return rev
}

// BlameEntry aggregates critical-path time against one name (a
// callback or a tag/site).
type BlameEntry struct {
	Name  string
	Steps int
	Ns    int64
	// Frac is Ns over the critical path's end time.
	Frac float64
}

// Blame attributes each critical-path hop's delta to the scheduled
// event's callback and tag, returning both tables sorted by descending
// time (ties by name, for deterministic output).
func (t *Trace) Blame(path []PathStep) (byFn, byTag []BlameEntry) {
	if len(path) == 0 {
		return nil, nil
	}
	end := int64(path[len(path)-1].Ev.At)
	fn := make(map[string]*BlameEntry)
	tag := make(map[string]*BlameEntry)
	add := func(m map[string]*BlameEntry, name string, d sim.Duration) {
		e, ok := m[name]
		if !ok {
			e = &BlameEntry{Name: name}
			m[name] = e
		}
		e.Steps++
		e.Ns += int64(d)
	}
	for _, s := range path {
		add(fn, t.FnName(s.Ev.Fn), s.Delta)
		add(tag, t.TagName(s.Ev.Tag), s.Delta)
	}
	flatten := func(m map[string]*BlameEntry) []BlameEntry {
		out := make([]BlameEntry, 0, len(m))
		for _, e := range m {
			if end > 0 {
				e.Frac = float64(e.Ns) / float64(end)
			}
			out = append(out, *e)
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Ns != out[j].Ns {
				return out[i].Ns > out[j].Ns
			}
			return out[i].Name < out[j].Name
		})
		return out
	}
	return flatten(fn), flatten(tag)
}

// FanOutStats summarizes the DAG's branching structure.
type FanOutStats struct {
	Events int
	Roots  int
	// MaxOut is the largest number of events scheduled by a single
	// event handler; MaxSeq/MaxFn identify it.
	MaxOut int
	MaxSeq uint64
	MaxFn  string
	// MeanOut is edges per event (== (Events-Roots)/Events).
	MeanOut float64
}

// FanOut computes branching statistics over the whole DAG.
func (t *Trace) FanOut() FanOutStats {
	st := FanOutStats{Events: len(t.Events)}
	if st.Events == 0 {
		return st
	}
	out := make([]int, len(t.Events))
	for i := range t.Events {
		e := &t.Events[i]
		if e.Parent < 0 {
			st.Roots++
			continue
		}
		if j, ok := t.bySeq[uint64(e.Parent)]; ok {
			out[j]++
		} else {
			st.Roots++ // parent predates the hook; treat as root
		}
	}
	best := 0
	st.MaxOut = out[0]
	for i, n := range out {
		if n > st.MaxOut { // ties keep the earliest seq (events are in seq order)
			st.MaxOut, best = n, i
		}
	}
	st.MaxSeq = t.Events[best].Seq
	st.MaxFn = t.FnName(t.Events[best].Fn)
	st.MeanOut = float64(st.Events-st.Roots) / float64(st.Events)
	return st
}
