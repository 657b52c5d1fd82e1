package health

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// metricSnap is one retained registry snapshot. line is its rendered
// dump line, cached by the first dump that includes it: dumps frozen
// within a few ticks of each other share most of their snapshots.
type metricSnap struct {
	at     sim.Time
	points []obs.MetricPoint
	line   string
}

// logLine is one retained log record.
type logLine struct {
	at            sim.Time
	source, level string
	msg           string
}

// recorder keeps bounded rings of recent context — metric snapshots and
// log lines — and can freeze them, together with the tail of the span
// trace, into a JSONL dump when an alert fires. It records continuously
// and cheaply; the expensive serialization happens only at dump time,
// at most once per snapshot.
type recorder struct {
	buf bytes.Buffer // dump scratch: the header, then spans and logs

	snaps     []metricSnap
	snapHead  int
	snapCount int

	logs     []logLine
	logHead  int
	logCount int
}

func newRecorder() *recorder {
	return &recorder{
		snaps: make([]metricSnap, snapDepth),
		logs:  make([]logLine, logDepth),
	}
}

// evicting returns the points of the slot the next snapshot will
// overwrite, for the registry to write that snapshot into, or nil while
// the ring has room. The slot's points and cached line are stale from
// then until snapshot replaces them.
func (r *recorder) evicting() []obs.MetricPoint {
	if r.snapCount < len(r.snaps) {
		return nil
	}
	return r.snaps[r.snapHead].points
}

// snapshot retains points; overwriting the oldest slot drops its
// cached line with it.
func (r *recorder) snapshot(at sim.Time, points []obs.MetricPoint) {
	s := metricSnap{at: at, points: points}
	if r.snapCount < len(r.snaps) {
		r.snaps[(r.snapHead+r.snapCount)%len(r.snaps)] = s
		r.snapCount++
		return
	}
	r.snaps[r.snapHead] = s
	r.snapHead = (r.snapHead + 1) % len(r.snaps)
}

func (r *recorder) log(at sim.Time, source, level, msg string) {
	l := logLine{at: at, source: source, level: level, msg: msg}
	if r.logCount < len(r.logs) {
		r.logs[(r.logHead+r.logCount)%len(r.logs)] = l
		r.logCount++
		return
	}
	r.logs[r.logHead] = l
	r.logHead = (r.logHead + 1) % len(r.logs)
}

// jsonString marshals a string; the error return keeps call sites
// honest but marshaling a string cannot fail.
func jsonString(s string) (string, error) {
	b, err := json.Marshal(s)
	return string(b), err
}

// dump freezes the recorder into a JSONL document: an alert header,
// then the retained metric snapshots (oldest first), the tail of the
// span trace, and the retained log lines (oldest first). The window
// header fields state the sim-time range the dump covers, so a reader
// can check an injection or incident window falls inside it. The
// returned slice is exactly the document's size.
func (r *recorder) dump(ev AlertEvent, tracer *obs.Tracer) []byte {
	buf := &r.buf
	size := 0
	for i := 0; i < r.snapCount; i++ {
		s := &r.snaps[(r.snapHead+i)%len(r.snaps)]
		if s.line == "" {
			buf.Reset()
			renderMetrics(buf, s)
			s.line = buf.String()
		}
		size += len(s.line)
	}

	buf.Reset()
	from := ev.At
	if r.snapCount > 0 {
		from = r.snaps[r.snapHead].at
	}
	if r.logCount > 0 && r.logs[r.logHead].at < from {
		from = r.logs[r.logHead].at
	}
	inst, _ := jsonString(ev.Instance)
	fmt.Fprintf(buf,
		`{"type":"alert","rule":%q,"severity":%q,"instance":%s,"fired_ns":%d,"value":%s,"window_from_ns":%d,"window_to_ns":%d}`+"\n",
		ev.Rule, ev.Severity, inst, int64(ev.At), jsonNumber(ev.Value), int64(from), int64(ev.At))
	header := buf.Len()

	recs := tracer.Records()
	if len(recs) > spanTail {
		recs = recs[len(recs)-spanTail:]
	}
	for _, sp := range recs {
		name, _ := jsonString(sp.Name)
		fmt.Fprintf(buf, `{"type":"span","span":%d,"parent":%d,"name":%s,"start_ns":%d`,
			sp.ID, sp.Parent, name, int64(sp.Start))
		if sp.Ended {
			fmt.Fprintf(buf, `,"end_ns":%d`, int64(sp.End))
		}
		if len(sp.Attrs) > 0 {
			buf.WriteString(`,"attrs":{`)
			for i, a := range sp.Attrs {
				if i > 0 {
					buf.WriteByte(',')
				}
				k, _ := jsonString(a.Key)
				v, _ := jsonString(a.Value)
				fmt.Fprintf(buf, `%s:%s`, k, v)
			}
			buf.WriteByte('}')
		}
		buf.WriteString("}\n")
	}

	for i := 0; i < r.logCount; i++ {
		l := r.logs[(r.logHead+i)%len(r.logs)]
		msg, _ := jsonString(l.msg)
		fmt.Fprintf(buf, `{"type":"log","sim_ns":%d,"source":%q,"level":%q,"msg":%s}`+"\n",
			int64(l.at), l.source, l.level, msg)
	}

	b := buf.Bytes()
	out := make([]byte, 0, len(b)+size)
	out = append(out, b[:header]...)
	for i := 0; i < r.snapCount; i++ {
		out = append(out, r.snaps[(r.snapHead+i)%len(r.snaps)].line...)
	}
	return append(out, b[header:]...)
}

// renderMetrics writes one snapshot's dump line.
func renderMetrics(buf *bytes.Buffer, s *metricSnap) {
	fmt.Fprintf(buf, `{"type":"metrics","sim_ns":%d,"points":[`, int64(s.at))
	for j, mp := range s.points {
		if j > 0 {
			buf.WriteByte(',')
		}
		name, _ := jsonString(mp.Name)
		id, _ := jsonString(mp.ID)
		fmt.Fprintf(buf, `{"m":%s,"l":%s,"v":%s`, name, id, jsonNumber(mp.Value))
		if mp.Kind == obs.KindHistogram {
			fmt.Fprintf(buf, `,"sum":%d`, mp.Sum)
		}
		buf.WriteByte('}')
	}
	buf.WriteString("]}\n")
}
