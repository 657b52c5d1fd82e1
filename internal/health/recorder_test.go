package health

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// oracleDump is the flight recorder's original renderer, which rendered
// every retained snapshot afresh for each dump. The cached renderer must
// reproduce it byte for byte.
func oracleDump(r *recorder, ev AlertEvent, tracer *obs.Tracer) []byte {
	var buf bytes.Buffer

	from := ev.At
	if r.snapCount > 0 {
		from = r.snaps[r.snapHead].at
	}
	if r.logCount > 0 && r.logs[r.logHead].at < from {
		from = r.logs[r.logHead].at
	}
	inst, _ := jsonString(ev.Instance)
	fmt.Fprintf(&buf,
		`{"type":"alert","rule":%q,"severity":%q,"instance":%s,"fired_ns":%d,"value":%s,"window_from_ns":%d,"window_to_ns":%d}`+"\n",
		ev.Rule, ev.Severity, inst, int64(ev.At), jsonNumber(ev.Value), int64(from), int64(ev.At))

	for i := 0; i < r.snapCount; i++ {
		s := r.snaps[(r.snapHead+i)%len(r.snaps)]
		fmt.Fprintf(&buf, `{"type":"metrics","sim_ns":%d,"points":[`, int64(s.at))
		for j, mp := range s.points {
			if j > 0 {
				buf.WriteByte(',')
			}
			name, _ := jsonString(mp.Name)
			// Join the labels here rather than reading mp.ID, so the
			// oracle checks the registry's label identity too.
			var ls []string
			for _, l := range mp.Labels {
				ls = append(ls, l.Key+"="+l.Value)
			}
			id, _ := jsonString(strings.Join(ls, ","))
			fmt.Fprintf(&buf, `{"m":%s,"l":%s,"v":%s`, name, id, jsonNumber(mp.Value))
			if mp.Kind == obs.KindHistogram {
				fmt.Fprintf(&buf, `,"sum":%d`, mp.Sum)
			}
			buf.WriteByte('}')
		}
		buf.WriteString("]}\n")
	}

	recs := tracer.Records()
	if len(recs) > spanTail {
		recs = recs[len(recs)-spanTail:]
	}
	for _, sp := range recs {
		name, _ := jsonString(sp.Name)
		fmt.Fprintf(&buf, `{"type":"span","span":%d,"parent":%d,"name":%s,"start_ns":%d`,
			sp.ID, sp.Parent, name, int64(sp.Start))
		if sp.Ended {
			fmt.Fprintf(&buf, `,"end_ns":%d`, int64(sp.End))
		}
		if len(sp.Attrs) > 0 {
			buf.WriteString(`,"attrs":{`)
			for i, a := range sp.Attrs {
				if i > 0 {
					buf.WriteByte(',')
				}
				k, _ := jsonString(a.Key)
				v, _ := jsonString(a.Value)
				fmt.Fprintf(&buf, `%s:%s`, k, v)
			}
			buf.WriteByte('}')
		}
		buf.WriteString("}\n")
	}

	for i := 0; i < r.logCount; i++ {
		l := r.logs[(r.logHead+i)%len(r.logs)]
		msg, _ := jsonString(l.msg)
		fmt.Fprintf(&buf, `{"type":"log","sim_ns":%d,"source":%q,"level":%q,"msg":%s}`+"\n",
			int64(l.at), l.source, l.level, msg)
	}
	return buf.Bytes()
}

// TestDumpMatchesOracle runs a monitor whose alerts fire every few ticks
// on three instances, often on the same tick, so consecutive dumps
// share most of their snapshots and the snapshot ring wraps many times.
// Each tick also logs 8 lines, starts 2 spans and observes a histogram,
// so the 256-line log ring and the 64-span tail wrap before the last
// dumps freeze. Every dump must equal the original renderer's output at
// the moment it froze (rendered by a subscriber, which runs just before
// the freeze), and be exactly its own size.
func TestDumpMatchesOracle(t *testing.T) {
	const rules = `{"rules":[{"name":"hot","threshold":{"expr":{"metric":"g"},"op":">","value":10}}]}`
	k := sim.NewKernel()
	reg := obs.NewKernelRegistry(k)
	tracer := obs.NewKernelTracer(k)
	rs, err := ParseBytes([]byte(rules))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMonitor(k, reg, tracer, rs)
	if err != nil {
		t.Fatal(err)
	}
	const logsPerTick, spansPerTick = 8, 2
	logged := 0
	var want [][]byte
	wrapped := 0 // dumps frozen after both the log ring and the span tail wrapped
	m.Subscribe(func(ev AlertEvent) {
		if ev.State != "firing" {
			return
		}
		want = append(want, oracleDump(m.rec, ev, tracer))
		if logged > logDepth && tracer.Len() > spanTail {
			wrapped++
		}
	})
	sites := []string{"A", "B", "C"}
	var gauges []*obs.Gauge
	for _, s := range sites {
		gauges = append(gauges, reg.Gauge("g", obs.L("site", s)))
	}
	lat := reg.Histogram("latency_ns", obs.L("site", "A"))
	m.Start()
	const ticks = 40
	var open *obs.Span
	for sec := 1; sec <= ticks; sec++ {
		// Just before the tick at sec: instance i holds on seconds
		// divisible by i+2, so A and B fire together every 6 s.
		k.At(sim.Time(sec)*sim.Second-sim.Millisecond, func() {
			for i, g := range gauges {
				v := 0.0
				if sec%(i+2) == 0 {
					v = 50
				}
				g.Set(v)
			}
			lat.Observe(int64(sec) * 1000)
			for i := 0; i < logsPerTick; i++ {
				m.Logf("test", "info", "second %d line %d \"quoted\"", sec, i)
				logged++
			}
			for i := 0; i < spansPerTick; i++ {
				if open != nil {
					open.End()
				}
				open = tracer.Start(fmt.Sprintf("step-%d-%d", sec, i), obs.L("sec", fmt.Sprint(sec)))
			}
		})
	}
	k.RunUntil(sim.Time(ticks) * sim.Second)

	dumps := m.Dumps()
	if len(dumps) < 2*ticks/3 {
		t.Fatalf("%d dumps in %d ticks; the rules should fire more often", len(dumps), ticks)
	}
	if len(dumps) != len(want) {
		t.Fatalf("%d dumps, %d firings", len(dumps), len(want))
	}
	for i, d := range dumps {
		if !bytes.Equal(d.Data, want[i]) {
			t.Errorf("dump %d (%s) differs from the original renderer:\n got %q\nwant %q", i, d.Name, d.Data, want[i])
		}
		if cap(d.Data) != len(d.Data) {
			t.Errorf("dump %d (%s): %d bytes in a %d-byte slice", i, d.Name, len(d.Data), cap(d.Data))
		}
	}
	if wrapped == 0 {
		t.Errorf("no dump froze after %d log lines and %d spans wrapped the %d-line ring and %d-span tail",
			logged, tracer.Len(), logDepth, spanTail)
	}
}

// TestRetainedSnapshotsMatchTheirTicks: once the ring is full, each tick
// snapshots into the storage of the slot it evicts, so no slot still in
// the ring may share storage with a newer snapshot. The monitor ticks 30
// times over counters, gauges and a histogram that gains buckets, with a
// family added mid-run that shifts every point after it; an independent
// Snapshot taken 1 ms after each tick must equal the ring's slot for
// that tick after every later tick. The rule set is empty because
// derived signals write gauges after the tick's snapshot.
func TestRetainedSnapshotsMatchTheirTicks(t *testing.T) {
	k := sim.NewKernel()
	reg := obs.NewKernelRegistry(k)
	m, err := NewMonitor(k, reg, nil, RuleSet{})
	if err != nil {
		t.Fatal(err)
	}
	frames := reg.Counter("frames_total", obs.L("site", "A"))
	depth := reg.Gauge("queue_depth", obs.L("site", "B"))
	lat := reg.Histogram("latency_ns", obs.L("site", "A"))
	m.Start()
	const ticks = 30
	independent := make(map[sim.Time][]obs.MetricPoint)
	checked := 0
	for sec := 1; sec <= ticks; sec++ {
		at := sim.Time(sec) * sim.Second
		k.At(at-500*sim.Millisecond, func() {
			frames.Add(int64(sec))
			depth.Set(float64(sec % 7))
			lat.Observe(int64(1) << (sec % 40)) // a new bucket every tick until the 40th
			if sec == 15 {
				reg.Counter("early_total", obs.L("site", "A")).Inc() // sorts first
				reg.Histogram("latency_ns", obs.L("site", "B")).Observe(3)
			}
		})
		k.At(at+sim.Millisecond, func() {
			independent[at] = reg.Snapshot()
			r := m.rec
			for i := 0; i < r.snapCount; i++ {
				s := r.snaps[(r.snapHead+i)%len(r.snaps)]
				if !reflect.DeepEqual(s.points, independent[s.at]) {
					t.Errorf("after the tick at %v, the retained snapshot of %v differs from that tick's registry", at, s.at)
				}
				checked++
			}
		})
	}
	k.RunUntil(sim.Time(ticks)*sim.Second + sim.Second)
	if m.rec.snapCount != snapDepth || checked < ticks*snapDepth/2 {
		t.Fatalf("ring holds %d snapshots after %d ticks, %d checked; want a full ring of %d",
			m.rec.snapCount, ticks, checked, snapDepth)
	}
}
