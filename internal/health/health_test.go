package health

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

func TestSeriesAggregations(t *testing.T) {
	s := newSeries("c", obs.KindCounter, nil, 8)
	if _, ok := s.Delta(10 * sim.Second); ok {
		t.Error("delta on empty series should fail")
	}
	for i := 0; i <= 5; i++ {
		s.push(Point{T: sim.Time(i) * sim.Time(sim.Second), V: float64(10 * i), At: sim.Time(i) * sim.Time(sim.Second)})
	}
	if d, ok := s.Delta(3 * sim.Second); !ok || d != 30 {
		t.Errorf("Delta(3s) = %v, %v; want 30", d, ok)
	}
	if r, ok := s.RateOver(3 * sim.Second); !ok || r != 10 {
		t.Errorf("RateOver(3s) = %v, %v; want 10/s", r, ok)
	}
	// Window wider than the ring: falls back to the oldest sample.
	if d, ok := s.Delta(100 * sim.Second); !ok || d != 50 {
		t.Errorf("Delta(100s) = %v, %v; want 50", d, ok)
	}
	if mx, ok := s.MaxOver(2 * sim.Second); !ok || mx != 50 {
		t.Errorf("MaxOver = %v, %v; want 50", mx, ok)
	}
	if mn, ok := s.MinOver(2 * sim.Second); !ok || mn != 30 {
		t.Errorf("MinOver = %v, %v; want 30", mn, ok)
	}
	if e, ok := s.EWMA(2*sim.Second, 1); !ok || e != 50 {
		t.Errorf("EWMA(alpha=1) = %v, %v; want latest 50", e, ok)
	}
	if st, ok := s.Staleness(7 * sim.Time(sim.Second)); !ok || st != 2*sim.Second {
		t.Errorf("Staleness = %v, %v; want 2s", st, ok)
	}
}

func TestSeriesRingEviction(t *testing.T) {
	s := newSeries("c", obs.KindCounter, nil, 4)
	for i := 0; i < 10; i++ {
		s.push(Point{T: sim.Time(i), V: float64(i)})
	}
	if s.Len() != 4 {
		t.Fatalf("len = %d, want 4", s.Len())
	}
	if s.at(0).V != 6 || s.at(3).V != 9 {
		t.Errorf("ring contents wrong: oldest %v newest %v", s.at(0).V, s.at(3).V)
	}
}

func TestSeriesHistogramMean(t *testing.T) {
	s := newSeries("h", obs.KindHistogram, nil, 8)
	s.push(Point{T: 0, V: 10, Sum: 1000})
	s.push(Point{T: sim.Time(sim.Second), V: 30, Sum: 5000})
	if mean, ok := s.MeanOver(sim.Second); !ok || mean != 200 {
		t.Errorf("MeanOver = %v, %v; want (5000-1000)/(30-10)=200", mean, ok)
	}
	// No new observations in the window: no mean.
	s.push(Point{T: 2 * sim.Time(sim.Second), V: 30, Sum: 5000})
	if _, ok := s.MeanOver(sim.Second); ok {
		t.Error("MeanOver with zero delta count should fail")
	}
}

func TestParseRejectsBadRules(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"unknown field", `{"rules":[{"name":"x","threshhold":{}}]}`, "unknown field"},
		{"no condition", `{"rules":[{"name":"x"}]}`, "exactly one of"},
		{"two conditions", `{"rules":[{"name":"x","threshold":{"expr":{"metric":"m"},"op":">","value":1},"absence":{"metric":"m","stale_sec":1}}]}`, "exactly one of"},
		{"bad op", `{"rules":[{"name":"x","threshold":{"expr":{"metric":"m"},"op":"~","value":1}}]}`, "unknown op"},
		{"bad agg", `{"rules":[{"name":"x","threshold":{"expr":{"metric":"m","agg":"stddev"},"op":">","value":1}}]}`, "unknown agg"},
		{"rate without window", `{"rules":[{"name":"x","threshold":{"expr":{"metric":"m","agg":"rate"},"op":">","value":1}}]}`, "window_sec"},
		{"bad severity", `{"rules":[{"name":"x","severity":"fatal","threshold":{"expr":{"metric":"m"},"op":">","value":1}}]}`, "unknown severity"},
		{"duplicate rule", `{"rules":[{"name":"x","absence":{"metric":"m","stale_sec":1}},{"name":"x","absence":{"metric":"m","stale_sec":1}}]}`, "duplicate rule"},
		{"absence without stale", `{"rules":[{"name":"x","absence":{"metric":"m"}}]}`, "stale_sec"},
		{"nested divisor", `{"rules":[{"name":"x","threshold":{"expr":{"metric":"m","divisor":{"metric":"d","divisor":{"metric":"e"}}},"op":">","value":1}}]}`, "do not nest"},
		{"ewma alpha", `{"rules":[{"name":"x","threshold":{"expr":{"metric":"m","agg":"ewma","window_sec":5,"alpha":2},"op":">","value":1}}]}`, "alpha"},
		{"burn budget", `{"rules":[{"name":"x","burn_rate":{"expr":{"metric":"m","agg":"rate","window_sec":5},"budget_per_hour":0,"max_burn":2}}]}`, "budget_per_hour"},
		{"unnamed signal", `{"signals":[{"expr":{"metric":"m"}}]}`, "no name"},
	}
	for _, c := range cases {
		_, err := ParseBytes([]byte(c.json))
		if err == nil {
			t.Errorf("%s: parse accepted bad rules", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestDefaultRulesParse(t *testing.T) {
	rs := DefaultRules()
	if len(rs.Rules) < 5 {
		t.Fatalf("default rules = %d, want >= 5", len(rs.Rules))
	}
	if len(rs.Signals) < 2 {
		t.Fatalf("default signals = %d, want >= 2", len(rs.Signals))
	}
	names := map[string]bool{}
	for _, r := range rs.Rules {
		names[r.Name] = true
	}
	for _, want := range []string{"capture-drop-ratio", "mirror-drop-ratio", "listener-stale", "storage-write-latency", "alloc-failure-burn"} {
		if !names[want] {
			t.Errorf("default rules missing %q", want)
		}
	}
}

// monitorFixture builds a kernel+registry+monitor with the given rules.
func monitorFixture(t *testing.T, rulesJSON string) (*sim.Kernel, *obs.Registry, *Monitor) {
	t.Helper()
	k := sim.NewKernel()
	reg := obs.NewKernelRegistry(k)
	var rs RuleSet
	if rulesJSON != "" {
		var err error
		if rs, err = ParseBytes([]byte(rulesJSON)); err != nil {
			t.Fatal(err)
		}
	}
	m, err := NewMonitor(k, reg, nil, rs)
	if err != nil {
		t.Fatal(err)
	}
	return k, reg, m
}

func TestThresholdLifecycle(t *testing.T) {
	const rules = `{"rules":[{
		"name":"drop-rate","severity":"critical","for_sec":2,
		"threshold":{"expr":{"metric":"drops_total","agg":"rate","window_sec":5},"op":">","value":1}
	}]}`
	k, reg, m := monitorFixture(t, rules)
	drops := reg.Counter("drops_total", obs.L("site", "STAR"))
	m.Start()
	// Quiet for 3s, then 5 drops/s for 6s, then quiet again.
	for i := 4; i <= 9; i++ {
		k.At(sim.Time(i)*sim.Time(sim.Second)-1, func() { drops.Add(5) })
	}
	k.RunUntil(20 * sim.Time(sim.Second))

	evs := m.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %+v, want firing+resolved", evs)
	}
	fire, res := evs[0], evs[1]
	if fire.State != "firing" || fire.Rule != "drop-rate" || fire.Severity != SeverityCritical {
		t.Errorf("firing event wrong: %+v", fire)
	}
	if fire.Instance != "site=STAR" {
		t.Errorf("instance = %q, want site=STAR", fire.Instance)
	}
	// The condition first holds at the t=4s tick (first sample after
	// drops begin); with for_sec=2 it must fire at t=6s, not before.
	if fire.At != 6*sim.Time(sim.Second) {
		t.Errorf("fired at %v, want 6s (for_sec honored)", fire.At)
	}
	if res.State != "resolved" || res.At <= fire.At {
		t.Errorf("resolve event wrong: %+v", res)
	}
	if len(m.Dumps()) != 1 {
		t.Errorf("dumps = %d, want 1 (one per firing)", len(m.Dumps()))
	}
}

func TestAbsenceLifecycle(t *testing.T) {
	const rules = `{"rules":[{
		"name":"listener-stale",
		"absence":{"metric":"queue_highwater","stale_sec":5}
	}]}`
	k, reg, m := monitorFixture(t, rules)
	g := reg.Gauge("queue_highwater", obs.L("site", "TACC"))
	m.Start()
	// Updated every second until t=4s, then silent.
	for i := 1; i <= 4; i++ {
		k.At(sim.Time(i)*sim.Time(sim.Second)-1, func() { g.Set(3) })
	}
	k.RunUntil(12 * sim.Time(sim.Second))

	evs := m.Events()
	if len(evs) != 1 || evs[0].State != "firing" {
		t.Fatalf("events = %+v, want one firing", evs)
	}
	// Last update just before t=4s; stale_sec=5 → fires at the t=9s tick.
	if evs[0].At != 9*sim.Time(sim.Second) {
		t.Errorf("fired at %v, want 9s", evs[0].At)
	}
	if evs[0].Value < 5 {
		t.Errorf("staleness value = %v, want >= 5s", evs[0].Value)
	}
}

func TestBurnRateLifecycle(t *testing.T) {
	const rules = `{"rules":[{
		"name":"failure-burn",
		"burn_rate":{"expr":{"metric":"fail_total","agg":"rate","window_sec":10},"budget_per_hour":60,"max_burn":10}
	}]}`
	k, reg, m := monitorFixture(t, rules)
	fails := reg.Counter("fail_total")
	m.Start()
	// 1 failure/s = 3600/h = 60x the 60/h budget: way past max_burn 10.
	for i := 1; i <= 8; i++ {
		k.At(sim.Time(i)*sim.Time(sim.Second)-1, func() { fails.Inc() })
	}
	k.RunUntil(10 * sim.Time(sim.Second))

	evs := m.Events()
	if len(evs) == 0 || evs[0].State != "firing" {
		t.Fatalf("events = %+v, want firing", evs)
	}
	if evs[0].Value < 10 {
		t.Errorf("burn multiple = %v, want >= 10", evs[0].Value)
	}
}

func TestDivisorRatioAndSignal(t *testing.T) {
	const rules = `{
		"signals":[{"name":"drop_ratio","help":"drops over received","expr":{
			"metric":"dropped_total","agg":"rate","window_sec":10,
			"divisor":{"metric":"received_total","agg":"rate","window_sec":10}}}],
		"rules":[{"name":"ratio","for_sec":0,"threshold":{"expr":{
			"metric":"dropped_total","agg":"rate","window_sec":10,
			"divisor":{"metric":"received_total","agg":"rate","window_sec":10}},
			"op":">","value":0.25}}]}`
	k, reg, m := monitorFixture(t, rules)
	rx := reg.Counter("received_total", obs.L("site", "STAR"))
	dr := reg.Counter("dropped_total", obs.L("site", "STAR"))
	m.Start()
	k.Every(sim.Second/2, func(sim.Time) {
		rx.Add(100)
		dr.Add(50) // ratio 0.5
	})
	k.RunUntil(6 * sim.Time(sim.Second))

	evs := m.Events()
	if len(evs) == 0 || evs[0].State != "firing" {
		t.Fatalf("divisor rule did not fire: %+v", evs)
	}
	if evs[0].Value < 0.4 || evs[0].Value > 0.6 {
		t.Errorf("ratio = %v, want ~0.5", evs[0].Value)
	}
	// The signal was published back into the registry as a gauge.
	var found bool
	for _, mp := range reg.Snapshot() {
		if mp.Name == "drop_ratio" {
			found = true
			if mp.Kind != obs.KindGauge || mp.Value < 0.4 || mp.Value > 0.6 {
				t.Errorf("signal gauge wrong: %+v", mp)
			}
			if len(mp.Labels) != 1 || mp.Labels[0] != obs.L("site", "STAR") {
				t.Errorf("signal labels not inherited: %+v", mp.Labels)
			}
		}
	}
	if !found {
		t.Error("signal drop_ratio not published to the registry")
	}
	// Zero denominator must not fire or publish garbage.
	if math.IsNaN(evs[0].Value) {
		t.Error("NaN leaked into an event value")
	}
}

func TestFlightRecorderDump(t *testing.T) {
	const rules = `{"rules":[{"name":"hot","threshold":{"expr":{"metric":"g"},"op":">","value":10}}]}`
	k, reg, _ := monitorFixture(t, rules)
	tracer := obs.NewKernelTracer(k)
	rs, err := ParseBytes([]byte(rules))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMonitor(k, reg, tracer, rs)
	if err != nil {
		t.Fatal(err)
	}
	g := reg.Gauge("g", obs.L("site", "STAR"))
	m.Start()
	sp := tracer.Start("experiment")
	k.At(2*sim.Time(sim.Second), func() {
		m.Logf("core", "warn", "something %s", "odd")
		g.Set(50)
	})
	k.RunUntil(5 * sim.Time(sim.Second))
	sp.End()

	dumps := m.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("dumps = %d, want 1", len(dumps))
	}
	d := dumps[0]
	if !strings.HasPrefix(d.Name, "hot--site-STAR--") {
		t.Errorf("dump name = %q", d.Name)
	}
	lines := strings.Split(strings.TrimSpace(string(d.Data)), "\n")
	if !strings.Contains(lines[0], `"type":"alert"`) || !strings.Contains(lines[0], `"rule":"hot"`) {
		t.Errorf("dump header wrong: %s", lines[0])
	}
	if !strings.Contains(lines[0], `"window_from_ns":1000000000`) {
		t.Errorf("dump window should open at the first retained snapshot: %s", lines[0])
	}
	var haveMetrics, haveSpan, haveLog bool
	for _, ln := range lines[1:] {
		switch {
		case strings.Contains(ln, `"type":"metrics"`):
			haveMetrics = true
		case strings.Contains(ln, `"type":"span"`) && strings.Contains(ln, `"name":"experiment"`):
			haveSpan = true
		case strings.Contains(ln, `"type":"log"`) && strings.Contains(ln, "something odd"):
			haveLog = true
		}
	}
	if !haveMetrics || !haveSpan || !haveLog {
		t.Errorf("dump missing sections: metrics=%v span=%v log=%v\n%s",
			haveMetrics, haveSpan, haveLog, d.Data)
	}
}

func TestMonitorDeterminism(t *testing.T) {
	run := func() (string, string) {
		const rules = `{"rules":[
			{"name":"hot","for_sec":1,"threshold":{"expr":{"metric":"v","agg":"rate","window_sec":5},"op":">","value":3}},
			{"name":"quiet","absence":{"metric":"v","stale_sec":4}}]}`
		k, reg, m := monitorFixture(t, rules)
		c := reg.Counter("v", obs.L("site", "A"))
		m.Start()
		for i := 1; i <= 6; i++ {
			k.At(sim.Time(i)*sim.Time(sim.Second)-3, func() { c.Add(10) })
		}
		k.RunUntil(15 * sim.Time(sim.Second))
		var log bytes.Buffer
		if err := m.WriteAlertLog(&log); err != nil {
			t.Fatal(err)
		}
		var dumps bytes.Buffer
		for _, d := range m.Dumps() {
			dumps.WriteString(d.Name)
			dumps.Write(d.Data)
		}
		return log.String(), dumps.String()
	}
	l1, d1 := run()
	l2, d2 := run()
	if l1 != l2 {
		t.Errorf("alert logs differ:\n%s\nvs\n%s", l1, l2)
	}
	if d1 != d2 {
		t.Errorf("dumps differ")
	}
	if l1 == "" {
		t.Error("determinism test produced no events; fixture is inert")
	}
}

func TestStatusView(t *testing.T) {
	const rules = `{"rules":[{"name":"hot","threshold":{"expr":{"metric":"capture_frames_dropped_total"},"op":">","value":5}}]}`
	k, reg, m := monitorFixture(t, rules)
	reg.Counter("capture_frames_received_total", obs.L("site", "STAR"), obs.L("method", "dpdk")).Add(100)
	reg.Counter("capture_frames_dropped_total", obs.L("site", "STAR"), obs.L("method", "dpdk")).Add(10)
	reg.Counter("switchsim_mirror_cloned_total", obs.L("switch", "TACC"), obs.L("mirrored", "P1"), obs.L("egress", "E1")).Add(200)
	reg.Counter("switchsim_mirror_fault_drops_total", obs.L("switch", "TACC"), obs.L("mirrored", "P1"), obs.L("egress", "E1")).Add(20)
	reg.Gauge("patchwork_storage_free_bytes", obs.L("site", "STAR")).Set(2_000_000_000)
	m.Start()
	k.RunUntil(2 * sim.Time(sim.Second))

	rows := m.Status()
	if len(rows) != 2 || rows[0].Site != "STAR" || rows[1].Site != "TACC" {
		t.Fatalf("rows = %+v, want sorted STAR,TACC", rows)
	}
	if rows[0].DropRatio != 0.1 {
		t.Errorf("STAR drop ratio = %v, want 0.1", rows[0].DropRatio)
	}
	if !rows[0].HasAlerts || rows[0].Worst != SeverityWarning || rows[0].Alerts != 1 {
		t.Errorf("STAR alert state wrong: %+v", rows[0])
	}
	if rows[1].MirrorLoss != 0.1 {
		t.Errorf("TACC mirror loss = %v, want 0.1", rows[1].MirrorLoss)
	}
	if rows[1].HasAlerts {
		t.Errorf("TACC should be healthy: %+v", rows[1])
	}

	var buf bytes.Buffer
	if err := m.WriteStatus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"SITE", "STAR", "TACC", "warning", "2GB", "! hot"} {
		if !strings.Contains(out, want) {
			t.Errorf("status output missing %q:\n%s", want, out)
		}
	}
}

func TestSubscribeObservesTransitions(t *testing.T) {
	const rules = `{"rules":[{
		"name":"drop-rate","severity":"critical","for_sec":2,
		"threshold":{"expr":{"metric":"drops_total","agg":"rate","window_sec":5},"op":">","value":1}
	}]}`
	k, reg, m := monitorFixture(t, rules)
	var first, second []AlertEvent
	m.Subscribe(func(ev AlertEvent) { first = append(first, ev) })
	m.Subscribe(func(ev AlertEvent) { second = append(second, ev) })
	m.Subscribe(nil) // nil subscribers are ignored, not called
	drops := reg.Counter("drops_total", obs.L("site", "STAR"))
	m.Start()
	for i := 4; i <= 9; i++ {
		k.At(sim.Time(i)*sim.Time(sim.Second)-1, func() { drops.Add(5) })
	}
	k.RunUntil(20 * sim.Time(sim.Second))
	events := m.Events()
	if len(events) == 0 {
		t.Fatal("no transitions recorded")
	}
	if len(first) != len(events) || len(second) != len(events) {
		t.Fatalf("subscribers saw %d/%d events, monitor recorded %d",
			len(first), len(second), len(events))
	}
	for i := range events {
		if first[i] != events[i] || second[i] != events[i] {
			t.Errorf("event %d: subscriber copies diverge from monitor record", i)
		}
	}
}

// TestResolveAndRefireSameWindow: a rule that fires, resolves, and
// fires again while the original samples are still inside its window
// must emit two distinct firing events and freeze two distinct
// flight-recorder dumps — remediation hysteresis depends on every
// firing edge being observable.
func TestResolveAndRefireSameWindow(t *testing.T) {
	const rules = `{"rules":[{
		"name":"drop-rate","severity":"critical","for_sec":2,
		"threshold":{"expr":{"metric":"drops_total","agg":"rate","window_sec":5},"op":">","value":1}
	}]}`
	k, reg, m := monitorFixture(t, rules)
	drops := reg.Counter("drops_total", obs.L("site", "STAR"))
	m.Start()
	// Two bursts separated by a quiet gap long enough to resolve but
	// short enough that the second burst lands in the same ring window.
	for i := 4; i <= 7; i++ {
		k.At(sim.Time(i)*sim.Time(sim.Second)-1, func() { drops.Add(5) })
	}
	for i := 15; i <= 18; i++ {
		k.At(sim.Time(i)*sim.Time(sim.Second)-1, func() { drops.Add(5) })
	}
	k.RunUntil(30 * sim.Time(sim.Second))

	var firings, resolves []AlertEvent
	for _, ev := range m.Events() {
		switch ev.State {
		case "firing":
			firings = append(firings, ev)
		case "resolved":
			resolves = append(resolves, ev)
		}
	}
	if len(firings) != 2 {
		t.Fatalf("firing events = %d (%v), want 2", len(firings), firings)
	}
	if len(resolves) != 2 {
		t.Errorf("resolved events = %d, want 2 (each burst resolves)", len(resolves))
	}
	if firings[0].At == firings[1].At {
		t.Error("the two firings carry the same timestamp")
	}
	if !(firings[0].At < resolves[0].At && resolves[0].At < firings[1].At) {
		t.Errorf("lifecycle out of order: fire=%v resolve=%v refire=%v",
			firings[0].At, resolves[0].At, firings[1].At)
	}
	dumps := m.Dumps()
	if len(dumps) != 2 {
		t.Fatalf("dumps = %d, want one per firing", len(dumps))
	}
	if dumps[0].Name == dumps[1].Name {
		t.Errorf("both dumps share the name %q; firings must freeze distinct dumps", dumps[0].Name)
	}
}
