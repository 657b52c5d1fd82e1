package health

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
)

// The monitor's fixed sizes: a 1 s sampling tick, 120 points per
// series (two sim-minutes of window), and a flight recorder keeping the
// last 8 registry snapshots, the last 256 log lines and a 64-span tail.
const (
	tickInterval = sim.Second
	seriesDepth  = 120
	snapDepth    = 8
	logDepth     = 256
	spanTail     = 64
)

// AlertEvent is one lifecycle transition of a rule instance.
type AlertEvent struct {
	At       sim.Time
	Rule     string
	Severity Severity
	// Instance identifies the instrument instance ("site=STAR,…"); empty
	// when the rule matched a metric with no labels.
	Instance string
	// State is "firing" or "resolved".
	State string
	// Value is the expression's value at the transition (staleness
	// seconds for absence rules, burn multiple for burn-rate rules).
	Value float64
}

// instance is one tracked instrument instance: its window, identity,
// and label lookup.
type instance struct {
	s      *Series
	id     string
	labels map[string]string
}

// seriesKey identifies one instrument instance: metric name and label
// identity (obs.MetricPoint.ID).
type seriesKey struct{ name, id string }

// stateKey identifies one (rule, instance) alert state machine.
type stateKey struct{ rule, instance string }

// alertState is the lifecycle state for one (rule, instance) pair.
type alertState struct {
	pending      bool
	pendingSince sim.Time
	firing       bool
}

// Monitor samples a registry on a kernel tick, maintains sliding
// windows, publishes derived signals, evaluates alert rules, and
// freezes flight-recorder dumps when rules fire. All iteration orders
// derive from the registry's sorted snapshot, so two same-seed runs
// produce byte-identical alert logs and dumps.
type Monitor struct {
	k      *sim.Kernel
	reg    *obs.Registry
	tracer *obs.Tracer
	rules  RuleSet

	ticker *sim.Ticker

	series   map[seriesKey]*instance
	byMetric map[string][]*instance
	sigHelp  map[string]bool

	states     map[stateKey]*alertState
	stateOrder []stateKey

	events []AlertEvent
	rec    *recorder
	dumps  []Dump

	// subscribers are notified of every transition, in subscription
	// order (see Subscribe).
	subscribers []func(AlertEvent)
}

// Dump is one frozen flight-recorder capture.
type Dump struct {
	Name string
	Data []byte
}

// NewMonitor validates the rule set and builds a monitor over the
// registry. The kernel and registry must be non-nil; the tracer may be
// nil (dumps then carry no spans). An empty rule set raises no alerts:
// the monitor still maintains windows and the status view.
func NewMonitor(k *sim.Kernel, reg *obs.Registry, tracer *obs.Tracer, rules RuleSet) (*Monitor, error) {
	if k == nil {
		return nil, fmt.Errorf("health: monitor needs a kernel")
	}
	if reg == nil {
		return nil, fmt.Errorf("health: monitor needs a registry")
	}
	if err := rules.Validate(); err != nil {
		return nil, err
	}
	return &Monitor{
		k: k, reg: reg, tracer: tracer, rules: rules,
		series:   make(map[seriesKey]*instance),
		byMetric: make(map[string][]*instance),
		sigHelp:  make(map[string]bool),
		states:   make(map[stateKey]*alertState),
		rec:      newRecorder(),
	}, nil
}

// Start schedules the sampling tick. The first sample lands one tick
// from now.
func (m *Monitor) Start() {
	if m == nil || m.ticker != nil {
		return
	}
	m.ticker = m.k.Every(tickInterval, m.tick)
}

// Stop cancels the sampling tick; Start may be called again.
func (m *Monitor) Stop() {
	if m == nil || m.ticker == nil {
		return
	}
	m.ticker.Stop()
	m.ticker = nil
}

// Tick runs one sampling pass immediately; exposed for callers that
// drive the monitor manually (tests, offline evaluation).
func (m *Monitor) Tick() { m.tick(m.k.Now()) }

// Logf tees a log line into the flight recorder's ring. Nil-safe so
// producers can call it unconditionally.
func (m *Monitor) Logf(source, level, format string, args ...any) {
	if m == nil {
		return
	}
	m.rec.log(m.k.Now(), source, level, fmt.Sprintf(format, args...))
}

// Subscribe registers an observer for every firing/resolved transition.
// Subscribers run synchronously inside the monitor tick, in
// subscription order, before a firing's dump is frozen; a subscriber
// that needs to take action (e.g. a remediation supervisor) should
// schedule kernel events rather than mutate the world reentrantly.
// Subscriptions compose, so the live server and the remedy supervisor
// can both observe one monitor.
func (m *Monitor) Subscribe(fn func(AlertEvent)) {
	if m == nil || fn == nil {
		return
	}
	m.subscribers = append(m.subscribers, fn)
}

// Events returns every firing/resolved transition so far, in order.
func (m *Monitor) Events() []AlertEvent {
	return append([]AlertEvent(nil), m.events...)
}

// Dumps returns every flight-recorder dump frozen so far, in firing
// order.
func (m *Monitor) Dumps() []Dump { return append([]Dump(nil), m.dumps...) }

// Active is one currently firing alert.
type Active struct {
	Rule     string
	Severity Severity
	Instance string
	Since    sim.Time
}

// ActiveAlerts lists currently firing alerts in first-fired order.
func (m *Monitor) ActiveAlerts() []Active {
	if m == nil {
		return nil
	}
	var out []Active
	for _, key := range m.stateOrder {
		st := m.states[key]
		if st == nil || !st.firing {
			continue
		}
		out = append(out, Active{
			Rule: key.rule, Severity: m.ruleSeverity(key.rule),
			Instance: key.instance, Since: st.pendingSince,
		})
	}
	return out
}

func (m *Monitor) ruleSeverity(name string) Severity {
	for i := range m.rules.Rules {
		if m.rules.Rules[i].Name == name {
			return m.rules.Rules[i].severity
		}
	}
	return SeverityWarning
}

// tick is one sampling pass: ingest the snapshot, record it, publish
// signals, then evaluate rules. Once the recorder's ring is full, the
// snapshot is written into the points of the slot it is about to
// overwrite, so nothing may read that slot before rec.snapshot replaces
// it; series keep copies of the values, never the points.
func (m *Monitor) tick(now sim.Time) {
	snap := m.reg.AppendSnapshot(m.rec.evicting())
	for _, mp := range snap {
		key := seriesKey{mp.Name, mp.ID}
		inst := m.series[key]
		if inst == nil {
			inst = &instance{
				s:      newSeries(mp.Name, mp.Kind, mp.Labels, seriesDepth),
				id:     mp.ID,
				labels: labelMap(mp.Labels),
			}
			m.series[key] = inst
			m.byMetric[mp.Name] = append(m.byMetric[mp.Name], inst)
		}
		inst.s.push(Point{T: now, V: mp.Value, Sum: float64(mp.Sum), At: mp.At})
	}
	m.rec.snapshot(now, snap)
	m.publishSignals()
	m.evaluate(now)
}

// publishSignals evaluates each derived signal for every matching
// instance and writes the result back into the registry as a gauge, so
// derived series are exported and alertable like any other metric.
// Non-finite results are skipped (a ratio with a zero denominator stays
// at its previous value rather than poisoning the export).
func (m *Monitor) publishSignals() {
	for i := range m.rules.Signals {
		sg := &m.rules.Signals[i]
		if !m.sigHelp[sg.Name] && sg.Help != "" {
			m.reg.Help(sg.Name, sg.Help)
			m.sigHelp[sg.Name] = true
		}
		for _, inst := range m.byMetric[sg.Expr.Metric] {
			if !sg.Expr.matches(inst.labels) {
				continue
			}
			v, ok := m.evalExpr(&sg.Expr, inst)
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			m.reg.Gauge(sg.Name, inst.s.Labels...).Set(v)
		}
	}
}

// evalExpr reduces one instance's window per the expression, applying
// the divisor (evaluated on the same label identity) when present.
func (m *Monitor) evalExpr(e *Expr, inst *instance) (float64, bool) {
	v, ok := m.evalAgg(e, inst)
	if !ok {
		return 0, false
	}
	if e.Divisor != nil {
		div := m.series[seriesKey{e.Divisor.Metric, inst.id}]
		if div == nil {
			return 0, false
		}
		dv, ok := m.evalAgg(e.Divisor, div)
		if !ok {
			return 0, false
		}
		v /= dv // ±Inf/NaN on a zero denominator; callers treat non-finite as "no signal"
	}
	return v, true
}

func (m *Monitor) evalAgg(e *Expr, inst *instance) (float64, bool) {
	switch e.Agg {
	case "", AggValue:
		p, ok := inst.s.Latest()
		return p.V, ok
	case AggRate:
		return inst.s.RateOver(e.window())
	case AggDelta:
		return inst.s.Delta(e.window())
	case AggMax:
		return inst.s.MaxOver(e.window())
	case AggMin:
		return inst.s.MinOver(e.window())
	case AggEWMA:
		return inst.s.EWMA(e.window(), e.Alpha)
	case AggMean:
		return inst.s.MeanOver(e.window())
	}
	return 0, false
}

// evaluate runs every rule against every matching instance and drives
// the inactive → pending → firing → resolved lifecycle.
func (m *Monitor) evaluate(now sim.Time) {
	for i := range m.rules.Rules {
		rule := &m.rules.Rules[i]
		metric, labels := rule.targets()
		for _, inst := range m.byMetric[metric] {
			if !exprLabelsMatch(labels, inst.labels) {
				continue
			}
			holds, value := m.condition(rule, inst, now)
			m.transition(rule, inst, now, holds, value)
		}
	}
}

// targets returns the metric and label constraints the rule matches
// instances against.
func (r *Rule) targets() (string, map[string]string) {
	switch {
	case r.Threshold != nil:
		return r.Threshold.Expr.Metric, r.Threshold.Expr.Labels
	case r.Absence != nil:
		return r.Absence.Metric, r.Absence.Labels
	case r.BurnRate != nil:
		return r.BurnRate.Expr.Metric, r.BurnRate.Expr.Labels
	}
	return "", nil
}

func exprLabelsMatch(want map[string]string, have map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// condition evaluates the rule's condition for one instance. A value
// that cannot be computed (window too short, missing divisor, NaN)
// means the condition does not hold.
func (m *Monitor) condition(rule *Rule, inst *instance, now sim.Time) (bool, float64) {
	switch {
	case rule.Threshold != nil:
		v, ok := m.evalExpr(&rule.Threshold.Expr, inst)
		if !ok || math.IsNaN(v) {
			return false, v
		}
		return rule.Threshold.holds(v), v
	case rule.Absence != nil:
		stale, ok := inst.s.Staleness(now)
		if !ok {
			return false, 0
		}
		sec := float64(stale) / float64(sim.Second)
		return sec >= rule.Absence.StaleSec, sec
	case rule.BurnRate != nil:
		v, ok := m.evalExpr(&rule.BurnRate.Expr, inst)
		if !ok || math.IsNaN(v) {
			return false, v
		}
		burn := v * 3600 / rule.BurnRate.BudgetPerHour
		return burn > rule.BurnRate.MaxBurn, burn
	}
	return false, 0
}

// transition advances one (rule, instance) state machine and emits
// events, freezing a flight-recorder dump on each pending→firing edge.
func (m *Monitor) transition(rule *Rule, inst *instance, now sim.Time, holds bool, value float64) {
	key := stateKey{rule.Name, inst.id}
	st := m.states[key]
	if st == nil {
		if !holds {
			return
		}
		st = &alertState{}
		m.states[key] = st
		m.stateOrder = append(m.stateOrder, key)
	}
	if !holds {
		if st.firing {
			m.emit(AlertEvent{
				At: now, Rule: rule.Name, Severity: rule.severity,
				Instance: inst.id, State: "resolved", Value: value,
			}, nil)
		}
		st.pending, st.firing = false, false
		return
	}
	if !st.pending {
		st.pending, st.pendingSince = true, now
	}
	if !st.firing && now-st.pendingSince >= rule.holdFor() {
		st.firing = true
		ev := AlertEvent{
			At: now, Rule: rule.Name, Severity: rule.severity,
			Instance: inst.id, State: "firing", Value: value,
		}
		m.emit(ev, rule)
	}
}

// emit records the event; on firing it freezes a dump.
func (m *Monitor) emit(ev AlertEvent, fired *Rule) {
	m.events = append(m.events, ev)
	for _, fn := range m.subscribers {
		fn(ev)
	}
	if fired == nil {
		return
	}
	m.dumps = append(m.dumps, Dump{Name: dumpName(ev), Data: m.rec.dump(ev, m.tracer)})
}

// dumpName builds a filesystem-safe dump identifier.
func dumpName(ev AlertEvent) string {
	return fmt.Sprintf("%s--%s--%d", sanitize(ev.Rule), sanitize(ev.Instance), int64(ev.At))
}

func sanitize(s string) string {
	if s == "" {
		return "all"
	}
	var sb strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-' || r == '_' || r == '.':
			sb.WriteRune(r)
		default:
			sb.WriteByte('-')
		}
	}
	return sb.String()
}

// jsonNumber renders a float for hand-built JSON, mapping non-finite
// values to null (JSON has no NaN/Inf literals).
func jsonNumber(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "null"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteAlertLog emits every transition as one JSON object per line, in
// event order — the artifact the determinism contract is checked on.
func (m *Monitor) WriteAlertLog(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, ev := range m.events {
		inst, _ := jsonString(ev.Instance)
		if _, err := fmt.Fprintf(bw,
			`{"sim_ns":%d,"rule":%q,"severity":%q,"instance":%s,"state":%q,"value":%s}`+"\n",
			int64(ev.At), ev.Rule, ev.Severity, inst, ev.State, jsonNumber(ev.Value)); err != nil {
			return err
		}
	}
	return bw.Flush()
}
