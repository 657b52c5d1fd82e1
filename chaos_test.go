package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	patchwork "repro/internal/core"
	"repro/internal/faults"
	"repro/internal/health"
	"repro/internal/hostsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/testbed"
	"repro/internal/trafficgen"
	"repro/internal/units"
)

// hostilePlan exercises every fault kind at once: a flaky allocator and
// corrupted mirror table at SITEA, a hard outage plus slow storage at
// SITEB, and a flapping port plus capture-core stalls at SITEC.
const hostilePlan = `{
  "name": "hostile",
  "allocator_transients": [{"site": "SITEA", "rate": 0.4, "from_sec": 0, "to_sec": 30}],
  "site_outages":         [{"site": "SITEB", "from_sec": 1, "to_sec": 8}],
  "port_flaps":           [{"site": "SITEC", "port": "P1", "at_sec": 5, "down_sec": 3, "repeat": 2, "every_sec": 10}],
  "mirror_corruptions":   [{"site": "SITEA", "rate": 0.05}],
  "storage_slowdowns":    [{"site": "SITEB", "factor": 3}],
  "capture_stalls":       [{"site": "SITEC", "rate": 0.1, "stall_sec": 0.002}]
}`

// chaosArtifacts is what one chaos campaign leaves behind for
// assertions: the exported metrics, the injection summary, and the
// health monitor's alert log and flight-recorder dumps.
type chaosArtifacts struct {
	metrics  []byte
	summary  string
	alertLog []byte
	events   []health.AlertEvent
	dumps    []health.Dump
}

// chaosRun executes one full profiling campaign under the hostile plan
// — with the bundled health rules watching it — and returns the profile
// plus every artifact. Everything — kernel, federation, traffic,
// registry, monitor — is rebuilt from scratch so consecutive calls
// share no state.
func chaosRun(t *testing.T, seed uint64) (*patchwork.Profile, chaosArtifacts) {
	t.Helper()
	k := sim.NewKernel()
	specs := make([]testbed.SiteSpec, 3)
	for i := range specs {
		specs[i] = testbed.SiteSpec{
			Name: "SITE" + string(rune('A'+i)), Uplinks: 2, Downlinks: 10,
			DedicatedNICs: 3, Cores: 64, RAM: 256 * units.GB, Storage: 2 * units.TB,
		}
	}
	fed, err := testbed.NewFederation(k, specs)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewKernelRegistry(k)
	fed.SetObs(reg)

	plan, err := faults.Parse([]byte(hostilePlan))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := faults.NewEngine(k, seed, plan)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetObs(reg)
	if err := eng.Arm(fed); err != nil {
		t.Fatal(err)
	}

	tracer := obs.NewKernelTracer(k)
	monitor, err := health.NewMonitor(k, reg, tracer, health.DefaultRules())
	if err != nil {
		t.Fatal(err)
	}
	monitor.Start()

	store := telemetry.NewStore()
	poller := telemetry.NewPoller(k, store, 15*sim.Second)
	profiles := trafficgen.MakeSiteProfiles(seed, len(fed.Sites()))
	var drivers []*patchwork.TrafficDriver
	for i, s := range fed.Sites() {
		poller.Watch(s.Switch)
		gen := trafficgen.NewGenerator(profiles[i], seed+uint64(i))
		d := patchwork.NewTrafficDriver(k, s, gen, nil)
		d.WindowFrames = 120
		drivers = append(drivers, d)
		d.Start()
	}
	poller.Start()

	cfg := patchwork.Config{
		Mode:            patchwork.AllExperiment,
		SampleDuration:  2 * sim.Second,
		SampleInterval:  4 * sim.Second,
		SamplesPerRun:   2,
		Runs:            3,
		InstancesWanted: 1,
		Seed:            seed,
		Obs:             reg,
		Tracer:          tracer,
		Faults:          eng,
		Storage:         &hostsim.Config{},
		LogSink:         monitor,
	}
	coord, err := patchwork.NewCoordinator(fed, store, poller, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range drivers {
		d.Stop()
	}
	poller.Stop()
	monitor.Stop()

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var alerts bytes.Buffer
	if err := monitor.WriteAlertLog(&alerts); err != nil {
		t.Fatal(err)
	}
	return prof, chaosArtifacts{
		metrics:  buf.Bytes(),
		summary:  eng.Summary(),
		alertLog: alerts.Bytes(),
		events:   monitor.Events(),
		dumps:    monitor.Dumps(),
	}
}

// TestChaosExperimentSurvivesHostilePlan: a full experiment under the
// hostile plan must still complete, with every site accounted for and
// data loss bounded — adversity costs samples, not the campaign.
func TestChaosExperimentSurvivesHostilePlan(t *testing.T) {
	prof, art := chaosRun(t, 11)
	summary := art.summary
	if len(prof.Bundles) != 3 {
		t.Fatalf("bundles = %d, want 3", len(prof.Bundles))
	}
	var captured, dropped int64
	sitesWithData := 0
	for _, b := range prof.Bundles {
		t.Logf("%s: %v granted=%d/%d pcaps=%d (%s)",
			b.Site, b.Outcome, b.InstancesGranted, b.InstancesRequested,
			len(b.CompressedPcaps), b.FailureReason)
		// The watchdog outcome would mean the platform itself crashed; the
		// plan must only be able to cost resources, never crash the run.
		if b.Outcome == patchwork.OutcomeIncomplete {
			t.Errorf("%s: hostile plan crashed the run: %s", b.Site, b.FailureReason)
		}
		if len(b.CompressedPcaps) > 0 {
			sitesWithData++
		}
		for _, s := range b.Samples {
			captured += s.Frames
			dropped += s.DroppedAtNIC + int64(s.CloneDrops)
		}
	}
	if sitesWithData < 2 {
		t.Errorf("only %d/3 sites produced captures under the plan", sitesWithData)
	}
	if captured == 0 {
		t.Fatal("no frames captured under the hostile plan")
	}
	// Bounded data loss: the plan's drop faults (mirror corruption, port
	// flaps, stalls) must not cost more than half the offered frames.
	if dropped > captured {
		t.Errorf("unbounded loss: %d dropped vs %d captured", dropped, captured)
	}
	// The outage at SITEB overlaps its setup; the retry loop must have
	// carried it through rather than failing the site.
	for _, b := range prof.Bundles {
		if b.Site == "SITEB" && b.Outcome == patchwork.OutcomeFailed {
			t.Errorf("SITEB failed despite a recoverable 7s outage: %s", b.FailureReason)
		}
	}
	if summary == "" {
		t.Error("engine injected nothing under the hostile plan")
	}
	t.Logf("faults injected: %s", summary)
}

// TestChaosDeterminism: the fault plan is part of the experiment's
// replayable input — two runs with the same seed must export
// byte-identical metrics and identical injection summaries, and a
// different seed must diverge.
func TestChaosDeterminism(t *testing.T) {
	_, a1 := chaosRun(t, 11)
	_, a2 := chaosRun(t, 11)
	if !bytes.Equal(a1.metrics, a2.metrics) {
		t.Errorf("same seed, different metrics (lens %d vs %d)", len(a1.metrics), len(a2.metrics))
	}
	if a1.summary != a2.summary {
		t.Errorf("same seed, different injections: %q vs %q", a1.summary, a2.summary)
	}
	// The health pipeline inherits the same contract: byte-identical
	// alert logs and flight-recorder dumps for the same seed.
	if !bytes.Equal(a1.alertLog, a2.alertLog) {
		t.Errorf("same seed, different alert logs:\n%s\nvs\n%s", a1.alertLog, a2.alertLog)
	}
	if len(a1.dumps) != len(a2.dumps) {
		t.Fatalf("same seed, different dump counts: %d vs %d", len(a1.dumps), len(a2.dumps))
	}
	for i := range a1.dumps {
		if a1.dumps[i].Name != a2.dumps[i].Name || !bytes.Equal(a1.dumps[i].Data, a2.dumps[i].Data) {
			t.Errorf("same seed, dump %d differs (%s vs %s)", i, a1.dumps[i].Name, a2.dumps[i].Name)
		}
	}
	_, a3 := chaosRun(t, 12)
	if bytes.Equal(a1.metrics, a3.metrics) {
		t.Error("different seeds produced identical metrics — faults not seed-driven")
	}
}

// TestChaosAlertsFire: under the hostile plan the bundled default rules
// must notice at least three distinct failure classes — the corrupted
// mirror's drop ratio at SITEA, capture listeners going quiet between
// cycles, and SITEB's degraded storage — and each firing must freeze a
// flight-recorder dump whose window covers the moment the rule fired.
func TestChaosAlertsFire(t *testing.T) {
	_, art := chaosRun(t, 11)

	fired := map[string][]health.AlertEvent{}
	for _, ev := range art.events {
		if ev.State == "firing" {
			fired[ev.Rule] = append(fired[ev.Rule], ev)
		}
	}
	t.Logf("alert log:\n%s", art.alertLog)
	if len(fired) < 3 {
		t.Fatalf("only %d distinct rules fired (%v), want >= 3", len(fired), ruleNames(fired))
	}
	for _, want := range []string{"mirror-drop-ratio", "listener-stale", "storage-write-latency"} {
		if len(fired[want]) == 0 {
			t.Errorf("rule %q did not fire under the hostile plan", want)
		}
	}
	// The storage alert must come from the site whose storage the plan
	// degrades, and the mirror alert from the corrupted mirror's site.
	for _, ev := range fired["storage-write-latency"] {
		if !strings.Contains(ev.Instance, "site=SITEB") {
			t.Errorf("storage alert on %q, want SITEB", ev.Instance)
		}
	}
	for _, ev := range fired["mirror-drop-ratio"] {
		if !strings.Contains(ev.Instance, "switch=SITEA") {
			t.Errorf("mirror alert on %q, want SITEA", ev.Instance)
		}
	}

	// Every firing froze a dump; each dump's header window must cover
	// its own firing instant, and the dump must carry metric snapshots.
	byName := map[string]health.Dump{}
	for _, d := range art.dumps {
		byName[d.Name] = d
	}
	firings := 0
	for _, evs := range fired {
		firings += len(evs)
		for _, ev := range evs {
			name := dumpNameFor(ev)
			d, ok := byName[name]
			if !ok {
				t.Errorf("no dump for firing %s/%s at %v", ev.Rule, ev.Instance, ev.At)
				continue
			}
			var header struct {
				Type   string `json:"type"`
				Rule   string `json:"rule"`
				FromNs int64  `json:"window_from_ns"`
				ToNs   int64  `json:"window_to_ns"`
			}
			first := d.Data[:bytes.IndexByte(d.Data, '\n')]
			if err := json.Unmarshal(first, &header); err != nil {
				t.Fatalf("dump %s header: %v", name, err)
			}
			if header.Type != "alert" || header.Rule != ev.Rule {
				t.Errorf("dump %s header wrong: %+v", name, header)
			}
			if header.FromNs >= header.ToNs || header.ToNs != int64(ev.At) {
				t.Errorf("dump %s window [%d,%d] does not cover firing at %d",
					name, header.FromNs, header.ToNs, int64(ev.At))
			}
			if !bytes.Contains(d.Data, []byte(`"type":"metrics"`)) {
				t.Errorf("dump %s has no metric snapshots", name)
			}
		}
	}
	if len(art.dumps) != firings {
		t.Errorf("dumps = %d, firings = %d; want one dump per firing", len(art.dumps), firings)
	}
}

// ruleNames lists the fired rules for diagnostics.
func ruleNames(fired map[string][]health.AlertEvent) []string {
	var names []string
	for n := range fired {
		names = append(names, n)
	}
	return names
}

// dumpNameFor reproduces the monitor's dump naming so the test can pair
// firings with dumps without exporting internals.
func dumpNameFor(ev health.AlertEvent) string {
	inst := ev.Instance
	if inst == "" {
		inst = "all"
	}
	var sb strings.Builder
	for _, r := range inst {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-' || r == '_' || r == '.':
			sb.WriteRune(r)
		default:
			sb.WriteByte('-')
		}
	}
	return fmt.Sprintf("%s--%s--%d", ev.Rule, sb.String(), int64(ev.At))
}

// TestChaosParallelCampaigns runs two full chaos campaigns concurrently
// — each building its own kernel, federation, fault engine, registry,
// and monitor — and requires both to be byte-identical to a serial run
// of the same seed. Under `go test -race` this permanently gates the
// parallel experiment harness's core assumption: simulations sharing a
// process share no mutable package-level state.
func TestChaosParallelCampaigns(t *testing.T) {
	_, want := chaosRun(t, 11)
	arts := make([]chaosArtifacts, 2)
	t.Run("concurrent", func(t *testing.T) {
		for i := range arts {
			i := i
			t.Run(fmt.Sprintf("campaign%d", i), func(t *testing.T) {
				t.Parallel()
				_, arts[i] = chaosRun(t, 11)
			})
		}
	})
	for i, art := range arts {
		if !bytes.Equal(art.metrics, want.metrics) {
			t.Errorf("campaign %d: metrics differ from serial run (lens %d vs %d)",
				i, len(art.metrics), len(want.metrics))
		}
		if art.summary != want.summary {
			t.Errorf("campaign %d: injection summary differs: %q vs %q", i, art.summary, want.summary)
		}
		if !bytes.Equal(art.alertLog, want.alertLog) {
			t.Errorf("campaign %d: alert log differs from serial run", i)
		}
	}
}
