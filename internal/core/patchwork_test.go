package patchwork

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/capture"
	"repro/internal/pcap"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/switchsim"
	"repro/internal/telemetry"
	"repro/internal/testbed"
	"repro/internal/trafficgen"
	"repro/internal/units"
)

// testEnv is a small federation with telemetry and traffic.
type testEnv struct {
	k       *sim.Kernel
	fed     *testbed.Federation
	store   *telemetry.Store
	poller  *telemetry.Poller
	drivers []*TrafficDriver
}

func newEnv(t testing.TB, nSites int) *testEnv {
	t.Helper()
	k := sim.NewKernel()
	specs := make([]testbed.SiteSpec, nSites)
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
	store := telemetry.NewStore()
	poller := telemetry.NewPoller(k, store, 30*sim.Second)
	profiles := trafficgen.MakeSiteProfiles(7, nSites)
	env := &testEnv{k: k, fed: fed, store: store, poller: poller}
	for i, s := range fed.Sites() {
		poller.Watch(s.Switch)
		gen := trafficgen.NewGenerator(profiles[i], uint64(100+i))
		d := NewTrafficDriver(k, s, gen, nil)
		d.WindowFrames = 120
		env.drivers = append(env.drivers, d)
		d.Start()
	}
	poller.Start()
	return env
}

func (e *testEnv) stop() {
	for _, d := range e.drivers {
		d.Stop()
	}
	e.poller.Stop()
}

func quickConfig() Config {
	return Config{
		Mode:            AllExperiment,
		SampleDuration:  2 * sim.Second,
		SampleInterval:  4 * sim.Second,
		SamplesPerRun:   2,
		Runs:            3,
		InstancesWanted: 1,
		Seed:            42,
	}
}

func runProfile(t testing.TB, env *testEnv, cfg Config) *Profile {
	t.Helper()
	coord, err := NewCoordinator(env.fed, env.store, env.poller, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var prof *Profile
	var perr error
	finished := false
	coord.Start(func(p *Profile, err error) { prof, perr = p, err; finished = true })
	deadline := env.k.Now() + 2*sim.Hour
	for !finished && env.k.Now() < deadline {
		if !env.k.Step() {
			break
		}
	}
	env.stop()
	env.k.RunUntil(env.k.Now() + sim.Second)
	if !finished {
		t.Fatal("profile did not finish")
	}
	if perr != nil {
		t.Fatalf("profile error: %v", perr)
	}
	return prof
}

func TestEndToEndProfile(t *testing.T) {
	env := newEnv(t, 3)
	prof := runProfile(t, env, quickConfig())
	if len(prof.Bundles) != 3 {
		t.Fatalf("bundles = %d", len(prof.Bundles))
	}
	for _, b := range prof.Bundles {
		if b.Outcome != OutcomeSuccess {
			t.Errorf("%s outcome = %v (%s)", b.Site, b.Outcome, b.FailureReason)
		}
		if len(b.CompressedPcaps) == 0 {
			t.Errorf("%s has no captures", b.Site)
		}
		if len(b.Samples) == 0 {
			t.Errorf("%s has no sample records", b.Site)
		}
		if len(b.Logs) == 0 {
			t.Errorf("%s has no logs", b.Site)
		}
		if len(b.PortsSampled) == 0 {
			t.Errorf("%s sampled no ports", b.Site)
		}
	}
	if prof.SuccessRate() != 1 {
		t.Errorf("success rate = %v", prof.SuccessRate())
	}
	if prof.Finished <= prof.Started {
		t.Error("profile duration not positive")
	}
}

func TestBundlePcapsDecodeAndDigest(t *testing.T) {
	env := newEnv(t, 1)
	prof := runProfile(t, env, quickConfig())
	b := prof.Bundles[0]
	raw, err := b.DecompressPcaps()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Fatal("no pcaps")
	}
	totalFrames := 0
	for _, data := range raw {
		rd, err := pcap.NewReader(strings.NewReader(string(data)))
		if err != nil {
			t.Fatal(err)
		}
		var dec analysis.Decoder
		err = rd.ForEach(func(r *pcap.Record) error {
			rec := dec.Decode(r.TimestampNanos, r.Data, r.OriginalLength)
			if rec.StoredLen > 200 {
				t.Fatalf("record stored %d > truncation 200", rec.StoredLen)
			}
			if len(rec.Stack) == 0 {
				t.Fatal("record with empty stack")
			}
			totalFrames++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if totalFrames == 0 {
		t.Error("no frames captured end to end")
	}
}

func TestModeValidation(t *testing.T) {
	env := newEnv(t, 1)
	defer env.stop()
	cfg := quickConfig()
	cfg.Mode = SingleExperiment
	cfg.Sites = nil
	if _, err := NewCoordinator(env.fed, env.store, env.poller, cfg); err == nil {
		t.Error("single-experiment without sites should fail")
	}
	cfg.Sites = []string{"NOPE"}
	coord, err := NewCoordinator(env.fed, env.store, env.poller, cfg)
	if err != nil {
		t.Fatal(err)
	}
	called := false
	coord.Start(func(p *Profile, err error) {
		called = true
		if err == nil {
			t.Error("unknown site should error")
		}
	})
	if !called {
		t.Error("done not called for bad site")
	}
}

func TestSingleExperimentModeOnlyTouchesSliceSites(t *testing.T) {
	env := newEnv(t, 3)
	cfg := quickConfig()
	cfg.Mode = SingleExperiment
	cfg.Sites = []string{"SITEB"}
	prof := runProfile(t, env, cfg)
	if len(prof.Bundles) != 1 || prof.Bundles[0].Site != "SITEB" {
		t.Errorf("bundles = %+v", prof.Bundles)
	}
}

func TestBackoffDegraded(t *testing.T) {
	env := newEnv(t, 1)
	site := env.fed.Sites()[0]
	// Consume NICs so only 1 of the 3 remains; wanting 2 forces back-off.
	pre, err := site.Allocate(0, testbed.SliceRequest{Name: "other", VMs: []testbed.VMRequest{
		{DedicatedNICs: 2, Cores: 2, RAM: units.GB, Storage: units.GB},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = site.Release(pre) }()
	cfg := quickConfig()
	cfg.InstancesWanted = 2
	prof := runProfile(t, env, cfg)
	b := prof.Bundles[0]
	if b.Outcome != OutcomeDegraded {
		t.Errorf("outcome = %v, want degraded (%s)", b.Outcome, b.FailureReason)
	}
	if b.InstancesGranted != 1 || b.InstancesRequested != 2 {
		t.Errorf("instances = %d/%d", b.InstancesGranted, b.InstancesRequested)
	}
}

func TestNoNICsFails(t *testing.T) {
	env := newEnv(t, 1)
	site := env.fed.Sites()[0]
	if _, err := site.Allocate(0, testbed.SliceRequest{Name: "hog", VMs: []testbed.VMRequest{
		{DedicatedNICs: 3, Cores: 2, RAM: units.GB, Storage: units.GB},
	}}); err != nil {
		t.Fatal(err)
	}
	prof := runProfile(t, env, quickConfig())
	b := prof.Bundles[0]
	if b.Outcome != OutcomeFailed {
		t.Errorf("outcome = %v, want failed", b.Outcome)
	}
	if !strings.Contains(b.FailureReason, "NIC") {
		t.Errorf("reason = %q", b.FailureReason)
	}
}

func TestBackendOutageFails(t *testing.T) {
	env := newEnv(t, 1)
	env.fed.Sites()[0].AddOutage(0, sim.Hour)
	prof := runProfile(t, env, quickConfig())
	b := prof.Bundles[0]
	if b.Outcome != OutcomeFailed {
		t.Errorf("outcome = %v, want failed", b.Outcome)
	}
	if !strings.Contains(b.FailureReason, "backend") {
		t.Errorf("reason = %q", b.FailureReason)
	}
}

func TestCrashInjectionIncomplete(t *testing.T) {
	env := newEnv(t, 1)
	cfg := quickConfig()
	cfg.CrashProbability = 1
	prof := runProfile(t, env, cfg)
	b := prof.Bundles[0]
	if b.Outcome != OutcomeIncomplete {
		t.Errorf("outcome = %v, want incomplete", b.Outcome)
	}
}

func TestStorageWatchdog(t *testing.T) {
	env := newEnv(t, 1)
	cfg := quickConfig()
	cfg.StorageLimitBytes = 1024 // absurdly small: watchdog must fire
	prof := runProfile(t, env, cfg)
	b := prof.Bundles[0]
	if b.Outcome != OutcomeIncomplete {
		t.Errorf("outcome = %v, want incomplete (out of storage)", b.Outcome)
	}
	if !strings.Contains(b.FailureReason, "storage") {
		t.Errorf("reason = %q", b.FailureReason)
	}
}

func TestResourcesReleasedAfterRun(t *testing.T) {
	env := newEnv(t, 1)
	site := env.fed.Sites()[0]
	before := site.FreeDedicatedNICs()
	_ = runProfile(t, env, quickConfig())
	if site.FreeDedicatedNICs() != before {
		t.Errorf("NICs leaked: %d -> %d", before, site.FreeDedicatedNICs())
	}
	if site.ActiveSlivers() != 0 {
		t.Errorf("slivers leaked: %d", site.ActiveSlivers())
	}
}

func TestPortCyclingCoversMultiplePorts(t *testing.T) {
	env := newEnv(t, 1)
	cfg := quickConfig()
	cfg.Runs = 6
	prof := runProfile(t, env, cfg)
	b := prof.Bundles[0]
	// 6 cycles with 2 egress ports should touch more ports than a single
	// cycle could.
	if len(b.PortsSampled) <= 2 {
		t.Errorf("ports sampled = %v, cycling ineffective", b.PortsSampled)
	}
}

func TestCongestionDetection(t *testing.T) {
	// Saturate one port far beyond the egress line rate and verify the
	// congestion detector flags the sample.
	k := sim.NewKernel()
	fed, err := testbed.NewFederation(k, []testbed.SiteSpec{{
		Name: "HOT", Uplinks: 1, Downlinks: 6, DedicatedNICs: 1,
		Cores: 16, RAM: 64 * units.GB, Storage: units.TB,
		LineRate: 10 * units.Mbps, // tiny line rate: easy to exceed
	}})
	if err != nil {
		t.Fatal(err)
	}
	store := telemetry.NewStore()
	poller := telemetry.NewPoller(k, store, sim.Second)
	site := fed.Sites()[0]
	poller.Watch(site.Switch)
	poller.Start()
	// Blast P1 with both directions at ~4x line rate.
	blast := k.Every(10*sim.Millisecond, func(sim.Time) {
		f := switchsim.Frame{Size: 50000}
		_ = site.Switch.Transit("P1", switchsim.DirBoth, f)
	})
	_ = blast
	cfg := quickConfig()
	cfg.Selector = &FixedSelector{Ports: []string{"P1"}}
	coord, err := NewCoordinator(fed, store, poller, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var prof *Profile
	finished := false
	coord.Start(func(p *Profile, err error) {
		if err != nil {
			t.Errorf("profile error: %v", err)
		}
		prof, finished = p, true
	})
	for !finished {
		if !k.Step() {
			t.Fatal("stalled")
		}
	}
	blast.Stop()
	b := prof.Bundles[0]
	if len(b.Congestion) == 0 {
		t.Error("no congestion events detected on saturated mirror")
	}
	for _, ev := range b.Congestion {
		if ev.OfferedBps <= ev.CapacityBps {
			t.Errorf("event offered %v <= capacity %v", ev.OfferedBps, ev.CapacityBps)
		}
	}
}

func TestSelectorKinds(t *testing.T) {
	env := newEnv(t, 1)
	defer env.stop()
	site := env.fed.Sites()[0]
	env.k.RunUntil(2 * sim.Minute) // accumulate telemetry
	ctx := &SelectContext{
		Site: site, Store: env.store,
		Candidates: site.Switch.PortNames()[:8],
		History:    map[string]int{},
		Cycle:      0, Want: 2,
		Rand:   rng.New(1),
		Window: 2 * sim.Minute,
	}
	bb := (&BusiestBiasSelector{N: 3}).SelectPorts(ctx)
	if len(bb) == 0 || len(bb) > 2 {
		t.Errorf("busiest-bias = %v", bb)
	}
	fx := (&FixedSelector{Ports: []string{"P3", "P4", "P9"}}).SelectPorts(ctx)
	if len(fx) != 2 || fx[0] != "P3" || fx[1] != "P4" {
		t.Errorf("fixed = %v", fx)
	}
	up := (&UplinkSelector{}).SelectPorts(ctx)
	for _, p := range up {
		if !strings.HasPrefix(p, "U") {
			t.Errorf("uplink selector chose %v", up)
		}
	}
	all0 := (&AllPortsSelector{}).SelectPorts(ctx)
	ctx.Cycle = 1
	all1 := (&AllPortsSelector{}).SelectPorts(ctx)
	if len(all0) != 2 || len(all1) != 2 || all0[0] == all1[0] {
		t.Errorf("all-ports rotation: %v then %v", all0, all1)
	}
}

func TestBusiestBiasFairness(t *testing.T) {
	// Over many cycles the heuristic must not starve the less-busy port.
	env := newEnv(t, 1)
	defer env.stop()
	site := env.fed.Sites()[0]
	env.k.RunUntil(3 * sim.Minute)
	hist := map[string]int{}
	counts := map[string]int{}
	sel := &BusiestBiasSelector{N: 3}
	r := rng.New(9)
	for cycle := 0; cycle < 30; cycle++ {
		ctx := &SelectContext{
			Site: site, Store: env.store,
			Candidates: site.Switch.PortNames()[:8],
			History:    hist, Cycle: cycle, Want: 1,
			Rand: r, Window: 3 * sim.Minute,
		}
		ports := sel.SelectPorts(ctx)
		for _, p := range ports {
			hist[p] = cycle
			counts[p]++
		}
	}
	if len(counts) < 2 {
		t.Errorf("selection concentrated on %v", counts)
	}
}

func TestOutcomeAndModeStrings(t *testing.T) {
	if OutcomeSuccess.String() != "success" || OutcomeIncomplete.String() != "incomplete" {
		t.Error("outcome names")
	}
	if AllExperiment.String() != "all-experiment" || SingleExperiment.String() != "single-experiment" {
		t.Error("mode names")
	}
	if !strings.Contains((LogEvent{At: 0, Level: LevelWarn, Message: "x"}).String(), "warn x") {
		t.Error("log event format")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.SampleDuration != 20*sim.Second || cfg.SampleInterval != 5*sim.Minute {
		t.Errorf("sampling defaults = %v/%v", cfg.SampleDuration, cfg.SampleInterval)
	}
	if cfg.TruncateBytes != 200 {
		t.Errorf("truncation default = %d", cfg.TruncateBytes)
	}
	if cfg.Method != capture.MethodTcpdump {
		t.Errorf("method default = %v", cfg.Method)
	}
	bad := Config{CrashProbability: 2}
	if err := bad.Validate(); err == nil {
		t.Error("bad crash probability should fail validation")
	}
}
