package repro

import (
	"bytes"
	"testing"

	"repro/internal/analysis"
	patchwork "repro/internal/core"
	"repro/internal/pcap"
	"repro/internal/sim"
	"repro/internal/switchsim"
	"repro/internal/telemetry"
	"repro/internal/testbed"
	"repro/internal/trafficgen"
	"repro/internal/units"
	"repro/internal/wire"
)

// TestFullPipeline drives the complete system end to end: a federation
// with a wired backbone, synthetic workloads, a coordinated profiling
// run, bundle gathering, and the offline analysis phase — asserting the
// paper's qualitative findings along the way.
func TestFullPipeline(t *testing.T) {
	const seed = 4242
	k := sim.NewKernel()
	full := testbed.DefaultFederation(k, seed)
	specs := make([]testbed.SiteSpec, 4)
	for i := range specs {
		specs[i] = full.Sites()[i].Spec
	}
	k = sim.NewKernel()
	fed, err := testbed.NewFederation(k, specs)
	if err != nil {
		t.Fatal(err)
	}
	links := fed.WireBackbone()
	if len(links) == 0 {
		t.Fatal("no backbone links")
	}

	store := telemetry.NewStore()
	poller := telemetry.NewPoller(k, store, 15*sim.Second)
	profiles := trafficgen.MakeSiteProfiles(seed, len(fed.Sites()))
	var drivers []*patchwork.TrafficDriver
	for i, s := range fed.Sites() {
		poller.Watch(s.Switch)
		gen := trafficgen.NewGenerator(profiles[i], seed+uint64(i))
		d := patchwork.NewTrafficDriver(k, s, gen, nil)
		d.WindowFrames = 150
		drivers = append(drivers, d)
		d.Start()
	}
	// Cross-site traffic over the backbone (the multi-site slices of
	// Fig. 3), so uplink ports carry load too.
	xgen := trafficgen.NewGenerator(profiles[0], seed+99)
	xflow := xgen.NewFlow()
	link := links[0]
	xtick := k.Every(200*sim.Millisecond, func(sim.Time) {
		data, err := xgen.BuildFrame(&xflow, trafficgen.DirForward, 1600)
		if err != nil {
			return
		}
		_ = fed.TransitInterSite(link, link.A, switchsim.NewFrame(data))
	})
	poller.Start()

	cfg := patchwork.Config{
		Mode:            patchwork.AllExperiment,
		SampleDuration:  3 * sim.Second,
		SampleInterval:  6 * sim.Second,
		SamplesPerRun:   2,
		Runs:            3,
		InstancesWanted: 1,
		Seed:            seed,
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
	xtick.Stop()
	poller.Stop()

	if prof.SuccessRate() != 1 {
		for _, b := range prof.Bundles {
			t.Logf("%s: %v (%s)", b.Site, b.Outcome, b.FailureReason)
		}
		t.Fatalf("success rate = %v", prof.SuccessRate())
	}

	// Analysis phase over every bundle, one sample per capture.
	d := analysis.NewDigester(analysis.DigestOptions{})
	for _, b := range prof.Bundles {
		pcaps, err := b.DecompressPcaps()
		if err != nil {
			t.Fatal(err)
		}
		if len(pcaps) == 0 {
			t.Fatalf("%s: no captures", b.Site)
		}
		for _, raw := range pcaps {
			rd, err := pcap.NewReader(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if err := d.DigestStream(b.Site, rd); err != nil {
				t.Fatal(err)
			}
		}
	}
	if d.Frames() < 1000 {
		t.Fatalf("only %d frames captured end to end", d.Frames())
	}

	// Paper-shaped assertions on the analyzed profile.
	occ := d.HeaderOccurrence()
	if occ[wire.LayerTypeDot1Q] < 99 {
		t.Errorf("VLAN occurrence = %.1f%%", occ[wire.LayerTypeDot1Q])
	}
	if occ[wire.LayerTypeIPv4] < 50 {
		t.Errorf("IPv4 occurrence = %.1f%%", occ[wire.LayerTypeIPv4])
	}
	if occ[wire.LayerTypeIPv6] > 15 {
		t.Errorf("IPv6 occurrence = %.1f%%, should be minor", occ[wire.LayerTypeIPv6])
	}
	stats := d.SiteHeaderStats()
	if len(stats) != 4 {
		t.Fatalf("sites analyzed = %d", len(stats))
	}
	for _, s := range stats {
		if s.MaxStackDepth < 4 || s.MaxStackDepth > 12 {
			t.Errorf("%s stack depth = %d", s.Site, s.MaxStackDepth)
		}
	}
	census := d.EncapCensus()
	if len(census) < 3 {
		t.Errorf("encapsulation census too small: %v", census)
	}
	flows, err := d.Flows().Aggregates(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) < 10 {
		t.Errorf("flows aggregated = %d", len(flows))
	}
	// Heavy tail: the top flow must dwarf the median flow.
	if flows[0].Bytes < 10*flows[len(flows)/2].Bytes {
		t.Errorf("flow sizes not heavy-tailed: top=%d median=%d",
			flows[0].Bytes, flows[len(flows)/2].Bytes)
	}

	// The backbone link's uplink counters saw the cross-site traffic.
	up := fed.Site(link.A).Switch.Port(link.APort).Counters()
	if up.TxFrames == 0 {
		t.Error("uplink carried no cross-site frames")
	}
}

// TestAnonymizedBundleStillAnalyzes verifies the close-to-source
// anonymization path: frames anonymized before analysis keep their flow
// structure and protocol mix.
func TestAnonymizedBundleStillAnalyzes(t *testing.T) {
	gen := trafficgen.NewGenerator(trafficgen.MakeSiteProfiles(5, 1)[0], 5)
	frames, err := gen.Sample(trafficgen.SampleConfig{MaxFrames: 800, FlowCount: 60})
	if err != nil {
		t.Fatal(err)
	}
	anon := analysis.NewAnonymizer(0x5EC12E7)
	plain := analysis.NewDigester(analysis.DigestOptions{})
	masked := analysis.NewDigester(analysis.DigestOptions{})
	plain.StartSample("S")
	masked.StartSample("S")
	for _, tf := range frames {
		if err := plain.Frame(int64(tf.At), tf.Data, len(tf.Data)); err != nil {
			t.Fatal(err)
		}
		cp := append([]byte(nil), tf.Data...)
		anon.AnonymizeFrame(cp)
		if err := masked.Frame(int64(tf.At), cp, len(cp)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := masked.EndSample(), plain.EndSample(); got != want {
		t.Errorf("anonymization changed flow count: %d != %d", got, want)
	}
	po := plain.HeaderOccurrence()
	mo := masked.HeaderOccurrence()
	for _, lt := range []wire.LayerType{wire.LayerTypeIPv4, wire.LayerTypeTCP, wire.LayerTypeDot1Q} {
		if po[lt] != mo[lt] {
			t.Errorf("%v occurrence changed: %.2f -> %.2f", lt, po[lt], mo[lt])
		}
	}
}

// TestCaptureToAnalysisTruncationConsistency: the profiler's default
// 200-byte truncation keeps the full header stack decodable for the
// overwhelming majority of FABRIC-like traffic.
func TestCaptureToAnalysisTruncationConsistency(t *testing.T) {
	gen := trafficgen.NewGenerator(trafficgen.MakeSiteProfiles(9, 1)[0], 9)
	frames, err := gen.Sample(trafficgen.SampleConfig{MaxFrames: 1500, FlowCount: 100})
	if err != nil {
		t.Fatal(err)
	}
	truncated := 0
	for _, tf := range frames {
		stored := tf.Data
		if len(stored) > 200 {
			stored = stored[:200]
		}
		if analysis.DigestFrame(int64(tf.At), stored, len(tf.Data)).DecodeTruncated {
			truncated++
		}
	}
	if share := float64(truncated) / float64(len(frames)); share > 0.01 {
		t.Errorf("truncated-decode share = %.3f, 200B should cover headers", share)
	}
}

// TestTelemetryMatchesCapture cross-checks substrates: bytes counted by
// switch telemetry on a mirrored port roughly match what the capture
// stored before truncation.
func TestTelemetryMatchesCapture(t *testing.T) {
	k := sim.NewKernel()
	fed, err := testbed.NewFederation(k, []testbed.SiteSpec{{
		Name: "X", Uplinks: 1, Downlinks: 4, DedicatedNICs: 1,
		Cores: 8, RAM: 64 * units.GB, Storage: units.TB,
	}})
	if err != nil {
		t.Fatal(err)
	}
	site := fed.Sites()[0]
	sess, err := site.Switch.StartMirror("P1", switchsim.DirRx, "P2")
	if err != nil {
		t.Fatal(err)
	}
	var delivered int64
	site.Switch.Port("P2").SetReceiver(switchsim.ReceiverFunc(func(_ sim.Time, f switchsim.Frame) {
		delivered += int64(f.Size)
	}))
	var offered int64
	tick := k.Every(10*sim.Millisecond, func(sim.Time) {
		f := switchsim.Frame{Size: 1500}
		offered += 1500
		_ = site.Switch.Transit("P1", switchsim.DirRx, f)
	})
	k.RunUntil(5 * sim.Second)
	tick.Stop()
	k.Run()
	counters := site.Switch.Port("P1").Counters()
	if int64(counters.RxBytes) != offered {
		t.Errorf("telemetry Rx = %d, offered %d", counters.RxBytes, offered)
	}
	if delivered != offered {
		t.Errorf("capture saw %d bytes, offered %d (drops: %d)", delivered, offered, sess.CloneDrops)
	}
}
