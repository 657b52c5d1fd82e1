package experiments

import (
	patchwork "repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/testbed"
	"repro/internal/trafficgen"
	"repro/internal/units"
)

func init() {
	register("fig10", Fig10)
}

// Fig10 regenerates the deployment-behavior figure: the outcome of many
// scheduled Patchwork runs across the federation under injected failure
// modes — transient back-end outages, dedicated-NIC scarcity (other
// experiments holding the NICs), and the occasional Patchwork crash. The
// paper reports a 79% success rate over a 4-month period, with roughly
// 20% of cases lacking resources and the remainder crashing.
func Fig10(seed uint64) (*Result, error) {
	r := rng.New(seed ^ 0xF10)
	const scheduledRuns = 16 // profiling occasions
	const sitesPerRun = 6

	counts := map[patchwork.Outcome]int{}
	totalSiteRuns := 0

	// Each scheduled run gets a fresh kernel; the shared registry/tracer
	// read sim time through a rebindable clock so observations always
	// stamp against the currently-running kernel.
	var cur *sim.Kernel
	var reg *obs.Registry
	var tracer *obs.Tracer
	if Observe {
		clock := func() sim.Time {
			if cur == nil {
				return 0
			}
			return cur.Now()
		}
		reg = obs.NewRegistry(clock)
		tracer = obs.NewTracer(clock)
	}

	for runIdx := 0; runIdx < scheduledRuns; runIdx++ {
		k := sim.NewKernel()
		cur = k
		specs := make([]testbed.SiteSpec, sitesPerRun)
		for i := range specs {
			specs[i] = testbed.SiteSpec{
				Name: "S" + string(rune('A'+i)), Uplinks: 2, Downlinks: 8,
				DedicatedNICs: 3, Cores: 64, RAM: 256 * units.GB, Storage: 2 * units.TB,
			}
		}
		fed, err := testbed.NewFederation(k, specs)
		if err != nil {
			return nil, err
		}
		fed.SetObs(reg)
		store := telemetry.NewStore()
		poller := telemetry.NewPoller(k, store, 30*sim.Second)
		profiles := trafficgen.MakeSiteProfiles(seed, sitesPerRun)
		var drivers []*patchwork.TrafficDriver
		for i, s := range fed.Sites() {
			poller.Watch(s.Switch)
			gen := trafficgen.NewGenerator(profiles[i], seed+uint64(runIdx*100+i))
			d := patchwork.NewTrafficDriver(k, s, gen, nil)
			d.WindowFrames = 60
			drivers = append(drivers, d)
			d.Start()
		}
		poller.Start()

		// Failure injection, calibrated to the paper's observed mix:
		// ~11% of site-runs hit other experiments holding every dedicated
		// NIC, ~5.5% hit a transient back-end fault, ~1% crash.
		for _, s := range fed.Sites() {
			if r.Bool(0.11) {
				if _, err := s.Allocate(0, testbed.SliceRequest{Name: "hog", VMs: []testbed.VMRequest{
					{DedicatedNICs: s.Spec.DedicatedNICs, Cores: 4, RAM: units.GB, Storage: units.GB},
				}}); err != nil {
					joinDrivers(drivers)
					return nil, err
				}
			}
			if r.Bool(0.055) {
				s.AddOutage(0, sim.Hour)
			}
		}
		cfg := patchwork.Config{
			Mode:             patchwork.AllExperiment,
			SampleDuration:   2 * sim.Second,
			SampleInterval:   4 * sim.Second,
			SamplesPerRun:    2,
			Runs:             2,
			InstancesWanted:  1,
			Seed:             seed + uint64(runIdx),
			CrashProbability: 0.012,
			Obs:              reg,
			Tracer:           tracer,
		}
		coord, err := patchwork.NewCoordinator(fed, store, poller, cfg)
		if err != nil {
			joinDrivers(drivers)
			return nil, err
		}
		prof, err := runToCompletion(k, coord, drivers, poller)
		if err != nil {
			return nil, err
		}
		for o, n := range prof.OutcomeCounts() {
			counts[o] += n
		}
		totalSiteRuns += len(prof.Bundles)
	}

	res := &Result{
		ID:      "fig10",
		Title:   "Behavior of Patchwork across scheduled runs (outcome mix)",
		Header:  []string{"outcome", "site_runs", "percent"},
		Metrics: reg, Trace: tracer,
	}
	for _, o := range []patchwork.Outcome{
		patchwork.OutcomeSuccess, patchwork.OutcomeDegraded,
		patchwork.OutcomeFailed, patchwork.OutcomeIncomplete,
	} {
		res.AddRow(o.String(), counts[o], units.PercentOf(int64(counts[o]), int64(totalSiteRuns)))
	}
	okPct := float64(counts[patchwork.OutcomeSuccess]+counts[patchwork.OutcomeDegraded]) /
		float64(totalSiteRuns) * 100
	res.Notef("paper: Patchwork succeeded in profiling all FABRIC sites in 79%% of cases; ~20%% lacked resources; the rest crashed")
	res.Notef("measured: %.1f%% of %d site-runs completed (success+degraded)", okPct, totalSiteRuns)
	return res, nil
}

// runToCompletion steps the kernel until the coordinator reports done,
// then stops the drivers and poller. It returns only once no harvest or
// window build is still running.
func runToCompletion(k *sim.Kernel, coord *patchwork.Coordinator, drivers []*patchwork.TrafficDriver, poller *telemetry.Poller) (*patchwork.Profile, error) {
	var prof *patchwork.Profile
	var perr error
	finished := false
	defer coord.Wait()
	defer joinDrivers(drivers)
	coord.Start(func(p *patchwork.Profile, err error) { prof, perr = p, err; finished = true })
	for !finished {
		if !k.Step() {
			break
		}
	}
	for _, d := range drivers {
		d.Stop()
	}
	poller.Stop()
	return prof, perr
}

// joinDrivers waits for every driver's in-flight window build.
func joinDrivers(drivers []*patchwork.TrafficDriver) {
	for _, d := range drivers {
		d.Wait()
	}
}
