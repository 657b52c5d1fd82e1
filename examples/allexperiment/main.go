// All-experiment mode: the standing testbed-wide profile.
//
// This example reproduces Patchwork's weekly deployment: it builds a
// six-site federation, runs a different research workload at every site,
// profiles all of them simultaneously in all-experiment mode (the mode
// that requires the testbed operator's discretionary permission), then
// runs the full offline analysis pipeline over the gathered bundles and
// prints a miniature network profile — header occurrence, frame sizes,
// and per-site diversity.
//
// Run with: go run ./examples/allexperiment
package main

import (
	"bytes"
	"fmt"
	"log"
	"sort"

	"repro/internal/analysis"
	patchwork "repro/internal/core"
	"repro/internal/pcap"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/testbed"
	"repro/internal/trafficgen"
	"repro/internal/units"
	"repro/internal/wire"
)

func main() {
	const seed = 11

	// Federation: the first six sites of the default 28-site layout.
	k := sim.NewKernel()
	full := testbed.DefaultFederation(k, seed)
	specs := make([]testbed.SiteSpec, 6)
	for i := range specs {
		specs[i] = full.Sites()[i].Spec
	}
	k = sim.NewKernel()
	fed, err := testbed.NewFederation(k, specs)
	if err != nil {
		log.Fatal(err)
	}

	store := telemetry.NewStore()
	poller := telemetry.NewPoller(k, store, 30*sim.Second)
	profiles := trafficgen.MakeSiteProfiles(seed, len(fed.Sites()))
	var drivers []*patchwork.TrafficDriver
	for i, s := range fed.Sites() {
		poller.Watch(s.Switch)
		gen := trafficgen.NewGenerator(profiles[i], seed+uint64(i))
		d := patchwork.NewTrafficDriver(k, s, gen, nil)
		d.WindowFrames = 200
		drivers = append(drivers, d)
		d.Start()
	}
	poller.Start()

	cfg := patchwork.Config{
		Mode:           patchwork.AllExperiment,
		SampleDuration: 4 * sim.Second,
		SampleInterval: 8 * sim.Second,
		SamplesPerRun:  2,
		Runs:           3,
		Seed:           seed,
	}
	coord, err := patchwork.NewCoordinator(fed, store, poller, cfg)
	if err != nil {
		log.Fatal(err)
	}
	prof, err := coord.Run()
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range drivers {
		d.Stop()
	}
	poller.Stop()

	fmt.Printf("profiled %d sites, success rate %.0f%%\n\n",
		len(prof.Bundles), prof.SuccessRate()*100)

	// Analysis phase: stream every bundle's pcaps through one digester.
	d := analysis.NewDigester(analysis.DigestOptions{})
	for _, b := range prof.Bundles {
		pcaps, err := b.DecompressPcaps()
		if err != nil {
			log.Fatal(err)
		}
		for _, raw := range pcaps {
			rd, err := pcap.NewReader(bytes.NewReader(raw))
			if err != nil {
				log.Fatal(err)
			}
			if err := d.DigestStream(b.Site, rd); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Header occurrence (the Fig. 12 view).
	fmt.Println("header occurrence (% of frames):")
	occ := d.HeaderOccurrence()
	type hv struct {
		t   wire.LayerType
		pct float64
	}
	var hvs []hv
	for t, p := range occ {
		hvs = append(hvs, hv{t, p})
	}
	sort.Slice(hvs, func(i, j int) bool { return hvs[i].pct > hvs[j].pct })
	for _, h := range hvs {
		fmt.Printf("  %-14s %6.2f%%\n", h.t, h.pct)
	}

	// Frame sizes (the Section 8.2 aggregate view).
	fmt.Println("\nframe sizes:")
	for i, c := range d.FrameSizeHist() {
		if c == 0 {
			continue
		}
		fmt.Printf("  %-10s %6s\n", analysis.FrameSizeBucketLabel(i),
			units.PercentOf(int64(c), int64(d.Frames())))
	}

	// Per-site diversity (the Fig. 11 view).
	fmt.Println("\nper-site header diversity:")
	for _, s := range d.SiteHeaderStats() {
		fmt.Printf("  %-8s %2d distinct headers, deepest stack %d (over %d frames)\n",
			s.Site, s.DistinctHeaders, s.MaxStackDepth, s.Frames)
	}
}
