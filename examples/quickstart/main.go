// Quickstart: profile a single experiment's site with Patchwork.
//
// This example builds a two-site simulated federation, runs another
// researcher's workload across the first site's switch, and then uses
// Patchwork in single-experiment mode to capture that site's traffic. It
// finishes by digesting the captured pcaps and printing what was seen —
// the same flow a FABRIC user follows with the real tool.
//
// Run with: go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/analysis"
	patchwork "repro/internal/core"
	"repro/internal/pcap"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/testbed"
	"repro/internal/trafficgen"
	"repro/internal/units"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run profiles the site and prints what was captured to w.
func run(w io.Writer) error {
	// A small federation: two sites, a handful of ports each.
	k := sim.NewKernel()
	fed, err := testbed.NewFederation(k, []testbed.SiteSpec{
		{Name: "STAR", Uplinks: 2, Downlinks: 8, DedicatedNICs: 2,
			Cores: 32, RAM: 128 * units.GB, Storage: units.TB},
		{Name: "TACC", Uplinks: 1, Downlinks: 8, DedicatedNICs: 2,
			Cores: 32, RAM: 128 * units.GB, Storage: units.TB},
	})
	if err != nil {
		return err
	}

	// Telemetry (MFlib stand-in) polls every switch.
	store := telemetry.NewStore()
	poller := telemetry.NewPoller(k, store, 30*sim.Second)
	for _, s := range fed.Sites() {
		poller.Watch(s.Switch)
	}
	poller.Start()

	// Someone else's experiment: a bulk-TCP workload crossing STAR.
	profile := trafficgen.MakeSiteProfiles(1, 1)[0]
	gen := trafficgen.NewGenerator(profile, 7)
	driver := patchwork.NewTrafficDriver(k, fed.Site("STAR"), gen, nil)
	driver.Start()

	// Patchwork, single-experiment mode, on the slice's site.
	cfg := patchwork.Config{
		Mode:           patchwork.SingleExperiment,
		Sites:          []string{"STAR"},
		SampleDuration: 5 * sim.Second,
		SampleInterval: 10 * sim.Second,
		SamplesPerRun:  2,
		Runs:           2,
		Seed:           42,
	}
	coord, err := patchwork.NewCoordinator(fed, store, poller, cfg)
	if err != nil {
		return err
	}
	prof, err := coord.Run()
	if err != nil {
		return err
	}
	driver.Stop()
	poller.Stop()

	// Gather + analyze: decompress the bundle and stream each capture
	// through the digester, one sample per pcap.
	b := prof.Bundles[0]
	fmt.Fprintf(w, "site %s: outcome=%v, sampled ports %v\n", b.Site, b.Outcome, b.PortsSampled)
	pcaps, err := b.DecompressPcaps()
	if err != nil {
		return err
	}
	d := analysis.NewDigester(analysis.DigestOptions{})
	for _, raw := range pcaps {
		rd, err := pcap.NewReader(bytes.NewReader(raw))
		if err != nil {
			return err
		}
		if err := d.DigestStream(b.Site, rd); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "captured %d frames across %d pcaps\n", d.Frames(), len(pcaps))
	fmt.Fprintln(w, "header stacks observed:")
	for _, p := range d.EncapCensus() {
		fmt.Fprintf(w, "  %6d  %s\n", p.Frames, p.Pattern)
	}
	return nil
}
