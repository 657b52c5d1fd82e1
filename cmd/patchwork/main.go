// Command patchwork runs a profiling campaign on the simulated FABRIC
// federation: it builds the testbed, drives synthetic research workloads
// across its sites, runs the Patchwork coordinator (single- or
// all-experiment mode), and writes the gathered captures and logs to an
// output directory.
//
// Every run is a journaled campaign (internal/campaign): the health
// monitor runs beside the profiler, listeners model their storage, and
// every deployment mutation lands in the journal, so a run killed at an
// injected crash point (exit 3) resumes where it died.
//
// Usage:
//
//	patchwork -mode all [-sites STAR,TACC] [-runs 4] [-out profile/]
//	patchwork -mode single -sites NCSA -out myslice/
//	patchwork -watch -faults plan.json -federation-sites 3 -watch-sec 30
//	patchwork -remedy -faults plan.json -out out/
//	patchwork -resume out/journal -out out/        # after a crash (exit 3)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/campaign"
	patchwork "repro/internal/core"
	"repro/internal/faults"
	"repro/internal/health"
	"repro/internal/livemon"
	"repro/internal/obs"
	"repro/internal/remedy"
	"repro/internal/sim"
	"repro/internal/storefault"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, runs (or resumes) the campaign and
// writes its artifacts. It returns the process exit code: 0 on
// completion, 3 on a crash-point abort (resume the journal directory
// to continue), 1 on error, 2 on a bad command line.
func run(args []string, stdout, stderr io.Writer) int {
	var (
		spec campaign.Spec
		exec campaign.Exec
	)
	fl := flag.NewFlagSet("patchwork", flag.ContinueOnError)
	fl.SetOutput(stderr)
	fl.StringVar(&spec.Mode, "mode", "all", `"all" (all-experiment) or "single" (single-experiment)`)
	fl.Func("sites", "comma-separated site list (required for -mode single)", func(v string) error {
		spec.Sites = strings.Split(v, ",")
		return nil
	})
	fl.IntVar(&spec.Runs, "runs", 3, "port-cycling runs per site")
	fl.IntVar(&spec.Samples, "samples", 2, "samples per run")
	fl.IntVar(&spec.SampleSec, "sample-sec", 5, "sample duration in (virtual) seconds")
	fl.StringVar(&spec.Method, "method", "tcpdump", "capture method: tcpdump|dpdk|fpga")
	fl.IntVar(&spec.TruncateBytes, "truncate", 200, "stored snap length in bytes")
	fl.Uint64Var(&spec.Seed, "seed", 1, "deterministic seed")
	fl.IntVar(&spec.FederationSites, "federation-sites", 6, "number of sites in the simulated federation")
	fl.BoolVar(&spec.Nice, "nice", false, "enable runtime footprint scaling (the nice-factor extension)")
	fl.IntVar(&spec.CheckpointSec, "checkpoint-sec", 60, "checkpoint cadence in (virtual) seconds")
	faultPlan := fl.String("faults", "", "JSON fault plan to inject during the run (see internal/faults)")
	healthRules := fl.String("health-rules", "", "alert rule JSON for the health monitor (default: bundled rules)")
	remedyOn := fl.Bool("remedy", false, "run the self-healing remediation supervisor")
	remedyPol := fl.String("remedy-policy", "", "remediation policy JSON (default: bundled policy; implies -remedy)")

	fl.IntVar(&exec.Lanes, "lanes", 1, "shard the dataplane into this many parallel per-site lanes (output is byte-identical at any lane count)")
	fl.IntVar(&exec.Workers, "lane-workers", 0, "worker goroutines for -lanes (0 = min(lanes, GOMAXPROCS))")
	fl.BoolVar(&exec.Profile, "profile", false, "profile the lane scheduler's wall clock into <out>/prof/lane-trace.json and lane-summary.json (requires -lanes > 1)")
	provOn := fl.Bool("provenance", false, "record the causal event DAG to <out>/prof/provenance.trace (analyze with pwprof)")
	storeChaos := fl.String("store-chaos", "", "storage fault-injection plan JSON; seeded by -seed, injection log lands in <out>/storefault.jsonl")

	out := fl.String("out", "patchwork-out", "output directory")
	journalDir := fl.String("journal", "", "campaign journal directory (default <out>/journal)")
	resume := fl.String("resume", "", "resume the campaign journaled in this directory")
	noKill := fl.Bool("no-kill", false, "journal injected crash points without honoring them (baseline run)")
	metrics := fl.String("metrics", "", "write platform metrics to this file (.prom, .jsonl, or .csv by extension)")
	trace := fl.String("trace", "", "write span trace JSONL to this file")
	watch := fl.Bool("watch", false, "print the live per-site health status table during the run")
	watchSec := fl.Int("watch-sec", 60, "status table cadence in (virtual) seconds with -watch")
	serveAddr := fl.String("serve", "", `serve live telemetry (metrics/status/SSE) on this address (":0" for an ephemeral port; bound address lands in <out>/livemon/addr)`)
	servePprof := fl.Bool("serve-pprof", false, "also mount /debug/pprof/ on the telemetry server")
	serveHold := fl.Bool("serve-hold", false, "keep serving after the run finishes until SIGINT/SIGTERM")
	if err := fl.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// The campaign fills a zero field with its default, so an explicit
	// zero would silently run something else.
	bad := false
	fl.Visit(func(f *flag.Flag) {
		if nonZeroFlags[f.Name] && f.Value.String() == "0" {
			fmt.Fprintf(stderr, "patchwork: -%s 0 would become the default %s; give a nonzero value\n", f.Name, f.DefValue)
			bad = true
		}
	})
	if bad {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "patchwork:", err)
		return 1
	}
	if exec.Profile && exec.Lanes <= 1 {
		return fail(errors.New("-profile measures the lane scheduler; it requires -lanes > 1"))
	}
	if *watch && *watchSec < 1 {
		return fail(errors.New("-watch-sec must be at least 1"))
	}
	if *provOn {
		exec.ProvenancePath = filepath.Join(*out, "prof", "provenance.trace")
	}
	// A resumed campaign rebuilds its world from the journal manifest, so
	// the spec flags only shape a fresh run.
	if *resume == "" {
		spec.IntervalSec = 2 * spec.SampleSec
		if *faultPlan != "" {
			plan, err := faults.Load(*faultPlan)
			if err != nil {
				return fail(err)
			}
			spec.Faults = &plan
		}
		if *healthRules != "" {
			data, err := os.ReadFile(*healthRules)
			if err != nil {
				return fail(err)
			}
			spec.HealthRules = json.RawMessage(data)
		}
		if *remedyOn || *remedyPol != "" {
			pol := remedy.DefaultPolicy()
			if *remedyPol != "" {
				var err error
				if pol, err = remedy.LoadPolicy(*remedyPol); err != nil {
					return fail(err)
				}
			}
			spec.Remedy = &pol
		}
	}

	var live *livemon.Server
	var holdSig chan os.Signal
	if *serveAddr != "" {
		var err error
		if live, holdSig, err = newLiveServer(*out, *serveAddr, *servePprof, *serveHold); err != nil {
			return fail(err)
		}
		defer live.Close()
	}
	hold := func() {
		if live != nil && *serveHold {
			holdServe(live, holdSig)
		}
	}
	// The nil-interface trap: passing a typed nil *livemon.Server as a
	// campaign.LiveSink would make the campaign's != nil check true.
	var sink campaign.LiveSink
	if live != nil {
		sink = live
	}
	if *watch {
		every := sim.Duration(*watchSec) * sim.Second
		sink = &statusPrinter{w: stdout, every: every, live: live, next: sim.Time(every)}
	}

	// Storage chaos: every journal write goes through the fault-injecting
	// filesystem. Seeded by the campaign seed, so a rerun with the same
	// plan replays the same injections; the log is the receipt.
	if *storeChaos != "" {
		plan, err := storefault.Load(*storeChaos)
		if err != nil {
			return fail(err)
		}
		chaos, err := storefault.NewChaos(nil, spec.Seed, plan)
		if err != nil {
			return fail(err)
		}
		exec.FS = chaos
		defer func() {
			if err := writeChaosLog(*out, chaos); err != nil {
				fmt.Fprintln(stderr, "patchwork:", err)
			} else {
				fmt.Fprintf(stdout, "storage chaos: %s (log in %s)\n",
					chaos.Summary(), filepath.Join(*out, "storefault.jsonl"))
			}
		}()
	}

	var res *campaign.Result
	var err error
	if *resume != "" {
		res, err = campaign.ResumeExecLive(*resume, !*noKill, exec, sink)
	} else {
		dir := *journalDir
		if dir == "" {
			dir = filepath.Join(*out, "journal")
		}
		res, err = campaign.RunExecLive(spec, dir, !*noKill, exec, sink)
	}
	if err != nil {
		return fail(err)
	}
	if res.Replayed > 0 {
		fmt.Fprintf(stdout, "resume: replayed and verified %d journaled records\n", res.Replayed)
	}
	if res.Crashed {
		fmt.Fprintf(stderr, "patchwork: campaign crashed at t=%v (injected crash point)\n", res.CrashedAt)
		fmt.Fprintf(stderr, "patchwork: journal preserved in %s — resume with: patchwork -resume %s\n",
			res.Dir, res.Dir)
		hold()
		return 3
	}

	// Artifact writers: a failed write is counted per artifact (feeding
	// the storage-errors health rule and the live telemetry plane) and
	// reported, but does not stop the remaining artifacts from being
	// attempted — a full disk should cost one output, not all of them.
	wrote := func(artifact string, err error) bool {
		if err == nil {
			return true
		}
		res.Registry.Counter("patchwork_storage_errors_total", obs.L("artifact", artifact)).Inc()
		fmt.Fprintf(stderr, "patchwork: writing %s artifacts: %v\n", artifact, err)
		return false
	}
	ok := wrote("pcap", writeProfile(*out, res.Profile))
	if *metrics != "" {
		if wrote("metrics", writeMetrics(*metrics, res.Registry)) {
			fmt.Fprintf(stdout, "metrics written to %s\n", *metrics)
		} else {
			ok = false
		}
	}
	if *trace != "" {
		if wrote("trace", writeTrace(*trace, res.Tracer)) {
			fmt.Fprintf(stdout, "trace written to %s (%d spans)\n", *trace, res.Tracer.Len())
		} else {
			ok = false
		}
	}
	if *watch {
		fmt.Fprintln(stdout, "final health status:")
		_ = res.Monitor.WriteStatus(stdout) // console output, like every line here
	}
	ok = wrote("health", writeHealthArtifacts(stdout, *out, res.Monitor)) && ok
	if res.Supervisor != nil {
		ok = wrote("remedy", writeRemedyArtifacts(stdout, *out, res.Supervisor)) && ok
	}
	if res.Injector != nil {
		fmt.Fprintf(stdout, "faults injected: %s\n", res.Injector.Summary())
	}
	ok = wrote("prof", writeProfArtifacts(stdout, *out, *provOn, res)) && ok
	if !ok {
		return 1
	}
	prof := res.Profile
	fmt.Fprintf(stdout, "campaign complete: %d sites in %v of virtual time (journal %s)\n",
		len(prof.Bundles), prof.Finished-prof.Started, res.Dir)
	for _, b := range prof.Bundles {
		fmt.Fprintf(stdout, "  %-8s outcome=%-10s instances=%d/%d captures=%d ports=%v\n",
			b.Site, b.Outcome, b.InstancesGranted, b.InstancesRequested,
			len(b.CompressedPcaps), b.PortsSampled)
	}
	fmt.Fprintf(stdout, "success rate: %.0f%%\n", prof.SuccessRate()*100)
	for _, b := range prof.Bundles {
		for _, ev := range b.ScaleEvents {
			fmt.Fprintf(stdout, "  %s nice: %v\n", b.Site, ev)
		}
	}
	fmt.Fprintf(stdout, "output written to %s\n", *out)
	hold()
	return 0
}

// nonZeroFlags are the spec flags whose zero campaign.Spec.WithDefaults
// replaces with the default.
var nonZeroFlags = map[string]bool{
	"runs": true, "samples": true, "sample-sec": true, "truncate": true,
	"seed": true, "federation-sites": true, "checkpoint-sec": true,
}

// statusPrinter is the -watch view: the campaign's live sink, printing
// the health monitor's per-site status table every interval of sim
// time. It prints from the campaign's drive loop, between kernel steps,
// so a watched run's sim artifacts are byte-identical to an unwatched
// one. With -serve it wraps the live server: every call reaches the
// server at the server's own cadence, which the tables then ride on.
type statusPrinter struct {
	w     io.Writer
	every sim.Duration
	live  *livemon.Server // nil without -serve

	mon  *health.Monitor
	now  sim.Time // the last PublishTick
	next sim.Time // the next status table
}

func (p *statusPrinter) Attach(reg *obs.Registry, mon *health.Monitor) {
	p.mon = mon
	if p.live != nil {
		p.live.Attach(reg, mon)
	}
}

// Runtime is the server's wall-clock registry; without a server it is
// nil, on which every registration is a no-op.
func (p *statusPrinter) Runtime() *obs.Registry {
	if p.live == nil {
		return nil
	}
	return p.live.Runtime()
}

// Interval is the server's cadence, or without a server the sim time
// from the last PublishTick to the next table: the drive loop asks
// right after each PublishTick.
func (p *statusPrinter) Interval() sim.Duration {
	if p.live != nil {
		return p.live.Interval()
	}
	return p.next - p.now
}

func (p *statusPrinter) PublishTick(now sim.Time) {
	p.now = now
	if p.live != nil {
		p.live.PublishTick(now)
	}
	if now >= p.next {
		_ = p.mon.WriteStatus(p.w) // a failed print costs the view, never the run
		for p.next <= now {
			p.next += sim.Time(p.every)
		}
	}
}

// SetProfSources forwards the profiling sources to the server.
func (p *statusPrinter) SetProfSources(summary func() any, chrome func(io.Writer) error, provenancePath string, provFlush func() error) {
	if p.live != nil {
		p.live.SetProfSources(summary, chrome, provenancePath, provFlush)
	}
}

// writeProfile persists each bundle's pcaps and logs.
func writeProfile(dir string, prof *patchwork.Profile) error {
	for _, b := range prof.Bundles {
		siteDir := filepath.Join(dir, b.Site)
		if err := os.MkdirAll(siteDir, 0o755); err != nil {
			return err
		}
		pcaps, err := b.DecompressPcaps()
		if err != nil {
			return err
		}
		for i, data := range pcaps {
			name := filepath.Join(siteDir, fmt.Sprintf("capture-%02d.pcap", i))
			if err := os.WriteFile(name, data, 0o644); err != nil {
				return err
			}
		}
		var logBuf strings.Builder
		for _, e := range b.Logs {
			logBuf.WriteString(e.String())
			logBuf.WriteByte('\n')
		}
		for _, c := range b.Congestion {
			fmt.Fprintf(&logBuf, "t=%v congestion %s->%s offered=%.0fB/s capacity=%.0fB/s\n",
				c.At, c.MirroredPort, c.EgressPort, c.OfferedBps, c.CapacityBps)
		}
		if err := os.WriteFile(filepath.Join(siteDir, "run.log"), []byte(logBuf.String()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// createWith creates path and streams write into it, reporting the
// first of the write and close errors.
func createWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeMetrics exports the registry in the format the file extension
// names: Prometheus text (.prom, also the fallback), JSONL, or CSV.
func writeMetrics(path string, reg *obs.Registry) error {
	switch filepath.Ext(path) {
	case ".jsonl":
		return createWith(path, reg.WriteMetricsJSONL)
	case ".csv":
		return createWith(path, reg.WriteCSV)
	}
	return createWith(path, reg.WritePrometheus)
}

// writeTrace exports the span tree as JSONL.
func writeTrace(path string, tr *obs.Tracer) error {
	return createWith(path, tr.WriteJSONL)
}

// writeHealthArtifacts persists the alert log and every flight-recorder
// dump under <out>/health/.
func writeHealthArtifacts(stdout io.Writer, dir string, m *health.Monitor) error {
	healthDir := filepath.Join(dir, "health")
	if err := os.MkdirAll(healthDir, 0o755); err != nil {
		return err
	}
	if err := createWith(filepath.Join(healthDir, "alerts.jsonl"), m.WriteAlertLog); err != nil {
		return err
	}
	for _, d := range m.Dumps() {
		if err := os.WriteFile(filepath.Join(healthDir, d.Name+".jsonl"), d.Data, 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "health artifacts written to %s (%d alerts, %d dumps)\n",
		healthDir, len(m.Events()), len(m.Dumps()))
	return nil
}

// writeRemedyArtifacts persists the remediation action log and a
// summary under <out>/remedy/.
func writeRemedyArtifacts(stdout io.Writer, dir string, sup *remedy.Supervisor) error {
	remedyDir := filepath.Join(dir, "remedy")
	if err := os.MkdirAll(remedyDir, 0o755); err != nil {
		return err
	}
	if err := createWith(filepath.Join(remedyDir, "actions.jsonl"), sup.WriteActionLog); err != nil {
		return err
	}
	var sb strings.Builder
	outcomes := sup.Outcomes()
	keys := make([]string, 0, len(outcomes))
	for k := range outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s %d\n", k, outcomes[k])
	}
	for _, site := range sup.Quarantined() {
		fmt.Fprintf(&sb, "quarantined %s\n", site)
	}
	if err := os.WriteFile(filepath.Join(remedyDir, "summary.txt"), []byte(sb.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "remediation artifacts written to %s (%d decisions, %d quarantined)\n",
		remedyDir, len(sup.Actions()), len(sup.Quarantined()))
	return nil
}

// writeProfArtifacts persists the wall-plane lane profile under
// <out>/prof/ and reports where the provenance trace landed. The
// provenance trace itself was streamed during the run by the campaign
// engine; only the pointer is printed here.
func writeProfArtifacts(stdout io.Writer, dir string, provenance bool, res *campaign.Result) error {
	profDir := filepath.Join(dir, "prof")
	if provenance {
		fmt.Fprintf(stdout, "provenance trace: %d events in %s (analyze with pwprof)\n",
			res.ProvRecords, filepath.Join(profDir, "provenance.trace"))
	}
	if res.LaneProfiler == nil {
		return nil
	}
	if err := os.MkdirAll(profDir, 0o755); err != nil {
		return err
	}
	if err := createWith(filepath.Join(profDir, "lane-trace.json"), res.LaneProfiler.WriteChromeTrace); err != nil {
		return err
	}
	sum := res.LaneProfiler.Summary()
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(profDir, "lane-summary.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "lane profile: %d windows, est speedup %.2fx, efficiency %.0f%% (%s)\n",
		sum.Windows, sum.EstSpeedup, sum.ParallelEfficiency*100, profDir)
	return nil
}

// writeChaosLog persists the storage-fault injection log so same-seed
// reruns can be diffed injection-for-injection.
func writeChaosLog(dir string, chaos *storefault.Chaos) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return createWith(filepath.Join(dir, "storefault.jsonl"), chaos.WriteLogJSONL)
}
