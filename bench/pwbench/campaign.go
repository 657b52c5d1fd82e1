package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/health"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/remedy"
	"repro/internal/sim"
	"repro/internal/storefault"
)

// campaignSpec is the campaign-28 input: the full 28-site federation of
// Fig 2, sampled 3 runs x 2 samples x 5 s with tcpdump at a 200-byte
// snap length, under the default remediation policy, checkpointing every
// 10 s. Smoke mode keeps 3 sites.
func campaignSpec(seed uint64, smoke bool) campaign.Spec {
	sites := 28
	if smoke {
		sites = 3
	}
	pol := remedy.DefaultPolicy()
	return campaign.Spec{
		Mode: "all", FederationSites: sites,
		Runs: 3, Samples: 2, SampleSec: 5, IntervalSec: 10,
		TruncateBytes: 200, Method: "tcpdump", Seed: seed,
		Remedy: &pol, CheckpointSec: 10,
	}
}

// readySink is the campaign's live sink. Attach runs once the world is
// built, just before the simulation starts, which is the end of set-up;
// otherwise it publishes nothing.
type readySink struct {
	runtime  *obs.Registry
	attached func()
}

func (s *readySink) Attach(*obs.Registry, *health.Monitor) { s.attached() }
func (s *readySink) Runtime() *obs.Registry                { return s.runtime }
func (s *readySink) Interval() sim.Duration                { return 1 << 50 }
func (s *readySink) PublishTick(sim.Time)                  {}

// childCampaign is one campaign-28 repeat: campaign.RunExecLive, then the
// export step of cmd/patchwork (decompress and write every bundle's
// pcaps, dump the metrics registry).
func childCampaign(o childOpts) error {
	rep := &childReport{Values: make(map[string]float64)}
	sink := &readySink{runtime: obs.NewRegistry(nil), attached: func() { o.ready(rep) }}
	var ex campaign.Exec
	if o.lanes > 1 {
		ex = campaign.Exec{Lanes: o.lanes, Workers: runtime.NumCPU(), Profile: true}
	}
	var tfs *timingFS
	if o.cpuProf != "" {
		tfs = &timingFS{FS: storefault.Disk}
		ex.FS = tfs
	}
	var res *campaign.Result
	err := profiled(o.cpuProf, o.memProf, func() error {
		t0 := time.Now()
		var err error
		res, err = campaign.RunExecLive(campaignSpec(o.seed, o.smoke), filepath.Join(o.dir, "journal"), true, ex, sink)
		if err != nil {
			return err
		}
		if res.Crashed {
			return fmt.Errorf("campaign crashed at %v", res.CrashedAt)
		}
		t1 := time.Now()
		rep.Values["campaign.drive_s"] = t1.Sub(t0).Seconds()
		if err := exportCampaign(o.dir, res); err != nil {
			return err
		}
		rep.Values["core.export_s"] = time.Since(t1).Seconds()
		return nil
	})
	if err != nil {
		return err
	}
	// A site run that ends failed or incomplete is a simulated outcome
	// (the paper's Fig 10 has them too), not a benchmark failure: it is
	// part of the output digest, so any change to it fails the run.
	for _, b := range res.Profile.Bundles {
		rep.Ops++
		rep.Values["outcome."+b.Outcome.String()]++
		rep.Detail = append(rep.Detail, fmt.Sprintf("site %s %s granted=%d/%d", b.Site, b.Outcome, b.InstancesGranted, b.InstancesRequested))
	}
	if err := campaignCounts(res, o.dir, rep.Values); err != nil {
		return err
	}
	rep.Detail = append(rep.Detail, fmt.Sprintf("events=%.0f captured=%.0f transited=%.0f",
		rep.Values["sim.events"], rep.Values["capture.captured"], rep.Values["switchsim.frames_transited"]))
	if tfs != nil {
		tfs.report(rep.Values)
	}
	if res.LaneProfiler != nil {
		sum := res.LaneProfiler.Summary()
		rep.Values["lanes.est_speedup"] = sum.EstSpeedup
		rep.Values["lanes.efficiency"] = sum.ParallelEfficiency
	}
	return writeReport(o.report, rep)
}

// exportCampaign mirrors cmd/patchwork's artifact export: every bundle's
// pcaps decompressed into <dir>/out/<site>/capture-NN.pcap next to its
// run log, and the metrics registry in <dir>/metrics.prom.
func exportCampaign(dir string, res *campaign.Result) error {
	for _, b := range res.Profile.Bundles {
		siteDir := filepath.Join(dir, "out", b.Site)
		if err := os.MkdirAll(siteDir, 0o755); err != nil {
			return err
		}
		pcaps, err := b.DecompressPcaps()
		if err != nil {
			return err
		}
		for i, data := range pcaps {
			if err := os.WriteFile(filepath.Join(siteDir, fmt.Sprintf("capture-%02d.pcap", i)), data, 0o644); err != nil {
				return err
			}
		}
		var log strings.Builder
		for _, e := range b.Logs {
			log.WriteString(e.String())
			log.WriteByte('\n')
		}
		if err := os.WriteFile(filepath.Join(siteDir, "run.log"), []byte(log.String()), 0o644); err != nil {
			return err
		}
	}
	return writeWith(filepath.Join(dir, "metrics.prom"), res.Registry.WritePrometheus)
}

// campaignCounts reads the boundary counts of a finished campaign from
// public state: the metrics registry, the switch port counters and the
// journal's WAL. A change that only makes the program faster leaves the
// simulated counts among them identical.
func campaignCounts(res *campaign.Result, dir string, v map[string]float64) error {
	sum := make(map[string]float64)
	for _, p := range res.Registry.Snapshot() {
		sum[p.Name] += p.Value // a histogram's value is its observation count
	}
	v["sim.events"] = sum["sim_events_processed"]
	v["capture.captured"] = sum["capture_frames_captured_total"]
	v["capture.captured_ratio"] = ratio(sum["capture_frames_captured_total"], sum["capture_frames_received_total"])
	mirrorDrops := sum["switchsim_mirror_clone_drops_total"] + sum["switchsim_mirror_fault_drops_total"]
	v["switchsim.mirror_drop_ratio"] = ratio(mirrorDrops, mirrorDrops+sum["switchsim_mirror_cloned_total"])
	v["hostsim.writev_blocked_ratio"] = ratio(sum["hostsim_writev_blocked_total"], sum["hostsim_writev_latency_ns"])
	v["remedy.actions"] = sum["remedy_actions_total"]
	var transited uint64
	for _, s := range res.Federation.Sites() {
		for _, p := range s.Switch.Ports() {
			transited += p.Counters().RxFrames
		}
	}
	v["switchsim.frames_transited"] = float64(transited)
	wal, err := journal.ReadWAL(filepath.Join(dir, "journal"))
	if err != nil {
		return err
	}
	v["journal.records"] = float64(len(wal))
	return nil
}

// outcomeSummary lists a repeat's site-run outcome counts.
func outcomeSummary(v map[string]float64) string {
	var parts []string
	for _, o := range []string{"success", "degraded", "failed", "incomplete"} {
		if n := v["outcome."+o]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s %.0f", o, n))
		}
	}
	return strings.Join(parts, ", ")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timingFS is a storefault.FS that counts and times the campaign's
// artifact writes, syncs and renames. The counters are atomic because
// laned campaigns may reach the seam from several goroutines.
type timingFS struct {
	storefault.FS
	write, sync, rename opTimer
}

type opTimer struct{ calls, ns atomic.Int64 }

func (t *opTimer) since(t0 time.Time) {
	t.calls.Add(1)
	t.ns.Add(int64(time.Since(t0)))
}

func (fs *timingFS) report(v map[string]float64) {
	for name, t := range map[string]*opTimer{"write": &fs.write, "sync": &fs.sync, "rename": &fs.rename} {
		v["storefault."+name+"_calls"] = float64(t.calls.Load())
		v["storefault."+name+"_ms"] = float64(t.ns.Load()) / 1e6
	}
}

func (fs *timingFS) Create(path string) (storefault.File, error) {
	f, err := fs.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: fs}, nil
}

func (fs *timingFS) OpenFile(path string, flag int, perm os.FileMode) (storefault.File, error) {
	f, err := fs.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: fs}, nil
}

func (fs *timingFS) WriteFile(path string, data []byte, perm os.FileMode) error {
	defer fs.write.since(time.Now())
	return fs.FS.WriteFile(path, data, perm)
}

func (fs *timingFS) Rename(oldpath, newpath string) error {
	defer fs.rename.since(time.Now())
	return fs.FS.Rename(oldpath, newpath)
}

type timedFile struct {
	storefault.File
	fs *timingFS
}

func (f *timedFile) Write(p []byte) (int, error) {
	defer f.fs.write.since(time.Now())
	return f.File.Write(p)
}

func (f *timedFile) WriteString(s string) (int, error) {
	defer f.fs.write.since(time.Now())
	return f.File.WriteString(s)
}

func (f *timedFile) Sync() error {
	defer f.fs.sync.since(time.Now())
	return f.File.Sync()
}

// runCampaign drives campaign-28. Untraced, it repeats the campaign in
// fresh children until the time budget is spent. Traced, it runs one
// untraced repeat as the baseline, one profiled repeat for the ledger,
// and one repeat under 4 dataplane lanes whose metrics dump must match
// the serial run's byte for byte.
func runCampaign(b *bench, t *tally) error {
	start := time.Now()
	var drive []float64
	var metrics []byte
	repeatOnce := func(extra ...string) (*proc, *childReport, error) {
		dir := b.freshDir("campaign")
		report := b.path("campaign.json")
		p, rep, err := runChild(b.childCmd("campaign", append([]string{"-dir", dir, "-report", report}, extra...)...), report)
		if err != nil {
			return nil, nil, err
		}
		t.attempted += rep.Ops
		if len(t.digests) == 0 {
			fmt.Fprintf(b.out, "  simulated site outcomes: %s\n", outcomeSummary(rep.Values))
		}
		d, err := campaignDigest(dir, rep)
		if err != nil {
			return nil, nil, err
		}
		t.digest(d)
		prom, err := os.ReadFile(filepath.Join(dir, "metrics.prom"))
		if err != nil {
			return nil, nil, err
		}
		if metrics == nil {
			metrics = prom
		} else if !bytes.Equal(prom, metrics) {
			t.fail("metrics dump of repeat %d differs from repeat 1", len(t.digests))
		}
		return p, rep, nil
	}
	measured := func() error {
		p, rep, err := repeatOnce()
		if err != nil {
			return err
		}
		t.sample(p.wall, p, rep.AllocBytes)
		t.setup = append(t.setup, p.setup(rep))
		drive = append(drive, rep.Values["campaign.drive_s"])
		return nil
	}
	if !b.trace {
		if err := b.setupProbes(t, func(report string) *exec.Cmd {
			return b.childCmd("campaign", "-dir", b.freshDir("probe"), "-report", report, "-setup-only")
		}); err != nil {
			return err
		}
		return b.repeat(t, start, measured)
	}

	if err := measured(); err != nil {
		return err
	}
	cpu, mem := b.path("campaign.cpu.pprof"), b.path("campaign.allocs.pprof")
	p, rep, err := repeatOnce("-cpuprofile", cpu, "-memprofile", mem)
	if err != nil {
		return err
	}
	for k, v := range rep.Values {
		t.layer[k] = v
	}
	t.layer["trace.overhead_frac"] = p.wall.Seconds()/median(t.wall) - 1
	if err := b.ledger(t, cpu, mem); err != nil {
		return err
	}
	if ev := rep.Values["sim.events"]; ev > 0 {
		t.layer["sim.ns_per_event"] = median(t.cpu) * t.layer["sim.cpu_frac"] / ev * 1e9
	}

	_, lanes, err := repeatOnce("-lanes", "4")
	if err != nil {
		return err
	}
	t.layer["lanes.wall_speedup"] = median(drive) / lanes.Values["campaign.drive_s"]
	t.layer["lanes.est_speedup"] = lanes.Values["lanes.est_speedup"]
	t.layer["lanes.efficiency"] = lanes.Values["lanes.efficiency"]
	fmt.Fprintf(b.out, "  lanes=4 workers=%d: drive %.2fs vs serial %.2fs\n",
		b.nproc, lanes.Values["campaign.drive_s"], median(drive))
	return nil
}

// campaignDigest hashes what a campaign repeat must reproduce exactly:
// per-site outcomes, the frame and event counts, and every decompressed
// pcap. Compressed bytes and the metrics dump are left out, so
// recompression and new counters keep the golden digest.
func campaignDigest(dir string, rep *childReport) (string, error) {
	h := newHasher()
	for _, line := range rep.Detail {
		h.str(line)
	}
	out := filepath.Join(dir, "out")
	pcaps, err := sortedFiles(out, ".pcap")
	if err != nil {
		return "", err
	}
	for _, p := range pcaps {
		if err := h.file(out, p); err != nil {
			return "", err
		}
	}
	return h.sum(), nil
}
