package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// bench is one invocation's settings and scratch space.
type bench struct {
	root        string // repository root: the working directory
	work        string // this run's scratch directory under .bench_build
	exe         string // this executable, re-run as the measured child
	seed        uint64
	seconds     time.Duration
	trace       bool
	smoke       bool
	writeGolden bool
	nproc       int
	out         io.Writer
}

// buildDir holds everything building and running the benchmark leaves
// behind; it is ignored by git.
const buildDir = ".bench_build"

func newBench(seed uint64, seconds time.Duration, trace, smoke, writeGolden bool, out io.Writer) (*bench, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "internal")); err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(filepath.Join(root, buildDir), "run-")
	if err != nil {
		return nil, err
	}
	return &bench{
		root: root, work: work, exe: exe, seed: seed, seconds: seconds,
		trace: trace, smoke: smoke, writeGolden: writeGolden,
		nproc: runtime.NumCPU(), out: out,
	}, nil
}

func (b *bench) close() { os.RemoveAll(b.work) }

// path names a file in the run's scratch directory.
func (b *bench) path(name string) string { return filepath.Join(b.work, name) }

// freshDir returns the path of an emptied scratch directory.
func (b *bench) freshDir(name string) string {
	dir := b.path(name)
	os.RemoveAll(dir)
	return dir
}

// tally collects one workload run's measurements. Each end-to-end
// metric is the median of its samples.
type tally struct {
	workload              string
	wall, cpu, rss, alloc []float64 // one per measured repeat
	setup                 []float64 // one per repeat or set-up probe
	digests               []string  // one per repeat, checked equal
	reference             []float64 // host reference mix times, seconds
	calibrationWorkers    int       // goroutines running the reference mix
	attempted, failed     int
	problems              []string
	layer                 map[string]float64
}

func newTally(workload string, calibrationWorkers int) *tally {
	return &tally{workload: workload, calibrationWorkers: calibrationWorkers, layer: make(map[string]float64)}
}

func (t *tally) fail(format string, args ...any) {
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

// sample records one measured repeat: its wall time, the child's
// resource usage and its total allocation.
func (t *tally) sample(wall time.Duration, p *proc, allocBytes uint64) {
	t.wall = append(t.wall, wall.Seconds())
	t.cpu = append(t.cpu, p.cpu.Seconds())
	t.rss = append(t.rss, p.rssMB)
	t.alloc = append(t.alloc, float64(allocBytes)/1e6)
}

// digest records one repeat's output digest; every repeat of a run must
// produce the same one.
func (t *tally) digest(d string) {
	if len(t.digests) > 0 && t.digests[0] != d {
		t.fail("nondeterministic output: repeat %d digest %.12s differs from repeat 1 digest %.12s",
			len(t.digests)+1, d, t.digests[0])
	}
	t.digests = append(t.digests, d)
}

// endToEnd names the end-to-end metrics and their units; BENCHMARK.json
// lists the same names.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"maxrss_mb", "MB"},
	{"alloc_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer names the per-layer metrics of a traced run, in BENCHMARK.json
// order: each layer's CPU share and allocation, then the spans and
// boundary counts. A workload reports 0 for a layer or span it does not
// exercise.
var perLayer = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	for _, l := range layers {
		out = append(out, struct{ name, unit string }{l + ".cpu_frac", "fraction"})
	}
	for _, l := range layers {
		out = append(out, struct{ name, unit string }{l + ".alloc_mb", "MB"})
	}
	for _, m := range [][2]string{
		{"trace.overhead_frac", "fraction"},
		{"campaign.drive_s", "s"},
		{"core.export_s", "s"},
		{"storefault.write_calls", "count"},
		{"storefault.write_ms", "ms"},
		{"storefault.sync_calls", "count"},
		{"storefault.sync_ms", "ms"},
		{"storefault.rename_calls", "count"},
		{"storefault.rename_ms", "ms"},
		{"sim.events", "count"},
		{"sim.ns_per_event", "ns/event"},
		{"switchsim.frames_transited", "count"},
		{"capture.captured_ratio", "fraction"},
		{"switchsim.mirror_drop_ratio", "fraction"},
		{"hostsim.writev_blocked_ratio", "fraction"},
		{"journal.records", "count"},
		{"remedy.actions", "count"},
		{"lanes.wall_speedup", "ratio"},
		{"lanes.est_speedup", "ratio"},
		{"lanes.efficiency", "fraction"},
		{"experiments.table2.wall_s", "s"},
		{"experiments.table1.wall_s", "s"},
		{"experiments.fig13.wall_s", "s"},
		{"experiments.fig10.wall_s", "s"},
		{"experiments.tcpdump.wall_s", "s"},
		{"experiments.pool_idle_frac", "fraction"},
		{"pcap.read_ns_per_frame", "ns/frame"},
		{"wire.decode_ns_per_frame", "ns/frame"},
		{"analysis.digest_ns_per_frame", "ns/frame"},
		{"analysis.acap_encode_s", "s"},
		{"flowstore.flush_s", "s"},
		{"flowstore.aggregate_s", "s"},
		{"replica.wall_ratio", "ratio"},
		{"flowstore.open_ms", "ms"},
		{"flowstore.query_ms", "ms"},
		{"livemon.overhead_ms", "ms"},
		{"livemon.query_p50_ms", "ms"},
		{"livemon.query_p99_ms", "ms"},
		{"livemon.queries_per_s", "1/s"},
	} {
		out = append(out, struct{ name, unit string }{m[0], m[1]})
	}
	return out
}()

func (t *tally) result(traced bool) *result {
	r := &result{Correct: len(t.problems) == 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: make(map[string]metric), problems: t.problems}
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	if !r.Correct {
		r.Failed = r.Attempted
	}
	if traced {
		for _, m := range perLayer {
			r.Metrics[m.name] = metric{Value: t.layer[m.name], Unit: m.unit}
		}
		return r
	}
	scale := t.hostScale()
	values := map[string]float64{
		"wall_s": median(t.wall) * scale, "cpu_s": median(t.cpu) * scale, "setup_s": median(t.setup) * scale,
		"maxrss_mb": median(t.rss), "alloc_mb": median(t.alloc),
	}
	for _, m := range endToEnd {
		if v := values[m.name]; v > 0 {
			r.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		}
	}
	return r
}

// hostScale converts the run's measured times to times on the reference
// host: the reference mix's nominal time over its mean time in this run.
// A host slowed by other tenants slows the mix and the workload alike, so
// scaled times vary less between runs than raw ones.
func (t *tally) hostScale() float64 {
	if len(t.reference) == 0 {
		return 1
	}
	var sum float64
	for _, r := range t.reference {
		sum += r
	}
	return referenceSeconds * float64(len(t.reference)) / sum
}

// printRaw reports the unscaled medians behind the end-to-end times.
func (t *tally) printRaw(w io.Writer) {
	if len(t.reference) == 0 || len(t.wall) == 0 {
		return
	}
	fmt.Fprintf(w, "  host reference %.4fs (mean of %d, scale %.4f); unscaled wall %.4fs cpu %.4fs setup %.6fs over %d repeats\n",
		referenceSeconds/t.hostScale(), len(t.reference), t.hostScale(), median(t.wall), median(t.cpu), median(t.setup), len(t.wall))
}

// repeat runs once until the run's time budget is spent. At least two
// repeats always run, so determinism can be checked; after that a repeat
// starts only if it is likely to end within half a repeat of the
// deadline. The host's speed is measured before the first repeat, after
// the last, and between repeats at least every calibrationGap.
func (b *bench) repeat(t *tally, start time.Time, once func() error) error {
	if err := b.calibrate(t); err != nil {
		return err
	}
	lastCal := time.Now()
	for n := 1; ; n++ {
		t0 := time.Now()
		if err := once(); err != nil {
			return err
		}
		if n >= 2 && time.Since(start)+time.Since(t0)/2 > b.seconds {
			return b.calibrate(t)
		}
		if time.Since(lastCal) >= calibrationGap {
			if err := b.calibrate(t); err != nil {
				return err
			}
			lastCal = time.Now()
		}
	}
}

// probeCount is how many extra set-up-only children a run starts, so
// setup_s is a median over several samples even when repeats are long.
const probeCount = 5

// proc is one measured child process.
type proc struct {
	start time.Time
	wall  time.Duration
	cpu   time.Duration // user + system
	rssMB float64       // peak resident set
	out   bytes.Buffer  // combined stdout and stderr
}

// childReport is what a measured child writes before it exits: the
// moment its measured work could begin, its total allocation, and any
// per-layer values it measured from inside.
type childReport struct {
	ReadyUnixNs int64              `json:"ready_unix_ns"`
	AllocBytes  uint64             `json:"alloc_bytes"`
	MainNs      int64              `json:"main_ns,omitempty"`
	Ops         int                `json:"ops,omitempty"`
	Failed      int                `json:"failed,omitempty"`
	Detail      []string           `json:"detail,omitempty"`
	Values      map[string]float64 `json:"values,omitempty"`
}

// setup is the time from spawning the child to its measured work being
// ready to start.
func (p *proc) setup(rep *childReport) float64 {
	return time.Duration(rep.ReadyUnixNs - p.start.UnixNano()).Seconds()
}

// startChild starts cmd as a measured child. The child dies with this
// process, so an interrupted benchmark leaves nothing running.
func startChild(cmd *exec.Cmd) (*proc, error) {
	p := &proc{}
	cmd.Stdout, cmd.Stderr = &p.out, &p.out
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p.start = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return p, nil
}

// waitChild waits for a child started by startChild and reads its
// resource usage.
func waitChild(cmd *exec.Cmd, p *proc) error {
	err := cmd.Wait()
	p.wall = time.Since(p.start)
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		p.rssMB = float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
	}
	if err != nil {
		return fmt.Errorf("%s: %w\n%s", filepath.Base(cmd.Path), err, trimOutput(p.out.Bytes()))
	}
	return nil
}

// runChild runs cmd to completion and decodes the report it wrote to
// reportPath.
func runChild(cmd *exec.Cmd, reportPath string) (*proc, *childReport, error) {
	p, err := startChild(cmd)
	if err != nil {
		return nil, nil, err
	}
	if err := waitChild(cmd, p); err != nil {
		return p, nil, err
	}
	rep, err := readReport(reportPath)
	return p, rep, err
}

func readReport(path string) (*childReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("child report: %w", err)
	}
	var rep childReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("child report %s: %w", path, err)
	}
	return &rep, nil
}

// childCmd builds the command that re-runs this executable as a child of
// the given kind.
func (b *bench) childCmd(kind string, args ...string) *exec.Cmd {
	all := append([]string{"child", kind, "-seed", fmt.Sprint(b.seed)}, args...)
	if b.smoke {
		all = append(all, "-smoke")
	}
	return exec.Command(b.exe, all...)
}

// setupProbes runs the child built by mk in set-up-only mode probeCount
// times and records each set-up time.
func (b *bench) setupProbes(t *tally, mk func(report string) *exec.Cmd) error {
	for i := 0; i < probeCount; i++ {
		report := b.path(fmt.Sprintf("probe-%d.json", i))
		p, rep, err := runChild(mk(report), report)
		if err != nil {
			return fmt.Errorf("set-up probe: %w", err)
		}
		t.setup = append(t.setup, p.setup(rep))
	}
	return nil
}

func median(v []float64) float64 {
	return quantile(v, 0.5)
}

// quantile returns the q-quantile of v by linear interpolation between
// order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// sortedFiles lists the regular files under dir whose names end in
// suffix, in lexical path order.
func sortedFiles(dir, suffix string) ([]string, error) {
	var out []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(path, suffix) {
			out = append(out, path)
		}
		return err
	})
	sort.Strings(out)
	return out, err
}

// writeWith creates path and fills it with fn.
func writeWith(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
