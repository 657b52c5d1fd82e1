package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// childOpts are the flags every measured child takes.
type childOpts struct {
	seed      uint64
	smoke     bool
	dir       string // output directory the child may fill
	report    string // where the child writes its childReport
	cpuProf   string // CPU profile of the measured call (traced repeat)
	memProf   string // allocs profile written after the measured call
	setupOnly bool   // exit as soon as the measured work could begin
	lanes     int    // campaign: run under this many dataplane lanes
	in        string // replica: capture corpus to analyze
	workers   int    // calibrate: goroutines running the reference mix
}

// childMain runs one child role inside this process — "child campaign",
// "child experiments" or "child replica" (one measured repeat), or
// "child calibrate" (the host reference mix) — and returns the exit
// status.
func childMain(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "pwbench child: missing kind")
		return 2
	}
	kind := args[0]
	var o childOpts
	fs := flag.NewFlagSet("pwbench child "+kind, flag.ContinueOnError)
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny inputs")
	fs.StringVar(&o.dir, "dir", "", "output directory")
	fs.StringVar(&o.report, "report", "", "report path")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "CPU profile path")
	fs.StringVar(&o.memProf, "memprofile", "", "allocs profile path")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "exit once set-up is done")
	fs.IntVar(&o.lanes, "lanes", 0, "campaign dataplane lanes")
	fs.StringVar(&o.in, "in", "", "replica input corpus")
	fs.IntVar(&o.workers, "workers", 1, "calibration goroutines")
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	var err error
	switch kind {
	case "campaign":
		err = childCampaign(o)
	case "experiments":
		err = childExperiments(o)
	case "replica":
		err = childReplica(o)
	case "calibrate":
		err = childCalibrate(o)
	default:
		err = fmt.Errorf("unknown kind %q", kind)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pwbench child %s: %v\n", kind, err)
		return 1
	}
	return 0
}

// writeReport finishes a child: it stamps the total allocation and writes
// the report where the parent expects it.
func writeReport(path string, rep *childReport) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.AllocBytes = ms.TotalAlloc
	data, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ready stamps the moment the measured work can begin; in set-up-only
// mode it writes the report and ends the process there.
func (o childOpts) ready(rep *childReport) {
	rep.ReadyUnixNs = time.Now().UnixNano()
	if !o.setupOnly {
		return
	}
	if err := writeReport(o.report, rep); err != nil {
		fmt.Fprintln(os.Stderr, "pwbench child:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// profiled runs fn under a CPU profile (when cpuPath is set) and then
// writes the allocs profile (when memPath is set).
func profiled(cpuPath, memPath string, fn func() error) error {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		err = fn()
		pprof.StopCPUProfile()
		if err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	} else if err := fn(); err != nil {
		return err
	}
	if memPath == "" {
		return nil
	}
	return writeWith(memPath, func(w io.Writer) error { return pprof.Lookup("allocs").WriteTo(w, 0) })
}
