package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
)

// smokeExperiments are three of the suite's fastest experiments.
var smokeExperiments = []string{"fig2", "fig3", "portutil"}

// spannedExperiments are the experiments whose wall time the traced run
// reports: the four longest and the one every campaign metric depends on.
var spannedExperiments = []string{"table2", "table1", "fig13", "fig10", "tcpdump"}

// childExperiments is one experiments-all repeat: experiments.RunMany
// over every id on nproc workers (what pwexperiments -all runs), then the
// CLI's -out step writing one CSV per experiment.
func childExperiments(o childOpts) error {
	ids := experiments.IDs()
	if o.smoke {
		ids = smokeExperiments
	}
	rep := &childReport{Values: make(map[string]float64)}
	o.ready(rep)
	workers := runtime.NumCPU()
	var mu sync.Mutex
	started := make(map[string]time.Time)
	var busy time.Duration
	progress := func(p experiments.Progress) {
		mu.Lock()
		defer mu.Unlock()
		if p.State == "start" {
			started[p.ID] = time.Now()
			return
		}
		d := time.Since(started[p.ID])
		busy += d
		rep.Values["experiments."+p.ID+".wall_s"] = d.Seconds()
	}
	var results []*experiments.Result
	var runErr error
	t0 := time.Now()
	err := profiled(o.cpuProf, o.memProf, func() error {
		results, runErr = experiments.RunManyWithProgress(ids, o.seed, workers, progress)
		if err := os.MkdirAll(o.dir, 0o755); err != nil {
			return err
		}
		for _, res := range results {
			if err := writeWith(filepath.Join(o.dir, res.ID+".csv"), res.WriteCSV); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if pool := float64(min(workers, len(ids))) * time.Since(t0).Seconds(); pool > 0 {
		rep.Values["experiments.pool_idle_frac"] = 1 - busy.Seconds()/pool
	}
	rep.Ops = len(ids)
	rep.Failed = len(ids) - len(results)
	if runErr != nil {
		rep.Detail = append(rep.Detail, runErr.Error())
	}
	return writeReport(o.report, rep)
}

// runExperiments drives experiments-all.
func runExperiments(b *bench, t *tally) error {
	start := time.Now()
	once := func(extra ...string) (*proc, *childReport, error) {
		dir := b.freshDir("experiments")
		report := b.path("experiments.json")
		p, rep, err := runChild(b.childCmd("experiments", append([]string{"-dir", dir, "-report", report}, extra...)...), report)
		if err != nil {
			return nil, nil, err
		}
		t.attempted += rep.Ops
		t.failed += rep.Failed
		for _, d := range rep.Detail {
			t.fail("%s", d)
		}
		csvs, err := sortedFiles(dir, ".csv")
		if err != nil {
			return nil, nil, err
		}
		h := newHasher()
		for _, f := range csvs {
			if err := h.file(dir, f); err != nil {
				return nil, nil, err
			}
		}
		t.digest(h.sum())
		if len(t.digests) == 1 && b.seed == 1 && !b.smoke {
			b.reportDrift(csvs)
		}
		return p, rep, nil
	}
	measured := func() error {
		p, rep, err := once()
		if err != nil {
			return err
		}
		t.sample(p.wall, p, rep.AllocBytes)
		t.setup = append(t.setup, p.setup(rep))
		return nil
	}
	if !b.trace {
		if err := b.setupProbes(t, func(report string) *exec.Cmd {
			return b.childCmd("experiments", "-dir", b.freshDir("probe"), "-report", report, "-setup-only")
		}); err != nil {
			return err
		}
		return b.repeat(t, start, measured)
	}
	if err := measured(); err != nil {
		return err
	}
	cpu, mem := b.path("experiments.cpu.pprof"), b.path("experiments.allocs.pprof")
	p, rep, err := once("-cpuprofile", cpu, "-memprofile", mem)
	if err != nil {
		return err
	}
	for _, id := range spannedExperiments {
		t.layer["experiments."+id+".wall_s"] = rep.Values["experiments."+id+".wall_s"]
	}
	t.layer["experiments.pool_idle_frac"] = rep.Values["experiments.pool_idle_frac"]
	t.layer["trace.overhead_frac"] = p.wall.Seconds()/median(t.wall) - 1
	return b.ledger(t, cpu, mem)
}

// reportDrift lists, without failing the run, the committed results/*.csv
// files that this run's seed-1 output no longer matches.
func (b *bench) reportDrift(csvs []string) {
	var drift []string
	for _, path := range csvs {
		name := filepath.Base(path)
		want, err := os.ReadFile(filepath.Join(b.root, "results", name))
		if err != nil {
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, want) {
			drift = append(drift, name)
		}
	}
	if len(drift) == 0 {
		fmt.Fprintln(b.out, "  results/*.csv: no drift")
		return
	}
	fmt.Fprintf(b.out, "  results/*.csv drift (not fatal): %s\n", strings.Join(drift, ", "))
}
