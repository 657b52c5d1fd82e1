// Command pwbench is Patchwork's end-to-end benchmark. It drives four
// workloads — a journaled 28-site campaign, the full experiment suite,
// the pwanalyze pipeline over a Fig13-scale capture corpus, and a closed
// loop of flow-store queries — running each measured repeat in a fresh
// child process whose CPU time and peak RSS it reads from the child's
// rusage. Load comes from this process alone.
//
// Run it from the repository root through bench/run.sh, which builds it
// from the checkout:
//
//	bash bench/run.sh --workload campaign-28 --seed 1 --seconds 20 --trace 0
//
// Every metric is printed by name with its unit; the last line of
// standard output is one JSON object holding the run's correctness
// verdict, operation counts and metrics (end-to-end metrics, or with
// --trace 1 the per-layer ledger). A failed correctness check makes the
// exit status non-zero. bench/README.md describes the workloads, the
// metrics and the layer each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if code, ok := runChildRole(os.Args[1:]); ok {
		os.Exit(code)
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// runChildRole runs this process as one of the benchmark's child roles
// when args name one, and reports whether they did.
func runChildRole(args []string) (int, bool) {
	if len(args) > 0 {
		switch args[0] {
		case "child":
			return childMain(args[1:]), true
		case "serve-flows":
			return serveFlowsMain(args[1:]), true
		}
	}
	return 0, false
}

// workloads lists the benchmark's workloads in the order -workload all
// runs them. parallel marks the ones whose measured work keeps every CPU
// busy; the others run one main thread beside the garbage collector.
var workloads = []struct {
	name     string
	run      func(*bench, *tally) error
	parallel bool
}{
	{"campaign-28", runCampaign, false},
	{"experiments-all", runExperiments, true},
	{"pcap-analyze", runPcapAnalyze, false},
	{"flow-query", runFlowQuery, true},
}

// run is the benchmark's parent process: it parses the flags, runs the
// named workload (or all of them) and prints the report. It returns the
// exit status.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("pwbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: campaign-28, experiments-all, pcap-analyze, flow-query or all")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "time budget of the measured repeats (at least two repeats always run)")
	trace := fs.Int("trace", 0, "1 adds a profiled repeat and prints the per-layer ledger instead of the end-to-end metrics")
	smoke := fs.Bool("smoke", false, "tiny inputs: 3 sites, 3 experiments, a 10k-frame corpus and a short query loop")
	writeGolden := fs.Bool("write-golden", false, "record this run's output digest in bench/golden instead of checking it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "pwbench: --trace takes 0 or 1")
		return 2
	}
	var selected []int
	for i, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, i)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "pwbench: unknown workload %q\n", *name)
		return 2
	}
	b, err := newBench(*seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *smoke, *writeGolden, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pwbench:", err)
		return 1
	}
	defer b.close()

	results := make(map[string]*result)
	ok := true
	for _, i := range selected {
		w := workloads[i]
		fmt.Fprintf(stdout, "== %s (seed %d, nproc %d, GOMAXPROCS %d) ==\n", w.name, b.seed, b.nproc, runtime.GOMAXPROCS(0))
		workers := 1
		if w.parallel {
			workers = b.nproc
		}
		t := newTally(w.name, workers)
		if err := w.run(b, t); err != nil {
			t.fail("%v", err)
		}
		b.checkGolden(t)
		res := t.result(b.trace)
		t.printRaw(stdout)
		res.print(stdout)
		ok = ok && res.Correct
		results[w.name] = res
	}
	final := results[workloads[selected[0]].name]
	if len(selected) > 1 {
		final = mergeResults(results)
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pwbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !ok {
		return 1
	}
	return 0
}

// result is the JSON verdict printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	problems  []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "  ops %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAIL: %s\n", p)
	}
}

// mergeResults folds the per-workload results of -workload all into one
// verdict whose metric names are prefixed with the workload.
func mergeResults(results map[string]*result) *result {
	out := &result{Correct: true, Metrics: make(map[string]metric)}
	for wname, r := range results {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for n, m := range r.Metrics {
			out.Metrics[wname+"/"+n] = m
		}
	}
	return out
}

// trimOutput keeps the tail of a child's combined output for an error
// message.
func trimOutput(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 2000 {
		s = "..." + s[len(s)-2000:]
	}
	return s
}
