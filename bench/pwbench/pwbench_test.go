package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for pwbench: the parent re-runs
// its own executable as the measured child, so child invocations are
// dispatched here. The tests run from the repository root, as the
// benchmark does.
func TestMain(m *testing.M) {
	if code, ok := runChildRole(os.Args[1:]); ok {
		os.Exit(code)
	}
	if err := os.Chdir("../.."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// runSmoke runs every workload at smoke size and returns the final
// verdict.
func runSmoke(t *testing.T, trace string) *result {
	t.Helper()
	var out bytes.Buffer
	code := run([]string{"--workload", "all", "--seed", "1", "--seconds", "0", "--trace", trace, "-smoke"}, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if code != 0 {
		t.Fatalf("pwbench exited %d:\n%s", code, out.String())
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON verdict: %v\n%s", err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("verdict correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
	}
	return &res
}

// TestSmoke runs the whole harness at smoke size: children, rusage,
// determinism and golden checks, and every end-to-end metric.
func TestSmoke(t *testing.T) {
	res := runSmoke(t, "0")
	for _, w := range workloads {
		for _, m := range endToEnd {
			got, ok := res.Metrics[w.name+"/"+m.name]
			if !ok || got.Value <= 0 || got.Unit != m.unit {
				t.Errorf("%s/%s = %+v, want a positive value in %s", w.name, m.name, got, m.unit)
			}
		}
	}
}

// TestSmokeTraced runs the traced path at smoke size: every per-layer
// metric is reported and each workload's CPU shares sum to 1.
func TestSmokeTraced(t *testing.T) {
	res := runSmoke(t, "1")
	for _, w := range workloads {
		var sum float64
		for _, m := range perLayer {
			got, ok := res.Metrics[w.name+"/"+m.name]
			if !ok || got.Unit != m.unit {
				t.Errorf("%s/%s missing or in the wrong unit: %+v", w.name, m.name, got)
			}
			if strings.HasSuffix(m.name, ".cpu_frac") {
				sum += got.Value
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: cpu_frac values sum to %v, want 1", w.name, sum)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// metrics pwbench prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, printed []struct{ name, unit string }) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, pwbench prints %d", kind, len(declared), len(printed))
			return
		}
		for i, m := range printed {
			if declared[i].Name != m.name || declared[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), pwbench prints %s (%s)", kind, i, declared[i].Name, declared[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, pwbench has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, pwbench has %s", i, doc.Workloads[i].Name, w.name)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		// The innermost internal frame wins, whatever standard-library
		// or runtime frames sit below it.
		{[]string{"runtime.memmove", "repro/internal/wire.(*Packet).decode", "repro/internal/analysis.(*Digester).Frame", "main.run"}, "wire"},
		{[]string{"compress/flate.(*compressor).deflate", "repro/internal/core.(*siteInstance).harvest", "repro/internal/sim.(*Kernel).Step"}, "core"},
		{[]string{"repro/internal/sim.(*Kernel).siftDown", "repro/internal/sim.(*Kernel).Step"}, "sim"},
		{[]string{"repro/internal/trafficgen.(*Generator).SampleInto.func1"}, "trafficgen"},
		// Garbage-collector work is gc, even when an allocating layer is
		// on the stack (a mark assist).
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "gc"},
		{[]string{"runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/wire.NewPacket"}, "gc"},
		// Package main is cmd; nothing recognisable is other.
		{[]string{"strings.(*Builder).WriteString", "main.run", "main.main"}, "cmd"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.mPark"}, "other"},
		{[]string{"repro/internal/unlisted.F", "repro/internal/core.G"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestFoldSumsToOne(t *testing.T) {
	p := &profile{types: []string{"samples", "cpu"}, samples: []sample{
		{[]string{"repro/internal/sim.(*Kernel).Step"}, []int64{3, 30}},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, []int64{1, 10}},
		{[]string{"main.main"}, []int64{1, 10}},
		{[]string{"syscall.Syscall"}, []int64{1, 10}},
		{[]string{"repro/internal/sim.(*Kernel).schedule", "repro/internal/core.F"}, []int64{4, 40}},
	}}
	byLayer, total, err := p.fold("cpu")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 70, "gc": 10, "cmd": 10, "other": 10}
	var sum float64
	for l, v := range byLayer {
		if !isLayer(l) {
			t.Errorf("fold produced unknown layer %q", l)
		}
		if v != want[l] {
			t.Errorf("%s = %v, want %v", l, v, want[l])
		}
		sum += v / total
	}
	if total != 100 || math.Abs(sum-1) > 1e-12 {
		t.Errorf("total %v, fractions sum to %v", total, sum)
	}
	if _, _, err := p.fold("alloc_space"); err == nil {
		t.Error("folding a missing sample type succeeded")
	}
}

var profileSink [][]byte

//go:noinline
func allocateForProfile() {
	for i := 0; i < 64; i++ {
		profileSink = append(profileSink, make([]byte, 64<<10))
	}
}

// TestParseProfile decodes a real allocs profile written by runtime/pprof
// and finds the allocating function on a sampled stack.
func TestParseProfile(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	allocateForProfile()
	runtime.GC()
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	vi, err := p.valueIndex("alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	var found int64
	for _, s := range p.samples {
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".allocateForProfile") {
				found += s.values[vi]
				break
			}
		}
	}
	if found < 64*64<<10 {
		t.Errorf("allocateForProfile holds %d sampled bytes, want at least %d", found, 64*64<<10)
	}
}
