package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// small is a campaign of 2 sites, 1 run, 2 samples of 2 s.
var small = []string{"-federation-sites", "2", "-runs", "1", "-samples", "2", "-sample-sec", "2", "-seed", "7"}

// runCLI runs patchwork with small plus extra into <tmp>/<name>, with
// its metrics in <tmp>/<name>.prom, and fails the test unless it exits
// with want. It returns the output directory and stdout.
func runCLI(t *testing.T, tmp, name string, want int, extra ...string) (string, string) {
	t.Helper()
	out := filepath.Join(tmp, name)
	args := append([]string{"-out", out, "-metrics", out + ".prom"}, small...)
	var stdout, stderr bytes.Buffer
	if code := run(append(args, extra...), &stdout, &stderr); code != want {
		t.Fatalf("%s: exit %d, want %d\nstderr:\n%s", name, code, want, stderr.String())
	}
	return out, stdout.String()
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWatchAndTraceAreObservers: -watch prints the status table from the
// drive loop and -trace exports the span tree, and neither changes the
// run's metrics or its WAL.
func TestWatchAndTraceAreObservers(t *testing.T) {
	tmp := t.TempDir()
	plain, _ := runCLI(t, tmp, "plain", 0)
	trace := filepath.Join(tmp, "trace.jsonl")
	watched, stdout := runCLI(t, tmp, "watched", 0, "-watch", "-watch-sec", "5", "-trace", trace)

	if !bytes.Equal(readFile(t, plain+".prom"), readFile(t, watched+".prom")) {
		t.Error("-watch/-trace changed the metrics file")
	}
	wal := filepath.Join("journal", "wal.jsonl")
	if !bytes.Equal(readFile(t, filepath.Join(plain, wal)), readFile(t, filepath.Join(watched, wal))) {
		t.Error("-watch/-trace changed the WAL")
	}
	for _, want := range []string{"patchwork health @ t=5.000000000s", "patchwork health @ t=10.000000000s", "final health status:"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
	if len(readFile(t, trace)) == 0 {
		t.Error("-trace wrote an empty file")
	}
}

// TestStorageSlowdownActs: a plan holding only a storage slowdown takes
// effect in a run with no other flag, because every run models its
// listeners' storage.
func TestStorageSlowdownActs(t *testing.T) {
	tmp := t.TempDir()
	plan := filepath.Join(tmp, "plan.json")
	if err := os.WriteFile(plan, []byte(`{"name": "slow", "storage_slowdowns": [{"site": "STAR", "factor": 3}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _ := runCLI(t, tmp, "slow", 0, "-faults", plan)

	const series = `faults_injected_total{kind="storage-slowdown"} `
	sc := bufio.NewScanner(bytes.NewReader(readFile(t, out+".prom")))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), series)
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v <= 0 {
			t.Errorf("%s= %v, want > 0", series, v)
		}
		return
	}
	t.Fatalf("metrics lack %s", series)
}

// TestRemedyIsOptIn: the supervisor runs, and the manifest records its
// policy, only with -remedy. A second run into the same -out finds the
// journal and refuses.
func TestRemedyIsOptIn(t *testing.T) {
	tmp := t.TempDir()
	for _, tc := range []struct {
		name  string
		extra []string
		want  bool
	}{
		{"bare", nil, false},
		{"remedy", []string{"-remedy"}, true},
	} {
		out, _ := runCLI(t, tmp, tc.name, 0, tc.extra...)
		var manifest map[string]json.RawMessage
		if err := json.Unmarshal(readFile(t, filepath.Join(out, "journal", "manifest.json")), &manifest); err != nil {
			t.Fatal(err)
		}
		if _, got := manifest["remedy"]; got != tc.want {
			t.Errorf("%s: manifest has remedy = %v, want %v", tc.name, got, tc.want)
		}
		if _, err := os.Stat(filepath.Join(out, "remedy")); (err == nil) != tc.want {
			t.Errorf("%s: remedy artifacts present = %v, want %v", tc.name, err == nil, tc.want)
		}
	}

	var stdout, stderr bytes.Buffer
	args := append([]string{"-out", filepath.Join(tmp, "bare")}, small...)
	if code := run(args, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "already holds a campaign") {
		t.Errorf("rerun into the same -out: exit %d, stderr %q", code, stderr.String())
	}
}

// TestExplicitZeroRejected: the campaign would turn a zero in any of
// these flags into its default, so the command line refuses the zero
// (exit 2, naming the flag and that default) before anything runs.
func TestExplicitZeroRejected(t *testing.T) {
	def := campaign.Spec{}.WithDefaults()
	for _, tc := range []struct {
		flag string
		def  uint64
	}{
		{"runs", uint64(def.Runs)},
		{"samples", uint64(def.Samples)},
		{"sample-sec", uint64(def.SampleSec)},
		{"truncate", uint64(def.TruncateBytes)},
		{"seed", def.Seed},
		{"federation-sites", uint64(def.FederationSites)},
		{"checkpoint-sec", uint64(def.CheckpointSec)},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out")
			args := append([]string{"-out", out}, small...)
			var stdout, stderr bytes.Buffer
			if code := run(append(args, "-"+tc.flag, "0"), &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2\nstderr:\n%s", code, stderr.String())
			}
			want := fmt.Sprintf("-%s 0 would become the default %d", tc.flag, tc.def)
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("stderr %q lacks %q", stderr.String(), want)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("the refused run touched its output directory (stat: %v)", err)
			}
		})
	}
}
