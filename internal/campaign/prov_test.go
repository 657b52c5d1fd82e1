package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/prof"
)

// promDump renders a result's sim registry for artifact comparison.
func promDump(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestProvenanceDeterministicAcrossLanes is the campaign-level gate for
// the tentpole guarantee: the same spec produces a byte-identical
// provenance trace serially and under sharded lanes, and recording the
// trace never perturbs the run's other artifacts.
func TestProvenanceDeterministicAcrossLanes(t *testing.T) {
	spec := smallSpec()
	spec.FederationSites = 3

	base, err := RunExecLive(spec, t.TempDir(), true, Exec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseProm := promDump(t, base)

	serialPath := filepath.Join(t.TempDir(), "serial.trace")
	serial, err := RunExecLive(spec, t.TempDir(), true, Exec{ProvenancePath: serialPath}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lanedPath := filepath.Join(t.TempDir(), "laned.trace")
	laned, err := RunExecLive(spec, t.TempDir(), true, Exec{
		Lanes: 2, Workers: 2, ProvenancePath: lanedPath,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	sb, err := os.ReadFile(serialPath)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := os.ReadFile(lanedPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb, lb) {
		t.Fatal("provenance trace differs between serial and laned execution")
	}
	if !bytes.Equal(baseProm, promDump(t, serial)) {
		t.Error("recording provenance perturbed the metrics artifact")
	}
	if !bytes.Equal(baseProm, promDump(t, laned)) {
		t.Error("laned provenance run perturbed the metrics artifact")
	}

	tr, err := prof.LoadTrace(serialPath)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(tr.Events)) != serial.ProvRecords {
		t.Errorf("loaded %d events, writer reported %d", len(tr.Events), serial.ProvRecords)
	}
	if len(tr.Events) == 0 {
		t.Fatal("campaign emitted no provenance records")
	}
	if len(tr.TagNames) != spec.FederationSites {
		t.Errorf("trace defines %d site tags, want %d", len(tr.TagNames), spec.FederationSites)
	}
	tagged := false
	for _, e := range tr.Events {
		if e.Tag != 0 {
			tagged = true
			break
		}
	}
	if !tagged {
		t.Error("no events attributed to any site")
	}
	if path := tr.CriticalPath(); len(path) == 0 {
		t.Error("trace yields no critical path")
	}
}

// TestProfileExec checks the wall-plane profiler attaches under lanes
// and never perturbs sim artifacts.
func TestProfileExec(t *testing.T) {
	spec := smallSpec()
	spec.FederationSites = 3

	base, err := RunExecLive(spec, t.TempDir(), true, Exec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunExecLive(spec, t.TempDir(), true, Exec{Lanes: 2, Workers: 2, Profile: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.LaneProfiler == nil {
		t.Fatal("laned profiled run returned no profiler")
	}
	s := res.LaneProfiler.Summary()
	if s.Workers != 2 || s.Lanes != 2 {
		t.Errorf("summary workers/lanes = %d/%d, want 2/2", s.Workers, s.Lanes)
	}
	if !bytes.Equal(promDump(t, base), promDump(t, res)) {
		t.Error("profiling perturbed the metrics artifact")
	}

	// Serial execution has no lane scheduler to profile.
	serial, err := RunExecLive(spec, t.TempDir(), true, Exec{Profile: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if serial.LaneProfiler != nil {
		t.Error("serial run should not attach a lane profiler")
	}
}
