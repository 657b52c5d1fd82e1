package repro

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/campaign"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/remedy"
)

// The campaign-level determinism-equivalence harness for sharded
// execution: a full journaled campaign — capture pipeline, health
// monitor, self-healing supervisor, fault injection — must leave
// byte-identical artifacts whether the kernel is driven serially or
// through parallel dataplane lanes, at every worker count.

// lanedHostilePlan is the hostile fault-plan variant against the first
// three sites of the default federation (STAR, NCSA, UCSD): a flaky
// allocator and corrupted mirror, a site outage, port flaps, slow
// storage, and capture stalls — all while lanes run in parallel.
const lanedHostilePlan = `{
  "name": "laned-hostile",
  "allocator_transients": [{"site": "STAR", "rate": 0.3, "from_sec": 0, "to_sec": 20}],
  "site_outages":         [{"site": "NCSA", "from_sec": 1, "to_sec": 6}],
  "port_flaps":           [{"site": "UCSD", "port": "P1", "at_sec": 4, "down_sec": 2, "repeat": 2, "every_sec": 8}],
  "mirror_corruptions":   [{"site": "STAR", "rate": 0.05}],
  "storage_slowdowns":    [{"site": "NCSA", "factor": 3}],
  "capture_stalls":       [{"site": "UCSD", "rate": 0.1, "stall_sec": 0.002}]
}`

// lanedArtifacts is every campaign output the harness byte-compares.
type lanedArtifacts struct {
	metrics  []byte
	alertLog []byte
	wal      []byte
	pcapDig  uint64
	pcaps    int
	summary  string
}

func lanedSpec(t *testing.T, hostile bool) campaign.Spec {
	t.Helper()
	pol := remedy.DefaultPolicy()
	spec := campaign.Spec{
		FederationSites: 3, Runs: 1, Samples: 2,
		SampleSec: 2, IntervalSec: 4, Seed: 17,
		Remedy: &pol, CheckpointSec: 5,
	}
	if hostile {
		plan, err := faults.Parse([]byte(lanedHostilePlan))
		if err != nil {
			t.Fatal(err)
		}
		spec.Faults = &plan
	}
	return spec.WithDefaults()
}

// runLanedCampaign executes one campaign under the given execution
// strategy and collects its artifacts. kill=false: crash points (none
// in these plans) would be journaled but not honored.
func runLanedCampaign(t *testing.T, spec campaign.Spec, exec campaign.Exec) lanedArtifacts {
	t.Helper()
	dir := t.TempDir()
	res, err := campaign.RunExecLive(spec, dir, false, exec, nil)
	if err != nil {
		t.Fatalf("campaign (lanes=%d workers=%d): %v", exec.Lanes, exec.Workers, err)
	}
	if res.Crashed || res.Profile == nil {
		t.Fatalf("campaign (lanes=%d workers=%d): crashed=%v", exec.Lanes, exec.Workers, res.Crashed)
	}
	return collectLanedArtifacts(t, res, dir)
}

func collectLanedArtifacts(t *testing.T, res *campaign.Result, dir string) lanedArtifacts {
	t.Helper()
	var metrics bytes.Buffer
	if err := res.Registry.WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	var alerts bytes.Buffer
	if err := res.Monitor.WriteAlertLog(&alerts); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, journal.WALFile))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	pcaps := 0
	for _, b := range res.Profile.Bundles {
		fmt.Fprintf(h, "site=%s n=%d\n", b.Site, len(b.CompressedPcaps))
		for _, p := range b.CompressedPcaps {
			h.Write(p)
			pcaps++
		}
	}
	art := lanedArtifacts{
		metrics:  metrics.Bytes(),
		alertLog: alerts.Bytes(),
		wal:      wal,
		pcapDig:  h.Sum64(),
		pcaps:    pcaps,
	}
	if res.Injector != nil {
		art.summary = res.Injector.Summary()
	}
	return art
}

func diffLanedArtifacts(t *testing.T, label string, want, got lanedArtifacts) {
	t.Helper()
	if !bytes.Equal(want.metrics, got.metrics) {
		t.Errorf("%s: metrics differ from serial (lens %d vs %d)", label, len(got.metrics), len(want.metrics))
	}
	if !bytes.Equal(want.alertLog, got.alertLog) {
		t.Errorf("%s: alert log differs from serial:\n%s\nvs\n%s", label, got.alertLog, want.alertLog)
	}
	if !bytes.Equal(want.wal, got.wal) {
		t.Errorf("%s: journal WAL differs from serial (lens %d vs %d)", label, len(got.wal), len(want.wal))
	}
	if want.pcapDig != got.pcapDig || want.pcaps != got.pcaps {
		t.Errorf("%s: pcap digest %#x (%d pcaps), serial %#x (%d)", label, got.pcapDig, got.pcaps, want.pcapDig, want.pcaps)
	}
	if want.summary != got.summary {
		t.Errorf("%s: injection summary %q, serial %q", label, got.summary, want.summary)
	}
}

func lanedWorkerCounts() []int {
	counts := []int{1, 2, 4, 8}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 && n != 8 {
		counts = append(counts, n)
	}
	return counts
}

// TestLanedCampaignEquivalence: identical seeded campaigns, serial vs
// laned at worker counts {1, 2, 4, 8, NumCPU}, must agree byte-for-byte
// on metrics, alert logs, pcap digests, and journal WALs — clean and
// under the hostile fault plan.
func TestLanedCampaignEquivalence(t *testing.T) {
	for _, hostile := range []bool{false, true} {
		name := "clean"
		if hostile {
			name = "hostile"
		}
		hostile := hostile
		t.Run(name, func(t *testing.T) {
			spec := lanedSpec(t, hostile)
			serial := runLanedCampaign(t, spec, campaign.Exec{})
			if serial.pcaps == 0 {
				t.Fatal("serial baseline produced no pcaps")
			}
			if hostile && serial.summary == "" {
				t.Fatal("hostile baseline injected nothing")
			}
			for _, workers := range lanedWorkerCounts() {
				exec := campaign.Exec{Lanes: 3, Workers: workers}
				got := runLanedCampaign(t, spec, exec)
				diffLanedArtifacts(t, fmt.Sprintf("lanes=3 workers=%d", workers), serial, got)
			}
		})
	}
}

// TestLanedCampaignCrashResume: a laned campaign killed at an injected
// crash point and resumed (still laned) must converge on the exact
// artifacts of the uninterrupted SERIAL baseline — crash consistency
// and shard equivalence composed.
func TestLanedCampaignCrashResume(t *testing.T) {
	spec := lanedSpec(t, false)
	plan, err := faults.Parse([]byte(`{"name": "laned-crash", "crash_points": [{"at_sec": 7}]}`))
	if err != nil {
		t.Fatal(err)
	}
	spec.Faults = &plan

	baseline := runLanedCampaign(t, spec, campaign.Exec{}) // kill=false: crash ignored

	exec := campaign.Exec{Lanes: 3, Workers: 4}
	dir := t.TempDir()
	res, err := campaign.RunExecLive(spec, dir, true, exec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed {
		t.Fatal("laned campaign did not honor the crash point")
	}
	// Resume under a DIFFERENT worker count: the journal must not care
	// how the dead campaign was sharded.
	res, err = campaign.ResumeExecLive(dir, true, campaign.Exec{Lanes: 3, Workers: 2}, nil)
	if err != nil {
		t.Fatalf("laned resume: %v", err)
	}
	if res.Crashed || res.Profile == nil {
		t.Fatalf("resume did not complete: crashed=%v", res.Crashed)
	}
	got := collectLanedArtifacts(t, res, dir)
	// The killed run's WAL carries the extra crash record; everything
	// else must match the uninterrupted serial baseline exactly.
	if !bytes.Equal(baseline.metrics, got.metrics) {
		t.Errorf("resumed laned metrics differ from serial baseline (lens %d vs %d)",
			len(got.metrics), len(baseline.metrics))
	}
	if !bytes.Equal(baseline.alertLog, got.alertLog) {
		t.Error("resumed laned alert log differs from serial baseline")
	}
	if baseline.pcapDig != got.pcapDig {
		t.Errorf("resumed laned pcap digest %#x, serial baseline %#x", got.pcapDig, baseline.pcapDig)
	}
}
