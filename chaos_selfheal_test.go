package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/remedy"
)

// selfHealPlan is the hostile plan the remediation supervisor must
// recover from: a site outage overlapping NCSA's setup (driving
// alloc-failure burn and a slice re-allocation), corrupted mirror
// sessions at STAR (driving mirror re-arms), and long capture-core
// stalls at UCSD (starving the listener-liveness signal and driving
// engine restarts). The storage-rotation pressure comes from the
// spec's tight storage limit, not the plan.
const selfHealPlan = `{
  "name": "self-heal",
  "site_outages":       [{"site": "NCSA", "from_sec": 1, "to_sec": 8}],
  "mirror_corruptions": [{"site": "STAR", "rate": 0.3}],
  "capture_stalls":     [{"site": "UCSD", "rate": 0.02, "stall_sec": 4}]
}`

// selfHealRules tunes the bundled alert thresholds to the test's small
// scale: a 3-second listener staleness window (the injected stalls are
// 4 s), the default mirror-drop and alloc-burn rules, and a
// storage-pressure threshold sized against the spec's storage limit.
const selfHealRules = `{
  "name": "self-heal-test",
  "rules": [
    {"name": "listener-stale", "severity": "warning",
     "absence": {"metric": "capture_core_queue_highwater", "stale_sec": 3}},
    {"name": "mirror-drop-ratio", "severity": "warning", "for_sec": 2,
     "threshold": {"expr": {"metric": "switchsim_mirror_fault_drops_total", "agg": "rate", "window_sec": 30,
       "divisor": {"metric": "switchsim_mirror_cloned_total", "agg": "rate", "window_sec": 30}},
       "op": ">", "value": 0.02}},
    {"name": "alloc-failure-burn", "severity": "warning",
     "burn_rate": {"expr": {"metric": "testbed_alloc_failures_total", "agg": "rate", "window_sec": 30},
       "budget_per_hour": 12, "max_burn": 10}},
    {"name": "storage-pressure", "severity": "critical", "for_sec": 2,
     "threshold": {"expr": {"metric": "patchwork_storage_free_bytes"}, "op": "<", "value": %d}}
  ]
}`

// selfHealPolicy binds each alert to its remediation with short
// cooldowns and generous retry budgets (the test wants recoveries, not
// suppression), and quarantine disabled so one unlucky site cannot
// starve the assertions.
const selfHealPolicy = `{
  "name": "self-heal-test",
  "rate": {"actions_per_sec": 10, "burst": 10},
  "quarantine_after": 0,
  "rules": [
    {"name": "restart", "on_rule": "listener-stale", "action": "restart-listener",
     "cooldown_sec": 5, "max_attempts": 6, "max_elapsed_sec": 120},
    {"name": "realloc", "on_rule": "alloc-failure-burn", "action": "reallocate",
     "cooldown_sec": 5, "max_attempts": 8, "max_elapsed_sec": 240},
    {"name": "rearm", "on_rule": "mirror-drop-ratio", "action": "rearm-mirror",
     "cooldown_sec": 5, "max_attempts": 6, "max_elapsed_sec": 120},
    {"name": "rotate", "on_rule": "storage-pressure", "action": "rotate-storage",
     "cooldown_sec": 5, "max_attempts": 6, "max_elapsed_sec": 120}
  ]
}`

// selfHealSpec builds the campaign the self-healing tests share.
func selfHealSpec(t *testing.T, planJSON string) campaign.Spec {
	t.Helper()
	// Tight enough that the three cycles' accumulated captures (~250-350
	// KB each) overflow it without rotation, but roomy enough that one
	// cycle's live (unharvestable) bytes never overflow it alone.
	const storageLimit = 768 << 10
	plan, err := faults.Parse([]byte(planJSON))
	if err != nil {
		t.Fatal(err)
	}
	pol, err := remedy.ParsePolicy([]byte(selfHealPolicy))
	if err != nil {
		t.Fatal(err)
	}
	rules := []byte(sprintfRules(selfHealRules, storageLimit/2))
	return campaign.Spec{
		Mode:              "all",
		FederationSites:   3, // STAR, NCSA, UCSD
		Runs:              3,
		Samples:           2,
		SampleSec:         2,
		IntervalSec:       4,
		Seed:              11,
		Instances:         1,
		StorageLimitBytes: storageLimit,
		HealthRules:       json.RawMessage(rules),
		Faults:            &plan,
		Remedy:            &pol,
		CheckpointSec:     10,
	}
}

func sprintfRules(format string, limit int64) string {
	return fmt.Sprintf(format, limit)
}

// campaignArtifacts flattens a campaign result into the byte artifacts
// the determinism contract is checked on.
type campaignArtifacts struct {
	metrics, alertLog, remedyLog, wal []byte
	outcomes                          map[string]int
}

func collectArtifacts(t *testing.T, res *campaign.Result) campaignArtifacts {
	t.Helper()
	var metrics, alerts, actions bytes.Buffer
	if err := res.Registry.WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	if err := res.Monitor.WriteAlertLog(&alerts); err != nil {
		t.Fatal(err)
	}
	if err := res.Supervisor.WriteActionLog(&actions); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(res.Dir, journal.WALFile))
	if err != nil {
		t.Fatal(err)
	}
	return campaignArtifacts{
		metrics:   metrics.Bytes(),
		alertLog:  alerts.Bytes(),
		remedyLog: actions.Bytes(),
		wal:       wal,
		outcomes:  res.Supervisor.Outcomes(),
	}
}

// TestChaosSelfHealing: under the hostile plan the supervisor must
// actually heal the campaign — at least one successful listener
// restart, one slice re-allocation, and one storage rotation — and the
// campaign must still complete. Same-seed reruns must produce a
// byte-identical remediation log (the determinism contract).
func TestChaosSelfHealing(t *testing.T) {
	spec := selfHealSpec(t, selfHealPlan)
	res, err := campaign.RunExecLive(spec, t.TempDir(), true, campaign.Exec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed {
		t.Fatal("campaign crashed with no crash points in the plan")
	}
	art := collectArtifacts(t, res)
	t.Logf("remediation outcomes: %v", art.outcomes)
	t.Logf("remediation log:\n%s", art.remedyLog)

	for _, action := range []string{"restart-listener", "reallocate", "rotate-storage"} {
		if art.outcomes[action+"/ok"] == 0 {
			t.Errorf("no successful %s remediation under the hostile plan", action)
		}
	}
	// The tight storage limit means an unrotated site dies to the
	// watchdog; every site surviving proves rotation worked in time.
	for _, b := range res.Profile.Bundles {
		t.Logf("%s: %v granted=%d/%d pcaps=%d (%s)", b.Site, b.Outcome,
			b.InstancesGranted, b.InstancesRequested, len(b.CompressedPcaps), b.FailureReason)
	}
	if res.Profile.SuccessRate() < 1 {
		t.Errorf("success rate %.2f under remediation, want 1.0", res.Profile.SuccessRate())
	}

	// Determinism: a second same-seed campaign must emit byte-identical
	// remediation and alert logs.
	res2, err := campaign.RunExecLive(spec, t.TempDir(), true, campaign.Exec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	art2 := collectArtifacts(t, res2)
	if !bytes.Equal(art.remedyLog, art2.remedyLog) {
		t.Errorf("same seed, different remediation logs:\n%s\nvs\n%s", art.remedyLog, art2.remedyLog)
	}
	if !bytes.Equal(art.alertLog, art2.alertLog) {
		t.Error("same seed, different alert logs")
	}
	if !bytes.Equal(art.wal, art2.wal) {
		t.Error("same seed, different campaign WALs")
	}
}

// TestChaosCrashResume: a campaign killed at injected crash points and
// resumed (as many times as it takes) must finish with every artifact
// — WAL, metrics, alert log, remediation log — byte-identical to the
// same campaign run uninterrupted. This is the checkpoint/restore
// contract end to end.
func TestChaosCrashResume(t *testing.T) {
	plan := `{
	  "name": "self-heal-crash",
	  "site_outages":       [{"site": "NCSA", "from_sec": 1, "to_sec": 8}],
	  "mirror_corruptions": [{"site": "STAR", "rate": 0.3}],
	  "capture_stalls":     [{"site": "UCSD", "rate": 0.02, "stall_sec": 4}],
	  "crash_points":       [{"at_sec": 7}, {"at_sec": 19}]
	}`
	spec := selfHealSpec(t, plan)

	// Baseline: crash points journaled but not honored.
	baseDir := t.TempDir()
	base, err := campaign.RunExecLive(spec, baseDir, false, campaign.Exec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseArt := collectArtifacts(t, base)

	// The real thing: killed at each crash point, resumed after each.
	crashDir := t.TempDir()
	res, err := campaign.RunExecLive(spec, crashDir, true, campaign.Exec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	crashes := 0
	for res.Crashed {
		crashes++
		if crashes > 5 {
			t.Fatal("campaign still crashing after 5 resumes")
		}
		t.Logf("crashed at t=%v; resuming", res.CrashedAt)
		if res, err = campaign.ResumeExecLive(crashDir, true, campaign.Exec{}, nil); err != nil {
			t.Fatal(err)
		}
		if res.Replayed == 0 {
			t.Error("resume replayed no journal records")
		}
	}
	if crashes != 2 {
		t.Errorf("crashed %d times, want 2 (one per crash point)", crashes)
	}
	art := collectArtifacts(t, res)

	if !bytes.Equal(art.wal, baseArt.wal) {
		t.Errorf("resumed WAL differs from uninterrupted baseline:\n%s\nvs\n%s", art.wal, baseArt.wal)
	}
	if !bytes.Equal(art.metrics, baseArt.metrics) {
		t.Errorf("resumed metrics differ from baseline (lens %d vs %d)", len(art.metrics), len(baseArt.metrics))
	}
	if !bytes.Equal(art.alertLog, baseArt.alertLog) {
		t.Error("resumed alert log differs from baseline")
	}
	if !bytes.Equal(art.remedyLog, baseArt.remedyLog) {
		t.Errorf("resumed remediation log differs from baseline:\n%s\nvs\n%s", art.remedyLog, baseArt.remedyLog)
	}

	// The resumed run must also have verified a real prefix, and the WAL
	// must record both crashes.
	recs, err := journal.ReadWAL(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	crashRecs := 0
	for _, r := range recs {
		if r.Kind == journal.KindCrash {
			crashRecs++
		}
	}
	if crashRecs != 2 {
		t.Errorf("WAL records %d crashes, want 2", crashRecs)
	}
}

// TestCampaignResumeDetectsDivergence: resuming a journal with a
// different world (here: a WAL doctored to claim different history)
// must fail loudly with a divergence error, never continue silently.
func TestCampaignResumeDetectsDivergence(t *testing.T) {
	spec := selfHealSpec(t, selfHealPlan)
	dir := t.TempDir()
	if _, err := campaign.RunExecLive(spec, dir, true, campaign.Exec{}, nil); err != nil {
		t.Fatal(err)
	}
	// Doctor the manifest's seed: replay now regenerates different
	// history than the WAL holds.
	manifest, err := journal.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	var doctored campaign.Spec
	if err := json.Unmarshal(manifest, &doctored); err != nil {
		t.Fatal(err)
	}
	doctored.Seed = 12
	data, err := json.MarshalIndent(doctored, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, journal.ManifestFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.ResumeExecLive(dir, true, campaign.Exec{}, nil); err == nil {
		t.Fatal("resume with a doctored seed succeeded; want divergence error")
	} else {
		t.Logf("divergence correctly detected: %v", err)
	}
}
