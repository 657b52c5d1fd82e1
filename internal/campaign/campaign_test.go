package campaign

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/remedy"
)

func TestSpecDefaults(t *testing.T) {
	s := Spec{}.WithDefaults()
	if s.Mode != "all" || s.Method != "tcpdump" || s.Seed != 1 {
		t.Errorf("unexpected defaults: %+v", s)
	}
	if s.IntervalSec != 2*s.SampleSec {
		t.Errorf("IntervalSec = %d, want twice SampleSec %d", s.IntervalSec, s.SampleSec)
	}
	if s.CheckpointSec == 0 {
		t.Error("checkpoint cadence must default on")
	}
	if err := s.Validate(); err != nil {
		t.Errorf("defaulted spec must validate: %v", err)
	}
}

func TestSpecValidateRejects(t *testing.T) {
	base := Spec{}.WithDefaults()
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"bad mode", func(s *Spec) { s.Mode = "some" }},
		{"bad method", func(s *Spec) { s.Method = "ebpf" }},
		{"no sites", func(s *Spec) { s.FederationSites = 0 }},
		{"bad checkpoint", func(s *Spec) { s.CheckpointSec = -1 }},
		{"bad rules", func(s *Spec) { s.HealthRules = []byte(`{nope`) }},
		{"bad policy", func(s *Spec) { s.Remedy = &remedy.Policy{} }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := base
			c.mut(&s)
			if err := s.Validate(); err == nil {
				t.Error("validation should fail")
			}
		})
	}
}

// smallSpec is the cheapest campaign that exercises the whole pipeline.
func smallSpec() Spec {
	pol := remedy.DefaultPolicy()
	return Spec{
		FederationSites: 2, Runs: 1, Samples: 1,
		SampleSec: 2, IntervalSec: 4, Seed: 3,
		Remedy: &pol, CheckpointSec: 5,
	}.WithDefaults()
}

func TestRunJournalsCampaign(t *testing.T) {
	dir := t.TempDir()
	res, err := RunExecLive(smallSpec(), dir, true, Exec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed || res.Profile == nil {
		t.Fatalf("clean campaign: crashed=%v profile=%v", res.Crashed, res.Profile)
	}
	recs, err := journal.ReadWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 3 {
		t.Fatalf("WAL holds %d records, want at least start/mutations/end", len(recs))
	}
	if recs[0].Kind != journal.KindCampaignStart {
		t.Errorf("first record %q, want campaign-start", recs[0].Kind)
	}
	if last := recs[len(recs)-1]; last.Kind != journal.KindCampaignEnd {
		t.Errorf("last record %q, want campaign-end", last.Kind)
	}
	kinds := map[string]int{}
	for _, r := range recs {
		kinds[r.Kind]++
	}
	if kinds[journal.KindSetup] == 0 || kinds[journal.KindRelease] == 0 {
		t.Errorf("WAL missing setup/release mutations: %v", kinds)
	}
	if kinds[journal.KindCheckpoint] == 0 {
		t.Errorf("WAL holds no checkpoints: %v", kinds)
	}
}

func TestRunRefusesOccupiedDir(t *testing.T) {
	dir := t.TempDir()
	if _, err := RunExecLive(smallSpec(), dir, true, Exec{}, nil); err != nil {
		t.Fatal(err)
	}
	_, err := RunExecLive(smallSpec(), dir, true, Exec{}, nil)
	if err == nil || !strings.Contains(err.Error(), "resume") {
		t.Errorf("second Run in the same dir: err = %v, want refusal pointing at resume", err)
	}
}

func TestResumeOfFinishedCampaignReplaysClean(t *testing.T) {
	dir := t.TempDir()
	first, err := RunExecLive(smallSpec(), dir, true, Exec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Resuming a campaign that already finished replays the whole WAL,
	// verifies it, and lands in the same final state.
	again, err := ResumeExecLive(dir, true, Exec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Replayed == 0 {
		t.Error("resume verified no records")
	}
	if again.Profile == nil || again.Profile.SuccessRate() != first.Profile.SuccessRate() {
		t.Error("replayed campaign diverged from the original")
	}
}

// TestRunLeavesNoGoroutines: harvest compresses pcaps on worker
// goroutines, and none outlives RunExecLive. Both sites harvest (at 5 s
// and 6 s) and deliver their bundles 10 s later; the killed run stops at
// a crash point just after the second harvest, so only the run's own
// join covers streams that are still being compressed.
func TestRunLeavesNoGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name    string
		crashAt float64
	}{{"completed", 0}, {"killed", 6.0001}} {
		t.Run(tc.name, func(t *testing.T) {
			spec := smallSpec()
			spec.SampleSec, spec.IntervalSec = 5, 10
			if tc.crashAt > 0 {
				spec.Faults = &faults.Plan{CrashPoints: []faults.CrashPoint{{AtSec: tc.crashAt}}}
			}
			start := runtime.NumGoroutine()
			res, err := RunExecLive(spec, t.TempDir(), true, Exec{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Crashed != (tc.crashAt > 0) {
				t.Fatalf("crashed = %v", res.Crashed)
			}
			buf := make([]byte, 1<<20)
			stacks := string(buf[:runtime.Stack(buf, true)])
			if strings.Contains(stacks, "core.compressPcap") {
				t.Errorf("a pcap is still being compressed after RunExecLive returned:\n%s", stacks)
			}
			if strings.Contains(stacks, "core.(*TrafficDriver).build") {
				t.Errorf("a traffic window is still being built after RunExecLive returned:\n%s", stacks)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > start {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), start)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
