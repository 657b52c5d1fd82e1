package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/livemon"
)

// liveServer builds a livemon server with an on-disk ring under dir.
func liveServer(t *testing.T, dir string) *livemon.Server {
	t.Helper()
	s, err := livemon.New(livemon.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// walBytes reads the raw WAL file — the byte-identity artifact.
func walBytes(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "wal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func metricsProm(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLiveSinkDoesNotPerturbArtifacts is the determinism gate for the
// telemetry plane: the same seeded campaign run with and without a live
// sink attached must produce byte-identical WALs, metric exports, alert
// transitions and flight-recorder dumps. The sink publishes from the
// drive loop, so attaching it must not add a single kernel event. A
// corrupted STAR mirror makes mirror-drop-ratio fire, so the dumps
// compared are real ones.
func TestLiveSinkDoesNotPerturbArtifacts(t *testing.T) {
	spec := smallSpec()
	spec.Faults = &faults.Plan{MirrorCorruptions: []faults.MirrorCorruption{{Site: "STAR", Rate: 0.3}}}

	plainDir := t.TempDir()
	plain, err := RunExecLive(spec, plainDir, true, Exec{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	servedDir := t.TempDir()
	live := liveServer(t, t.TempDir())
	served, err := RunExecLive(spec, servedDir, true, Exec{}, live)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(walBytes(t, plainDir), walBytes(t, servedDir)) {
		t.Fatal("WAL differs between served and unserved runs")
	}
	if !bytes.Equal(metricsProm(t, plain), metricsProm(t, served)) {
		t.Fatal("metrics export differs between served and unserved runs")
	}
	if !reflect.DeepEqual(plain.Monitor.Events(), served.Monitor.Events()) {
		t.Fatalf("alert transitions differ between served and unserved runs:\n%+v\n%+v",
			plain.Monitor.Events(), served.Monitor.Events())
	}
	plainDumps, servedDumps := plain.Monitor.Dumps(), served.Monitor.Dumps()
	if len(plainDumps) != len(servedDumps) {
		t.Fatalf("%d dumps unserved, %d served", len(plainDumps), len(servedDumps))
	}
	mirror := false
	for i, d := range plainDumps {
		if d.Name != servedDumps[i].Name || !bytes.Equal(d.Data, servedDumps[i].Data) {
			t.Fatalf("dump %d differs between served and unserved runs: %s vs %s", i, d.Name, servedDumps[i].Name)
		}
		mirror = mirror || strings.HasPrefix(d.Name, "mirror-drop-ratio--")
	}
	if !mirror {
		t.Fatalf("no mirror-drop-ratio dump among %d; the corrupted mirror should fire it", len(plainDumps))
	}
	t.Logf("%d alert transitions and %d dumps match", len(plain.Monitor.Events()), len(plainDumps))
	// The sink actually saw the run: snapshots in the ring, journal
	// gauges on the runtime registry.
	if live.RingRef().Len() == 0 {
		t.Fatal("live ring holds no records after a served campaign")
	}
	found := false
	for _, mp := range live.Runtime().Snapshot() {
		if mp.Name == "patchwork_campaign_wal_appended" && mp.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("runtime registry missing campaign WAL gauges")
	}
}

// TestLiveCrashResumeRecoversRing runs a crashing campaign with a live
// sink, resumes it with a fresh sink over the same ring directory, and
// checks (a) the resumed WAL byte-matches an uninterrupted baseline and
// (b) the ring suppresses replayed history instead of duplicating it.
func TestLiveCrashResumeRecoversRing(t *testing.T) {
	spec := smallSpec()
	spec.Faults = &faults.Plan{CrashPoints: []faults.CrashPoint{{AtSec: 6}}}

	baseDir := t.TempDir()
	if _, err := RunExecLive(spec, baseDir, false, Exec{}, nil); err != nil { // no-kill baseline
		t.Fatal(err)
	}

	crashDir, ringDir := t.TempDir(), t.TempDir()
	live := liveServer(t, ringDir)
	res, err := RunExecLive(spec, crashDir, true, Exec{}, live)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed {
		t.Fatal("campaign did not crash at the injected crash point")
	}
	if live.RingRef().Len() == 0 {
		t.Fatal("ring empty at crash")
	}
	if err := live.Close(); err != nil { // the "process" died; flush like its exit handler would
		t.Fatal(err)
	}

	// Resume with a fresh server over the same ring directory — the
	// recovered frontier suppresses the replayed prefix.
	live2 := liveServer(t, ringDir)
	if live2.RingRef().Recovered() == 0 {
		t.Fatal("reopened ring recovered nothing")
	}
	res2, err := ResumeExecLive(crashDir, true, Exec{}, live2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Crashed || res2.Profile == nil {
		t.Fatalf("resume did not finish: crashed=%v", res2.Crashed)
	}
	if res2.Replayed == 0 {
		t.Fatal("resume verified no journal records")
	}

	if !bytes.Equal(walBytes(t, baseDir), walBytes(t, crashDir)) {
		t.Fatal("crash+resume WAL differs from uninterrupted baseline")
	}

	// No snapshot in the ring may predate the recovered frontier twice:
	// sequence numbers must stay strictly increasing across both lives.
	var last uint64
	ok := true
	live2.RingRef().Scan(func(rec livemon.Record) bool {
		if rec.Seq <= last {
			ok = false
			return false
		}
		last = rec.Seq
		return true
	})
	if !ok {
		t.Fatal("ring sequence numbers not strictly increasing after resume")
	}
}
