package prof

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/crcline"
	"repro/internal/sim"
)

// writeSampleTrace writes a small hand-built DAG through the real
// Writer and returns the file path.
//
//	seq 1 (root, t=10, site-a) ─┬─ seq 2 (t=30, site-a)
//	                            └─ seq 3 (t=20, site-b) ── seq 4 (t=100, site-b)
//	seq 5 (root, t=50, untagged)
func writeSampleTrace(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "provenance.trace")
	w, err := CreateTrace(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	w.DefTag(1, "site-a")
	w.DefTag(2, "site-b")
	fnA := sim.CallbackPC(fnAlpha, nil)
	fnB := sim.CallbackPC(fnBeta, nil)
	for _, r := range []sim.ProvRecord{
		{Seq: 1, Parent: sim.NoProvParent, At: 10, PC: fnA, Tag: 1},
		{Seq: 2, Parent: 1, At: 30, PC: fnA, Tag: 1},
		{Seq: 3, Parent: 1, At: 20, PC: fnB, Tag: 2},
		{Seq: 4, Parent: 3, At: 100, PC: fnB, Tag: 2},
		{Seq: 5, Parent: sim.NoProvParent, At: 50, PC: fnA, Tag: 0},
	} {
		w.Record(r)
	}
	if n := w.Records(); n != 5 {
		t.Fatalf("Records() = %d, want 5", n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func fnAlpha() {}
func fnBeta()  {}

func TestRoundTrip(t *testing.T) {
	path := writeSampleTrace(t)
	tr, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 5 {
		t.Fatalf("loaded %d events, want 5", len(tr.Events))
	}
	if tr.Torn {
		t.Error("clean trace reported torn")
	}
	if tr.Events[3].Parent != 3 || tr.Events[3].At != 100 {
		t.Errorf("event 4 = %+v", tr.Events[3])
	}
	if tr.Events[0].Parent != -1 {
		t.Errorf("root parent = %d, want -1", tr.Events[0].Parent)
	}
	if got := tr.TagName(2); got != "site-b" {
		t.Errorf("TagName(2) = %q", got)
	}
	if got := tr.TagName(0); got != "(untagged)" {
		t.Errorf("TagName(0) = %q", got)
	}
	if !strings.Contains(tr.FnName(tr.Events[0].Fn), "fnAlpha") {
		t.Errorf("fn name = %q, want ...fnAlpha", tr.FnName(tr.Events[0].Fn))
	}
}

func TestWriterDeterministic(t *testing.T) {
	a, err := os.ReadFile(writeSampleTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(writeSampleTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("identical record streams produced different trace bytes")
	}
}

func TestTornTail(t *testing.T) {
	path := writeSampleTrace(t)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`deadbeef {"k":"ev","s":9`) // torn mid-line
	f.Close()
	tr, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Torn {
		t.Error("damaged tail not reported as torn")
	}
	if len(tr.Events) != 5 {
		t.Errorf("intact prefix lost: %d events, want 5", len(tr.Events))
	}
}

// TestUnterminatedFinalFrameIsTorn: a last frame missing its newline is
// torn even though its checksum validates, as pwfsck and every other
// reader of the framing count it; pwfsck -repair deletes it.
func TestUnterminatedFinalFrameIsTorn(t *testing.T) {
	path := writeSampleTrace(t)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-1); err != nil {
		t.Fatal(err)
	}
	tr, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 4 || !tr.Torn {
		t.Errorf("loaded %d events (torn=%v), want 4 and torn", len(tr.Events), tr.Torn)
	}
}

// TestOverLongFrame: no frame is too long to load. A 2 MiB tag name
// sits ahead of the events and must not hide them.
func TestOverLongFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "provenance.trace")
	w, err := CreateTrace(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	name := strings.Repeat("s", 2<<20)
	w.DefTag(1, name)
	pc := sim.CallbackPC(fnAlpha, nil)
	for seq := uint64(1); seq <= 3; seq++ {
		w.Record(sim.ProvRecord{Seq: seq, Parent: sim.NoProvParent, At: sim.Time(seq), PC: pc, Tag: 1})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 3 || tr.Torn {
		t.Fatalf("loaded %d events (torn=%v), want 3 clean", len(tr.Events), tr.Torn)
	}
	if tr.TagName(1) != name {
		t.Errorf("tag name %d bytes, want %d", len(tr.TagName(1)), len(name))
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad")
	os.WriteFile(bad, []byte("hello world\n"), 0o644)
	if _, err := LoadTrace(bad); err == nil {
		t.Error("garbage file accepted")
	}
	empty := filepath.Join(dir, "empty")
	os.WriteFile(empty, nil, 0o644)
	if _, err := LoadTrace(empty); err == nil {
		t.Error("empty file accepted")
	}
}

// writeFrames writes a hand-built trace: the real header, then each
// body in its own CRC-valid frame.
func writeFrames(t *testing.T, bodies ...string) string {
	t.Helper()
	data := crcline.Append(nil, []byte(fmt.Sprintf(`{"k":"hdr","format":%q,"v":%d}`, TraceFormat, TraceVersion)))
	for _, b := range bodies {
		data = crcline.Append(data, []byte(b))
	}
	path := filepath.Join(t.TempDir(), "provenance.trace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadRejectsBadFnIDs: fn ids are interned densely from 0, so a
// definition naming any other id is an error, not an index into
// FnNames; an event naming an undefined id still reports.
func TestLoadRejectsBadFnIDs(t *testing.T) {
	for _, id := range []int{-1, 1 << 30, 1} {
		path := writeFrames(t,
			`{"k":"fn","id":0,"name":"a"}`,
			fmt.Sprintf(`{"k":"fn","id":%d,"name":"b"}`, id),
			`{"k":"ev","s":1,"p":-1,"t":5,"f":0}`)
		if id == 1 {
			if _, err := LoadTrace(path); err != nil {
				t.Fatalf("dense ids rejected: %v", err)
			}
			continue
		}
		tr, err := LoadTrace(path)
		if err == nil {
			t.Errorf("fn id %d: loaded %d names, want an error", id, len(tr.FnNames))
		} else if !strings.Contains(err.Error(), "fn id") {
			t.Errorf("fn id %d: error %q does not name the id", id, err)
		}
	}

	tr, err := LoadTrace(writeFrames(t,
		`{"k":"fn","id":0,"name":"a"}`,
		`{"k":"ev","s":1,"p":-1,"t":5,"f":-1}`,
		`{"k":"ev","s":2,"p":1,"t":9,"f":0}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.FnName(-1); got != "fn#-1" {
		t.Errorf("FnName(-1) = %q, want fn#-1", got)
	}
	var b strings.Builder
	if err := WriteReport(&b, tr, 5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "fn#-1") {
		t.Errorf("report does not name the undefined callback:\n%s", b.String())
	}
}

func TestCriticalPath(t *testing.T) {
	tr, err := LoadTrace(writeSampleTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	path := tr.CriticalPath()
	want := []uint64{1, 3, 4}
	if len(path) != len(want) {
		t.Fatalf("path length %d, want %d", len(path), len(want))
	}
	for i, s := range path {
		if s.Ev.Seq != want[i] {
			t.Errorf("path[%d].Seq = %d, want %d", i, s.Ev.Seq, want[i])
		}
	}
	deltas := []sim.Duration{10, 10, 80}
	for i, s := range path {
		if s.Delta != deltas[i] {
			t.Errorf("path[%d].Delta = %v, want %v", i, s.Delta, deltas[i])
		}
	}
}

func TestBlame(t *testing.T) {
	tr, err := LoadTrace(writeSampleTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	_, byTag := tr.Blame(tr.CriticalPath())
	if len(byTag) != 2 {
		t.Fatalf("byTag has %d entries, want 2", len(byTag))
	}
	if byTag[0].Name != "site-b" || byTag[0].Ns != 90 || byTag[0].Steps != 2 {
		t.Errorf("byTag[0] = %+v, want site-b 90ns over 2 steps", byTag[0])
	}
	if byTag[1].Name != "site-a" || byTag[1].Ns != 10 {
		t.Errorf("byTag[1] = %+v, want site-a 10ns", byTag[1])
	}
	if byTag[0].Frac != 0.9 {
		t.Errorf("site-b frac = %v, want 0.9", byTag[0].Frac)
	}
}

func TestFanOut(t *testing.T) {
	tr, err := LoadTrace(writeSampleTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	fo := tr.FanOut()
	if fo.Events != 5 || fo.Roots != 2 {
		t.Errorf("events/roots = %d/%d, want 5/2", fo.Events, fo.Roots)
	}
	if fo.MaxOut != 2 || fo.MaxSeq != 1 {
		t.Errorf("max fan-out = %d at seq %d, want 2 at seq 1", fo.MaxOut, fo.MaxSeq)
	}
	if fo.MeanOut != 0.6 {
		t.Errorf("mean fan-out = %v, want 0.6", fo.MeanOut)
	}
}

func TestWriteReportSmoke(t *testing.T) {
	tr, err := LoadTrace(writeSampleTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteReport(&b, tr, 10); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"provenance trace: 5 events, 2 roots",
		"critical path: 3 events, ends at seq 4",
		"site-b", "fnBeta", "fan-out: mean 0.600, max 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestWriteChromeCriticalPath(t *testing.T) {
	tr, err := LoadTrace(writeSampleTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := WriteChromeCriticalPath(&b, tr); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(b.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, b.String())
	}
	slices := 0
	for _, e := range events {
		if e["ph"] == "X" {
			slices++
		}
	}
	if slices != 3 {
		t.Errorf("%d X slices, want 3 (one per path hop)", slices)
	}
}

// TestTagScheduler checks the wrapper tags every schedule flavor and
// restores the untagged state, including ticker reschedules.
func TestTagScheduler(t *testing.T) {
	k := sim.NewKernel()
	var tags []int32
	k.SetProvenance(func(r sim.ProvRecord) { tags = append(tags, r.Tag) })

	s := TagScheduler(k, 3)
	if _, same := s.(*sim.Kernel); same {
		t.Fatal("kernel not wrapped")
	}
	s.After(1, func() {})
	s.At(2, func() {})
	s.AtArg(3, func(any) {}, nil)
	s.AfterArg(4, func(any) {}, nil)
	s.FIFOAt(sim.NewFIFO(func(any) {}), 4, nil)
	k.After(5, func() {}) // direct: untagged
	tick := s.Every(10, func(sim.Time) {})
	k.RunUntil(25)
	tick.Stop()

	want := []int32{3, 3, 3, 3, 3, 0, 3 /* ticker arm */, 3, 3 /* reschedules */}
	if len(tags) != len(want) {
		t.Fatalf("tags = %v, want %v", tags, want)
	}
	for i := range want {
		if tags[i] != want[i] {
			t.Fatalf("tags = %v, want %v", tags, want)
		}
	}

	// tag 0 and non-tagging schedulers pass through unchanged.
	if TagScheduler(k, 0) != sim.Scheduler(k) {
		t.Error("tag 0 should return the scheduler unchanged")
	}
}
