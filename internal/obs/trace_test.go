package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("root")
	if sp != nil {
		t.Fatalf("nil tracer returned a span")
	}
	child := sp.Child("c")
	if child != nil {
		t.Fatalf("nil span returned a child")
	}
	sp.Annotate("k", "v")
	sp.End()
	if sp.ID() != 0 {
		t.Errorf("nil span id = %d, want 0", sp.ID())
	}
	if tr.Len() != 0 {
		t.Errorf("nil tracer len = %d", tr.Len())
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil tracer wrote output: %v %q", err, buf.String())
	}
}

// spanLine is one line of the JSONL span artifact.
type spanLine struct {
	Span    uint64            `json:"span"`
	Parent  uint64            `json:"parent"`
	Name    string            `json:"name"`
	StartNs int64             `json:"start_ns"`
	EndNs   *int64            `json:"end_ns"`
	DurNs   *int64            `json:"dur_ns"`
	Attrs   map[string]string `json:"attrs"`
}

// writeJSONL exports tr and parses every line, which must be valid JSON.
func writeJSONL(t *testing.T, tr *Tracer) []spanLine {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed []spanLine
	for _, ln := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var sl spanLine
		if err := json.Unmarshal([]byte(ln), &sl); err != nil {
			t.Fatalf("invalid JSON line %q: %v", ln, err)
		}
		parsed = append(parsed, sl)
	}
	return parsed
}

// TestSpanTreeJSONL checks the JSONL span artifact of a span tree
// whose root is left open.
func TestSpanTreeJSONL(t *testing.T) {
	now := sim.Time(0)
	tr := NewTracer(func() sim.Time { return now })
	root := tr.Start("experiment", L("mode", "all"))
	now = 5
	site := root.Child("site", L("site", "STAR"))
	now = 7
	cyc := site.Child("cycle")
	cyc.Annotate("run", "0")
	now = 9
	cyc.End()
	cyc.End() // second End keeps the first end time
	now = 11
	site.End()
	// root left open on purpose: it must serialize without end_ns.

	parsed := writeJSONL(t, tr)
	if len(parsed) != 3 {
		t.Fatalf("jsonl lines = %d, want 3: %+v", len(parsed), parsed)
	}
	if parsed[0].Name != "experiment" || parsed[0].Parent != 0 || parsed[0].EndNs != nil {
		t.Errorf("root span wrong: %+v", parsed[0])
	}
	if parsed[0].Attrs["mode"] != "all" {
		t.Errorf("root attrs wrong: %+v", parsed[0].Attrs)
	}
	if parsed[1].Parent != parsed[0].Span || parsed[1].StartNs != 5 || *parsed[1].EndNs != 11 {
		t.Errorf("site span wrong: %+v", parsed[1])
	}
	if parsed[2].Parent != parsed[1].Span || *parsed[2].EndNs != 9 || *parsed[2].DurNs != 2 {
		t.Errorf("cycle span wrong: %+v", parsed[2])
	}
	if parsed[2].Attrs["run"] != "0" {
		t.Errorf("cycle annotation missing: %+v", parsed[2].Attrs)
	}
}

// TestSpanRecords checks Records, the flight-recorder dumps' view of
// the tracer: it sees the same tree, times, parents and attributes as
// the JSONL artifact, an open span stays unended, the attribute slices
// it returns are copies, and a nil tracer returns nothing.
func TestSpanRecords(t *testing.T) {
	now := sim.Time(0)
	tr := NewTracer(func() sim.Time { return now })
	root := tr.Start("experiment", L("mode", "all"))
	now = 1500
	site := root.Child("site", L("site", "STAR"))
	now = 2000
	cyc := site.Child("cycle")
	now = 4500
	cyc.End()
	now = 6000
	site.End()
	// root stays open.

	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3: %+v", len(recs), recs)
	}
	if recs[0].Name != "experiment" || recs[0].Parent != 0 || recs[0].Ended {
		t.Errorf("open root record wrong: %+v", recs[0])
	}
	if recs[1].Parent != recs[0].ID || recs[1].Start != 1500 || recs[1].End != 6000 || !recs[1].Ended {
		t.Errorf("site record wrong (want start 1500 end 6000): %+v", recs[1])
	}
	if recs[2].Parent != site.ID() || recs[2].Start != 2000 || recs[2].End != 4500 || !recs[2].Ended {
		t.Errorf("cycle record wrong (want start 2000 end 4500): %+v", recs[2])
	}
	if len(recs[1].Attrs) != 1 || recs[1].Attrs[0] != L("site", "STAR") {
		t.Errorf("site attrs not round-tripped: %+v", recs[1].Attrs)
	}

	parsed := writeJSONL(t, tr)
	if len(parsed) != len(recs) {
		t.Fatalf("jsonl lines = %d, records = %d", len(parsed), len(recs))
	}
	for i, r := range recs {
		p := parsed[i]
		if p.Span != r.ID || p.Parent != r.Parent || p.Name != r.Name || p.StartNs != int64(r.Start) || (p.EndNs != nil) != r.Ended {
			t.Errorf("span %d: jsonl %+v disagrees with record %+v", i, p, r)
		}
	}

	recs[1].Attrs[0] = L("site", "mutated")
	if again := tr.Records(); again[1].Attrs[0] != L("site", "STAR") {
		t.Errorf("Records shares attribute storage with the tracer: %+v", again[1].Attrs)
	}

	var nilTr *Tracer
	if got := nilTr.Records(); got != nil {
		t.Errorf("nil tracer records = %+v, want nil", got)
	}
}

// TestJSONLEscaping checks span names and attributes that are hostile
// to JSON (quotes, backslashes, newlines, non-ASCII) survive the JSONL
// exporter: every line must parse and round-trip the name and attribute.
func TestJSONLEscaping(t *testing.T) {
	tr := NewTracer(nil)
	names := []string{
		`quote " inside`,
		`back\slash`,
		"new\nline\tand tab",
		"unicode – ünïcödé 事件",
		"</script><b>html</b>",
	}
	const key, value = "attr \"key\"", "val\nue"
	for _, n := range names {
		tr.Start(n, L(key, value)).End()
	}
	parsed := writeJSONL(t, tr)
	if len(parsed) != len(names) {
		t.Fatalf("jsonl lines = %d, want %d", len(parsed), len(names))
	}
	for i, n := range names {
		if parsed[i].Name != n || parsed[i].Attrs[key] != value {
			t.Errorf("span %d = %q %v, want %q {%q: %q}", i, parsed[i].Name, parsed[i].Attrs, n, key, value)
		}
	}
}

func TestTracerDeterminism(t *testing.T) {
	build := func() string {
		k := sim.NewKernel()
		tr := NewKernelTracer(k)
		root := tr.Start("root")
		k.After(3, func() {
			c := root.Child("a")
			c.End()
		})
		k.After(3, func() { root.Child("b").End() })
		k.Run()
		root.End()
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := build(), build(); a != b {
		t.Errorf("trace output not deterministic:\n%s\nvs\n%s", a, b)
	}
}
