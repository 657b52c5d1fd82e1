package storefault

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzParsePlan hammers the storage-fault plan parser behind
// -store-chaos: whatever the input, it must never panic, any plan it
// accepts must validate, and the plan must survive a JSON round trip —
// its encoding parses again and re-encodes to the same bytes.
func FuzzParsePlan(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name": "ci-crash", "crash_points": [{"at_sec": 7}]}`))
	f.Add([]byte(`{
  "name": "hostile",
  "allocator_transients": [{"site": "SITEA", "rate": 0.4, "from_sec": 0, "to_sec": 30}],
  "site_outages":         [{"site": "SITEB", "from_sec": 1, "to_sec": 8}],
  "port_flaps":           [{"site": "SITEC", "port": "P1", "at_sec": 5, "down_sec": 3, "repeat": 2, "every_sec": 10}],
  "mirror_corruptions":   [{"site": "SITEA", "rate": 0.05}],
  "storage_slowdowns":    [{"site": "SITEB", "factor": 3}],
  "capture_stalls":       [{"site": "SITEC", "rate": 0.1, "stall_sec": 0.002}]
}`))
	f.Add([]byte(`{
  "name": "self-heal",
  "site_outages":       [{"site": "NCSA", "from_sec": 1, "to_sec": 8}],
  "mirror_corruptions": [{"site": "STAR", "rate": 0.3}],
  "capture_stalls":     [{"site": "UCSD", "rate": 0.02, "stall_sec": 4}]
}`))
	f.Add([]byte(`{
  "name": "ci-hostile-store",
  "torn_writes": [{"path_glob": "wal.jsonl", "rate": 1, "after_ops": 6,  "max": 1}],
  "bit_flips":   [{"path_glob": "wal.jsonl", "rate": 1, "after_ops": 10, "max": 1}],
  "enospc":      [{"path_glob": "wal.jsonl", "rate": 1, "after_ops": 8,  "max": 1}]
}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted plan fails Validate: %v", err)
		}
		enc, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("accepted plan does not encode: %v", err)
		}
		back, err := Parse(enc)
		if err != nil {
			t.Fatalf("encoded plan %s does not parse: %v", enc, err)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("round trip changed the plan:\n%s\n%s", enc, again)
		}
	})
}
