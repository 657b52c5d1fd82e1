package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// TestQuickstartStable: two runs print the same bytes, and the header
// stack census accounts for every captured frame once.
func TestQuickstartStable(t *testing.T) {
	var a, b bytes.Buffer
	if err := run(&a); err != nil {
		t.Fatal(err)
	}
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two runs differ:\n%s\n---\n%s", a.Bytes(), b.Bytes())
	}

	out := a.String()
	var frames int
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "captured "); ok {
			n, err := strconv.Atoi(strings.Fields(rest)[0])
			if err != nil {
				t.Fatal(err)
			}
			frames = n
		}
	}
	_, census, ok := strings.Cut(out, "header stacks observed:\n")
	if !ok || frames == 0 {
		t.Fatalf("output lacks the frame count or the census:\n%s", out)
	}
	sum, rows := 0, 0
	for _, line := range strings.Split(strings.TrimSpace(census), "\n") {
		n, err := strconv.Atoi(strings.Fields(line)[0])
		if err != nil {
			t.Fatalf("census row %q: %v", line, err)
		}
		sum += n
		rows++
	}
	if sum != frames {
		t.Errorf("census rows sum to %d frames across %d patterns, want %d", sum, rows, frames)
	}
}
