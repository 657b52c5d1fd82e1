package obs

import "testing"

// TestSpanCap checks the memory bound: spans past the cap are dropped,
// counted, and mirrored into the wired counter, and the nil-span return
// keeps instrumented code working.
func TestSpanCap(t *testing.T) {
	r := NewRegistry(nil)
	c := r.Counter("patchwork_trace_dropped_total")
	tr := NewTracer(nil)
	tr.SetSpanCap(3, c)
	var spans []*Span
	for i := 0; i < 5; i++ {
		spans = append(spans, tr.Start("s"))
	}
	if tr.Len() != 3 {
		t.Errorf("len = %d, want 3", tr.Len())
	}
	if spans[3] != nil || spans[4] != nil {
		t.Error("capped-out Start should return nil")
	}
	spans[4].Child("c").End() // must be a safe no-op
	if tr.Dropped() != 2 {
		t.Errorf("Dropped() = %d, want 2", tr.Dropped())
	}
	if got := c.Value(); got != 2 {
		t.Errorf("dropped counter = %v, want 2", got)
	}

	// Cap removal restores unbounded growth.
	tr.SetSpanCap(0, nil)
	tr.Start("s")
	if tr.Len() != 4 {
		t.Errorf("len after uncapping = %d, want 4", tr.Len())
	}
}
