package trafficgen

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// TestSampleIntoMatchesSample pins the refactor contract: SampleInto
// with an arena produces the exact frame sequence (bytes, sizes,
// timestamps, directions) Sample produces from the same generator state,
// and SamplePrefixesInto the same frames stored without their zero tails.
func TestSampleIntoMatchesSample(t *testing.T) {
	profiles := MakeSiteProfiles(3, 30)
	for pi, p := range profiles[:6] {
		cfg := SampleConfig{Duration: 20 * sim.Second, MaxFrames: 2000, FlowCount: 300}
		checkSampleVariants(t, fmt.Sprintf("profile %d", pi), p, 77, cfg)
	}
}

// TestSampleIntoScanMode covers the port-scan path (bare SYN probes via
// the pooled control-frame builder).
func TestSampleIntoScanMode(t *testing.T) {
	p := MakeSiteProfiles(5, 30)[0]
	cfg := SampleConfig{Duration: 20 * sim.Second, MaxFrames: 8000, FlowCount: 6000}
	checkSampleVariants(t, "scan", p, 11, cfg)
}

// checkSampleVariants checks SampleInto and SamplePrefixesInto against
// Sample from equal generator states, unbounded and under a MaxBytes
// budget that cuts the sample to about half. The budget is counted on
// wire lengths, so it must cut at the same frame whatever length the
// clone returns: a whole frame, a prefix, or nothing at all.
func checkSampleVariants(t *testing.T, name string, p Profile, seed uint64, cfg SampleConfig) {
	t.Helper()
	want, err := NewGenerator(p, seed).Sample(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, f := range want {
		total += int64(f.Size)
	}
	budget := cfg
	budget.MaxBytes = total / 2
	wantCut, err := NewGenerator(p, seed).Sample(budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantCut) == 0 || len(wantCut) >= len(want) {
		t.Fatalf("%s: a budget of %d of %d bytes kept %d of %d frames", name, budget.MaxBytes, total, len(wantCut), len(want))
	}
	for _, v := range []struct {
		name   string
		cfg    SampleConfig
		want   []TimedFrame
		stored string // what the clone keeps: "whole", "prefix" or "nothing"
	}{
		{"whole", cfg, want, "whole"},
		{"prefixes", cfg, want, "prefix"},
		{"whole/budget", budget, wantCut, "whole"},
		{"prefixes/budget", budget, wantCut, "prefix"},
		{"nothing/budget", budget, wantCut, "nothing"},
	} {
		g := NewGenerator(p, seed)
		sample, clone := g.SampleInto, NewFrameArena().Alloc
		switch v.stored {
		case "prefix":
			sample = g.SamplePrefixesInto
		case "nothing":
			clone = func([]byte) []byte { return nil }
		}
		got, err := sample(v.cfg, nil, clone)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(v.want) {
			t.Fatalf("%s %s: %d frames vs %d", name, v.name, len(got), len(v.want))
		}
		for i, w := range v.want {
			f := got[i]
			if f.At != w.At || f.Dir != w.Dir || f.Size != w.Size || int(w.Size) != len(w.Data) {
				t.Fatalf("%s %s frame %d: At %v/%v, Dir %v/%v, Size %d/%d, Sample's frame %d bytes",
					name, v.name, i, f.At, w.At, f.Dir, w.Dir, f.Size, w.Size, len(w.Data))
			}
			switch v.stored {
			case "whole":
				if !bytes.Equal(f.Data, w.Data) {
					t.Fatalf("%s %s frame %d: bytes differ", name, v.name, i)
				}
			case "prefix":
				if !bytes.HasPrefix(w.Data, f.Data) || !allZero(w.Data[len(f.Data):]) {
					t.Fatalf("%s %s frame %d: %d stored bytes are not a prefix of the %d-byte frame followed by zeros",
						name, v.name, i, len(f.Data), len(w.Data))
				}
			}
		}
	}
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// TestArenaReuse checks that Reset recycles chunk memory: a second
// identical sample round must not grow the arena.
func TestArenaReuse(t *testing.T) {
	p := MakeSiteProfiles(9, 30)[2]
	arena := NewFrameArena()
	var frames []TimedFrame
	run := func() int {
		arena.Reset()
		g := NewGenerator(p, 5)
		var err error
		frames, err = g.SampleInto(SampleConfig{MaxFrames: 1000, FlowCount: 100}, frames[:0], arena.Alloc)
		if err != nil {
			t.Fatal(err)
		}
		return len(arena.chunks)
	}
	first := run()
	second := run()
	if second != first {
		t.Errorf("chunks grew across identical runs: %d -> %d", first, second)
	}
	if first == 0 {
		t.Error("arena never allocated a chunk")
	}
}

// TestArenaAllocIsolation: slices handed out must not alias each other.
func TestArenaAllocIsolation(t *testing.T) {
	a := NewFrameArena()
	x := a.Alloc([]byte{1, 2, 3})
	y := a.Alloc([]byte{4, 5, 6})
	x[0] = 9
	if y[0] != 4 {
		t.Error("allocations alias")
	}
	// Appending to an arena slice must not bleed into the next one.
	_ = append(x, 7)
	if y[0] != 4 {
		t.Error("append to arena slice overwrote neighbor")
	}
}

// BenchmarkSampleInto measures the pooled generation path; the point of
// the refactor is that B/op stays near the arena-chunk floor instead of
// scaling with frame count.
func BenchmarkSampleInto(b *testing.B) {
	p := MakeSiteProfiles(2, 30)[0]
	g := NewGenerator(p, 3)
	arena := NewFrameArena()
	var frames []TimedFrame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena.Reset()
		var err error
		frames, err = g.SampleInto(SampleConfig{MaxFrames: 3000, FlowCount: 75}, frames[:0], arena.Alloc)
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = frames
}

// BenchmarkSample is the baseline heap-allocating path for comparison.
func BenchmarkSample(b *testing.B) {
	p := MakeSiteProfiles(2, 30)[0]
	g := NewGenerator(p, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Sample(SampleConfig{MaxFrames: 3000, FlowCount: 75}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSamplePrefixesWindow builds traffic-driver windows of the
// campaign's shape: six ports at each of 28 site profiles, each port a
// 1 s sample of at most 400 frames over 2-6 flows, stored without zero
// tails in an arena. It reports ns per frame.
func BenchmarkSamplePrefixesWindow(b *testing.B) {
	profiles := MakeSiteProfiles(1, 28)
	gens := make([]*Generator, len(profiles))
	for i, p := range profiles {
		gens[i] = NewGenerator(p, uint64(i+1))
	}
	arena := NewFrameArena()
	var frames []TimedFrame
	n := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range gens {
			arena.Reset()
			for port := 0; port < 6; port++ {
				var err error
				cfg := SampleConfig{Duration: sim.Second, MaxFrames: 400, FlowCount: 2 + port%5}
				if frames, err = g.SamplePrefixesInto(cfg, frames[:0], arena.Alloc); err != nil {
					b.Fatal(err)
				}
				n += len(frames)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/frame")
}
