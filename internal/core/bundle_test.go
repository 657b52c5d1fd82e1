package patchwork

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"maps"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/capture"
	"repro/internal/faults"
	"repro/internal/pcap"
	"repro/internal/sim"
)

// testPcap writes a pcap with n records of size bytes each through the
// chunked stream harvest uses (n = 0 is the bare 24-byte file header),
// and returns the stream and the bytes written. It flushes after the
// first record, as a restarted engine does, so the writer's later 64 KiB
// pieces straddle chunk boundaries.
func testPcap(t *testing.T, n, size int) (*chunkStream, []byte) {
	t.Helper()
	return testPcapOn(t, new(chunkList), n, size, 0)
}

// testPcapOn is testPcap on a stream that takes its chunks from free,
// with record i's bytes all equal to fill+i.
func testPcapOn(t *testing.T, free *chunkList, n, size int, fill byte) (*chunkStream, []byte) {
	t.Helper()
	s := &chunkStream{free: free}
	var raw bytes.Buffer
	w, err := pcap.NewWriter(io.MultiWriter(s, &raw), pcap.FileHeader{SnapLen: 200})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.WriteRecord(int64(i)*1000, bytes.Repeat([]byte{fill + byte(i)}, size), 1500); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return s, raw.Bytes()
}

// TestDecompressPcapsRoundTrip: harvest compression and bundle
// decompression are inverse, and the decompressed buffer is presized from
// the gzip trailer rather than grown by doubling.
func TestDecompressPcapsRoundTrip(t *testing.T) {
	var want [][]byte
	var chunks []int
	b := &Bundle{}
	for _, in := range []struct{ n, size int }{
		{0, 100}, {1, 100}, {500, 100},
		{1200, 100}, // 139,224 bytes: longer than one chunk
		{431, 136},  // 24 + 431×(16+136) = 65,536 bytes: ends on a chunk boundary
	} {
		s, raw := testPcap(t, in.n, in.size)
		z, err := compressPcap(s.chunks)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, raw)
		chunks = append(chunks, len(s.chunks))
		b.CompressedPcaps = append(b.CompressedPcaps, z)
	}
	if len(want[0]) != 24 {
		t.Fatalf("header-only pcap is %d bytes, want 24", len(want[0]))
	}
	if chunks[3] != 3 || len(want[4]) != streamChunk || chunks[4] != 1 {
		t.Fatalf("chunked inputs: %v chunks, last stream %d bytes; want 3 chunks and exactly one full chunk",
			chunks, len(want[4]))
	}
	got, err := b.DecompressPcaps()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("pcap %d: %d bytes back, want %d", i, len(got[i]), len(want[i]))
		}
		if c := cap(got[i]); c > len(want[i])+bytes.MinRead {
			t.Errorf("pcap %d: buffer grew to %d for %d bytes", i, c, len(want[i]))
		}
	}
}

// TestDecompressPcapsLyingTrailer: a trailer claiming 4 GiB must neither
// force a matching allocation nor pass as valid.
func TestDecompressPcapsLyingTrailer(t *testing.T) {
	s, _ := testPcap(t, 3, 100)
	z, err := compressPcap(s.chunks)
	if err != nil {
		t.Fatal(err)
	}
	copy(z[len(z)-4:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
	if hint := gzipSizeHint(z); hint > maxDeflateRatio*len(z) {
		t.Errorf("size hint %d exceeds the deflate bound for %d bytes", hint, len(z))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = (&Bundle{CompressedPcaps: [][]byte{z}}).DecompressPcaps()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, gzip.ErrChecksum) {
		t.Errorf("err = %v, want %v", err, gzip.ErrChecksum)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("decompressing %d bytes allocated %d bytes", len(z), grew)
	}
}

// TestDecompressPcapsLowestIndexError: streams decompress concurrently,
// but the error always names the lowest-index failure — here stream 1,
// whose bad checksum only shows after its whole body is inflated, while
// stream 3's bad header fails at once.
func TestDecompressPcapsLowestIndexError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	b := &Bundle{}
	for i := 0; i < 5; i++ {
		s, _ := testPcap(t, 2000, 150)
		z, err := compressPcap(s.chunks)
		if err != nil {
			t.Fatal(err)
		}
		b.CompressedPcaps = append(b.CompressedPcaps, z)
	}
	z1 := b.CompressedPcaps[1]
	z1[len(z1)-8] ^= 0xFF       // CRC-32 in the trailer
	b.CompressedPcaps[3][0] = 0 // gzip magic
	for run := 0; run < 50; run++ {
		_, err := b.DecompressPcaps()
		if err == nil || !strings.HasPrefix(err.Error(), "patchwork: bundle pcap 1: ") ||
			!errors.Is(err, gzip.ErrChecksum) {
			t.Fatalf("run %d: err = %v, want stream 1's checksum error", run, err)
		}
	}
}

// TestDecompressPcapsAfterFailure: pooled gzip readers that failed on a
// corrupt stream decompress the next bundle byte for byte. Four workers
// alternate 50 times between a bundle whose stream 2 is corrupt mid-body
// and a valid one, so readers that stopped part way through a stream
// come back out of the pool.
func TestDecompressPcapsAfterFailure(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var want [][]byte
	good, bad := &Bundle{}, &Bundle{}
	for i := 0; i < 6; i++ {
		s, raw := testPcap(t, 800+100*i, 120)
		z, err := compressPcap(s.chunks)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, raw)
		good.CompressedPcaps = append(good.CompressedPcaps, z)
		bad.CompressedPcaps = append(bad.CompressedPcaps, bytes.Clone(z))
	}
	z2 := bad.CompressedPcaps[2]
	z2[len(z2)/2] ^= 0xFF
	for run := 0; run < 50; run++ {
		if _, err := bad.DecompressPcaps(); err == nil || !strings.HasPrefix(err.Error(), "patchwork: bundle pcap 2: ") {
			t.Fatalf("run %d: err = %v, want stream 2's error", run, err)
		}
		got, err := good.DecompressPcaps()
		if err != nil {
			t.Fatalf("run %d: valid bundle: %v", run, err)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("run %d: pcap %d: %d bytes back differ from the %d written", run, i, len(got[i]), len(want[i]))
			}
		}
	}
}

// TestChunkListReuse: a harvested stream's chunks go back to the
// coordinator's free list once compressed, and a second stream of the
// same length takes every chunk it needs from there. Each stream's
// chunks hold exactly its own bytes, and the list is empty once
// Coordinator.Run returns.
func TestChunkListReuse(t *testing.T) {
	env := newEnv(t, 3)
	coord, err := NewCoordinator(env.fed, env.store, env.poller, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	// base identifies a chunk by its backing array.
	base := func(c []byte) *byte { return &c[:1][0] }
	joined := func(chunks [][]byte) []byte { return bytes.Join(chunks, nil) }

	a, rawA := testPcapOn(t, &coord.chunks, 2000, 150, 0)
	if len(a.chunks) < 4 {
		t.Fatalf("first stream has %d chunks, want several", len(a.chunks))
	}
	if !bytes.Equal(joined(a.chunks), rawA) {
		t.Fatal("first stream's chunks differ from its bytes")
	}
	made := make(map[*byte]bool)
	for _, c := range a.chunks {
		made[base(c)] = true
	}
	h := &harvestedPcap{raw: a.detach()}
	var site sync.WaitGroup
	coord.compress(h, &site)
	site.Wait()
	if h.err != nil || h.raw != nil {
		t.Fatalf("compressed stream: err %v, raw held %v", h.err, h.raw != nil)
	}
	if n := len(coord.chunks.free); n != len(made) {
		t.Fatalf("free list holds %d chunks after compression, want the stream's %d", n, len(made))
	}
	unzipped, err := decompressPcap(h.z)
	if err != nil || !bytes.Equal(unzipped, rawA) {
		t.Fatalf("first stream's bundle bytes differ from its capture (err %v)", err)
	}

	b, rawB := testPcapOn(t, &coord.chunks, 2000, 150, 1)
	if bytes.Equal(rawA, rawB) {
		t.Fatal("the two streams wrote the same bytes")
	}
	fresh := 0
	for _, c := range b.chunks {
		if !made[base(c)] {
			fresh++
		}
	}
	if fresh != 0 || len(b.chunks) != len(made) {
		t.Errorf("second stream made %d new chunks of %d, want all %d from the free list", fresh, len(b.chunks), len(made))
	}
	if !bytes.Equal(joined(b.chunks), rawB) {
		t.Error("second stream's chunks differ from its bytes")
	}
	if n := len(coord.chunks.free); n != 0 {
		t.Errorf("free list holds %d chunks after the second stream, want 0", n)
	}

	prof, err := coord.Run()
	env.stop()
	if err != nil {
		t.Fatal(err)
	}
	pcaps := 0
	for _, bu := range prof.Bundles {
		pcaps += len(bu.CompressedPcaps)
	}
	if pcaps == 0 {
		t.Fatal("the run harvested no streams")
	}
	if coord.chunks.free != nil {
		t.Errorf("free list holds %d chunks after Run returned, want none", len(coord.chunks.free))
	}
}

// TestHarvestSchedulingIndependent: harvest compresses on as many
// goroutines as GOMAXPROCS allows, yet every bundle is byte-identical
// whether compression runs at once on 4 threads or is held back on 1.
// The run restarts every site's engines mid-cycle 0, and each rebuilt
// engine keeps writing the stream its predecessor started. In cycle 1
// capture stalls leave more than a chunk of frames queued at harvest;
// they complete into the same writer before compression starts in the
// held run, yet each cycle-1 pcap ends with the last record captured by
// harvest.
func TestHarvestSchedulingIndependent(t *testing.T) {
	// Cycle 1 harvests SITEA at 16 s, SITEB at 17 s and SITEC at 18 s;
	// each site gathers its bundle 14 s later, after cycle 2. Every frame
	// arriving in a 50 ms window 4 s before harvest stalls its capture
	// core for 0.6 s, which keeps the cores busy until after harvest.
	harvestAt := map[string]sim.Time{"SITEA": 16 * sim.Second, "SITEB": 17 * sim.Second, "SITEC": 18 * sim.Second}
	sites := []string{"SITEA", "SITEB", "SITEC"}
	var plan faults.Plan
	for _, site := range sites {
		from := float64(harvestAt[site]/sim.Second) - 4
		plan.CaptureStalls = append(plan.CaptureStalls, faults.CaptureStall{
			Site: site, Rate: 1, StallSec: 0.6, Window: faults.Window{FromSec: from, ToSec: from + 0.05},
		})
	}
	// run returns the bundles and, per site and cycle-1 egress port, the
	// engine's stats 9 s after harvest: what it had written by then. With
	// hold, the test takes every compression token before the run and
	// returns them after the last of those snapshots, so streams
	// harvested until then are compressed only after their writers have
	// moved on.
	run := func(procs int, hold bool) ([]Bundle, map[string]map[string]capture.Stats) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		env := newEnv(t, 3)
		fe, err := faults.NewEngine(env.k, 5, plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := fe.Arm(env.fed); err != nil {
			t.Fatal(err)
		}
		cfg := quickConfig()
		cfg.Faults = fe
		coord, err := NewCoordinator(env.fed, env.store, env.poller, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// At 5.5 s every site is mid-cycle 0: SITEA and SITEB in their
		// second sample, SITEC between its two.
		env.k.At(5500*sim.Millisecond, func() {
			for _, site := range sites {
				if _, err := coord.RemediateSite("restart-listener", site); err != nil {
					t.Errorf("GOMAXPROCS %d: restart %s: %v", procs, site, err)
				}
			}
		})
		after := make(map[string]map[string]capture.Stats)
		for _, site := range sites {
			h := harvestAt[site]
			var engines map[string]*capture.Engine
			env.k.At(h-sim.Millisecond, func() { engines = maps.Clone(coord.instances[site].engines) })
			env.k.At(h+9*sim.Second, func() {
				after[site] = make(map[string]capture.Stats)
				for eg, eng := range engines {
					after[site][eg] = eng.Stats
				}
			})
		}
		if hold {
			for range cap(coord.compressSem) {
				coord.compressSem <- struct{}{}
			}
			env.k.At(harvestAt["SITEC"]+9500*sim.Millisecond, func() {
				for range cap(coord.compressSem) {
					<-coord.compressSem
				}
			})
		}
		prof, err := coord.Run()
		env.stop()
		if err != nil {
			t.Fatal(err)
		}
		if fe.Injected()[faults.KindCaptureStall] == 0 {
			t.Fatalf("GOMAXPROCS %d: no capture stalls injected", procs)
		}
		return prof.Bundles, after
	}
	one, afterOne := run(1, true)
	four, afterFour := run(4, false)
	if len(one) != 3 || len(four) != 3 {
		t.Fatalf("bundles: %d at GOMAXPROCS 1, %d at 4; want 3", len(one), len(four))
	}
	for i := range one {
		a, b := one[i], four[i]
		if len(a.CompressedPcaps) == 0 || len(a.CompressedPcaps) != len(b.CompressedPcaps) {
			t.Fatalf("%s: %d pcaps at GOMAXPROCS 1, %d at 4", a.Site, len(a.CompressedPcaps), len(b.CompressedPcaps))
		}
		for j := range a.CompressedPcaps {
			if !bytes.Equal(a.CompressedPcaps[j], b.CompressedPcaps[j]) {
				t.Errorf("%s: pcap %d differs between GOMAXPROCS 1 and 4", a.Site, j)
			}
		}
		if !reflect.DeepEqual(a.Samples, b.Samples) {
			t.Errorf("%s: samples differ between GOMAXPROCS 1 and 4", a.Site)
		}
		if !reflect.DeepEqual(a.Logs, b.Logs) {
			t.Errorf("%s: logs differ between GOMAXPROCS 1 and 4", a.Site)
		}
		checkCycleOneHarvest(t, 1, a, harvestAt[a.Site], afterOne[a.Site])
		checkCycleOneHarvest(t, 4, b, harvestAt[b.Site], afterFour[b.Site])
	}
}

// checkCycleOneHarvest checks each cycle-1 pcap in b against the sample
// taken at harvest: the same frames and stored bytes, no torn tail, and
// no record stamped after harvest. It also requires that the stalled
// engines wrote more than a chunk of records between harvest and the
// bundle's delivery, so the late writes reached the stream.
func checkCycleOneHarvest(t *testing.T, procs int, b Bundle, harvest sim.Time, after map[string]capture.Stats) {
	t.Helper()
	// Harvest appends each cycle's streams in egress-port order, and the
	// last sample of a cycle is taken at its harvest.
	egress := map[int][]string{}
	atHarvest := map[string]SampleRecord{}
	for _, rec := range b.Samples {
		if !slices.Contains(egress[rec.Run], rec.EgressPort) {
			egress[rec.Run] = append(egress[rec.Run], rec.EgressPort)
		}
		if rec.Run == 1 {
			atHarvest[rec.EgressPort] = rec
		}
	}
	slices.Sort(egress[1])
	if len(egress[0])+len(egress[1]) > len(b.CompressedPcaps) || len(egress[1]) == 0 {
		t.Fatalf("GOMAXPROCS %d %s: %d pcaps for egress ports %v", procs, b.Site, len(b.CompressedPcaps), egress)
	}
	pcaps, err := b.DecompressPcaps()
	if err != nil {
		t.Fatal(err)
	}
	var maxLate int64
	for j, eg := range egress[1] {
		rd, err := pcap.NewReader(bytes.NewReader(pcaps[len(egress[0])+j]))
		if err != nil {
			t.Fatal(err)
		}
		var frames, stored int64
		var last int64
		if err := rd.ForEach(func(r *pcap.Record) error {
			frames++
			stored += int64(len(r.Data))
			last = r.TimestampNanos
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		want := atHarvest[eg]
		if frames != want.Frames || stored != want.StoredBytes || rd.Torn() || sim.Time(last) > harvest {
			t.Errorf("GOMAXPROCS %d %s %s: pcap holds %d frames, %d stored bytes, torn %v, last at %v; "+
				"harvest at %v captured %d frames, %d bytes",
				procs, b.Site, eg, frames, stored, rd.Torn(), sim.Time(last), harvest, want.Frames, want.StoredBytes)
		}
		st, ok := after[eg]
		if !ok {
			t.Fatalf("GOMAXPROCS %d %s: no engine on %s at harvest", procs, b.Site, eg)
		}
		late := (st.Captured-want.Frames)*16 + st.StoredBytes - want.StoredBytes
		maxLate = max(maxLate, late)
	}
	if maxLate <= streamChunk {
		t.Errorf("GOMAXPROCS %d %s: at most %d bytes of records written after harvest, want over %d",
			procs, b.Site, maxLate, streamChunk)
	}
}

// TestWaitJoinsAbandonedRun: a run abandoned after its first harvests
// has streams no bundle waits for; Coordinator.Wait compresses every one
// before it returns.
func TestWaitJoinsAbandonedRun(t *testing.T) {
	env := newEnv(t, 3)
	coord, err := NewCoordinator(env.fed, env.store, env.poller, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	coord.Start(func(*Profile, error) { t.Error("abandoned profile completed") })
	harvested := func() (n int) {
		for _, si := range coord.instances {
			n += len(si.harvested)
		}
		return n
	}
	for harvested() < 3 && env.k.Step() {
	}
	coord.Wait()
	if harvested() < 3 {
		t.Fatalf("%d streams harvested before the kernel ran dry, want 3", harvested())
	}
	for site, si := range coord.instances {
		for i, h := range si.harvested {
			if h.z == nil || h.err != nil || h.raw != nil {
				t.Errorf("%s stream %d after Wait: %d compressed bytes, err %v, raw held %v",
					site, i, len(h.z), h.err, h.raw != nil)
			}
		}
	}
	env.stop()
}
