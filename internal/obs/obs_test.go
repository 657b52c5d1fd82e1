package obs

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry returned non-nil instruments")
	}
	// All of these must be safe no-ops.
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.SetMax(2)
	h.Observe(3)
	r.Help("x", "help")
	r.RegisterCollector(func() {})
	r.Collect()
	if got := r.Snapshot(); got != nil {
		t.Errorf("nil registry snapshot = %v, want nil", got)
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Errorf("nil instruments reported non-zero values")
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	now := sim.Time(0)
	r := NewRegistry(func() sim.Time { return now })
	c := r.Counter("frames_total", L("site", "STAR"))
	now = 10
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if c.LastUpdate() != 10 {
		t.Errorf("counter stamp = %v, want 10", c.LastUpdate())
	}
	// Same (name, labels) resolves to the same instrument, label order
	// irrelevant.
	if r.Counter("frames_total", L("site", "STAR")) != c {
		t.Errorf("re-lookup returned a different instrument")
	}

	g := r.Gauge("depth")
	g.Set(7)
	g.SetMax(3) // lower: ignored
	if g.Value() != 7 {
		t.Errorf("gauge = %v, want 7", g.Value())
	}
	g.SetMax(11)
	if g.Value() != 11 {
		t.Errorf("gauge after SetMax = %v, want 11", g.Value())
	}

	h := r.Histogram("lat_ns")
	h.Observe(1)    // bucket [1,2)
	h.Observe(1000) // bucket [512,1024)... 1000 -> bits.Len(1000)=10 -> bucket 9 [512,1024)
	h.Observe(0)    // clamps into the first bucket
	if h.Count() != 3 || h.Sum() != 1001 {
		t.Errorf("hist count=%d sum=%d, want 3/1001", h.Count(), h.Sum())
	}
	if h.Bucket(0) != 2 || h.Bucket(9) != 1 {
		t.Errorf("hist buckets: b0=%d b9=%d, want 2/1", h.Bucket(0), h.Bucket(9))
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry(nil)
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Errorf("gauge lookup of a counter name did not panic")
		}
	}()
	r.Gauge("m")
}

func TestHelpBeforeFirstInstrument(t *testing.T) {
	r := NewRegistry(nil)
	r.Help("g", "a gauge")
	r.Gauge("g").Set(1) // must not panic on kind mismatch
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# HELP g a gauge") ||
		!strings.Contains(buf.String(), "# TYPE g gauge") {
		t.Errorf("prometheus output missing help/type:\n%s", buf.String())
	}
}

func TestPrometheusExport(t *testing.T) {
	now := sim.Time(2 * sim.Second)
	r := NewRegistry(func() sim.Time { return now })
	r.Help("capture_frames_total", "frames captured")
	r.Counter("capture_frames_total", L("method", "dpdk"), L("site", "STAR")).Add(12)
	r.Gauge("queue_depth").Set(3.5)
	h := r.Histogram("writev_ns")
	h.Observe(5) // bucket [4,8) -> le=8
	h.Observe(5)
	h.Observe(100) // bucket [64,128) -> le=128

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP capture_frames_total frames captured",
		"# TYPE capture_frames_total counter",
		`capture_frames_total{method="dpdk",site="STAR"} 12 2000`,
		"queue_depth 3.5 2000",
		`writev_ns_bucket{le="8"} 2 2000`,
		`writev_ns_bucket{le="128"} 3 2000`, // cumulative
		`writev_ns_bucket{le="+Inf"} 3 2000`,
		"writev_ns_sum 110 2000",
		"writev_ns_count 3 2000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestExportDeterminism(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry(nil)
		// Insertion order differs from sorted order on purpose.
		r.Counter("z_total", L("b", "2")).Inc()
		r.Counter("a_total").Add(3)
		r.Counter("z_total", L("a", "1")).Inc()
		r.Histogram("h").Observe(9)
		r.Gauge("g").Set(1)
		return r
	}
	var a, b bytes.Buffer
	if err := build().WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("prometheus export not deterministic:\n%s\nvs\n%s", a.String(), b.String())
	}
	// Sorted family order: a_total before g before h before z_total, and
	// z_total's instruments sorted by label identity.
	out := a.String()
	if strings.Index(out, "a_total") > strings.Index(out, "z_total") {
		t.Errorf("families not sorted:\n%s", out)
	}
	if strings.Index(out, `z_total{a="1"}`) > strings.Index(out, `z_total{b="2"}`) {
		t.Errorf("instruments not sorted by labels:\n%s", out)
	}
}

func TestJSONLAndCSVExport(t *testing.T) {
	r := NewRegistry(nil)
	r.Counter("c_total", L("k", `va"lue`)).Add(2)
	r.Histogram("h").Observe(3)
	var jl bytes.Buffer
	if err := r.WriteMetricsJSONL(&jl); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jl.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("jsonl lines = %d, want 2:\n%s", len(lines), jl.String())
	}
	if !strings.Contains(lines[0], `"metric":"c_total"`) || !strings.Contains(lines[0], `"value":2`) {
		t.Errorf("jsonl counter line wrong: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"buckets":[{"le":4,"n":1}]`) {
		t.Errorf("jsonl histogram line wrong: %s", lines[1])
	}

	var cs bytes.Buffer
	if err := r.WriteCSV(&cs); err != nil {
		t.Fatal(err)
	}
	csvOut := cs.String()
	if !strings.HasPrefix(csvOut, "metric,kind,labels,value,sum,count,p50,p99,sim_ns") {
		t.Errorf("csv header wrong:\n%s", csvOut)
	}
	if !strings.Contains(csvOut, "c_total,counter") || !strings.Contains(csvOut, "h,histogram") {
		t.Errorf("csv rows missing:\n%s", csvOut)
	}
}

func TestHistogramQuantile(t *testing.T) {
	cases := []struct {
		name    string
		observe []int64
		q       float64
		lo, hi  float64 // acceptable interpolation range
	}{
		{"empty", nil, 0.5, math.NaN(), math.NaN()},
		{"single-bucket-median", []int64{5, 5, 5, 5}, 0.5, 4, 8},
		{"single-observation", []int64{100}, 0.99, 64, 128},
		{"sub-one-lands-in-first-bucket", []int64{0, 0, 0}, 0.5, 0, 2},
		{"two-buckets-p50-in-first", []int64{2, 2, 2, 1000}, 0.5, 2, 4},
		{"two-buckets-p99-in-last", []int64{2, 2, 2, 1000}, 0.99, 512, 1024},
		{"q-clamped-low", []int64{5}, -1, 4, 8},
		{"q-clamped-high", []int64{5}, 2, 4, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry(nil)
			h := r.Histogram("q")
			for _, v := range tc.observe {
				h.Observe(v)
			}
			got := h.Quantile(tc.q)
			if math.IsNaN(tc.lo) {
				if !math.IsNaN(got) {
					t.Fatalf("Quantile(%v) = %v, want NaN", tc.q, got)
				}
				return
			}
			if got < tc.lo || got > tc.hi {
				t.Errorf("Quantile(%v) = %v, want in [%v, %v]", tc.q, got, tc.lo, tc.hi)
			}
		})
	}
	// Interpolation is monotone in q within one bucket.
	r := NewRegistry(nil)
	h := r.Histogram("mono")
	for i := 0; i < 10; i++ {
		h.Observe(5)
	}
	if p25, p75 := h.Quantile(0.25), h.Quantile(0.75); p25 >= p75 {
		t.Errorf("quantiles not monotone: p25=%v p75=%v", p25, p75)
	}
	// A nil histogram reports NaN rather than panicking.
	var nilH *Histogram
	if !math.IsNaN(nilH.Quantile(0.5)) {
		t.Error("nil histogram quantile should be NaN")
	}
}

func TestPrometheusHistogramQuantiles(t *testing.T) {
	r := NewRegistry(nil)
	h := r.Histogram("lat", L("site", "STAR"))
	for i := 0; i < 100; i++ {
		h.Observe(5) // bucket [4,8)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `lat_p50{site="STAR"} 6 0`) {
		t.Errorf("missing p50 sample:\n%s", out)
	}
	if !strings.Contains(out, `lat_p99{site="STAR"} `) {
		t.Errorf("missing p99 sample:\n%s", out)
	}
	var cs bytes.Buffer
	if err := r.WriteCSV(&cs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cs.String(), ",6,") {
		t.Errorf("csv missing interpolated p50:\n%s", cs.String())
	}
}

func TestPromValueNonFinite(t *testing.T) {
	r := NewRegistry(nil)
	r.Gauge("nan").Set(math.NaN())
	r.Gauge("ninf").Set(math.Inf(-1))
	r.Gauge("pinf").Set(math.Inf(+1))
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"nan NaN 0\n", "ninf -Inf 0\n", "pinf +Inf 0\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// The exact canonical spellings, nothing formatter-dependent.
	for _, v := range []struct {
		in   float64
		want string
	}{{math.NaN(), "NaN"}, {math.Inf(1), "+Inf"}, {math.Inf(-1), "-Inf"}, {3.5, "3.5"}} {
		if got := promValue(v.in); got != v.want {
			t.Errorf("promValue(%v) = %q, want %q", v.in, got, v.want)
		}
	}
}

func TestCollectKernel(t *testing.T) {
	k := sim.NewKernel()
	r := NewKernelRegistry(k)
	CollectKernel(r, k)
	for i := 0; i < 4; i++ {
		k.After(sim.Duration(i%2), func() {})
	}
	k.Run()
	snap := map[string]float64{}
	for _, mp := range r.Snapshot() {
		snap[mp.Name] = mp.Value
	}
	if snap["sim_events_processed"] != 4 {
		t.Errorf("sim_events_processed = %v, want 4", snap["sim_events_processed"])
	}
	if snap["sim_queue_high_watermark"] != 4 {
		t.Errorf("sim_queue_high_watermark = %v, want 4", snap["sim_queue_high_watermark"])
	}
	if snap["sim_max_events_per_tick"] != 2 {
		t.Errorf("sim_max_events_per_tick = %v, want 2", snap["sim_max_events_per_tick"])
	}
	if snap["sim_queue_pending"] != 0 {
		t.Errorf("sim_queue_pending = %v, want 0", snap["sim_queue_pending"])
	}
}

// TestEmptyHistogramExports: an instrument that was created but never
// observed must export the defined quantile sentinel (NaN) through both
// the Prometheus and CSV paths, and its exposition must still validate
// — the regression this guards is the quantile math being handed an
// empty bucket slice and inventing a number.
func TestEmptyHistogramExports(t *testing.T) {
	r := NewRegistry(nil)
	r.Histogram("idle", L("site", "STAR")) // created, never observed
	if got := r.Histogram("idle", L("site", "STAR")).Quantile(0.5); !math.IsNaN(got) {
		t.Fatalf("empty histogram Quantile = %v, want NaN", got)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`idle_bucket{site="STAR",le="+Inf"} 0 0`,
		`idle_count{site="STAR"} 0 0`,
		`idle_p50{site="STAR"} NaN 0`,
		`idle_p99{site="STAR"} NaN 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	if _, err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Errorf("empty-histogram exposition does not validate: %v", err)
	}
	var cs bytes.Buffer
	if err := r.WriteCSV(&cs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(cs.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[1], "NaN") {
		t.Errorf("csv row for empty histogram should carry NaN quantiles:\n%s", cs.String())
	}
}

// TestAppendSnapshotReusesDst: AppendSnapshot into a dirty dst, which
// holds more points than the registry now has, histograms with more
// buckets and stale values, returns exactly Snapshot's points. It writes
// them into dst's array when dst has room, and each histogram's buckets
// into the storage of the point it overwrites.
func TestAppendSnapshotReusesDst(t *testing.T) {
	now := sim.Time(0)
	clock := func() sim.Time { return now }

	old := NewRegistry(clock)
	now = 5
	old.Counter("a_total", L("site", "X")).Add(99)
	for _, v := range []int64{1, 4, 100, 1e6, 1e9} {
		old.Histogram("b_latency", L("site", "X")).Observe(v)
	}
	old.Histogram("b_latency", L("site", "Y")).Observe(5)
	old.Histogram("b_latency", L("site", "Y")).Observe(50)
	old.Gauge("c_depth").Set(1)
	old.Counter("d_total").Inc()
	old.Histogram("e_hist").Observe(7)

	r := NewRegistry(clock)
	now = 9
	r.Counter("a_total", L("site", "X")).Add(3)
	r.Histogram("b_latency", L("site", "X")).Observe(1)
	r.Histogram("b_latency", L("site", "X")).Observe(100)
	r.Histogram("b_latency", L("site", "Y")) // created, never observed
	r.Gauge("c_depth").Set(7)
	r.Help("c_depth", "queue depth")

	dst := old.Snapshot()
	if len(dst) != 6 || len(dst[1].Buckets) != 5 || len(dst[2].Buckets) != 2 {
		t.Fatalf("dirty snapshot: %d points, %d and %d buckets; want 6, 5 and 2",
			len(dst), len(dst[1].Buckets), len(dst[2].Buckets))
	}
	buckets := &dst[1].Buckets[0]
	got := r.AppendSnapshot(dst)
	want := r.Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendSnapshot into a dirty dst:\n got %+v\nwant %+v", got, want)
	}
	if &got[0] != &dst[0] {
		t.Error("AppendSnapshot did not write into dst's array")
	}
	if len(got[1].Buckets) != 2 || &got[1].Buckets[0] != buckets {
		t.Error("b_latency{site=X} did not keep its buckets in the overwritten point's storage")
	}

	// Fewer points than now but room for all: the array is still dst's.
	fewer := old.Snapshot()[:2]
	if got := r.AppendSnapshot(fewer); !reflect.DeepEqual(got, want) || &got[0] != &fewer[0] {
		t.Errorf("AppendSnapshot into a shorter dst with room: equal %v, in dst's array %v; want both",
			reflect.DeepEqual(got, want), &got[0] == &fewer[0])
	}
	// No room: the points grow a new array, still equal to Snapshot's.
	if got := r.AppendSnapshot(old.Snapshot()[:1:1]); !reflect.DeepEqual(got, want) {
		t.Errorf("AppendSnapshot past dst's capacity:\n got %+v\nwant %+v", got, want)
	}
}

// TestWritePrometheusPointsSkewGuard: a snapshot whose bucket sum ran
// ahead of its count (possible when a scrape races Observe) must still
// render a cumulative-monotonic histogram — +Inf and _count are clamped
// up to the bucket sum.
func TestWritePrometheusPointsSkewGuard(t *testing.T) {
	points := []MetricPoint{{
		Name: "lat", Kind: KindHistogram,
		Value:   2, // count lags: three observations already bucketed
		Sum:     15,
		Buckets: []BucketCount{{UpperBound: 8, Count: 3}},
	}}
	var buf bytes.Buffer
	if err := WritePrometheusPoints(&buf, points); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`lat_bucket{le="+Inf"} 3 0`,
		`lat_count 3 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("skewed snapshot rendered without clamp, missing %q:\n%s", want, out)
		}
	}
	if _, err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Errorf("clamped exposition does not validate: %v", err)
	}
}

// TestValidateExposition covers the accept and reject paths of the
// scrape validator CI runs over artifacts and live scrapes.
func TestValidateExposition(t *testing.T) {
	r := NewRegistry(nil)
	r.Help("req_total", "requests")
	r.Counter("req_total", L("site", "STAR"), L("path", `a"b\c`)).Add(3)
	r.Gauge("depth").Set(1.5)
	h := r.Histogram("lat")
	for _, v := range []int64{1, 5, 5, 300} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("our own exposition must validate: %v\n%s", err, buf.String())
	}
	if n < 5 {
		t.Errorf("validator counted %d samples, want >= 5", n)
	}
	bad := []struct {
		name, doc string
	}{
		{"bad-name", "2metric 1\n"},
		{"bad-value", "m{a=\"b\"} notanumber\n"},
		{"bad-timestamp", "m 1 12.5\n"},
		{"unterminated-labels", "m{a=\"b 1\n"},
		{"dup-type", "# TYPE m counter\n# TYPE m gauge\nm 1\n"},
		{"unknown-type", "# TYPE m ring\nm 1\n"},
		{"non-monotonic-buckets", "# TYPE h histogram\nh_bucket{le=\"2\"} 5\nh_bucket{le=\"+Inf\"} 3\n"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ValidateExposition(strings.NewReader(tc.doc)); err == nil {
				t.Errorf("validator accepted %q", tc.doc)
			}
		})
	}
}
