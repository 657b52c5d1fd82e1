package livemon

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/sim"
)

func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func getJSON(t *testing.T, ts *httptest.Server, path string, into any) {
	t.Helper()
	code, body := get(t, ts, path)
	if code != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", path, code, body)
	}
	if err := json.Unmarshal([]byte(body), into); err != nil {
		t.Fatalf("GET %s: %v in %s", path, err, body)
	}
}

// TestServerEndpoints drives a tiny simulation through PublishTick and
// checks every read endpoint against it.
func TestServerEndpoints(t *testing.T) {
	k := sim.NewKernel()
	reg := obs.NewKernelRegistry(k)
	mon, err := health.NewMonitor(k, reg, nil, health.RuleSet{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Attach(reg, mon)

	rx := reg.Counter("capture_frames_received_total", obs.L("site", "STAR"))
	for i := 1; i <= 3; i++ {
		k.At(sim.Time(i)*sim.Second, func() { rx.Add(10) })
	}
	// The host drive loop: step the kernel, publish between steps.
	for k.Step() {
		mon.Tick()
		s.PublishTick(k.Now())
	}
	if got := s.Interval(); got != sim.Second {
		t.Fatalf("Interval = %d", got)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{
		`capture_frames_received_total{site="STAR"} 30`,
		"patchwork_build_info",
		"patchwork_runtime_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	if _, err := obs.ValidateExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}

	var status struct {
		SimNs     int64 `json:"sim_ns"`
		Published int   `json:"published"`
		Sites     []struct {
			Site string `json:"site"`
		} `json:"sites"`
		Ring ringStatus `json:"ring"`
	}
	getJSON(t, ts, "/api/status", &status)
	if status.SimNs != int64(3*sim.Second) || status.Published != 3 {
		t.Fatalf("status = %+v", status)
	}
	if len(status.Sites) != 1 || status.Sites[0].Site != "STAR" {
		t.Fatalf("sites = %+v", status.Sites)
	}
	if status.Ring.Records == 0 {
		t.Fatalf("ring empty: %+v", status.Ring)
	}

	var alerts struct {
		Active []alertDTO `json:"active"`
	}
	getJSON(t, ts, "/api/alerts", &alerts)
	if len(alerts.Active) != 0 {
		t.Fatalf("unexpected active alerts: %+v", alerts.Active)
	}

	var series struct {
		Name   string `json:"name"`
		Series []struct {
			Labels string `json:"labels"`
			Points []struct {
				TNs int64   `json:"t_ns"`
				V   float64 `json:"v"`
			} `json:"points"`
		} `json:"series"`
	}
	getJSON(t, ts, "/api/series?name=capture_frames_received_total", &series)
	if len(series.Series) != 1 || series.Series[0].Labels != "site=STAR" {
		t.Fatalf("series = %+v", series.Series)
	}
	pts := series.Series[0].Points
	if len(pts) != 3 || pts[0].V != 10 || pts[2].V != 30 {
		t.Fatalf("points = %+v", pts)
	}
	from, to := int64(2*sim.Second), int64(2*sim.Second)
	getJSON(t, ts, fmt.Sprintf("/api/series?name=capture_frames_received_total&from=%d&to=%d", from, to), &series)
	if len(series.Series) != 1 || len(series.Series[0].Points) != 1 || series.Series[0].Points[0].V != 20 {
		t.Fatalf("range query = %+v", series.Series)
	}
	if code, _ := get(t, ts, "/api/series"); code != http.StatusBadRequest {
		t.Fatalf("series without name: %d, want 400", code)
	}

	var bi BuildInfo
	getJSON(t, ts, "/api/buildinfo", &bi)
	if bi.GoVersion == "" {
		t.Fatal("buildinfo missing go_version")
	}
}

// TestAlertTransitionsStream checks that monitor transitions reach the
// ring and the active-alert view via the subscription callback.
func TestAlertTransitionsStream(t *testing.T) {
	s := newTestServer(t)
	s.publishAlert(health.AlertEvent{
		At: 5 * sim.Second, Rule: "capture-drops", Severity: health.SeverityCritical,
		Instance: "site=STAR", State: "firing", Value: 0.4,
	})
	evs := s.ring.EventsSince(0)
	if len(evs) != 1 || evs[0].Kind != KindAlert {
		t.Fatalf("ring events = %+v", evs)
	}
	var dto alertEventDTO
	if err := json.Unmarshal(evs[0].Data, &dto); err != nil {
		t.Fatal(err)
	}
	if dto.Rule != "capture-drops" || dto.Severity != "critical" || dto.State != "firing" || dto.Value == nil || *dto.Value != 0.4 {
		t.Fatalf("alert dto = %+v", dto)
	}
}

// TestConcurrentScrapeRace scrapes every endpoint from several
// goroutines while the simulation goroutine steps the kernel, mutates
// the registry, and publishes ticks. Run under -race this is the
// snapshot-consistency gate: HTTP handlers must only ever touch frozen
// copies, never live sim state.
func TestConcurrentScrapeRace(t *testing.T) {
	k := sim.NewKernel()
	reg := obs.NewKernelRegistry(k)
	obs.CollectKernel(reg, k)
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Attach(reg, nil)

	rx := reg.Counter("capture_frames_received_total", obs.L("site", "STAR"))
	lat := reg.Histogram("hostsim_writev_latency_ns", obs.L("site", "STAR"))
	var tick func(i int)
	tick = func(i int) {
		rx.Add(3)
		lat.Observe(int64(1000 + i*7))
		if i < 2000 {
			k.After(sim.Microsecond*50, func() { tick(i + 1) })
		}
	}
	k.At(0, func() { tick(0) })

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	paths := []string{"/metrics", "/api/status", "/api/series?name=capture_frames_received_total", "/api/alerts"}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				path := paths[(g+i)%len(paths)]
				resp, err := ts.Client().Get(ts.URL + path)
				if err != nil {
					return // server shutting down
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if path == "/metrics" {
					if _, verr := obs.ValidateExposition(strings.NewReader(string(body))); verr != nil {
						t.Errorf("mid-run /metrics invalid: %v", verr)
						return
					}
				}
			}
		}(g)
	}
	// Worker-goroutine progress publishing races the scrapes too.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			s.PublishProgress(i%4, fmt.Sprintf("exp-%d", i), "start", i, 500)
		}
	}()

	// Publish on a 1 ms cadence, far finer than a host's, so scrapes
	// race many publishes.
	next := sim.Duration(0)
	for k.Step() {
		if k.Now() >= next {
			s.PublishTick(k.Now())
			next = k.Now() + sim.Millisecond
		}
	}
	s.PublishTick(k.Now())
	close(done)
	wg.Wait()

	if _, body := get(t, ts, "/metrics"); !strings.Contains(body, `capture_frames_received_total{site="STAR"} 6003`) {
		t.Fatalf("final counter missing from /metrics:\n%s", body)
	}
}
