// Package livemon is the live telemetry plane: an embeddable HTTP
// server that exposes a running simulation's metrics, health, and
// progress without perturbing it.
//
// The core contract is determinism. The simulation is single-threaded
// and its artifacts must be byte-identical for a given seed, so the
// server never touches sim-owned state from an HTTP goroutine and never
// schedules kernel events. Instead the host's drive loop calls
// PublishTick between kernel steps: the sim goroutine takes a frozen
// registry snapshot, digests the health monitor's status table, and
// hands the copies to the server under its lock. HTTP handlers only
// ever render those published copies. Wall-clock runtime metrics
// (goroutines, heap, GC, worker progress) live in a separate registry
// that is served on /metrics but never written to an artifact.
//
// Published snapshots, alert transitions, status diffs, and progress
// events also land in a bounded on-disk ring (see Ring), which backs
// /api/series time-range queries and SSE reconnect replay.
package livemon

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/storefault"
)

// Config locates one Server.
type Config struct {
	// Addr is the listen address (":0" for an ephemeral port).
	Addr string
	// Dir is the ring directory; empty keeps the ring in memory only.
	Dir string
	// AddrFile, when set, receives the bound address after listen — a
	// rendezvous for probes when Addr was ephemeral.
	AddrFile string
	// Pprof mounts net/http/pprof under /debug/pprof/ when set.
	Pprof bool
	// FS is the filesystem seam the ring writes through; nil means the
	// real disk (storage-chaos campaigns inject a fault layer here).
	FS storefault.FS
}

// publishEvery is the sim-time cadence hosts call PublishTick at.
// sseBuffer is each SSE subscriber's queue depth: room for the alert
// and status frames of several ticks, since the publisher never waits
// and a full queue drops frames (the client recovers them by
// reconnecting with Last-Event-ID). The ring takes OpenRing's default
// bounds (1 MiB segments, 8 of them).
const (
	publishEvery = sim.Second
	sseBuffer    = 64
)

// Server is one live telemetry instance. Create with New, wire with
// Attach, serve with ListenAndServe, feed with PublishTick from the
// simulation's drive loop, and Close on shutdown to flush the ring.
type Server struct {
	cfg     Config
	bi      BuildInfo
	runtime *obs.Registry

	// simReg and mon are only ever dereferenced on the simulation
	// goroutine (PublishTick, monitor callbacks) — never from handlers.
	simReg *obs.Registry
	mon    *health.Monitor

	ln   net.Listener
	hs   *http.Server
	done chan struct{} // ListenAndServe's goroutine has returned

	mu         sync.Mutex
	ring       *Ring
	points     []obs.MetricPoint // last published sim snapshot
	simNow     sim.Time          // sim time of that snapshot
	published  int               // PublishTick count
	status     []siteStatusDTO
	prevStatus map[string]string // site -> marshaled row, for diffing
	alerts     []alertDTO
	subs       map[*subscriber]struct{}
	sseDropped uint64
	closed     chan struct{}
	closeOnce  sync.Once

	// Profiling sources (SetProfSources); any may be unset. The summary
	// and chrome functions snapshot under the profiler's own lock, and
	// provFlush drains the provenance writer's buffer, so serving them
	// from HTTP goroutines never touches sim-owned state.
	profSummary func() any
	profChrome  func(io.Writer) error
	provPath    string
	provFlush   func() error

	// flowPath backs /api/flows (SetFlowStore). flows is the read-only
	// handle opened from it, reused while a stat on each request shows
	// the file unchanged; handlers never share state with the analysis
	// pipeline that appends to the file. flowMu guards both.
	flowMu   sync.Mutex
	flowPath string
	flows    *flowHandle
}

// New builds a Server: opens (and, after a crash, recovers) the ring
// and constructs the wall-clock runtime registry.
func New(cfg Config) (*Server, error) {
	ring, err := OpenRing(cfg.FS, cfg.Dir, 0, 0)
	if err != nil {
		return nil, err
	}
	bi := readBuildInfo()
	return &Server{
		cfg:        cfg,
		bi:         bi,
		runtime:    newRuntimeRegistry(bi),
		ring:       ring,
		prevStatus: make(map[string]string),
		subs:       make(map[*subscriber]struct{}),
		closed:     make(chan struct{}),
	}, nil
}

// Attach wires the sim-time registry and (optionally nil) health
// monitor. Alert transitions stream out as SSE events the moment the
// monitor evaluates them. Call before the simulation starts running.
func (s *Server) Attach(reg *obs.Registry, mon *health.Monitor) {
	s.simReg = reg
	s.mon = mon
	mon.Subscribe(s.publishAlert) // nil-safe
}

// Runtime exposes the wall-clock registry so hosts can add their own
// operational gauges (campaign WAL lag, checkpoint age). Instruments
// here are served on /metrics but never written to artifacts.
func (s *Server) Runtime() *obs.Registry { return s.runtime }

// BuildInfo returns the build metadata served on /api/buildinfo.
func (s *Server) BuildInfo() BuildInfo { return s.bi }

// RingRef exposes the ring for tests and probes; all access must happen
// before serving starts or after Close.
func (s *Server) RingRef() *Ring { return s.ring }

// Interval is the sim-time publish cadence hosts should drive
// PublishTick at.
func (s *Server) Interval() sim.Duration { return publishEvery }

// siteStatusDTO mirrors health.SiteStatus for JSON: encoding/json
// rejects NaN, so the not-modeled markers become absent fields.
type siteStatusDTO struct {
	Site           string   `json:"site"`
	Alerts         int      `json:"alerts"`
	Worst          string   `json:"worst,omitempty"`
	DropRatio      float64  `json:"drop_ratio"`
	MirrorLoss     float64  `json:"mirror_loss"`
	QueueHighwater float64  `json:"queue_highwater"`
	FreeBytes      *float64 `json:"free_bytes,omitempty"`
	WritevMeanNs   *float64 `json:"writev_mean_ns,omitempty"`
}

func statusDTO(st health.SiteStatus) siteStatusDTO {
	d := siteStatusDTO{
		Site:           st.Site,
		Alerts:         st.Alerts,
		DropRatio:      st.DropRatio,
		MirrorLoss:     st.MirrorLoss,
		QueueHighwater: st.QueueHighwater,
	}
	if st.HasAlerts {
		d.Worst = st.Worst.String()
	}
	if !math.IsNaN(st.FreeBytes) {
		v := st.FreeBytes
		d.FreeBytes = &v
	}
	if !math.IsNaN(st.WritevMeanNs) {
		v := st.WritevMeanNs
		d.WritevMeanNs = &v
	}
	return d
}

// alertDTO is one active alert in /api/alerts.
type alertDTO struct {
	Rule     string `json:"rule"`
	Severity string `json:"severity"`
	Instance string `json:"instance,omitempty"`
	SinceNs  int64  `json:"since_ns"`
}

// alertEventDTO is one firing/resolved transition on the SSE stream.
type alertEventDTO struct {
	AtNs     int64    `json:"at_ns"`
	Rule     string   `json:"rule"`
	Severity string   `json:"severity"`
	Instance string   `json:"instance,omitempty"`
	State    string   `json:"state"`
	Value    *float64 `json:"value,omitempty"`
}

// seriesPoint is the compact per-instrument encoding inside a ring
// snapshot record: name, label identity, value (observation count for
// histograms, which also carry the sum).
type seriesPoint struct {
	N string  `json:"n"`
	L string  `json:"l,omitempty"`
	V float64 `json:"v"`
	S int64   `json:"s,omitempty"`
}

type snapshotRecord struct {
	Points []seriesPoint `json:"points"`
}

func encodeSnapshot(points []obs.MetricPoint) []byte {
	rec := snapshotRecord{Points: make([]seriesPoint, 0, len(points))}
	for _, mp := range points {
		if math.IsNaN(mp.Value) || math.IsInf(mp.Value, 0) {
			continue // JSON cannot carry it; absent beats corrupt
		}
		rec.Points = append(rec.Points, seriesPoint{
			N: mp.Name, L: mp.ID, V: mp.Value, S: mp.Sum,
		})
	}
	return mustJSON(rec)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// All inputs are server-owned structs; a failure is a bug.
		panic(fmt.Sprintf("livemon: marshal: %v", err))
	}
	return b
}

// PublishTick runs on the simulation goroutine, between kernel steps:
// it snapshots the sim registry and health state there (where touching
// them is safe) and publishes frozen copies for the HTTP side. One
// snapshot record lands in the ring per tick; sites whose status row
// changed since the last tick land as status events and stream to SSE
// subscribers.
func (s *Server) PublishTick(now sim.Time) {
	if s == nil {
		return
	}
	points := s.simReg.Snapshot()
	var rows []siteStatusDTO
	for _, st := range s.mon.Status() {
		rows = append(rows, statusDTO(st))
	}
	var active []alertDTO
	for _, a := range s.mon.ActiveAlerts() {
		active = append(active, alertDTO{
			Rule: a.Rule, Severity: a.Severity.String(),
			Instance: a.Instance, SinceNs: int64(a.Since),
		})
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.points = points
	s.simNow = now
	s.published++
	s.alerts = active
	s.ring.Append(KindSnapshot, now, encodeSnapshot(points))
	for _, row := range rows {
		encoded := mustJSON(row)
		key := row.Site
		if s.prevStatus[key] == string(encoded) {
			continue
		}
		s.prevStatus[key] = string(encoded)
		if seq, stored := s.ring.Append(KindStatus, now, encoded); stored {
			s.broadcastLocked(sseEvent{id: seq, typ: KindStatus, data: encoded})
		}
	}
	s.status = rows
}

// publishAlert is the monitor subscription callback; it runs on the
// simulation goroutine inside kernel steps.
func (s *Server) publishAlert(ev health.AlertEvent) {
	dto := alertEventDTO{
		AtNs: int64(ev.At), Rule: ev.Rule, Severity: ev.Severity.String(),
		Instance: ev.Instance, State: ev.State,
	}
	if !math.IsNaN(ev.Value) && !math.IsInf(ev.Value, 0) {
		v := ev.Value
		dto.Value = &v
	}
	data := mustJSON(dto)
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq, stored := s.ring.Append(KindAlert, ev.At, data); stored {
		s.broadcastLocked(sseEvent{id: seq, typ: KindAlert, data: data})
	}
}

// PublishEvent appends an arbitrary record to the ring and streams it;
// the generic ingress used by hosts with their own event kinds.
func (s *Server) PublishEvent(kind string, at sim.Time, data []byte) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq, stored := s.ring.Append(kind, at, data); stored {
		s.broadcastLocked(sseEvent{id: seq, typ: kind, data: data})
	}
}

// SetProfSources wires the profiling surfaces: summary renders the lane
// profiler's speedup/efficiency aggregate on /api/prof, chrome streams
// its wall-plane Chrome trace on /api/prof/chrome, and provenancePath +
// provFlush serve the on-disk causal trace on /api/prof/provenance
// (flushed first so the download sees every record so far). Any argument
// may be nil/empty; the corresponding endpoint answers 404. Call before
// the simulation starts running.
func (s *Server) SetProfSources(summary func() any, chrome func(io.Writer) error, provenancePath string, provFlush func() error) {
	s.profSummary = summary
	s.profChrome = chrome
	s.provPath = provenancePath
	s.provFlush = provFlush
}

func (s *Server) handleProf(w http.ResponseWriter, _ *http.Request) {
	if s.profSummary == nil {
		http.Error(w, "no lane profiler attached", http.StatusNotFound)
		return
	}
	writeJSON(w, s.profSummary())
}

func (s *Server) handleProfChrome(w http.ResponseWriter, _ *http.Request) {
	if s.profChrome == nil {
		http.Error(w, "no lane profiler attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="lane-trace.json"`)
	s.profChrome(w)
}

func (s *Server) handleProvenance(w http.ResponseWriter, r *http.Request) {
	if s.provPath == "" {
		http.Error(w, "no provenance trace attached", http.StatusNotFound)
		return
	}
	if s.provFlush != nil {
		if err := s.provFlush(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="provenance.trace"`)
	http.ServeFile(w, r, s.provPath)
}

// Handler builds the route table. Exposed separately from
// ListenAndServe so tests can drive it with httptest.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/api/status", s.handleStatus)
	mux.HandleFunc("/api/alerts", s.handleAlerts)
	mux.HandleFunc("/api/series", s.handleSeries)
	mux.HandleFunc("/api/buildinfo", s.handleBuildinfo)
	mux.HandleFunc("/api/prof", s.handleProf)
	mux.HandleFunc("/api/prof/chrome", s.handleProfChrome)
	mux.HandleFunc("/api/prof/provenance", s.handleProvenance)
	mux.HandleFunc("/api/flows", s.handleFlows)
	mux.HandleFunc("/events", s.handleEvents)
	if s.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "patchwork live telemetry")
	fmt.Fprintln(w, "  /metrics        Prometheus exposition (sim snapshot + runtime)")
	fmt.Fprintln(w, "  /api/status     per-site health table")
	fmt.Fprintln(w, "  /api/alerts     active alerts")
	fmt.Fprintln(w, "  /api/series     ?name=&from=&to= time-range query over the ring")
	fmt.Fprintln(w, "  /api/buildinfo  module version, VCS revision, Go version")
	fmt.Fprintln(w, "  /api/prof       lane profiler summary (speedup, efficiency)")
	fmt.Fprintln(w, "  /api/prof/chrome      wall-plane Chrome trace download")
	fmt.Fprintln(w, "  /api/prof/provenance  causal provenance trace download")
	fmt.Fprintln(w, "  /api/flows      ?from=&to=&site=&limit= flow store query")
	fmt.Fprintln(w, "  /events         SSE stream (alerts, status diffs, progress)")
	if s.cfg.Pprof {
		fmt.Fprintln(w, "  /debug/pprof/   profiling")
	}
}

// handleMetrics renders the last published sim snapshot followed by the
// runtime registry. The sim points are frozen copies, so rendering them
// here never races the simulation.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	points := s.points
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.WritePrometheusPoints(w, points); err != nil {
		return
	}
	s.runtime.WritePrometheus(w)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	resp := struct {
		SimNs      int64           `json:"sim_ns"`
		Published  int             `json:"published"`
		Sites      []siteStatusDTO `json:"sites"`
		Ring       ringStatus      `json:"ring"`
		SSEDropped uint64          `json:"sse_dropped,omitempty"`
	}{
		SimNs: int64(s.simNow), Published: s.published, Sites: s.status,
		Ring: ringStatus{
			Records: s.ring.Len(), NextSeq: s.ring.NextSeq(),
			Recovered: s.ring.Recovered(), Err: errString(s.ring.Err()),
		},
		SSEDropped: s.sseDropped,
	}
	s.mu.Unlock()
	writeJSON(w, resp)
}

type ringStatus struct {
	Records   int    `json:"records"`
	NextSeq   uint64 `json:"next_seq"`
	Recovered int    `json:"recovered,omitempty"`
	Err       string `json:"err,omitempty"`
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func (s *Server) handleAlerts(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	resp := struct {
		SimNs  int64      `json:"sim_ns"`
		Active []alertDTO `json:"active"`
	}{SimNs: int64(s.simNow), Active: s.alerts}
	s.mu.Unlock()
	writeJSON(w, resp)
}

func (s *Server) handleBuildinfo(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.bi)
}

// handleSeries answers /api/series?name=&from=&to= from the ring's
// snapshot records: every retained sample of the named instrument
// inside [from, to] sim-nanoseconds, grouped by label identity.
func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		http.Error(w, "missing ?name=", http.StatusBadRequest)
		return
	}
	from, to := int64(math.MinInt64), int64(math.MaxInt64)
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			http.Error(w, "bad from", http.StatusBadRequest)
			return
		}
		from = n
	}
	if v := r.URL.Query().Get("to"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			http.Error(w, "bad to", http.StatusBadRequest)
			return
		}
		to = n
	}
	type tv struct {
		TNs int64   `json:"t_ns"`
		V   float64 `json:"v"`
	}
	byLabel := map[string][]tv{}
	s.mu.Lock()
	s.ring.Scan(func(rec Record) bool {
		if rec.Kind != KindSnapshot || rec.SimNs < from || rec.SimNs > to {
			return true
		}
		var snap snapshotRecord
		if err := json.Unmarshal(rec.Data, &snap); err != nil {
			return true
		}
		for _, p := range snap.Points {
			if p.N == name {
				byLabel[p.L] = append(byLabel[p.L], tv{TNs: rec.SimNs, V: p.V})
			}
		}
		return true
	})
	s.mu.Unlock()
	ids := make([]string, 0, len(byLabel))
	for id := range byLabel {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	type series struct {
		Labels string `json:"labels,omitempty"`
		Points []tv   `json:"points"`
	}
	resp := struct {
		Name   string   `json:"name"`
		Series []series `json:"series"`
	}{Name: name, Series: make([]series, 0, len(ids))}
	for _, id := range ids {
		resp.Series = append(resp.Series, series{Labels: id, Points: byLabel[id]})
	}
	writeJSON(w, resp)
}

// ListenAndServe binds the configured address, writes the AddrFile
// rendezvous, and serves in a background goroutine.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("livemon: %w", err)
	}
	s.ln = ln
	if s.cfg.AddrFile != "" {
		// Write-then-rename so a probe polling the file never reads a
		// partial address.
		tmp := s.cfg.AddrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("livemon: %w", err)
		}
		if err := os.Rename(tmp, s.cfg.AddrFile); err != nil {
			ln.Close()
			return fmt.Errorf("livemon: %w", err)
		}
	}
	s.hs = &http.Server{Handler: s.Handler()}
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return nil
}

// Addr reports the bound address (useful with Addr ":0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the server down gracefully — SSE streams are released,
// in-flight scrapes finish, the ring is flushed and closed. Safe to
// call multiple times and on a server that never listened.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.closed) // unblocks every SSE handler's select
		if s.hs != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			err = s.hs.Shutdown(ctx)
			cancel()
			<-s.done
		}
		s.mu.Lock()
		if cerr := s.ring.Close(); err == nil {
			err = cerr
		}
		s.mu.Unlock()
		s.flowMu.Lock()
		s.retireFlowsLocked()
		s.flowMu.Unlock()
	})
	return err
}
