package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/flowstore"
	"repro/internal/livemon"
	"repro/internal/sim"
)

// Query-loop sizes: the run's query set, and how many requests one
// measured repeat sends through the closed loop.
const (
	querySet     = 48
	batchQueries = 3000
	smokeBatch   = 300
)

// httpClient bounds every request the benchmark makes outside the loop,
// so a hung server fails the run instead of stalling it.
var httpClient = &http.Client{Timeout: 30 * time.Second}

// flowQuery is one /api/flows request.
type flowQuery struct {
	site     string
	from, to int64
	limit    int
}

func (q flowQuery) path() string {
	v := url.Values{}
	if q.site != "" {
		v.Set("site", q.site)
	}
	if q.from > 0 {
		v.Set("from", strconv.FormatInt(q.from, 10))
	}
	if q.to > 0 {
		v.Set("to", strconv.FormatInt(q.to, 10))
	}
	v.Set("limit", strconv.Itoa(q.limit))
	return "/api/flows?" + v.Encode()
}

func (q flowQuery) store() flowstore.Query {
	return flowstore.Query{Site: q.site, FromNs: q.from, ToNs: q.to, Limit: q.limit}
}

// queryMix draws the run's query set from the seed. A third of the
// queries select one site, a third a time window of 1, 5 or 20 s inside
// the corpus's 20 s captures, and a third are unfiltered; within each,
// half ask for at most 100 rows and half for 1000. The seed picks the
// sites and window positions, so the mix itself does not vary with it.
func queryMix(seed uint64, sites []string) []flowQuery {
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	span := int64(20 * sim.Second)
	qs := make([]flowQuery, querySet)
	for i := range qs {
		j := i / 3
		q := flowQuery{limit: []int{100, 1000}[j%2]}
		switch i % 3 {
		case 0:
			q.site = sites[r.IntN(len(sites))]
		case 1:
			width := []int64{1, 5, 20}[j%3] * int64(sim.Second)
			q.from = r.Int64N(span-width+1) + 1
			q.to = q.from + width
		}
		qs[i] = q
	}
	return qs
}

// flowRow is the part of an /api/flows answer row the benchmark checks.
type flowRow struct {
	Site    string `json:"site"`
	VLANID  uint16 `json:"vlan_id"`
	MPLSTop uint32 `json:"mpls_label"`
	Src     string `json:"src"`
	Dst     string `json:"dst"`
	Proto   string `json:"proto"`
	SrcPort uint16 `json:"src_port"`
	DstPort uint16 `json:"dst_port"`
	FirstNs int64  `json:"first_ns"`
	LastNs  int64  `json:"last_ns"`
	Frames  uint64 `json:"frames"`
	Bytes   uint64 `json:"bytes"`
}

func rowOf(r flowstore.Rec) flowRow {
	return flowRow{
		Site: r.Site, VLANID: r.Key.VLANID, MPLSTop: r.Key.MPLSTop,
		Src: r.Key.Src.String(), Dst: r.Key.Dst.String(), Proto: r.Key.Proto.String(),
		SrcPort: r.Key.SrcPort, DstPort: r.Key.DstPort,
		FirstNs: r.FirstNs, LastNs: r.LastNs, Frames: r.Frames, Bytes: r.Bytes,
	}
}

// expected holds each distinct query's answer from flowstore.Query, and
// the time the store took to open and to answer.
type expected struct {
	rows            [][]flowRow
	openMs, queryMs []float64
	bodySum         [][32]byte // the server's answer body, once verified
}

func expectAnswers(store string, qs []flowQuery) (*expected, error) {
	e := &expected{bodySum: make([][32]byte, len(qs))}
	for _, q := range qs {
		t0 := time.Now()
		st, err := flowstore.Open(store)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		recs, err := st.Query(q.store())
		t2 := time.Now()
		st.Close()
		if err != nil {
			return nil, err
		}
		rows := make([]flowRow, len(recs))
		for i, r := range recs {
			rows[i] = rowOf(r)
		}
		e.rows = append(e.rows, rows)
		e.openMs = append(e.openMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
		e.queryMs = append(e.queryMs, float64(t2.Sub(t1).Nanoseconds())/1e6)
	}
	return e, nil
}

// digest hashes every distinct query's expected answer.
func (e *expected) digest(qs []flowQuery) (string, error) {
	h := newHasher()
	for i, q := range qs {
		data, err := json.Marshal(e.rows[i])
		if err != nil {
			return "", err
		}
		h.str(q.path())
		h.str(string(data))
	}
	return h.sum(), nil
}

// verify asks the server every distinct query once and compares each
// answer with flowstore.Query's. It remembers each answer body, so the
// loop can check every later answer by its hash.
func (e *expected) verify(base string, qs []flowQuery) error {
	for i, q := range qs {
		resp, err := httpClient.Get(base + q.path())
		if err != nil {
			return err
		}
		var body bytes.Buffer
		_, err = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d", q.path(), resp.StatusCode)
		}
		var got struct {
			Matched int       `json:"matched"`
			Flows   []flowRow `json:"flows"`
		}
		if err := json.Unmarshal(body.Bytes(), &got); err != nil {
			return fmt.Errorf("%s: %w", q.path(), err)
		}
		want, _ := json.Marshal(e.rows[i])
		have, _ := json.Marshal(got.Flows)
		if got.Matched != len(e.rows[i]) || !bytes.Equal(want, have) {
			return fmt.Errorf("%s: answer differs from flowstore.Query (%d rows, want %d)", q.path(), got.Matched, len(e.rows[i]))
		}
		e.bodySum[i] = sha256.Sum256(body.Bytes())
	}
	return nil
}

// loopResult is one closed-loop batch.
type loopResult struct {
	wall    time.Duration
	latency []float64 // ms, one per request
	failed  int
}

// queryLoop sends total requests over conns keep-alive connections. Each
// connection sends its next request only when the previous answer has
// arrived (a closed loop). The requests walk the query set in seeded
// shuffled rounds, so every query is asked equally often.
// Every answer must carry status 200 and the verified body of its query.
func queryLoop(base string, qs []flowQuery, e *expected, seed uint64, conns, total int) loopResult {
	r := rand.New(rand.NewPCG(seed, 1))
	order := make([]int, 0, total+len(qs))
	for len(order) < total {
		order = append(order, r.Perm(len(qs))...)
	}
	res := loopResult{latency: make([]float64, total)}
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr, Timeout: httpClient.Timeout}
			var body bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				q := order[i]
				ts := time.Now()
				ok := false
				if resp, err := client.Get(base + qs[q].path()); err == nil {
					body.Reset()
					_, err = body.ReadFrom(resp.Body)
					resp.Body.Close()
					ok = err == nil && resp.StatusCode == http.StatusOK && sha256.Sum256(body.Bytes()) == e.bodySum[q]
				}
				res.latency[i] = float64(time.Since(ts).Nanoseconds()) / 1e6
				if !ok {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(t0)
	res.failed = int(failed.Load())
	return res
}

// server is one serve-flows child.
type server struct {
	cmd    *exec.Cmd
	p      *proc
	base   string
	report string
	setup  float64 // spawn to the first 200 answer, seconds
}

// startServer spawns a serve-flows child over store and waits until it
// answers /api/flows.
func (b *bench) startServer(store string, extra ...string) (*server, error) {
	addrFile := b.path("addr")
	os.Remove(addrFile)
	s := &server{report: b.path("serve.json")}
	os.Remove(s.report)
	s.cmd = exec.Command(b.exe, append([]string{"serve-flows", "-store", store, "-addr-file", addrFile, "-report", s.report}, extra...)...)
	p, err := startChild(s.cmd)
	if err != nil {
		return nil, err
	}
	s.p = p
	deadline := p.start.Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if s.base == "" {
			if data, err := os.ReadFile(addrFile); err == nil {
				s.base = "http://" + strings.TrimSpace(string(data))
			}
		}
		if s.base != "" {
			if resp, err := httpClient.Get(s.base + "/api/flows?limit=1"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					s.setup = time.Since(p.start).Seconds()
					return s, nil
				}
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	s.cmd.Process.Kill()
	waitChild(s.cmd, s.p)
	return nil, fmt.Errorf("serve-flows did not answer within 30s\n%s", trimOutput(p.out.Bytes()))
}

// stop ends the child with SIGTERM and reads its resource usage and
// report.
func (s *server) stop() (*childReport, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return nil, err
	}
	if err := waitChild(s.cmd, s.p); err != nil {
		return nil, err
	}
	return readReport(s.report)
}

// serveFlowsMain is the flow-query server child: livemon serving
// /api/flows over a flow store until SIGTERM.
func serveFlowsMain(args []string) int {
	fs := flag.NewFlagSet("pwbench serve-flows", flag.ContinueOnError)
	store := fs.String("store", "", "flow store to serve")
	addrFile := fs.String("addr-file", "", "where to write the bound address")
	report := fs.String("report", "", "report path")
	cpuProf := fs.String("cpuprofile", "", "CPU profile path")
	memProf := fs.String("memprofile", "", "allocs profile path")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	err := profiled(*cpuProf, *memProf, func() error {
		srv, err := livemon.New(livemon.Config{Addr: "127.0.0.1:0", AddrFile: *addrFile})
		if err != nil {
			return err
		}
		srv.SetFlowStore(*store)
		if err := srv.ListenAndServe(); err != nil {
			srv.Close()
			return err
		}
		<-sig
		return srv.Close()
	})
	if err == nil {
		err = writeReport(*report, &childReport{})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pwbench serve-flows:", err)
		return 1
	}
	return 0
}

// runFlowQuery drives flow-query. Set-up writes the corpus and runs
// pwanalyze once to produce its flow store; each measured repeat starts a
// fresh server and sends one closed-loop batch of queries over nproc
// keep-alive connections.
func runFlowQuery(b *bench, t *tally) error {
	start := time.Now()
	corpus := b.path("corpus")
	sites, err := writeCorpus(corpus, b.seed, b.smoke)
	if err != nil {
		return err
	}
	a, err := b.newAnalyzer(corpus)
	if err != nil {
		return err
	}
	out := b.freshDir("analysis")
	if _, _, err := a.run(out); err != nil {
		return err
	}
	store := filepath.Join(out, "flows.pwfs")
	qs := queryMix(b.seed, sites)
	exp, err := expectAnswers(store, qs)
	if err != nil {
		return err
	}
	d, err := exp.digest(qs)
	if err != nil {
		return err
	}
	total := batchQueries
	if b.smoke {
		total = smokeBatch
	}
	var batches int
	// once measures one batch; its wall time is the batch's, not the
	// server's life.
	once := func(extra ...string) (loopResult, error) {
		s, err := b.startServer(store, extra...)
		if err != nil {
			return loopResult{}, err
		}
		t.setup = append(t.setup, s.setup)
		if batches == 0 {
			if err := exp.verify(s.base, qs); err != nil {
				s.stop()
				return loopResult{}, err
			}
		}
		lr := queryLoop(s.base, qs, exp, b.seed+uint64(batches), b.nproc, total)
		rep, err := s.stop()
		if err != nil {
			return loopResult{}, err
		}
		batches++
		t.attempted += total
		t.failed += lr.failed
		if lr.failed > 0 {
			t.fail("%d of %d queries failed or answered wrongly", lr.failed, total)
		}
		t.digest(d)
		t.sample(lr.wall, s.p, rep.AllocBytes)
		return lr, nil
	}
	if !b.trace {
		if err := b.repeat(t, start, func() error { _, err := once(); return err }); err != nil {
			return err
		}
		for len(t.setup) < probeCount {
			s, err := b.startServer(store)
			if err != nil {
				return err
			}
			t.setup = append(t.setup, s.setup)
			if _, err := s.stop(); err != nil {
				return err
			}
		}
		return nil
	}

	base, err := once()
	if err != nil {
		return err
	}
	cpu, mem := b.path("serve.cpu.pprof"), b.path("serve.allocs.pprof")
	traced, err := once("-cpuprofile", cpu, "-memprofile", mem)
	if err != nil {
		return err
	}
	t.layer["trace.overhead_frac"] = traced.wall.Seconds()/base.wall.Seconds() - 1
	if err := b.ledger(t, cpu, mem); err != nil {
		return err
	}
	p50 := quantile(base.latency, 0.5)
	storeMs := make([]float64, len(exp.openMs))
	for i := range storeMs {
		storeMs[i] = exp.openMs[i] + exp.queryMs[i]
	}
	t.layer["livemon.query_p50_ms"] = p50
	t.layer["livemon.query_p99_ms"] = quantile(base.latency, 0.99)
	t.layer["livemon.queries_per_s"] = float64(total) / base.wall.Seconds()
	t.layer["livemon.overhead_ms"] = p50 - median(storeMs)
	t.layer["flowstore.open_ms"] = median(exp.openMs)
	t.layer["flowstore.query_ms"] = median(exp.queryMs)
	fmt.Fprintf(b.out, "  %d queries over %d connections: p50 %.3f ms, p99 %.3f ms (%d samples)\n",
		total, b.nproc, p50, quantile(base.latency, 0.99), len(base.latency))
	return nil
}
