package livemon

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"net/url"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/flowstore"
	"repro/internal/wire"
)

func writeTestFlowStore(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "flows.pwfs")
	w, err := flowstore.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(i int, site string, baseNs int64) flowstore.Rec {
		return flowstore.Rec{
			Key: flowstore.Key{
				VLANID:  uint16(100 + i),
				Src:     wire.NewIPEndpoint(netip.AddrFrom4([4]byte{10, 0, 0, byte(i)})),
				Dst:     wire.NewIPEndpoint(netip.AddrFrom4([4]byte{10, 1, 0, 1})),
				Proto:   wire.LayerTypeTCP,
				SrcPort: uint16(30000 + i),
				DstPort: 443,
			},
			Site:     site,
			FirstNs:  baseNs + int64(i)*1e9,
			LastNs:   baseNs + int64(i)*1e9 + 5e8,
			FirstSeq: uint64(i),
			Frames:   uint64(i + 1),
			Bytes:    uint64((i + 1) * 900),
		}
	}
	segA := []flowstore.Rec{mk(0, "STAR", 1e9), mk(1, "STAR", 1e9)}
	segB := []flowstore.Rec{mk(2, "DALL", 100e9), mk(3, "DALL", 100e9), mk(4, "DALL", 100e9)}
	if err := w.Append("STAR", segA); err != nil {
		t.Fatal(err)
	}
	if err := w.Append("DALL", segB); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

type flowsResp struct {
	Segments int   `json:"segments"`
	Rows     int64 `json:"rows"`
	Torn     bool  `json:"torn"`
	Matched  int   `json:"matched"`
	Flows    []struct {
		Site    string `json:"site"`
		VLANID  uint16 `json:"vlan_id"`
		Src     string `json:"src"`
		Dst     string `json:"dst"`
		Proto   string `json:"proto"`
		SrcPort uint16 `json:"src_port"`
		DstPort uint16 `json:"dst_port"`
		FirstNs int64  `json:"first_ns"`
		LastNs  int64  `json:"last_ns"`
		Frames  uint64 `json:"frames"`
		Bytes   uint64 `json:"bytes"`
	} `json:"flows"`
}

// TestFlowsEndpoint covers the /api/flows query surface: unattached 404,
// full scan, site and time-range pruning, limit, and bad params.
func TestFlowsEndpoint(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := get(t, ts, "/api/flows"); code != http.StatusNotFound {
		t.Fatalf("unattached: got %d, want 404", code)
	}

	s.SetFlowStore(writeTestFlowStore(t))

	var all flowsResp
	getJSON(t, ts, "/api/flows", &all)
	if all.Segments != 2 || all.Rows != 5 || all.Matched != 5 || all.Torn {
		t.Fatalf("full scan: %+v", all)
	}
	f := all.Flows[0]
	if f.Site != "STAR" || f.VLANID != 100 || f.Src != "10.0.0.0" || f.Proto != "TCP" || f.DstPort != 443 || f.Frames != 1 || f.Bytes != 900 {
		t.Fatalf("first row: %+v", f)
	}

	var bySite flowsResp
	getJSON(t, ts, "/api/flows?site=DALL", &bySite)
	if bySite.Matched != 3 {
		t.Fatalf("site filter: matched %d, want 3", bySite.Matched)
	}
	for _, f := range bySite.Flows {
		if f.Site != "DALL" {
			t.Fatalf("site filter leaked row: %+v", f)
		}
	}

	// Time range covering only the first segment's rows.
	var byTime flowsResp
	getJSON(t, ts, "/api/flows?from=1&to=3000000000", &byTime)
	if byTime.Matched != 2 {
		t.Fatalf("time filter: matched %d, want 2", byTime.Matched)
	}

	var limited flowsResp
	getJSON(t, ts, "/api/flows?limit=1", &limited)
	if limited.Matched != 1 || len(limited.Flows) != 1 {
		t.Fatalf("limit: %+v", limited)
	}

	for _, bad := range []string{"/api/flows?from=x", "/api/flows?to=x", "/api/flows?from=-1", "/api/flows?to=-1", "/api/flows?limit=0", "/api/flows?limit=x"} {
		if code, _ := get(t, ts, bad); code != http.StatusBadRequest {
			t.Fatalf("%s: got %d, want 400", bad, code)
		}
	}

	// A missing file is a server-side error, not a silent empty result.
	s.SetFlowStore(filepath.Join(t.TempDir(), "absent.pwfs"))
	if code, _ := get(t, ts, "/api/flows"); code != http.StatusInternalServerError {
		t.Fatalf("missing file: got %d, want 500", code)
	}
}

// flowRowDTO is the reflective form the /api/flows encoder replaced,
// kept as its oracle: oracleFlows renders an answer from it through
// writeJSON, and the handler's bytes must equal that.
type flowRowDTO struct {
	Site    string `json:"site"`
	VLANID  uint16 `json:"vlan_id,omitempty"`
	MPLSTop uint32 `json:"mpls_label,omitempty"`
	Src     string `json:"src"`
	Dst     string `json:"dst"`
	Proto   string `json:"proto"`
	SrcPort uint16 `json:"src_port,omitempty"`
	DstPort uint16 `json:"dst_port,omitempty"`
	FirstNs int64  `json:"first_ns"`
	LastNs  int64  `json:"last_ns"`
	Frames  uint64 `json:"frames"`
	Bytes   uint64 `json:"bytes"`
}

// oracleFlows is the answer body to q over the store file at path, as
// the reflective encoder wrote it.
func oracleFlows(t *testing.T, path string, q flowstore.Query) string {
	t.Helper()
	st, err := flowstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recs, err := st.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]flowRowDTO, 0, len(recs))
	for _, rec := range recs {
		rows = append(rows, flowRowDTO{
			Site:    rec.Site,
			VLANID:  rec.Key.VLANID,
			MPLSTop: rec.Key.MPLSTop,
			Src:     rec.Key.Src.String(),
			Dst:     rec.Key.Dst.String(),
			Proto:   rec.Key.Proto.String(),
			SrcPort: rec.Key.SrcPort,
			DstPort: rec.Key.DstPort,
			FirstNs: rec.FirstNs,
			LastNs:  rec.LastNs,
			Frames:  rec.Frames,
			Bytes:   rec.Bytes,
		})
	}
	rr := httptest.NewRecorder()
	writeJSON(rr, struct {
		Segments int          `json:"segments"`
		Rows     int64        `json:"rows"`
		Torn     bool         `json:"torn"`
		Matched  int          `json:"matched"`
		Flows    []flowRowDTO `json:"flows"`
	}{st.Segments(), st.Rows(), st.Torn(), len(rows), rows})
	return rr.Body.String()
}

// flowsURL is the /api/flows request for q.
func flowsURL(q flowstore.Query) string {
	v := url.Values{}
	if q.Site != "" {
		v.Set("site", q.Site)
	}
	if q.FromNs != 0 {
		v.Set("from", strconv.FormatInt(q.FromNs, 10))
	}
	if q.ToNs != 0 {
		v.Set("to", strconv.FormatInt(q.ToNs, 10))
	}
	if q.Limit != 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	return "/api/flows?" + v.Encode()
}

// richSites are the site labels of writeRichFlowStore, one segment
// each: a plain one with enough rows to tell limits 100 and 1000 apart,
// then labels that need JSON escaping.
var richSites = []string{
	"STAR", `q"uote`, `back\slash`, "<&>", "line\u2028sep\u2029end",
	"bad\xffutf8\xc3", "ctl\x00\x01\b\f\n\r\t\x1f\x7f",
}

// writeRichFlowStore writes a store at path whose rows cover every
// endpoint family, VLAN, MPLS and ports both zero and non-zero, and
// named, zero and unknown layer types.
func writeRichFlowStore(t *testing.T, path string) {
	t.Helper()
	w, err := flowstore.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := [][2]wire.Endpoint{
		{wire.NewIPEndpoint(netip.MustParseAddr("10.0.0.1")), wire.NewIPEndpoint(netip.MustParseAddr("192.168.7.200"))},
		{wire.NewIPEndpoint(netip.MustParseAddr("2001:db8::1")), wire.NewIPEndpoint(netip.MustParseAddr("::ffff:10.1.2.3"))},
		{wire.NewMACEndpoint(wire.MAC{0x02, 0, 0, 0xab, 0xcd, 0xef}), wire.NewMACEndpoint(wire.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff})},
		{wire.NewTCPPortEndpoint(443), wire.NewUDPPortEndpoint(0)},
		{{}, {}},
	}
	protos := []wire.LayerType{wire.LayerTypeTCP, wire.LayerTypeUDP, wire.LayerTypeICMPv6, wire.LayerTypeARP, 0, 200}
	for si, site := range richSites {
		n := 3
		if si == 0 {
			n = 150
		}
		recs := make([]flowstore.Rec, n)
		for i := range recs {
			e := ends[i%len(ends)]
			first := int64(si)*10e9 + int64(i)*1e7
			recs[i] = flowstore.Rec{
				Key: flowstore.Key{
					VLANID:  uint16(i%3) * 100,
					MPLSTop: uint32(i%4/2) * 16001,
					Src:     e[0],
					Dst:     e[1],
					Proto:   protos[i%len(protos)],
					SrcPort: uint16(i%2) * uint16(30000+i),
					DstPort: uint16(i/2%2) * 53,
				},
				Site:     site,
				FirstNs:  first,
				LastNs:   first + int64(i%7)*1e8,
				FirstSeq: uint64(si*1000 + i),
				Frames:   uint64(i + 1),
				Bytes:    uint64(i) * 1500,
			}
		}
		if err := w.Append(site, recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeSegmentedFlowStore writes a store at path of segs segments of
// perSeg IPv4/IPv6 UDP rows each, all labeled site.
func writeSegmentedFlowStore(t *testing.T, path, site string, segs, perSeg int) {
	t.Helper()
	w, err := flowstore.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < segs; i++ {
		recs := make([]flowstore.Rec, perSeg)
		for j := range recs {
			recs[j] = flowstore.Rec{
				Key: flowstore.Key{
					VLANID:  uint16(j),
					Src:     wire.NewIPEndpoint(netip.AddrFrom4([4]byte{10, 0, byte(i), byte(j)})),
					Dst:     wire.NewIPEndpoint(netip.MustParseAddr("2001:db8::1")),
					Proto:   wire.LayerTypeUDP,
					SrcPort: uint16(1000 + j), DstPort: 53,
				},
				Site: site, FirstNs: int64(i*perSeg + j), LastNs: int64(i*perSeg+j) + 5,
				Frames: 2, Bytes: 128,
			}
		}
		if err := w.Append(site, recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFlowsEndpointMatchesJSON holds every /api/flows answer to the
// reflective encoder's bytes, over site, time-window, unfiltered and
// empty queries at several limits, on a clean and on a torn store.
func TestFlowsEndpointMatchesJSON(t *testing.T) {
	dir := t.TempDir()
	clean := filepath.Join(dir, "flows.pwfs")
	writeRichFlowStore(t, clean)
	data, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	// A torn tail: the store plus the first bytes of another segment.
	torn := filepath.Join(dir, "torn.pwfs")
	if err := os.WriteFile(torn, append(data, data[:30]...), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var queries []flowstore.Query
	for _, limit := range []int{1, 100, 1000} {
		for _, q := range []flowstore.Query{
			{},
			{Site: "STAR"},
			{Site: `q"uote`},
			{Site: "bad\xffutf8\xc3"},
			{FromNs: 1, ToNs: 5e8},
			{FromNs: 15e9, ToNs: 41e9},
			{FromNs: 2e9},
			{Site: "nosuch"},
			{FromNs: 1e15},
		} {
			q.Limit = limit
			queries = append(queries, q)
		}
	}
	for _, path := range []string{clean, torn} {
		s.SetFlowStore(path)
		for _, q := range queries {
			want := oracleFlows(t, path, q)
			resp, err := ts.Client().Get(ts.URL + flowsURL(q))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK || string(body) != want {
				t.Fatalf("%s %s: status %d\n got %s\nwant %s", filepath.Base(path), flowsURL(q), resp.StatusCode, body, want)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q", ct)
			}
			if resp.ContentLength != int64(len(body)) {
				t.Errorf("Content-Length %d for a %d-byte body", resp.ContentLength, len(body))
			}
		}
	}
	// The torn store really is torn, and the empty answers really are.
	if want := oracleFlows(t, torn, flowstore.Query{Site: "nosuch", Limit: 1}); !strings.Contains(want, `"torn":true`) || !strings.HasSuffix(want, `"matched":0,"flows":[]}`+"\n") {
		t.Fatalf("oracle for the torn empty answer: %s", want)
	}
}

// TestFlowsEndpointSeesStoreChanges: the server reuses one store handle
// between requests, yet every answer reflects the file as it is when
// the request arrives.
func TestFlowsEndpointSeesStoreChanges(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flows.pwfs")
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.SetFlowStore(path)

	q := flowstore.Query{Limit: 1000}
	check := func(step string, wantTorn bool, wantSegs int) string {
		t.Helper()
		code, body := get(t, ts, flowsURL(q))
		if want := oracleFlows(t, path, q); code != http.StatusOK || body != want {
			t.Fatalf("%s: status %d\n got %s\nwant %s", step, code, body, want)
		}
		var r flowsResp
		if err := json.Unmarshal([]byte(body), &r); err != nil {
			t.Fatal(err)
		}
		if r.Torn != wantTorn || r.Segments != wantSegs {
			t.Fatalf("%s: torn %v segments %d, want %v and %d", step, r.Torn, r.Segments, wantTorn, wantSegs)
		}
		return body
	}

	writeSegmentedFlowStore(t, path, "STAR", 2, 1)
	check("initial", false, 2)
	check("unchanged", false, 2)

	// setMtime gives the file at path the modification time mt, so a
	// step can leave exactly one of inode, size and mtime changed.
	setMtime := func(mt time.Time) {
		t.Helper()
		if err := os.Chtimes(path, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	mtime := func() time.Time {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.ModTime()
	}

	writeSegmentedFlowStore(t, path, "STAR", 5, 1)
	before := check("rewritten with more segments", false, 5)

	// Only the size changes: the mtime is put back after the append.
	mt := mtime()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("PWFS\x01\x02\x03")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	setMtime(mt)
	after := check("partial segment appended", true, 5)
	if strings.Replace(after, `"torn":true`, `"torn":false`, 1) != before {
		t.Fatalf("a torn tail changed the rows:\n%s\n%s", before, after)
	}

	rep, err := flowstore.Verify(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, rep.Good); err != nil {
		t.Fatal(err)
	}
	if got := check("repaired", false, 5); got != before {
		t.Fatalf("repaired answer differs from the one before the tear:\n%s\n%s", got, before)
	}

	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if code, _ := get(t, ts, flowsURL(q)); code != http.StatusInternalServerError {
		t.Fatalf("deleted store: got %d, want 500", code)
	}

	writeSegmentedFlowStore(t, path, "STAR", 1, 1)
	check("created again", false, 1)

	// Only the mtime changes: the same file rewritten in place with a
	// same-size store that differs in its site label.
	mt = mtime()
	tmp := filepath.Join(dir, "flows.tmp")
	writeSegmentedFlowStore(t, tmp, "DALL", 1, 1)
	data, err := os.ReadFile(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	setMtime(mt.Add(time.Second))
	if body := check("rewritten in place at the same size", false, 1); !strings.Contains(body, `"site":"DALL"`) {
		t.Fatalf("rewritten store not seen: %s", body)
	}

	// Only the file changes: a same-size replacement by rename, given the
	// replaced file's mtime.
	mt = mtime()
	writeSegmentedFlowStore(t, tmp, "NCSA", 1, 1)
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
	setMtime(mt)
	if body := check("replaced by rename", false, 1); !strings.Contains(body, `"site":"NCSA"`) {
		t.Fatalf("replaced store not seen: %s", body)
	}
}

// openUnder counts the files under dir this process holds open, from
// /proc/self/fd; the test skips where that does not exist.
func openUnder(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd to count open files")
	}
	n := 0
	for _, e := range ents {
		if target, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
			n++
		}
	}
	return n
}

// TestFlowsEndpointConcurrentReplace: clients query while the store is
// replaced by rename, alternating between two versions. Every answer
// must be 200 and exactly one version's body; run under -race it also
// checks the handle's sharing and retirement.
func TestFlowsEndpointConcurrentReplace(t *testing.T) {
	// With the collector off, no finalizer closes a leaked store file
	// behind the open-file count below.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	dir, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "flows.pwfs")
	// Many small segments keep each request reading the file for a while,
	// so replacements land while other requests still scan the old one.
	versions := []string{filepath.Join(dir, "a.pwfs"), filepath.Join(dir, "b.pwfs")}
	writeSegmentedFlowStore(t, versions[0], "STAR", 100, 3)
	writeSegmentedFlowStore(t, versions[1], "DALL", 60, 5)
	q := flowstore.Query{Limit: 1000}
	want := map[string]bool{}
	for _, v := range versions {
		want[oracleFlows(t, v, q)] = true
	}
	install := func(i int) {
		t.Helper()
		data, err := os.ReadFile(versions[i%2])
		if err != nil {
			t.Fatal(err)
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, path); err != nil {
			t.Fatal(err)
		}
	}
	install(0)

	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.SetFlowStore(path)

	const clients = 4
	replacements := 40
	if testing.Short() {
		replacements = 10
	}
	answered := make(chan struct{}, clients) // one pending token per client is enough
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := ts.Client().Get(ts.URL + flowsURL(q))
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !want[string(body)] || !json.Valid(body) {
					t.Errorf("status %d, err %v, body %s", resp.StatusCode, err, body)
					return
				}
				select {
				case answered <- struct{}{}:
				default:
				}
			}
		}()
	}
	clientsDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(clientsDone)
	}()
	for i := 1; i <= replacements; i++ {
		install(i)
		select {
		case <-answered:
		case <-clientsDone: // every client failed and returned
			t.FailNow()
		}
	}
	close(stop)
	<-clientsDone

	// Every replaced handle is closed once its last request is done, and
	// detaching closes the current one. A handler may still be releasing
	// its handle after its client read the answer; closing the test
	// server waits for every handler to return.
	ts.Close()
	if n := openUnder(t, dir); n != 1 {
		t.Fatalf("%d store files open after the last request, want the current one", n)
	}
	s.SetFlowStore("")
	if n := openUnder(t, dir); n != 0 {
		t.Fatalf("%d store files open after detaching, want 0", n)
	}
}

// TestFlowsAnswerAllocFree: once its buffers have grown, encoding an
// answer — the store scan and the rows' JSON — allocates nothing per
// row or per segment.
func TestFlowsAnswerAllocFree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flows.pwfs")
	const segs, perSeg = 50, 20
	writeSegmentedFlowStore(t, path, "STAR", segs, perSeg)
	st, err := flowstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var a flowAnswer
	q := flowstore.Query{Limit: segs * perSeg}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := a.encode(st, q); err != nil {
			t.Fatal(err)
		}
	})
	// Under the race detector sync.Pool drops some buffers, which costs a
	// few allocations per answer, far below one per segment.
	if perRow := allocs / (segs * perSeg); perRow > 0.005 {
		t.Errorf("encoding an answer allocates %.0f objects (%.4f per row), want ~0", allocs, perRow)
	}
}
