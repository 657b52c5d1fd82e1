package livemon

import (
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/flowstore"
)

// flowHandle is one opened flow store plus the stat of the file it was
// opened from. refs counts the requests scanning it; a handle that has
// been replaced (retired) is closed by whichever of the replacement and
// the last such request comes later. Both fields are guarded by the
// server's flowMu.
type flowHandle struct {
	st      *flowstore.Store
	path    string
	fi      os.FileInfo
	refs    int
	retired bool
}

// SetFlowStore points /api/flows at a columnar flow store file written
// by the streaming analysis pipeline (flowstore.Writer). The server keeps
// one opened handle on the file and stats the path on every request: it
// keeps the handle while the path still names the same file with the
// same size and modification time, and opens the file again otherwise,
// so each request sees the file as it is then — including segments the
// analyzer appended after attach. An empty path detaches; the endpoint
// then answers 404.
func (s *Server) SetFlowStore(path string) {
	s.flowMu.Lock()
	defer s.flowMu.Unlock()
	s.flowPath = path
	s.retireFlowsLocked()
}

// acquireFlows returns a handle on the store at path as the file is now,
// reusing the current handle when a stat shows the file unchanged since
// it was opened. The stat comes before the open, so a change racing the
// open leaves the handle newer than its stat and the next request opens
// the file again. Pair with releaseFlows.
func (s *Server) acquireFlows(path string) (*flowHandle, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("flowstore: %w", err)
	}
	s.flowMu.Lock()
	defer s.flowMu.Unlock()
	h := s.flows
	if h == nil || h.path != path || !sameVersion(h.fi, fi) {
		st, err := flowstore.Open(path)
		if err != nil {
			return nil, err
		}
		s.retireFlowsLocked()
		h = &flowHandle{st: st, path: path, fi: fi}
		s.flows = h
	}
	h.refs++
	return h, nil
}

// releaseFlows ends a request's use of h.
func (s *Server) releaseFlows(h *flowHandle) {
	s.flowMu.Lock()
	defer s.flowMu.Unlock()
	h.refs--
	if h.retired && h.refs == 0 {
		h.st.Close()
	}
}

// retireFlowsLocked drops the current handle, closing it now unless a
// request still uses it. Call with flowMu held.
func (s *Server) retireFlowsLocked() {
	h := s.flows
	if h == nil {
		return
	}
	s.flows = nil
	h.retired = true
	if h.refs == 0 {
		h.st.Close()
	}
}

// sameVersion reports whether b describes the same file as a with the
// same size and modification time.
func sameVersion(a, b os.FileInfo) bool {
	return os.SameFile(a, b) && a.Size() == b.Size() && a.ModTime().Equal(b.ModTime())
}

// handleFlows answers /api/flows?from=&to=&site=&limit= against the
// attached flow store. from/to are sim-nanosecond bounds (a row matches
// when its [first_ns, last_ns] span intersects the range): an absent or
// zero bound leaves that side open, and a value that is not a
// non-negative integer answers 400. site filters by capture site, and
// limit caps the result: 1000 when absent, and a value that is not a
// positive integer answers 400. Segment pruning happens inside the
// store.
func (s *Server) handleFlows(w http.ResponseWriter, r *http.Request) {
	s.flowMu.Lock()
	path := s.flowPath
	s.flowMu.Unlock()
	if path == "" {
		http.Error(w, "no flow store attached", http.StatusNotFound)
		return
	}
	params := r.URL.Query()
	q := flowstore.Query{Site: params.Get("site"), Limit: 1000}
	for _, p := range []struct {
		name string
		dst  *int64
	}{{"from", &q.FromNs}, {"to", &q.ToNs}} {
		if v := params.Get(p.name); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				http.Error(w, "bad "+p.name, http.StatusBadRequest)
				return
			}
			*p.dst = n
		}
	}
	if v := params.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		q.Limit = n
	}
	h, err := s.acquireFlows(path)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer s.releaseFlows(h)
	a := flowAnswers.Get().(*flowAnswer)
	defer flowAnswers.Put(a)
	body, err := a.encode(h.st, q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	hdr := w.Header()
	hdr.Set("Content-Type", "application/json")
	hdr.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// flowAnswer is a reusable /api/flows answer buffer.
type flowAnswer struct{ buf []byte }

var flowAnswers = sync.Pool{New: func() any { return new(flowAnswer) }}

// flowHeadRoom is the space encode reserves in front of the rows for the
// answer's leading fields, which include the row count and so are
// written last. Those fields take at most 111 bytes.
const flowHeadRoom = 128

// encode renders the answer to q over st into a's buffer and returns it.
// The body is exactly what encoding/json with HTML escaping off (the
// server's writeJSON) writes for
//
//	{"segments":…,"rows":…,"torn":…,"matched":…,"flows":[ROW,…]}
//
// and a newline, where each ROW is
//
//	{"site":…,"vlan_id":…,"mpls_label":…,"src":…,"dst":…,"proto":…,"src_port":…,"dst_port":…,"first_ns":…,"last_ns":…,"frames":…,"bytes":…}
//
// with vlan_id, mpls_label, src_port and dst_port omitted when zero,
// endpoints and proto in their String form, and "flows":[] when nothing
// matches. The package tests keep that reflective form as the oracle.
// The body is valid until a's next use.
func (a *flowAnswer) encode(st *flowstore.Store, q flowstore.Query) ([]byte, error) {
	b := append(a.buf[:0], make([]byte, flowHeadRoom)...)
	matched := 0
	err := st.Scan(q, func(r *flowstore.Rec) bool {
		if matched > 0 {
			b = append(b, ',')
		}
		matched++
		b = appendFlowRow(b, r)
		return true
	})
	b = append(b, "]}\n"...)
	a.buf = b
	if err != nil {
		return nil, err
	}
	var head [flowHeadRoom]byte
	h := append(head[:0], `{"segments":`...)
	h = strconv.AppendInt(h, int64(st.Segments()), 10)
	h = append(h, `,"rows":`...)
	h = strconv.AppendInt(h, st.Rows(), 10)
	h = append(h, `,"torn":`...)
	h = strconv.AppendBool(h, st.Torn())
	h = append(h, `,"matched":`...)
	h = strconv.AppendInt(h, int64(matched), 10)
	h = append(h, `,"flows":[`...)
	start := flowHeadRoom - copy(b[flowHeadRoom-len(h):], h)
	return b[start:], nil
}

// appendFlowRow appends one row object of an /api/flows answer.
func appendFlowRow(b []byte, r *flowstore.Rec) []byte {
	k := &r.Key
	b = append(b, `{"site":`...)
	b = appendJSONString(b, r.Site)
	b = appendNonZero(b, `,"vlan_id":`, uint64(k.VLANID))
	b = appendNonZero(b, `,"mpls_label":`, uint64(k.MPLSTop))
	// Endpoint text and layer type names never need JSON escaping.
	b = append(b, `,"src":"`...)
	b = k.Src.AppendTo(b)
	b = append(b, `","dst":"`...)
	b = k.Dst.AppendTo(b)
	b = append(b, `","proto":"`...)
	b = append(b, k.Proto.String()...)
	b = append(b, '"')
	b = appendNonZero(b, `,"src_port":`, uint64(k.SrcPort))
	b = appendNonZero(b, `,"dst_port":`, uint64(k.DstPort))
	b = append(b, `,"first_ns":`...)
	b = strconv.AppendInt(b, r.FirstNs, 10)
	b = append(b, `,"last_ns":`...)
	b = strconv.AppendInt(b, r.LastNs, 10)
	b = append(b, `,"frames":`...)
	b = strconv.AppendUint(b, r.Frames, 10)
	b = append(b, `,"bytes":`...)
	b = strconv.AppendUint(b, r.Bytes, 10)
	return append(b, '}')
}

// appendNonZero appends key and v, or nothing when v is zero (the
// omitempty fields).
func appendNonZero(b []byte, key string, v uint64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendUint(append(b, key...), v, 10)
}

// appendJSONString appends s quoted as encoding/json quotes a string
// with HTML escaping off: '"', '\\' and control characters escaped (\b,
// \f, \n, \r and \t by name, the rest as \u00XX), each byte of invalid
// UTF-8 as \ufffd, and U+2028 and U+2029 as \u2028 and \u2029.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[c&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
