package livemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/crcline"
	"repro/internal/sim"
	"repro/internal/storefault"
)

// Record is one entry in the time-series ring: a registry snapshot, an
// alert transition, a status-table diff, or a progress event, stamped
// with the virtual time it was published at. Records carry no wall
// clock: the ring of a seeded simulation is itself a deterministic
// artifact.
type Record struct {
	Seq   uint64          `json:"seq"`
	SimNs int64           `json:"sim_ns"`
	Kind  string          `json:"kind"`
	Data  json.RawMessage `json:"data,omitempty"`
}

// Record kinds written by the Server. Kind is an open string set — the
// ring itself treats records as opaque.
const (
	KindSnapshot = "snapshot"
	KindAlert    = "alert"
	KindStatus   = "status"
	KindProgress = "progress"
)

// Ring is a bounded append-only record log: rotated segment files on
// disk (internal/crcline lines, torn-tail tolerant like internal/journal)
// mirrored by an in-memory copy that queries and SSE replay read from.
// It is not internally synchronized — the owning Server serializes all
// access under its own lock.
//
// On-disk layout under the ring directory:
//
//	seg-00000000.jsonl   oldest retained segment
//	seg-00000007.jsonl   active segment, one framed JSON record per line
//
// When the active segment exceeds the byte budget a new one starts; the
// oldest is deleted once the segment count exceeds the cap. A torn
// final line (the process died mid-write) fails its CRC and is
// truncated away on open; everything before it is recovered.
type Ring struct {
	dir      string // "" = memory-only (no files, same bounds)
	fs       storefault.FS
	segBytes int64
	maxSegs  int

	f       storefault.File
	bw      *bufio.Writer
	segIdx  int   // index of the active segment
	segSize int64 // bytes written to the active segment

	recs []memRec
	next uint64

	// recoveredSimNs is the newest record timestamp found on open.
	// Appends strictly older than it are suppressed: a resumed campaign
	// replays its history from t=0, and the ring already holds it.
	recoveredSimNs int64
	recovered      int
	pruned         int // PruneAggressive invocations (ENOSPC degradation)

	err error // first I/O error; the ring keeps serving from memory
}

type memRec struct {
	Record
	seg int
}

const (
	defaultSegmentBytes = 1 << 20
	defaultMaxSegments  = 8
)

// OpenRing opens (or creates) a ring in dir through fsys, the
// storage-chaos injection point (nil means the real disk). An empty dir
// keeps the ring purely in memory with the same retention bounds.
// segBytes and maxSegs of zero take the defaults (1 MiB × 8 segments).
func OpenRing(fsys storefault.FS, dir string, segBytes int64, maxSegs int) (*Ring, error) {
	if segBytes <= 0 {
		segBytes = defaultSegmentBytes
	}
	if maxSegs <= 0 {
		maxSegs = defaultMaxSegments
	}
	// Sequence numbers start at 1: an SSE client sending
	// Last-Event-ID: 0 therefore replays the whole retained backlog.
	r := &Ring{dir: dir, fs: storefault.Or(fsys), segBytes: segBytes, maxSegs: maxSegs, next: 1, recoveredSimNs: -1}
	if dir == "" {
		return r, nil
	}
	if err := r.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("livemon: ring: %w", err)
	}
	if err := r.load(); err != nil {
		return nil, err
	}
	if err := r.openActive(); err != nil {
		return nil, err
	}
	return r, nil
}

// segPath names segment i.
func (r *Ring) segPath(i int) string {
	return filepath.Join(r.dir, fmt.Sprintf("seg-%08d.jsonl", i))
}

// load reads every retained segment, truncating a torn tail off the
// newest one.
func (r *Ring) load() error {
	entries, err := r.fs.ReadDir(r.dir)
	if err != nil {
		return fmt.Errorf("livemon: ring: %w", err)
	}
	var idxs []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".jsonl") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".jsonl"))
		if err != nil {
			continue
		}
		idxs = append(idxs, n)
	}
	sort.Ints(idxs)
	for pos, idx := range idxs {
		last := pos == len(idxs)-1
		keep, err := r.loadSegment(idx, last)
		if err != nil {
			return err
		}
		if last {
			r.segIdx, r.segSize = idx, keep
		}
	}
	if len(idxs) == 0 {
		r.segIdx = 0
	}
	r.recovered = len(r.recs)
	return nil
}

// loadSegment parses one segment; when truncate is set, a torn tail is
// cut off the file. Returns the committed byte length. A final line
// missing its newline is torn by definition — even if its CRC happens
// to validate — so it is dropped rather than counted, which keeps
// recovery idempotent (truncating never extends the file).
func (r *Ring) loadSegment(idx int, truncate bool) (int64, error) {
	path := r.segPath(idx)
	data, err := r.fs.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("livemon: ring: %w", err)
	}
	// A bytes.Reader never fails, so Scan's error is always nil. The
	// first torn or corrupt line ends the run: it and everything after
	// it are dropped.
	ext, _ := crcline.Scan(bytes.NewReader(data), func(body []byte) bool {
		var rec Record
		if json.Unmarshal(body, &rec) != nil {
			return false
		}
		r.recs = append(r.recs, memRec{Record: rec, seg: idx})
		if rec.Seq >= r.next {
			r.next = rec.Seq + 1
		}
		if rec.SimNs > r.recoveredSimNs {
			r.recoveredSimNs = rec.SimNs
		}
		return true
	})
	if truncate && ext.Damaged() {
		if err := r.fs.Truncate(path, ext.Good); err != nil {
			return 0, fmt.Errorf("livemon: ring: truncating torn tail: %w", err)
		}
	}
	return ext.Good, nil
}

// openActive opens the newest segment for appending.
func (r *Ring) openActive() error {
	f, err := r.fs.OpenFile(r.segPath(r.segIdx), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("livemon: ring: %w", err)
	}
	if _, err := f.Seek(r.segSize, 0); err != nil {
		f.Close()
		return fmt.Errorf("livemon: ring: %w", err)
	}
	r.f, r.bw = f, bufio.NewWriter(f)
	return nil
}

// Append stores one record and returns its sequence number. stored is
// false when the append was suppressed as a replay duplicate (its sim
// time predates what the ring already recovered) — callers must not
// broadcast suppressed records, reconnecting clients get the originals
// from replay instead.
func (r *Ring) Append(kind string, at sim.Time, data []byte) (seq uint64, stored bool) {
	if int64(at) < r.recoveredSimNs {
		return 0, false
	}
	rec := Record{Seq: r.next, SimNs: int64(at), Kind: kind, Data: data}
	encoded, err := json.Marshal(rec)
	if err != nil {
		r.fail(err)
		return 0, false
	}
	line := crcline.Append(nil, encoded)
	r.appendLine(line)
	r.recs = append(r.recs, memRec{Record: rec, seg: r.segIdx})
	r.next++
	r.segSize += int64(len(line))
	if r.segSize >= r.segBytes {
		r.rotate()
	}
	return rec.Seq, true
}

// appendLine writes one framed line to the active segment. A full
// volume (ENOSPC) triggers the degradation path: retained history is
// pruned aggressively to free space and the write retried once from the
// committed offset; only a second failure (or any other error) latches.
func (r *Ring) appendLine(line []byte) {
	if r.bw == nil {
		return
	}
	err := r.writeFlush(line)
	if err == nil {
		return
	}
	if !errors.Is(err, syscall.ENOSPC) {
		r.fail(err)
		return
	}
	r.PruneAggressive()
	// The failed flush may have persisted a prefix; rewind to the
	// committed length so the retry cannot leave interleaved garbage.
	if terr := r.f.Truncate(r.segSize); terr != nil {
		r.fail(err)
		return
	}
	if _, serr := r.f.Seek(r.segSize, 0); serr != nil {
		r.fail(err)
		return
	}
	r.bw = bufio.NewWriter(r.f)
	if err2 := r.writeFlush(line); err2 != nil {
		r.fail(err2)
	}
}

func (r *Ring) writeFlush(line []byte) error {
	if _, err := r.bw.Write(line); err != nil {
		return err
	}
	return r.bw.Flush()
}

// PruneAggressive drops every retained segment except the active one
// and tightens the retention cap to two segments — the livemon side of
// graceful ENOSPC degradation. Safe to call at any time.
func (r *Ring) PruneAggressive() {
	r.pruned++
	if r.maxSegs > 2 {
		r.maxSegs = 2
	}
	drop := 0
	for drop < len(r.recs) && r.recs[drop].seg < r.segIdx {
		drop++
	}
	if drop > 0 {
		r.recs = append(r.recs[:0:0], r.recs[drop:]...)
	}
	if r.dir != "" {
		for i := r.segIdx - 1; i >= 0; i-- {
			if err := r.fs.Remove(r.segPath(i)); err != nil {
				break // already gone
			}
		}
	}
}

// Pruned counts PruneAggressive invocations.
func (r *Ring) Pruned() int { return r.pruned }

// rotate starts a new segment and prunes the oldest past the cap. In
// memory-only mode the same bounds apply without files.
func (r *Ring) rotate() {
	if r.f != nil {
		if err := r.bw.Flush(); err != nil {
			r.fail(err)
		}
		if err := r.f.Close(); err != nil {
			r.fail(err)
		}
		r.f, r.bw = nil, nil
	}
	r.segIdx++
	r.segSize = 0
	if r.dir != "" {
		if err := r.openActive(); err != nil {
			r.fail(err)
		}
	}
	oldest := r.segIdx - r.maxSegs
	if oldest < 0 {
		return
	}
	drop := 0
	for drop < len(r.recs) && r.recs[drop].seg <= oldest {
		drop++
	}
	if drop > 0 {
		r.recs = append(r.recs[:0:0], r.recs[drop:]...)
	}
	if r.dir != "" {
		for i := oldest; i >= 0; i-- {
			path := r.segPath(i)
			if err := r.fs.Remove(path); err != nil {
				break // already pruned on an earlier rotation
			}
		}
	}
}

func (r *Ring) fail(err error) {
	if r.err == nil {
		r.err = fmt.Errorf("livemon: ring: %w", err)
	}
}

// Err reports the first I/O error, if any; the in-memory view keeps
// working past it.
func (r *Ring) Err() error { return r.err }

// Len returns the number of retained records.
func (r *Ring) Len() int { return len(r.recs) }

// Recovered returns how many records were loaded from disk on open
// (zero for a fresh or memory-only ring).
func (r *Ring) Recovered() int { return r.recovered }

// NextSeq returns the sequence number the next append will take.
func (r *Ring) NextSeq() uint64 { return r.next }

// Scan calls fn for every retained record in append order until fn
// returns false.
func (r *Ring) Scan(fn func(Record) bool) {
	for i := range r.recs {
		if !fn(r.recs[i].Record) {
			return
		}
	}
}

// EventsSince returns the retained non-snapshot records with Seq >
// lastID, in order — the SSE reconnect replay set.
func (r *Ring) EventsSince(lastID uint64) []Record {
	var out []Record
	for i := range r.recs {
		rec := r.recs[i].Record
		if rec.Seq > lastID && rec.Kind != KindSnapshot {
			out = append(out, rec)
		}
	}
	return out
}

// Close flushes and closes the active segment.
func (r *Ring) Close() error {
	if r.f == nil {
		return r.err
	}
	ferr := r.bw.Flush()
	cerr := r.f.Close()
	r.f, r.bw = nil, nil
	if r.err != nil {
		return r.err
	}
	if ferr != nil {
		return ferr
	}
	return cerr
}
