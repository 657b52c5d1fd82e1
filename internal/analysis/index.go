package analysis

import (
	"encoding/json"
	"io"
	"slices"
	"sort"
)

// IndexEntry summarizes one acap so later analyses can locate the samples
// they need without re-reading every digest (the paper's Index step: "a
// single profile often produces dozens of gigabytes").
type IndexEntry struct {
	// Site is the sample's site.
	Site string `json:"site"`
	// Path locates the acap file.
	Path string `json:"path"`
	// StartNanos and EndNanos bound the sample window.
	StartNanos int64 `json:"start"`
	EndNanos   int64 `json:"end"`
	// Frames and Bytes summarize volume.
	Frames int   `json:"frames"`
	Bytes  int64 `json:"bytes"`
	// DistinctFlows is the sample's canonical flow count.
	DistinctFlows int `json:"flows"`
}

// Index is a collection of entries, ordered by (site, start).
type Index struct {
	Entries []IndexEntry `json:"entries"`
}

// Summarize builds the index entry for one acap.
func Summarize(a *Acap, path string) IndexEntry {
	e := IndexEntry{Site: a.Site, Path: path}
	for i := range a.Records {
		e.add(&a.Records[i])
	}
	e.DistinctFlows = FlowsInSample(a)
	return e
}

// add folds one of the acap's records into the entry's time span and
// volume.
func (e *IndexEntry) add(r *Record) {
	if e.Frames == 0 || r.TimestampNanos < e.StartNanos {
		e.StartNanos = r.TimestampNanos
	}
	if r.TimestampNanos > e.EndNanos {
		e.EndNanos = r.TimestampNanos
	}
	e.Frames++
	e.Bytes += int64(r.WireLen)
}

// Add inserts an entry after every entry ordered at or before it by
// (site, start), so the index stays sorted and entries with equal keys
// keep their insertion order. Entries must already be sorted, as Add
// keeps them.
func (ix *Index) Add(e IndexEntry) {
	i := sort.Search(len(ix.Entries), func(i int) bool {
		x := &ix.Entries[i]
		return e.Site < x.Site || (e.Site == x.Site && e.StartNanos < x.StartNanos)
	})
	ix.Entries = slices.Insert(ix.Entries, i, e)
}

// Encode serializes the index as JSON.
func (ix *Index) Encode(w io.Writer) error {
	return json.NewEncoder(w).Encode(ix)
}
