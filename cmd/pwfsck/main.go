// Command pwfsck scrubs a campaign output directory: it walks every
// on-disk artifact the platform writes — the journal WAL and
// checkpoint, flowstore segment files, live-telemetry ring segments,
// provenance traces, pcap captures, and JSONL event logs — and
// validates each format's framing and structural invariants.
//
// Damage is classified into two classes with very different meanings:
//
//   - torn tail: a single damaged region ending the file, the signature
//     of a process that died mid-write. Tolerable by design — every
//     reader in the platform already drops it — and repairable by
//     truncating to the last valid frame.
//   - mid-file corruption: intact frames reappear after the damage.
//     This is never caused by a crash; it means the storage layer
//     flipped or lost committed bytes. Repair still truncates to the
//     last frame of the leading intact run, but the data behind the
//     damage is lost and the scrub says so loudly.
//
// Usage:
//
//	pwfsck [-repair] [-q] <campaign-dir>
//
// Exit codes: 0 everything clean (or fully repaired with -repair),
// 1 operational error, 2 only tolerable torn tails found, 3 mid-file
// or unrepairable corruption found.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/crcline"
	"repro/internal/flowstore"
	"repro/internal/pcap"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Exit codes. Torn and corrupt are distinct so scripted callers can
// treat "the process died mid-write" differently from "the disk lied".
const (
	exitClean   = 0
	exitErr     = 1
	exitTorn    = 2
	exitCorrupt = 3
)

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("pwfsck", flag.ContinueOnError)
	flags.SetOutput(stderr)
	repair := flags.Bool("repair", false, "truncate damaged files to their last valid frame")
	quiet := flags.Bool("q", false, "print only damaged files and the summary")
	flags.Usage = func() {
		fmt.Fprintf(stderr, "usage: pwfsck [-repair] [-q] <campaign-dir>\n")
		flags.PrintDefaults()
	}
	if err := flags.Parse(args); err != nil {
		return exitErr
	}
	if flags.NArg() != 1 {
		flags.Usage()
		return exitErr
	}
	root := flags.Arg(0)
	if st, err := os.Stat(root); err != nil || !st.IsDir() {
		fmt.Fprintf(stderr, "pwfsck: %s is not a directory\n", root)
		return exitErr
	}

	reports, err := scrubDir(root, *repair)
	if err != nil {
		fmt.Fprintf(stderr, "pwfsck: %v\n", err)
		return exitErr
	}

	var clean, torn, corrupt, repaired int
	for _, r := range reports {
		switch {
		case r.repaired:
			repaired++
		case r.corrupt():
			corrupt++
		case r.torn():
			torn++
		default:
			clean++
		}
		if *quiet && !r.damaged() && !r.repaired {
			continue
		}
		fmt.Fprintf(stdout, "  %-8s %-40s %s\n", r.status(), r.rel, r.detail)
	}
	fmt.Fprintf(stdout, "pwfsck: %d artifacts scanned: %d clean, %d torn, %d corrupt, %d repaired\n",
		len(reports), clean, torn, corrupt, repaired)
	switch {
	case corrupt > 0:
		return exitCorrupt
	case torn > 0:
		return exitTorn
	}
	return exitClean
}

// report is the scrub outcome for one artifact.
type report struct {
	rel      string // path relative to the campaign dir
	format   string
	detail   string
	scan     crcline.Extent
	repaired bool
	noRepair bool // damage truncation cannot fix: a corrupt whole-file JSON doc, or an artifact that cannot be read
}

func (r report) damaged() bool { return r.scan.Damaged() || r.noRepair }
func (r report) torn() bool    { return r.damaged() && !r.corrupt() }
func (r report) corrupt() bool { return (r.scan.Damaged() && r.scan.MidFile) || r.noRepair }

func (r report) status() string {
	switch {
	case r.repaired:
		return "repaired"
	case r.corrupt():
		return "CORRUPT"
	case r.torn():
		return "TORN"
	}
	return "ok"
}

// scrubDir walks the campaign directory and scrubs every artifact
// whose format the platform owns. Freeform text (run.log, summary.txt,
// addr, metric exports) is not validated.
func scrubDir(root string, repair bool) ([]report, error) {
	var reports []report
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		r, checked := scrubFile(path, rel)
		if !checked {
			return nil
		}
		if repair && r.scan.Damaged() && !r.noRepair {
			if err := os.Truncate(path, r.scan.Good); err != nil {
				return fmt.Errorf("repair %s: %w", rel, err)
			}
			r.repaired = true
			r.detail += fmt.Sprintf(" — truncated %d -> %d bytes", r.scan.Size, r.scan.Good)
		}
		reports = append(reports, r)
		return nil
	})
	sort.Slice(reports, func(i, j int) bool { return reports[i].rel < reports[j].rel })
	return reports, err
}

// scrubFile dispatches one file to its format scrubber. checked is
// false for files pwfsck does not understand. An artifact its scrubber
// cannot open, read or verify is unrepairable damage: nothing vouches
// for its contents, and there is no intact prefix to truncate to.
func scrubFile(path, rel string) (report, bool) {
	base := filepath.Base(path)
	r := report{rel: rel}
	var err error
	switch {
	case base == "wal.jsonl":
		r.format = "wal"
		r.scan, r.detail, err = scrubWAL(path)
	case base == "provenance.trace" || filepath.Ext(base) == ".trace":
		r.format = "trace"
		r.scan, r.detail, err = scrubFramed(path)
	case ringSegment(base):
		r.format = "ring"
		r.scan, r.detail, err = scrubFramed(path)
	case filepath.Ext(base) == ".pwfs":
		r.format = "flowstore"
		r.scan, r.detail, err = scrubFlowstore(path)
	case filepath.Ext(base) == ".pcap":
		r.format = "pcap"
		r.scan, r.detail, err = scrubPcap(path)
	case filepath.Ext(base) == ".json":
		r.format = "json"
		r.detail, err = scrubJSON(path)
	case filepath.Ext(base) == ".jsonl":
		r.format = "jsonl"
		r.scan, r.detail, err = scrubJSONL(path)
	default:
		return report{}, false
	}
	if err != nil {
		r.detail, r.noRepair = err.Error(), true
	}
	return r, true
}

func ringSegment(base string) bool {
	ok, _ := filepath.Match("seg-*.jsonl", base)
	return ok
}

// scanFile streams the file at path through scan, the crcline reader
// for its format.
func scanFile(path, unit string, scan func(io.Reader) (crcline.Extent, error)) (crcline.Extent, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return crcline.Extent{}, "", err
	}
	defer f.Close()
	s, err := scan(f)
	if err != nil {
		return crcline.Extent{}, "", err
	}
	return s, scanDetail(s, unit), nil
}

// scrubFramed scrubs the CRC framing the journal WAL, ring segments and
// provenance traces share, with a JSON body in every frame.
func scrubFramed(path string) (crcline.Extent, string, error) {
	return scanFile(path, "frames", func(r io.Reader) (crcline.Extent, error) {
		return crcline.Scan(r, json.Valid)
	})
}

// scrubWAL scrubs CRC framing plus the journal's structural invariant:
// sequence numbers are contiguous from zero. A CRC-valid record whose
// seq breaks the chain ends the intact run exactly like a bad frame —
// resume must never replay past a gap.
func scrubWAL(path string) (crcline.Extent, string, error) {
	next := uint64(0)
	return scanFile(path, "records", func(r io.Reader) (crcline.Extent, error) {
		return crcline.Scan(r, func(body []byte) bool {
			var rec struct {
				Seq uint64 `json:"seq"`
			}
			if json.Unmarshal(body, &rec) != nil || rec.Seq != next {
				return false
			}
			next++
			return true
		})
	})
}

// scrubJSONL scrubs an unframed log: one JSON document per line.
func scrubJSONL(path string) (crcline.Extent, string, error) {
	return scanFile(path, "lines", func(r io.Reader) (crcline.Extent, error) {
		return crcline.Lines(r, json.Valid, func([]byte) bool { return true })
	})
}

// scrubJSON checks a whole-file JSON document, which has no frames to
// truncate to: any damage is unrepairable.
func scrubJSON(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	if !json.Valid(data) {
		return "", fmt.Errorf("invalid JSON document (%d bytes) — not repairable by truncation", len(data))
	}
	return fmt.Sprintf("%d bytes", len(data)), nil
}

func scrubFlowstore(path string) (crcline.Extent, string, error) {
	rep, err := flowstore.Verify(nil, path)
	if err != nil {
		return crcline.Extent{}, "", err
	}
	s := crcline.Extent{Records: rep.Segments, Good: rep.Good, Size: rep.Size, MidFile: rep.MidFile}
	return s, scanDetail(s, "segments"), nil
}

// scrubPcap walks the record stream tracking byte offsets. Pcap record
// headers carry no checksum and no resync marker, so nothing after the
// first damage can be trusted: a hard decode error (an implausible
// record length) is classified mid-file, a clean truncation mid-record
// is a torn tail.
func scrubPcap(path string) (crcline.Extent, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return crcline.Extent{}, "", err
	}
	s := crcline.Extent{Size: int64(len(data))}
	rd, err := pcap.NewReader(bytes.NewReader(data))
	if err != nil {
		s.MidFile = true // a bad magic is never a crash artifact
		return s, fmt.Sprintf("bad file header: %v", err), nil
	}
	s.Good = 24 // pcap global header
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			if rd.Torn() {
				return s, scanDetail(s, "packets"), nil
			}
			// Trailing garbage a torn read would have consumed silently.
			if s.Good < s.Size {
				s.MidFile = true
				return s, scanDetail(s, "packets"), nil
			}
			return s, fmt.Sprintf("%d packets, %d bytes", s.Records, s.Size), nil
		}
		if err != nil {
			s.MidFile = true
			return s, fmt.Sprintf("%s; %v", scanDetail(s, "packets"), err), nil
		}
		s.Records++
		s.Good += 16 + int64(len(rec.Data))
	}
}

func scanDetail(s crcline.Extent, unit string) string {
	if !s.Damaged() {
		return fmt.Sprintf("%d %s, %d bytes", s.Records, unit, s.Size)
	}
	class := "torn tail"
	if s.MidFile {
		class = "mid-file corruption"
	}
	return fmt.Sprintf("%d %s intact, %s after byte %d of %d", s.Records, unit, class, s.Good, s.Size)
}
