// Package experiments regenerates every table and figure in the paper's
// evaluation (and the Section 5 study figures) from the simulated
// substrates. Each experiment is a named function producing a Result —
// a table of rows plus notes recording the paper's reported values next
// to the measured ones, so EXPERIMENTS.md can be audited against the
// harness output.
//
// Absolute numbers are not expected to match a hardware testbed; the
// reproduction target is the shape of each result (who wins, by what
// rough factor, where the crossovers fall).
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Observe enables platform observability inside experiments that support
// it: they attach an obs.Registry (and, where a kernel drives the run, a
// tracer) to their substrates and publish both on the Result. Off by
// default — observability must not perturb the benchmarked hot paths.
// Set it before calling Run or RunMany and leave it fixed while
// experiments are in flight: workers read it concurrently.
var Observe bool

// Result is one regenerated table or figure.
type Result struct {
	// ID is the experiment identifier, e.g. "fig2", "table1".
	ID string
	// Title describes the experiment.
	Title string
	// Header names the columns.
	Header []string
	// Rows is the table body.
	Rows [][]string
	// Notes record paper-vs-measured comparisons and caveats.
	Notes []string
	// Metrics and Trace carry platform observability when the experiment
	// ran with Observe set; nil otherwise.
	Metrics *obs.Registry
	Trace   *obs.Tracer
}

// AddRow appends a row, formatting each cell with %v.
func (r *Result) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	r.Rows = append(r.Rows, row)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// Notef appends a formatted note.
func (r *Result) Notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Render writes an aligned text table with the title and notes.
func (r *Result) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) error {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					sb.WriteByte(' ')
				}
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
		return err
	}
	if err := writeRow(r.Header); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV emits the result as CSV (header + rows; notes as trailing
// comment-style rows).
func (r *Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Header); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Runner regenerates one experiment.
type Runner func(seed uint64) (*Result, error)

// registry maps experiment ids to runners, populated by the sibling
// files' init functions.
var registry = map[string]Runner{}

func register(id string, fn Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = fn
}

// IDs returns the registered experiment ids, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes the named experiment.
func Run(id string, seed uint64) (*Result, error) {
	fn, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return fn(seed)
}

// RunMany executes the given experiments on a bounded worker pool
// (parallel <= 0 means GOMAXPROCS; 1 means strictly serial) and returns
// their results in the order ids were given. Determinism contract: the
// result slice — and every byte of every Result — depends only on (ids,
// seed), never on worker interleaving. On failure it returns the results
// that precede the first (in ids order) failing experiment, exactly as a
// serial run that stopped there would.
func RunMany(ids []string, seed uint64, parallel int) ([]*Result, error) {
	return RunManyWithProgress(ids, seed, parallel, nil)
}

// Progress is one worker-pool transition: Worker started or finished
// experiment ID, with Done of Total already complete across the pool.
// State is "start" or "done".
type Progress struct {
	Worker int
	ID     string
	State  string
	Done   int
	Total  int
}

// RunManyWithProgress is RunMany with a progress callback. The callback
// runs on worker goroutines as experiments start and finish, so it must
// be safe for concurrent use; progress ordering reflects wall-clock
// scheduling and is NOT deterministic — only the results are. A nil
// callback is RunMany exactly.
func RunManyWithProgress(ids []string, seed uint64, parallel int, progress func(Progress)) ([]*Result, error) {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > len(ids) {
		parallel = len(ids)
	}
	results := make([]*Result, len(ids))
	errs := make([]error, len(ids))
	var done atomic.Int64
	runOne := func(worker, i int) {
		if progress != nil {
			progress(Progress{Worker: worker, ID: ids[i], State: "start",
				Done: int(done.Load()), Total: len(ids)})
		}
		results[i], errs[i] = Run(ids[i], seed)
		n := int(done.Add(1))
		if progress != nil {
			progress(Progress{Worker: worker, ID: ids[i], State: "done",
				Done: n, Total: len(ids)})
		}
	}
	if parallel <= 1 {
		for i := range ids {
			runOne(0, i)
		}
	} else {
		var next atomic.Int64
		next.Store(-1)
		var wg sync.WaitGroup
		for w := 0; w < parallel; w++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				for {
					i := int(next.Add(1))
					if i >= len(ids) {
						return
					}
					runOne(worker, i)
				}
			}(w)
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return results[:i], fmt.Errorf("experiments: %s: %w", ids[i], err)
		}
	}
	return results, nil
}
