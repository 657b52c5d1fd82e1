package experiments

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/units"
)

// TestTableProbesSettleExactly checks runTable's settled probes against
// full runs at every Table 1-2 (row, cores) point, a stride of them
// under -short:
//   - the probe fails at the least drop count whose loss reaches 1%;
//   - the settled verdict is the full run's loss < 1;
//   - the probe's frame count is the full run's Received;
//   - where the probe settles, every received frame is filtered,
//     dropped, captured or still queued on a core;
//   - a row's full-run loss never rises as cores go from 1 to 15.
func TestTableProbesSettleExactly(t *testing.T) {
	tables := []struct {
		name string
		snap int
		rows []tableRow
	}{{"table1", 200, table1Rows}, {"table2", 64, table2Rows}}
	var probes, settled atomic.Int64
	t.Run("rows", func(t *testing.T) {
		for _, tb := range tables {
			for _, row := range tb.rows {
				t.Run(fmt.Sprintf("%s/%dB", tb.name, row.frameSize), func(t *testing.T) {
					t.Parallel()
					checkRowProbes(t, tb.snap, row, &probes, &settled)
				})
			}
		}
	})
	t.Logf("%d of %d probes settled early", settled.Load(), probes.Load())
}

// checkRowProbes runs TestTableProbesSettleExactly's checks over one
// row, counting its probes and the ones that settled early.
func checkRowProbes(t *testing.T, snap int, row tableRow, probes, settled *atomic.Int64) {
	prev := math.Inf(1)
	for c := 1; c <= tableMaxCores; c++ {
		if testing.Short() && (c-1)%7 != 0 {
			continue
		}
		probes.Add(1)
		full, err := newTableProbe(snap, row, c)
		if err != nil {
			t.Fatal(err)
		}
		loss := full.loss()
		if loss > prev {
			t.Errorf("%d cores: loss %v%% > %v%% with one core fewer", c, loss, prev)
		}
		prev = loss
		if got := full.e.Stats.Received; full.n != got {
			t.Errorf("%d cores: probe offers %d frames, full run received %d", c, full.n, got)
		}

		p, err := newTableProbe(snap, row, c)
		if err != nil {
			t.Fatal(err)
		}
		if units.PercentOf(p.failAt, p.n) < 1 || units.PercentOf(p.failAt-1, p.n) >= 1 {
			t.Errorf("%d cores: failAt %d is not the least drop count reaching 1%% of %d frames", c, p.failAt, p.n)
		}
		failed := p.settle()
		if failed != (loss >= 1) {
			t.Errorf("%d cores: settled verdict failed=%v, full-run loss %v%%", c, failed, loss)
		}
		if failed {
			settled.Add(1)
		}
		st := p.e.Stats
		queued := int64(0)
		for _, cs := range p.e.CoreSnapshots() {
			queued += int64(cs.Queued)
		}
		if st.Received != st.Filtered+st.Dropped+st.Captured+queued {
			t.Errorf("%d cores: at the settle point received %d != filtered %d + dropped %d + captured %d + queued %d",
				c, st.Received, st.Filtered, st.Dropped, st.Captured, queued)
		}
	}
}
