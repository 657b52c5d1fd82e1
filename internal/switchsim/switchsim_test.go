package switchsim

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

func newTestSwitch(t testing.TB) (*Switch, *sim.Kernel) {
	t.Helper()
	k := sim.NewKernel()
	sw := New("tor0", k)
	sw.AddPort("P1", RoleUplink, 100*units.Gbps)
	sw.AddPort("P2", RoleDownlink, 100*units.Gbps)
	sw.AddPort("P3", RoleDownlink, 100*units.Gbps)
	sw.AddPort("P4", RoleDownlink, 100*units.Gbps)
	return sw, k
}

func TestCounters(t *testing.T) {
	sw, _ := newTestSwitch(t)
	f := Frame{Size: 1500}
	if err := sw.Transit("P2", DirRx, f); err != nil {
		t.Fatal(err)
	}
	if err := sw.Transit("P3", DirTx, f); err != nil {
		t.Fatal(err)
	}
	c2 := sw.Port("P2").Counters()
	if c2.RxFrames != 1 || c2.RxBytes != 1500 || c2.TxFrames != 0 {
		t.Errorf("P2 counters = %+v", c2)
	}
	c3 := sw.Port("P3").Counters()
	if c3.TxFrames != 1 || c3.TxBytes != 1500 {
		t.Errorf("P3 counters = %+v", c3)
	}
}

func TestTransitUnknownPort(t *testing.T) {
	sw, _ := newTestSwitch(t)
	if err := sw.Transit("P99", DirRx, Frame{Size: 1}); err == nil {
		t.Error("unknown port should error")
	}
}

func TestMirrorClonesBothDirections(t *testing.T) {
	sw, k := newTestSwitch(t)
	var got []int
	sw.Port("P4").SetReceiver(ReceiverFunc(func(_ sim.Time, f Frame) {
		got = append(got, f.Size)
	}))
	m, err := sw.StartMirror("P2", DirBoth, "P4")
	if err != nil {
		t.Fatal(err)
	}
	_ = sw.Transit("P2", DirRx, Frame{Size: 100})
	_ = sw.Transit("P2", DirTx, Frame{Size: 200})
	_ = sw.Transit("P3", DirRx, Frame{Size: 300}) // unmirrored port
	k.Run()
	if len(got) != 2 || got[0] != 100 || got[1] != 200 {
		t.Errorf("delivered = %v", got)
	}
	if m.Cloned != 2 || m.CloneDrops != 0 {
		t.Errorf("session = %+v", m)
	}
}

// TestTransitBorrowsData pins the Frame contract from the switch side:
// Transit may only borrow f.Data, so overwriting the caller's bytes
// while the clone waits in the egress queue must not change what the
// mirror receiver gets.
func TestTransitBorrowsData(t *testing.T) {
	sw, k := newTestSwitch(t)
	var got [][]byte
	sw.Port("P4").SetReceiver(ReceiverFunc(func(_ sim.Time, f Frame) {
		got = append(got, bytes.Clone(f.Data))
	}))
	if _, err := sw.StartMirror("P2", DirRx, "P4"); err != nil {
		t.Fatal(err)
	}
	src := []byte("mirrored frame bytes")
	want := bytes.Clone(src)
	if err := sw.Transit("P2", DirRx, NewFrame(src)); err != nil {
		t.Fatal(err)
	}
	copy(src, bytes.Repeat([]byte{'x'}, len(src)))
	// Rate-only and empty frames keep their nil-ness across the clone.
	_ = sw.Transit("P2", DirRx, Frame{Size: 64})
	_ = sw.Transit("P2", DirRx, Frame{Data: []byte{}, Size: 64})
	k.Run()
	if len(got) != 3 {
		t.Fatalf("delivered %d frames, want 3", len(got))
	}
	if !bytes.Equal(got[0], want) {
		t.Errorf("delivered %q, want %q", got[0], want)
	}
	if got[1] != nil || got[2] == nil {
		t.Errorf("nil-ness lost: rate-only %v, empty %v", got[1], got[2])
	}
}

// TestTransitPrefixFrame: a frame whose Data leaves off its zero tail
// is mirrored as it is. The receiver gets the same Data and Size, and
// every counter counts the wire length.
func TestTransitPrefixFrame(t *testing.T) {
	sw, k := newTestSwitch(t)
	var got []Frame
	sw.Port("P4").SetReceiver(ReceiverFunc(func(_ sim.Time, f Frame) {
		got = append(got, Frame{Data: bytes.Clone(f.Data), Size: f.Size})
	}))
	if _, err := sw.StartMirror("P2", DirRx, "P4"); err != nil {
		t.Fatal(err)
	}
	prefix := bytes.Repeat([]byte{0xAB}, 74)
	if err := sw.Transit("P2", DirRx, Frame{Data: prefix, Size: 1500}); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(got) != 1 || !bytes.Equal(got[0].Data, prefix) || got[0].Size != 1500 {
		t.Fatalf("delivered %+v, want the 74-byte prefix of a 1500-byte frame", got)
	}
	if rx, tx := sw.Port("P2").Counters().RxBytes, sw.Port("P4").Counters().TxBytes; rx != 1500 || tx != 1500 {
		t.Errorf("mirrored port Rx %d bytes, egress Tx %d, want 1500 each", rx, tx)
	}
}

func TestMirrorSingleDirection(t *testing.T) {
	sw, k := newTestSwitch(t)
	n := 0
	sw.Port("P4").SetReceiver(ReceiverFunc(func(sim.Time, Frame) { n++ }))
	if _, err := sw.StartMirror("P2", DirRx, "P4"); err != nil {
		t.Fatal(err)
	}
	_ = sw.Transit("P2", DirRx, Frame{Size: 64})
	_ = sw.Transit("P2", DirTx, Frame{Size: 64})
	k.Run()
	if n != 1 {
		t.Errorf("delivered %d frames, want 1 (Rx only)", n)
	}
}

func TestMirrorConflicts(t *testing.T) {
	sw, _ := newTestSwitch(t)
	if _, err := sw.StartMirror("P2", DirBoth, "P4"); err != nil {
		t.Fatal(err)
	}
	var conflict ErrMirrorConflict
	// Same mirrored port.
	if _, err := sw.StartMirror("P2", DirRx, "P3"); !errors.As(err, &conflict) {
		t.Errorf("double mirror err = %v", err)
	}
	// Egress already used.
	if _, err := sw.StartMirror("P3", DirRx, "P4"); !errors.As(err, &conflict) {
		t.Errorf("shared egress err = %v", err)
	}
	// Self mirror.
	if _, err := sw.StartMirror("P3", DirRx, "P3"); err == nil {
		t.Error("self mirror should fail")
	}
	// Unknown ports.
	if _, err := sw.StartMirror("PX", DirRx, "P3"); err == nil {
		t.Error("unknown mirrored port should fail")
	}
	if _, err := sw.StartMirror("P3", DirRx, "PX"); err == nil {
		t.Error("unknown egress port should fail")
	}
}

func TestStopMirrorAllowsRestart(t *testing.T) {
	sw, _ := newTestSwitch(t)
	if _, err := sw.StartMirror("P2", DirBoth, "P4"); err != nil {
		t.Fatal(err)
	}
	if !sw.StopMirror("P2") {
		t.Error("StopMirror should report true")
	}
	if sw.StopMirror("P2") {
		t.Error("second StopMirror should report false")
	}
	if _, err := sw.StartMirror("P2", DirBoth, "P4"); err != nil {
		t.Errorf("restart after stop: %v", err)
	}
	// Port cycling: move the mirror to another port, same egress.
	sw.StopMirror("P2")
	if _, err := sw.StartMirror("P3", DirBoth, "P4"); err != nil {
		t.Errorf("cycle to new port: %v", err)
	}
}

func TestMirrorOverflowWhenTxPlusRxExceedsLineRate(t *testing.T) {
	// The paper's congestion condition: Mirrored(Tx)+Mirrored(Rx) >
	// line rate of the egress channel. Drive P2 with 2x100Gbps (both
	// directions at line rate) and mirror both into P4 (100Gbps): about
	// half the clones must drop once the queue fills.
	k := sim.NewKernel()
	sw := New("tor0", k)
	sw.AddPort("P2", RoleDownlink, 100*units.Gbps)
	sw.AddPort("P4", RoleDownlink, 100*units.Gbps)
	m, err := sw.StartMirror("P2", DirBoth, "P4")
	if err != nil {
		t.Fatal(err)
	}
	const frameSize = 9000 // jumbo
	perDir := int64(100 * units.Gbps.TransmitNanos(frameSize))
	_ = perDir
	dur := sim.Time(2 * sim.Second)
	interval := sim.Time((100 * units.Gbps).TransmitNanos(frameSize)) // line rate per direction
	for ts := sim.Time(0); ts < dur; ts += interval {
		ts := ts
		k.At(ts, func() {
			_ = sw.Transit("P2", DirRx, Frame{Size: frameSize})
			_ = sw.Transit("P2", DirTx, Frame{Size: frameSize})
		})
	}
	k.Run()
	total := m.Cloned + m.CloneDrops
	if total == 0 {
		t.Fatal("no frames offered")
	}
	lossRatio := float64(m.CloneDrops) / float64(total)
	if lossRatio < 0.4 || lossRatio > 0.6 {
		t.Errorf("loss ratio = %.3f, want ~0.5 (cloned=%d dropped=%d)", lossRatio, m.Cloned, m.CloneDrops)
	}
	if sw.Port("P4").Counters().TxDrops != m.CloneDrops {
		t.Error("egress TxDrops should match session drops")
	}
}

func TestMirrorNoOverflowAtHalfRate(t *testing.T) {
	// Rx-only mirroring at line rate fits exactly in the egress channel.
	k := sim.NewKernel()
	sw := New("tor0", k)
	sw.AddPort("P2", RoleDownlink, 100*units.Gbps)
	sw.AddPort("P4", RoleDownlink, 100*units.Gbps)
	m, err := sw.StartMirror("P2", DirRx, "P4")
	if err != nil {
		t.Fatal(err)
	}
	const frameSize = 1500
	interval := sim.Time((100 * units.Gbps).TransmitNanos(frameSize))
	for ts := sim.Time(0); ts < sim.Time(100*sim.Millisecond); ts += interval {
		ts := ts
		k.At(ts, func() {
			_ = sw.Transit("P2", DirRx, Frame{Size: frameSize})
		})
	}
	k.Run()
	if m.CloneDrops != 0 {
		t.Errorf("drops = %d at exactly line rate", m.CloneDrops)
	}
	if m.Cloned == 0 {
		t.Error("nothing cloned")
	}
}

func TestMirrorDeliveryTimeReflectsQueueing(t *testing.T) {
	k := sim.NewKernel()
	sw := New("tor0", k)
	sw.AddPort("P2", RoleDownlink, 100*units.Gbps)
	sw.AddPort("P4", RoleDownlink, 1*units.Gbps) // slow egress
	var deliveries []sim.Time
	sw.Port("P4").SetReceiver(ReceiverFunc(func(now sim.Time, _ Frame) {
		deliveries = append(deliveries, now)
	}))
	if _, err := sw.StartMirror("P2", DirRx, "P4"); err != nil {
		t.Fatal(err)
	}
	// Two back-to-back 1500B frames at t=0: the second must wait for the
	// first (12us at 1Gbps).
	k.At(0, func() {
		_ = sw.Transit("P2", DirRx, Frame{Size: 1500})
		_ = sw.Transit("P2", DirRx, Frame{Size: 1500})
	})
	k.Run()
	if len(deliveries) != 2 {
		t.Fatalf("deliveries = %v", deliveries)
	}
	if deliveries[0] != 12000 || deliveries[1] != 24000 {
		t.Errorf("delivery times = %v, want [12000 24000]", deliveries)
	}
}

func TestPortsOrderDeterministic(t *testing.T) {
	sw, _ := newTestSwitch(t)
	names := sw.PortNames()
	want := []string{"P1", "P2", "P3", "P4"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("names = %v", names)
		}
	}
	ports := sw.Ports()
	if len(ports) != 4 || ports[0].Name != "P1" || ports[0].Role != RoleUplink {
		t.Errorf("ports = %v", ports)
	}
}

func TestDuplicatePortPanics(t *testing.T) {
	sw, _ := newTestSwitch(t)
	defer func() {
		if recover() == nil {
			t.Error("duplicate port should panic")
		}
	}()
	sw.AddPort("P1", RoleDownlink, units.Gbps)
}

func TestDirectionString(t *testing.T) {
	if DirRx.String() != "rx" || DirTx.String() != "tx" || DirBoth.String() != "both" {
		t.Error("direction names")
	}
	if RoleUplink.String() != "uplink" || RoleDownlink.String() != "downlink" {
		t.Error("role names")
	}
}

func TestMirrorsSorted(t *testing.T) {
	sw, _ := newTestSwitch(t)
	if _, err := sw.StartMirror("P3", DirRx, "P4"); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.StartMirror("P1", DirRx, "P2"); err != nil {
		t.Fatal(err)
	}
	ms := sw.Mirrors()
	if len(ms) != 2 || ms[0].Mirrored != "P1" || ms[1].Mirrored != "P3" {
		t.Errorf("mirrors = %v", ms)
	}
}
