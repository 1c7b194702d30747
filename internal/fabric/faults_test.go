package fabric

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"ecvslrc/internal/sim"
)

// faultWorkload runs a fixed two-processor exchange under plan: p0 issues k
// synchronous calls to p1 (whose handler echoes A+1), while p1 streams k
// one-way messages to p0. It returns the reply values p0 collected, the
// one-way values p0's handler received in arrival order, the virtual finish
// time, the fault counters, and the run error.
func faultWorkload(t *testing.T, plan *FaultPlan, k int) (replies, oneways []int32, finish sim.Time, fs FaultStats, err error) {
	t.Helper()
	s := sim.New()
	n := New(s, flatCost(), 2)
	if plan != nil {
		if ferr := n.EnableFaults(*plan); ferr != nil {
			t.Fatalf("EnableFaults: %v", ferr)
		}
	}
	p0 := s.Spawn("p0", func(p *sim.Proc) {
		for i := 0; i < k; i++ {
			m := n.Call(p, 1, 7, 16, Payload{A: int32(i)})
			replies = append(replies, m.Payload.A)
		}
	})
	p1 := s.Spawn("p1", func(p *sim.Proc) {
		for i := 0; i < k; i++ {
			n.Send(p, 0, 8, 16, Payload{A: int32(i)})
		}
	})
	n.Attach(p0, func(hc *HandlerCtx, m Msg) {
		oneways = append(oneways, m.Payload.A)
	})
	n.Attach(p1, func(hc *HandlerCtx, m Msg) {
		hc.Reply(m, 7, 16, Payload{A: m.Payload.A + 1})
	})
	err = s.Run()
	// Finish is when the application work completed, not s.Now(): trailing
	// no-op retry/ack timers legitimately extend the event queue past the
	// last application event without affecting any process.
	finish = p0.FinishedAt()
	if p1.FinishedAt() > finish {
		finish = p1.FinishedAt()
	}
	return replies, oneways, finish, n.FaultStats(), err
}

// wantExchange asserts the workload's application-visible outcome: every
// call got its echo, every one-way arrived exactly once in send order.
func wantExchange(t *testing.T, replies, oneways []int32, k int) {
	t.Helper()
	if len(replies) != k || len(oneways) != k {
		t.Fatalf("got %d replies, %d one-ways, want %d each", len(replies), len(oneways), k)
	}
	for i := 0; i < k; i++ {
		if replies[i] != int32(i)+1 {
			t.Errorf("reply %d = %d, want %d", i, replies[i], i+1)
		}
		if oneways[i] != int32(i) {
			t.Errorf("one-way %d = %d, want %d (in-order delivery violated)", i, oneways[i], i)
		}
	}
}

func TestFaultPlanValidate(t *testing.T) {
	bad := []FaultPlan{
		{Drop: -0.1},
		{Drop: 1},
		{Dup: 1.5},
		{Delay: 2},
	}
	for _, p := range bad {
		if err := p.Validate(); !errors.Is(err, ErrFaultPlan) {
			t.Errorf("Validate(%+v) = %v, want ErrFaultPlan", p, err)
		}
	}
	for _, name := range FaultPresetNames() {
		p, err := FaultPreset(name)
		if err != nil {
			t.Fatalf("FaultPreset(%q): %v", name, err)
		}
		if name == "off" {
			if p != nil {
				t.Errorf("FaultPreset(off) = %+v, want nil", p)
			}
			continue
		}
		if err := p.Validate(); err != nil {
			t.Errorf("preset %q does not validate: %v", name, err)
		}
	}
	if _, err := FaultPreset("nosuch"); !errors.Is(err, ErrFaultPlan) {
		t.Errorf("unknown preset error = %v, want ErrFaultPlan", err)
	}
}

func TestZeroRatePlanPreservesBehaviorAndTiming(t *testing.T) {
	const k = 20
	r0, o0, t0, fs0, err := faultWorkload(t, nil, k)
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	plan := &FaultPlan{Seed: 7}
	r1, o1, t1, fs1, err := faultWorkload(t, plan, k)
	if err != nil {
		t.Fatalf("zero-rate run: %v", err)
	}
	wantExchange(t, r0, o0, k)
	wantExchange(t, r1, o1, k)
	// The sublayer only sequences and acks; with zero rates nothing is
	// dropped or delayed, so the application timeline is identical.
	if t1 != t0 {
		t.Errorf("zero-rate plan changed the finish time: %v -> %v", t0, t1)
	}
	if fs0 != (FaultStats{}) {
		t.Errorf("fault-free run has fault stats: %+v", fs0)
	}
	if fs1.Acks == 0 || fs1.Sent == 0 {
		t.Errorf("zero-rate plan recorded no sublayer activity: %+v", fs1)
	}
	if fs1.Dropped != 0 || fs1.Retransmits != 0 || fs1.DupsDropped != 0 || fs1.RecoveryWait != 0 {
		t.Errorf("zero-rate plan injected faults: %+v", fs1)
	}
}

func TestDropRecovery(t *testing.T) {
	const k = 40
	plan := &FaultPlan{Seed: 3, Drop: 0.3}
	replies, oneways, _, fs, err := faultWorkload(t, plan, k)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	wantExchange(t, replies, oneways, k)
	if fs.Dropped == 0 {
		t.Error("30% loss dropped nothing")
	}
	if fs.Retransmits == 0 {
		t.Error("no retransmissions despite drops")
	}
	if fs.RecoveryWait == 0 {
		t.Error("recovery cost did not land in virtual time")
	}
}

func TestDuplicateSuppression(t *testing.T) {
	const k = 30
	plan := &FaultPlan{Seed: 5, Dup: 0.9}
	replies, oneways, _, fs, err := faultWorkload(t, plan, k)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	wantExchange(t, replies, oneways, k)
	if fs.Duplicated == 0 || fs.DupsDropped == 0 {
		t.Errorf("90%% duplication produced dup=%d dropped=%d", fs.Duplicated, fs.DupsDropped)
	}
}

func TestDelayReordersButDeliversInOrder(t *testing.T) {
	const k = 40
	plan := &FaultPlan{Seed: 11, Delay: 0.7}
	replies, oneways, _, fs, err := faultWorkload(t, plan, k)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	wantExchange(t, replies, oneways, k)
	if fs.Delayed == 0 {
		t.Error("70% delay injection delayed nothing")
	}
	if fs.OutOfOrder == 0 {
		t.Error("heavy delays never reordered a frame (reorder buffer untested)")
	}
}

func TestChaosPreset(t *testing.T) {
	const k = 50
	plan, err := FaultPreset("chaos")
	if err != nil {
		t.Fatal(err)
	}
	replies, oneways, _, fs, err := faultWorkload(t, plan, k)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	wantExchange(t, replies, oneways, k)
	if fs.Sent == 0 || fs.Acks == 0 {
		t.Errorf("chaos run recorded no activity: %+v", fs)
	}
}

func TestFaultDeterminism(t *testing.T) {
	const k = 40
	plan := &FaultPlan{Seed: 9, Drop: 0.2, Dup: 0.1, Delay: 0.3}
	r1, o1, t1, fs1, err := faultWorkload(t, plan, k)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	r2, o2, t2, fs2, err := faultWorkload(t, plan, k)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if t1 != t2 || fs1 != fs2 {
		t.Errorf("same (plan, seed) diverged: %v/%+v vs %v/%+v", t1, fs1, t2, fs2)
	}
	wantExchange(t, r1, o1, k)
	wantExchange(t, r2, o2, k)
	// A different seed must induce a different fault pattern (sanity check
	// that the seed actually keys the PRNG).
	other := *plan
	other.Seed = 10
	_, _, t3, fs3, err := faultWorkload(t, &other, k)
	if err != nil {
		t.Fatalf("reseeded run: %v", err)
	}
	if t3 == t1 && fs3 == fs1 {
		t.Error("changing the seed changed nothing")
	}
}

func TestUnrecoverablePlanFailsLoudly(t *testing.T) {
	plan := &FaultPlan{Seed: 2, Drop: 0.99}
	_, _, _, _, err := faultWorkload(t, plan, 20)
	if err == nil {
		t.Fatalf("99%% loss with %d retries completed — expected the run to fail", maxRetries)
	}
	if !strings.Contains(err.Error(), "reliable delivery gave up") {
		t.Errorf("error does not name the abandoned frame: %v", err)
	}
}

func TestFaultsComposeWithContention(t *testing.T) {
	const k = 20
	s := sim.New()
	cm := flatCost()
	cm.LinkPerByte = sim.Microsecond // 288-byte frames hold the link ~3x the send gap
	n := New(s, cm, 2)
	n.EnableContention()
	if err := n.EnableFaults(FaultPlan{Seed: 4, Drop: 0.2}); err != nil {
		t.Fatal(err)
	}
	var got []int32
	p0 := s.Spawn("p0", func(p *sim.Proc) {
		for i := 0; i < k; i++ {
			n.Send(p, 1, 8, 256, Payload{A: int32(i)})
		}
	})
	p1 := s.Spawn("p1", func(p *sim.Proc) {})
	n.Attach(p0, func(hc *HandlerCtx, m Msg) {})
	n.Attach(p1, func(hc *HandlerCtx, m Msg) { got = append(got, m.Payload.A) })
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(got) != k {
		t.Fatalf("delivered %d of %d", len(got), k)
	}
	for i, v := range got {
		if v != int32(i) {
			t.Fatalf("out-of-order delivery under contention: got[%d] = %d", i, v)
		}
	}
	if n.FaultStats().Dropped == 0 {
		t.Error("no drops recorded")
	}
	if n.LinkWait() == 0 {
		t.Error("contention recorded no link wait for 20 overlapping bulk sends")
	}
}

// TestSelectiveAckWindow lands an ack whose got lies above the receiver's
// cumulative edge: the window must keep exactly the frames still unacked, in
// sequence order, and an acked frame must go back to the free list only once
// its pending retransmission timer has fired.
func TestSelectiveAckWindow(t *testing.T) {
	s := sim.New()
	n := New(s, flatCost(), 2)
	if err := n.EnableFaults(FaultPlan{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	n.Attach(s.Spawn("p0", func(*sim.Proc) {}), func(*HandlerCtx, Msg) {})
	n.Attach(s.Spawn("p1", func(*sim.Proc) {}), func(*HandlerCtx, Msg) {})
	fs := n.faults
	lk := fs.link(0, 1)
	send := func(at sim.Time) *relFrame {
		fs.send(at, n.newFlight(Msg{From: 0, To: 1, Kind: 1, Size: 8}))
		return lk.last
	}
	var sent []*relFrame
	for range 5 {
		sent = append(sent, send(0))
	}
	checkWindow := func(want []uint32, acked ...int) {
		var window []uint32
		for fr := lk.first; fr != nil; fr = fr.next {
			window = append(window, fr.seq)
			if fr.acked {
				t.Errorf("acked frame %d still in the window", fr.seq)
			}
		}
		if !slices.Equal(window, want) || lk.last != sent[want[len(want)-1]] {
			t.Errorf("window = %v (last %d), want %v", window, lk.last.seq, want)
		}
		for _, i := range acked {
			if !sent[i].acked {
				t.Errorf("frame %d is not marked acked", i)
			}
		}
	}
	// Frame 0 lies below the edge, frame 3 is the one that just arrived; then
	// the last frame arrives. Both acks land before any frame reaches the
	// receiver.
	s.ScheduleTimer(sim.Microsecond, &ackTimer{fs: fs, from: 0, to: 1, below: 1, got: 3}, nil)
	s.Schedule(2*sim.Microsecond, func() { checkWindow([]uint32{1, 2, 4}, 0, 3) })
	s.ScheduleTimer(3*sim.Microsecond, &ackTimer{fs: fs, from: 0, to: 1, below: 1, got: 4}, nil)
	s.Schedule(4*sim.Microsecond, func() { checkWindow([]uint32{1, 2}, 0, 3, 4) })
	// Every frame is acked well before rto, when its first timer fires.
	var early, late *relFrame
	s.Schedule(rto/2, func() {
		if lk.first != nil || lk.last != nil {
			t.Errorf("window not empty once every frame was acked: first %v, last %v", lk.first, lk.last)
		}
		early = send(rto / 2)
	})
	s.Schedule(rto+sim.Microsecond, func() { late = send(rto + sim.Microsecond) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(sent, early) {
		t.Error("an acked frame was reused while its retransmission timer was pending")
	}
	if !slices.Contains(sent, late) {
		t.Error("no acked frame was reused after its retransmission timer fired")
	}
	if st := n.FaultStats(); st.Retransmits != 0 {
		t.Errorf("%d retransmissions of frames that were all acked", st.Retransmits)
	}
}

// TestRelLinkSize pins the per-link sublayer state: a fault cell holds
// nprocs² links.
func TestRelLinkSize(t *testing.T) {
	if got := unsafe.Sizeof(relLink{}); got > 56 {
		t.Errorf("relLink is %d bytes, want at most 56", got)
	}
}
