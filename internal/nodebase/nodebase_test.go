package nodebase

import (
	"testing"

	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/sim"
	"ecvslrc/internal/syncmgr"
	"ecvslrc/internal/vm"
)

// rig builds a Base of implementation impl on a one-processor simulation
// and runs body.
func rig(t *testing.T, impl core.Impl, body func(b *Base)) {
	t.Helper()
	s := sim.New()
	net := fabric.New(s, fabric.DefaultCostModel(), 1)
	al := mem.NewAllocator()
	al.Alloc("data", 2*mem.PageSize, 4)
	b := &Base{}
	p := s.Spawn("p0", func(p *sim.Proc) { body(b) })
	b.InitWithImage(p, net, al, impl, 1, mem.NewImage(al.Size()))
	net.Attach(p, func(hc *fabric.HandlerCtx, m fabric.Msg) {})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

var lrcDiff = core.Impl{Model: core.LRC, Trap: core.Twinning, Collect: core.Diffs}

func TestDeferredChargeFlushesAtThreshold(t *testing.T) {
	rig(t, lrcDiff, func(b *Base) {
		start := b.P.Now()
		// Below the threshold: the clock must not move yet (one event per
		// charge would make instrumented stores unaffordable).
		b.Charge(30 * sim.Microsecond)
		if b.P.Now() != start {
			t.Error("sub-threshold charge advanced the clock")
		}
		if b.Now() != start+30*sim.Microsecond {
			t.Error("Now() must include pending charge")
		}
		// Crossing the threshold flushes everything.
		b.Charge(80 * sim.Microsecond)
		if got := b.P.Now() - start; got != 110*sim.Microsecond {
			t.Errorf("clock advanced %v, want 110µs", got)
		}
	})
}

func TestFlushExplicit(t *testing.T) {
	rig(t, lrcDiff, func(b *Base) {
		b.Charge(10 * sim.Microsecond)
		b.Flush()
		if b.P.Now() != 10*sim.Microsecond {
			t.Errorf("now = %v", b.P.Now())
		}
		b.Flush() // idempotent
		if b.P.Now() != 10*sim.Microsecond {
			t.Error("empty flush advanced the clock")
		}
	})
}

func TestAccessorsRoundTripAndTrap(t *testing.T) {
	rig(t, core.Impl{Model: core.EC, Trap: core.CompilerInstr, Collect: core.Timestamps}, func(b *Base) {
		db := b.DB
		b.WriteI32(4, -5)
		b.WriteF32(8, 1.5)
		b.WriteF64(16, 2.25)
		if b.ReadI32(4) != -5 || b.ReadF32(8) != 1.5 || b.ReadF64(16) != 2.25 {
			t.Error("round trip failed")
		}
		if db.Stores() != 3 {
			t.Errorf("instrumented stores = %d, want 3", db.Stores())
		}
		runs, _ := db.Collect([]mem.Range{{Base: 0, Len: 32}})
		if len(runs) != 2 || runs[0].Base != 4 || runs[0].Len != 8 || runs[1].Base != 16 || runs[1].Len != 8 {
			t.Errorf("dirty runs = %v", runs)
		}
		if want := 3 * b.CM.InstrStoreOpt; b.Now() != want {
			t.Errorf("pending trap cost = %v, want %v", b.Now(), want)
		}
	})
}

// TestStatsEndFlushesPendingCharge: no window exists before StatsEnd, and
// StatsEnd flushes the deferred charge before it reads the clock, so the
// window's time includes work not yet slept off.
func TestStatsEndFlushesPendingCharge(t *testing.T) {
	rig(t, lrcDiff, func(b *Base) {
		if _, ok := b.Window(); ok {
			t.Error("window before StatsEnd")
		}
		b.Charge(30 * sim.Microsecond)
		b.StatsEnd()
		w, ok := b.Window()
		if !ok {
			t.Fatal("no window after StatsEnd")
		}
		if w.Time != 30*sim.Microsecond || b.P.Now() != 30*sim.Microsecond {
			t.Errorf("window time %v, clock %v; want 30µs both", w.Time, b.P.Now())
		}
	})
}

// nilHooks attach no consistency traffic: pure synchronization.
type nilHooks struct{}

func (nilHooks) MakeLockRequest(core.LockID, syncmgr.Mode) (fabric.Payload, int) {
	return fabric.Payload{}, 0
}
func (nilHooks) MakeLockGrant(core.LockID, syncmgr.Mode, fabric.Payload, int) (fabric.Payload, int, sim.Time) {
	return fabric.Payload{}, 0, 0
}
func (nilHooks) ApplyLockGrant(core.LockID, syncmgr.Mode, fabric.Payload) sim.Time { return 0 }
func (nilHooks) LocalReacquire(core.LockID, syncmgr.Mode)                          {}

func (nilHooks) MakeArrival(core.BarrierID) (fabric.Payload, int, sim.Time) {
	return fabric.Payload{}, 0, 0
}
func (nilHooks) AbsorbArrival(core.BarrierID, int, fabric.Payload) sim.Time { return 0 }
func (nilHooks) PrepareDepartures(core.BarrierID) sim.Time                  { return 0 }
func (nilHooks) MakeDeparture(core.BarrierID, int) (fabric.Payload, int, sim.Time) {
	return fabric.Payload{}, 0, 0
}
func (nilHooks) ApplyDeparture(core.BarrierID, fabric.Payload) sim.Time { return 0 }

// TestStatsWindow pins the window [0, StatsEnd]: a fault at time 0 and a
// remote lock acquire count, the window's time is the StatsEnd instant, and
// a lock acquire, a message and a fault made after StatsEnd still reach the
// node's tally but not its window. A second StatsEnd panics.
func TestStatsWindow(t *testing.T) {
	s := sim.New()
	net := fabric.New(s, fabric.DefaultCostModel(), 2)
	al := mem.NewAllocator()
	al.Alloc("data", 2*mem.PageSize, 4)
	bs := make([]*Base, 2)
	fault := func(b *Base, pg int) {
		b.MMU.SetProt(pg, vm.NoAccess)
		b.ReadI32(mem.Addr(pg * mem.PageSize))
	}
	body := func(p *sim.Proc) {
		b := bs[p.ID()]
		if p.ID() == 0 {
			b.Barrier(0) // the manager of locks 0 and 2 serves until proc 1 is done
			return
		}
		fault(b, 0) // at time 0: inside the window
		b.P.Sleep(100 * sim.Microsecond)
		b.Lock(0, syncmgr.Exclusive)
		b.Release(0)
		end := b.P.Now()
		sent := b.Net.ProcStats(1)
		b.StatsEnd()

		b.Lock(2, syncmgr.Exclusive) // remote: one more acquire and message
		b.Release(2)
		fault(b, 1)
		w, ok := b.Window()
		if !ok {
			t.Error("no window after StatsEnd")
		}
		if w.Time != end || end < 100*sim.Microsecond {
			t.Errorf("window time = %v, want the StatsEnd instant %v", w.Time, end)
		}
		if w.LockAcquires != 1 || w.RemoteAcquires != 1 || w.Faults != 1 {
			t.Errorf("window: %d acquires (%d remote), %d faults; want 1, 1, 1", w.LockAcquires, w.RemoteAcquires, w.Faults)
		}
		if w.Msgs != sent.Msgs || w.Bytes != sent.Bytes || w.Msgs == 0 {
			t.Errorf("window: %d msgs, %d bytes; want %d, %d", w.Msgs, w.Bytes, sent.Msgs, sent.Bytes)
		}
		if b.Tally.LockAcquires != 2 || b.MMU.Faults() != 2 || b.Net.ProcStats(1).Msgs <= w.Msgs {
			t.Errorf("post-window events not made: %d acquires, %d faults, %d msgs",
				b.Tally.LockAcquires, b.MMU.Faults(), b.Net.ProcStats(1).Msgs)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("second StatsEnd: want panic")
				}
			}()
			b.StatsEnd()
		}()
		b.Barrier(0)
	}
	for i := range bs {
		p := s.Spawn("p", body)
		b := &Base{}
		b.InitWithImage(p, net, al, lrcDiff, 2, mem.NewImage(al.Size()))
		b.MMU.SetHandler(func(a mem.Addr, write bool) { b.MMU.SetProt(mem.PageOf(a), vm.ReadWrite) })
		b.AttachSync(nilHooks{}, nilHooks{}, nil)
		bs[i] = b
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
