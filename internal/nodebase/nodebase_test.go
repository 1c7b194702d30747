package nodebase

import (
	"testing"

	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/sim"
	"ecvslrc/internal/wtrap"
)

// rig builds a Base on a one-processor simulation and runs body.
func rig(t *testing.T, body func(b *Base)) {
	t.Helper()
	s := sim.New()
	net := fabric.New(s, fabric.DefaultCostModel(), 1)
	al := mem.NewAllocator()
	al.Alloc("data", 2*mem.PageSize, 4)
	b := &Base{}
	p := s.Spawn("p0", func(p *sim.Proc) { body(b) })
	b.InitWithImage(p, net, al, core.LRC, 1, mem.NewImage(al.Size()))
	net.Attach(p, func(hc *fabric.HandlerCtx, m fabric.Msg) {})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeferredChargeFlushesAtThreshold(t *testing.T) {
	rig(t, func(b *Base) {
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
	rig(t, func(b *Base) {
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
	rig(t, func(b *Base) {
		db := wtrap.NewDirtyBits(b.Al, false)
		b.SetTrap(db, sim.Microsecond)
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
		if b.Now() != 3*sim.Microsecond {
			t.Errorf("pending trap cost = %v, want 3µs", b.Now())
		}
	})
}

func TestStatsWindow(t *testing.T) {
	rig(t, func(b *Base) {
		b.P.Sleep(50 * sim.Microsecond)
		b.StatsBegin()
		b.P.Sleep(100 * sim.Microsecond)
		b.Cnt.LockAcquires = 7
		b.Extra.DiffsCreated = 3
		b.StatsEnd()
		w, ok := b.Window()
		if !ok {
			t.Fatal("no window")
		}
		if w.Start != 50*sim.Microsecond || w.End != 150*sim.Microsecond {
			t.Errorf("window [%v,%v]", w.Start, w.End)
		}
		if w.Cnt.LockAcquires != 7 || w.Extra.DiffsCreated != 3 {
			t.Errorf("window counters: %+v %+v", w.Cnt, w.Extra)
		}
	})
}

func TestStatsEndWithoutBeginPanics(t *testing.T) {
	rig(t, func(b *Base) {
		defer func() {
			if recover() == nil {
				t.Error("want panic")
			}
		}()
		b.StatsEnd()
	})
}
