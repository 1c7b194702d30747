package fabric

import (
	"testing"

	"ecvslrc/internal/sim"
)

func TestScaleNetworkDividesMessagingCosts(t *testing.T) {
	base := DefaultCostModel()
	half := base.ScaleNetwork(2)
	if half.SendFixed != base.SendFixed/2 || half.WireLatency != base.WireLatency/2 ||
		half.HandlerFixed != base.HandlerFixed/2 || half.SendPerByte != base.SendPerByte/2 ||
		half.LinkPerByte != base.LinkPerByte/2 {
		t.Errorf("ScaleNetwork(2) = %+v", half)
	}
	// CPU-side constants must be untouched.
	if half.InstrStore != base.InstrStore || half.WordCompare != base.WordCompare ||
		half.ProtFault != base.ProtFault {
		t.Errorf("ScaleNetwork touched CPU costs: %+v", half)
	}
	if got := base.ScaleNetwork(1); got != base {
		t.Errorf("ScaleNetwork(1) changed the model: %+v", got)
	}
}

func TestScaleCPUDividesSoftwareCosts(t *testing.T) {
	base := DefaultCostModel()
	q := base.ScaleCPU(4)
	if q.ProtFault != base.ProtFault/4 || q.MProtect != base.MProtect/4 ||
		q.InstrStore != scaled(base.InstrStore, 4) || q.WordCopy != scaled(base.WordCopy, 4) {
		t.Errorf("ScaleCPU(4) = %+v", q)
	}
	if q.SendFixed != base.SendFixed || q.WireLatency != base.WireLatency {
		t.Errorf("ScaleCPU touched the network: %+v", q)
	}
}

func TestHardwareKnobsZeroTheirGroups(t *testing.T) {
	hw := DefaultCostModel().HardwareWriteDetection()
	if hw.InstrStore != 0 || hw.InstrStoreOpt != 0 || hw.ProtFault != 0 || hw.MProtect != 0 {
		t.Errorf("HardwareWriteDetection left trapping costs: %+v", hw)
	}
	if hw.WordCompare == 0 || hw.SendFixed == 0 {
		t.Errorf("HardwareWriteDetection zeroed too much: %+v", hw)
	}
	zd := DefaultCostModel().ZeroCostDiff()
	if zd.WordCopy != 0 || zd.WordCompare != 0 || zd.WordScan != 0 || zd.WordApply != 0 {
		t.Errorf("ZeroCostDiff left collection costs: %+v", zd)
	}
	if zd.InstrStore == 0 {
		t.Errorf("ZeroCostDiff zeroed trapping: %+v", zd)
	}
}

// TestContentionSerializesBulkTransfers checks the occupancy model: two
// senders transmitting at once to distinct receivers overlap for free with
// contention off, but queue on the shared link with it on.
func TestContentionSerializesBulkTransfers(t *testing.T) {
	const size = 10000
	run := func(contend bool) (arrivals [2]sim.Time, wait sim.Time) {
		cm := flatCost()
		cm.LinkPerByte = 100 * sim.Nanosecond
		s := sim.New()
		n := New(s, cm, 4)
		if contend {
			n.EnableContention()
		}
		senders := []*sim.Proc{
			s.Spawn("s0", func(p *sim.Proc) { n.Send(p, 2, 1, size, Payload{}) }),
			s.Spawn("s1", func(p *sim.Proc) { n.Send(p, 3, 1, size, Payload{}) }),
		}
		for i, sp := range senders {
			n.Attach(sp, nil)
			i := i
			rp := s.Spawn("r", func(p *sim.Proc) { p.Park(sim.Wait{}) })
			n.Attach(rp, func(hc *HandlerCtx, m Msg) {
				arrivals[i] = hc.Now() - hc.n.cm.HandlerFixed
				rp.UnparkAt(hc.Now())
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return arrivals, n.LinkWait()
	}

	free, w0 := run(false)
	if free[0] != free[1] {
		t.Errorf("contention off: arrivals differ: %v vs %v", free[0], free[1])
	}
	if w0 != 0 {
		t.Errorf("contention off: link wait = %v, want 0", w0)
	}
	occupancy := sim.Time(size+MsgHeader) * 100 * sim.Nanosecond
	queued, w1 := run(true)
	if got := queued[1] - queued[0]; got != occupancy {
		t.Errorf("contention on: second arrival lags by %v, want one occupancy %v", got, occupancy)
	}
	if w1 != occupancy {
		t.Errorf("contention on: link wait = %v, want %v", w1, occupancy)
	}
	// Even the first message is delayed by its own serialization time.
	if queued[0] != free[0]+occupancy {
		t.Errorf("contention on: first arrival %v, want %v", queued[0], free[0]+occupancy)
	}
}
