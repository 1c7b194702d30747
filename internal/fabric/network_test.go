package fabric

import (
	"testing"

	"ecvslrc/internal/sim"
)

// flatCost is a cost model with simple round numbers for assertions.
func flatCost() CostModel {
	return CostModel{
		SendFixed:    100 * sim.Microsecond,
		SendPerByte:  0,
		WireLatency:  50 * sim.Microsecond,
		HandlerFixed: 10 * sim.Microsecond,
	}
}

func TestOneWaySendDeliversAndCharges(t *testing.T) {
	s := sim.New()
	n := New(s, flatCost(), 2)
	var gotKind, gotFrom int
	var arriveAt sim.Time
	var sendDone sim.Time

	p0 := s.Spawn("p0", func(p *sim.Proc) {
		n.Send(p, 1, 7, 8, Payload{A: 42})
		sendDone = p.Now()
	})
	p1 := s.Spawn("p1", func(p *sim.Proc) {
		p.Park(sim.Wait{}) // parked; the handler below unparks it
	})
	_ = p0
	n.Attach(p0, func(hc *HandlerCtx, m Msg) { t.Error("p0 got a message") })
	n.Attach(p1, func(hc *HandlerCtx, m Msg) {
		gotKind, gotFrom = m.Kind, m.From
		arriveAt = hc.Now() - hc.n.cm.HandlerFixed
		p1.UnparkAt(hc.Now())
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if gotKind != 7 || gotFrom != 0 {
		t.Errorf("got kind=%d from=%d", gotKind, gotFrom)
	}
	if sendDone != 100*sim.Microsecond {
		t.Errorf("send busy time = %v, want 100µs", sendDone)
	}
	if arriveAt != 150*sim.Microsecond {
		t.Errorf("arrival = %v, want 150µs", arriveAt)
	}
	st := n.ProcStats(0)
	if st.Msgs != 1 || st.Bytes != int64(8+MsgHeader) {
		t.Errorf("stats = %+v", st)
	}
}

func TestCallRoundTrip(t *testing.T) {
	s := sim.New()
	n := New(s, flatCost(), 2)
	var reply Msg
	var rtt sim.Time
	p0 := s.Spawn("client", func(p *sim.Proc) {
		start := p.Now()
		reply = n.Call(p, 1, 1, 0, Payload{Kind: PayloadPageReq, A: 7, B: 8})
		rtt = p.Now() - start
	})
	p1 := s.Spawn("server", func(p *sim.Proc) {})
	n.Attach(p0, func(hc *HandlerCtx, m Msg) {})
	n.Attach(p1, func(hc *HandlerCtx, m Msg) {
		if m.Payload.Kind != PayloadPageReq || m.Payload.A != 7 || m.Payload.B != 8 {
			t.Errorf("payload = %+v", m.Payload)
		}
		hc.Work(5 * sim.Microsecond)
		hc.Reply(m, 2, 4, Payload{C: 9})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if reply.Payload.C != 9 || reply.Kind != 2 || reply.From != 1 {
		t.Errorf("reply = %+v", reply)
	}
	// Request: 100 send + 50 wire. Handler: 10 fixed + 5 work + 100 reply send.
	// Reply: 50 wire + 10 receive handling.
	want := (100 + 50 + 10 + 5 + 100 + 50 + 10) * sim.Microsecond
	if rtt != want {
		t.Errorf("rtt = %v, want %v", rtt, want)
	}
	total := n.Total()
	if total.Msgs != 2 {
		t.Errorf("total msgs = %d, want 2", total.Msgs)
	}
}

func TestForwardPreservesReplyPath(t *testing.T) {
	s := sim.New()
	n := New(s, flatCost(), 3)
	var reply Msg
	procs := make([]*sim.Proc, 3)
	procs[0] = s.Spawn("requester", func(p *sim.Proc) {
		reply = n.Call(p, 1, 1, 0, Payload{})
	})
	procs[1] = s.Spawn("manager", func(p *sim.Proc) {})
	procs[2] = s.Spawn("owner", func(p *sim.Proc) {})
	n.Attach(procs[0], func(hc *HandlerCtx, m Msg) {})
	n.Attach(procs[1], func(hc *HandlerCtx, m Msg) { hc.Forward(m, 2, 4) })
	n.Attach(procs[2], func(hc *HandlerCtx, m Msg) { hc.Reply(m, 9, 0, Payload{A: 1}) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if reply.Payload.A != 1 || reply.From != 2 {
		t.Errorf("reply = %+v", reply)
	}
	if got := n.Total().Msgs; got != 3 { // request + forward + grant
		t.Errorf("msgs = %d, want 3", got)
	}
}

func TestDeferredReplyFromProcessContext(t *testing.T) {
	s := sim.New()
	n := New(s, flatCost(), 2)
	var pending []Msg
	var reply Msg

	p0 := s.Spawn("requester", func(p *sim.Proc) {
		reply = n.Call(p, 1, 1, 0, Payload{})
	})
	p1 := s.Spawn("holder", func(p *sim.Proc) {
		p.Sleep(1000 * sim.Microsecond) // holds the resource for 1 ms
		for _, req := range pending {
			n.Proc(p).Reply(req, 2, 0, Payload{B: 5})
		}
	})
	n.Attach(p0, func(hc *HandlerCtx, m Msg) {})
	n.Attach(p1, func(hc *HandlerCtx, m Msg) { pending = append(pending, m) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if reply.Payload.B != 5 {
		t.Errorf("reply = %+v", reply)
	}
}

func TestParallelCallsOverlap(t *testing.T) {
	s := sim.New()
	n := New(s, flatCost(), 3)
	var elapsed sim.Time
	p0 := s.Spawn("client", func(p *sim.Proc) {
		start := p.Now()
		w1, w2 := sim.NewWaiter(p), sim.NewWaiter(p)
		n.CallAsync(p, w1, 1, 1, 0, Payload{})
		n.CallAsync(p, w2, 2, 1, 0, Payload{})
		n.Await(w1, sim.ForPage(1))
		n.Await(w2, sim.ForPage(2))
		elapsed = p.Now() - start
	})
	p1 := s.Spawn("s1", func(p *sim.Proc) {})
	p2 := s.Spawn("s2", func(p *sim.Proc) {})
	n.Attach(p0, func(hc *HandlerCtx, m Msg) {})
	echo := func(hc *HandlerCtx, m Msg) { hc.Reply(m, 2, 0, Payload{}) }
	n.Attach(p1, echo)
	n.Attach(p2, echo)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Serial would be ≥ 2 full round trips (640µs). Overlapped: the second
	// send begins right after the first (sender serializes sends only).
	serial := 2 * (100 + 50 + 10 + 100 + 50 + 10) * sim.Microsecond
	if elapsed >= serial {
		t.Errorf("elapsed = %v, not overlapped (serial = %v)", elapsed, serial)
	}
}

func TestPerByteCostAndStats(t *testing.T) {
	cm := flatCost()
	cm.SendPerByte = 100 * sim.Nanosecond
	s := sim.New()
	n := New(s, cm, 2)
	var sendDone sim.Time
	p0 := s.Spawn("p0", func(p *sim.Proc) {
		n.Send(p, 1, 1, 968, Payload{}) // 968 + 32 header = 1000 bytes
		sendDone = p.Now()
	})
	p1 := s.Spawn("p1", func(p *sim.Proc) { p.Park(sim.Wait{}) })
	n.Attach(p0, nil)
	n.Attach(p1, func(hc *HandlerCtx, m Msg) { p1.UnparkAt(hc.Now()) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := 100*sim.Microsecond + 1000*100*sim.Nanosecond
	if sendDone != want {
		t.Errorf("send time = %v, want %v", sendDone, want)
	}
	if n.ProcStats(0).Bytes != 1000 {
		t.Errorf("bytes = %d, want 1000", n.ProcStats(0).Bytes)
	}
}
