package fabric

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"ecvslrc/internal/sim"
)

// BenchmarkFabricDeliver drives synchronous request/reply round trips through
// the full message path (post, flight scheduling, delivery, reply, waiter
// rendezvous). The CI bench smoke step asserts it reports 0 allocs/op: with
// typed payloads and the network's flight free list, steady-state delivery must
// not allocate. (The per-benchmark setup — spawn, first-message pool growth —
// amortizes to zero over the measured iterations.)
func BenchmarkFabricDeliver(b *testing.B) {
	s := sim.New()
	n := New(s, flatCost(), 2)
	client := s.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			reply := n.Call(p, 1, 1, 8, Payload{Kind: PayloadPageReq, A: int32(i), B: 2, C: 3})
			if reply.Payload.C != int32(i) {
				b.Errorf("reply %d carries %d", i, reply.Payload.C)
				return
			}
		}
	})
	server := s.Spawn("server", func(p *sim.Proc) {})
	n.Attach(client, func(hc *HandlerCtx, m Msg) {})
	n.Attach(server, func(hc *HandlerCtx, m Msg) {
		hc.Reply(m, 2, 8, Payload{Kind: PayloadPageReply, C: m.Payload.A})
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// quietAllocs prepares a Mallocs-delta window and returns the function that
// ends it. The delta is process-wide, so the collector is off and the test
// binary runs on one P: no other goroutine (the tail of an earlier test, say)
// runs beside the measured loop, as testing.AllocsPerRun arranges.
func quietAllocs() (restore func()) {
	gc, procs := debug.SetGCPercent(-1), runtime.GOMAXPROCS(1)
	return func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
	}
}

// TestDeliverSteadyStateAllocs is the strict in-process form of the
// BenchmarkFabricDeliver guard: after a warm-up that grows the flight free
// lists and event queues, a window of call round trips must perform zero heap
// allocations.
func TestDeliverSteadyStateAllocs(t *testing.T) {
	defer quietAllocs()()
	s := sim.New()
	n := New(s, flatCost(), 2)
	var delta uint64
	client := s.Spawn("client", func(p *sim.Proc) {
		call := func(i int) {
			reply := n.Call(p, 1, 1, 8, Payload{Kind: PayloadPageReq, A: int32(i)})
			if reply.Payload.C != int32(i) {
				t.Errorf("reply %d carries %d", i, reply.Payload.C)
			}
		}
		for i := 0; i < 64; i++ {
			call(i)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < 200; i++ {
			call(i)
		}
		runtime.ReadMemStats(&m1)
		delta = m1.Mallocs - m0.Mallocs
	})
	server := s.Spawn("server", func(p *sim.Proc) {})
	n.Attach(client, func(hc *HandlerCtx, m Msg) {})
	n.Attach(server, func(hc *HandlerCtx, m Msg) {
		hc.Reply(m, 2, 8, Payload{Kind: PayloadPageReply, C: m.Payload.A})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if delta != 0 {
		t.Errorf("200 call round trips allocated %d objects, want 0", delta)
	}
}

// TestRotatingDestinationsSteadyStateAllocs calls a different server on
// every round trip. The network keeps one flight free list, not one per
// destination, so the two flights a warm-up call to one server leaves behind
// carry every later call to any server: a window rotating over all of them
// must perform zero heap allocations.
func TestRotatingDestinationsSteadyStateAllocs(t *testing.T) {
	defer quietAllocs()()
	const procs = 16
	s := sim.New()
	n := New(s, flatCost(), procs)
	var delta uint64
	client := s.Spawn("client", func(p *sim.Proc) {
		call := func(to, i int) {
			reply := n.Call(p, to, 1, 8, Payload{Kind: PayloadPageReq, A: int32(i)})
			if reply.Payload.C != int32(i) {
				t.Errorf("reply %d from %d carries %d", i, to, reply.Payload.C)
			}
		}
		for i := 0; i < 64; i++ {
			call(1, i)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < 200; i++ {
			call(1+i%(procs-1), i)
		}
		runtime.ReadMemStats(&m1)
		delta = m1.Mallocs - m0.Mallocs
	})
	n.Attach(client, func(hc *HandlerCtx, m Msg) {})
	for i := 1; i < procs; i++ {
		n.Attach(s.Spawn(fmt.Sprintf("server%d", i), func(p *sim.Proc) {}), func(hc *HandlerCtx, m Msg) {
			hc.Reply(m, 2, 8, Payload{Kind: PayloadPageReply, C: m.Payload.A})
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if delta != 0 {
		t.Errorf("200 call round trips over %d servers allocated %d objects, want 0", procs-1, delta)
	}
}

// TestFaultSublayerSteadyStateAllocs is TestDeliverSteadyStateAllocs under a
// fault plan that drops and delays frames and acks: a window of call round
// trips, retransmissions included, must perform zero heap allocations.
//
// Fates are random, so the pools (frames, ack timers, flights, the event
// queue) grow to whatever peak occupancy the traffic reaches. The warm-up
// therefore streams one-way messages both ways at once, which keeps about
// three times as many frames outstanding as the window's serialized calls
// can, and then lets every timer drain.
func TestFaultSublayerSteadyStateAllocs(t *testing.T) {
	defer quietAllocs()()
	s := sim.New()
	n := New(s, flatCost(), 2)
	if err := n.EnableFaults(FaultPlan{Seed: 1, Drop: 0.05, Delay: 0.1}); err != nil {
		t.Fatal(err)
	}
	const stream = 1000
	var delta uint64
	var before FaultStats
	client := s.Spawn("client", func(p *sim.Proc) {
		call := func(i int) {
			reply := n.Call(p, 1, 1, 8, Payload{Kind: PayloadPageReq, A: int32(i)})
			if reply.Payload.C != int32(i) {
				t.Errorf("reply %d carries %d", i, reply.Payload.C)
			}
		}
		for i := 0; i < stream; i++ {
			n.Send(p, 1, 8, 8, Payload{A: int32(i)})
		}
		call(0) // makes the caller's waiter
		p.Sleep(100 * sim.Millisecond)
		before = n.FaultStats()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < 200; i++ {
			call(i)
		}
		runtime.ReadMemStats(&m1)
		delta = m1.Mallocs - m0.Mallocs
	})
	server := s.Spawn("server", func(p *sim.Proc) {
		for i := 0; i < stream; i++ {
			n.Send(p, 0, 8, 8, Payload{A: int32(i)})
		}
	})
	n.Attach(client, func(hc *HandlerCtx, m Msg) {})
	n.Attach(server, func(hc *HandlerCtx, m Msg) {
		if m.Kind == 1 {
			hc.Reply(m, 2, 8, Payload{Kind: PayloadPageReply, C: m.Payload.A})
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if delta != 0 {
		t.Errorf("200 faulted call round trips allocated %d objects, want 0", delta)
	}
	fs := n.FaultStats()
	if fs.Retransmits == before.Retransmits || fs.Delayed == before.Delayed || fs.AcksLost == before.AcksLost {
		t.Errorf("the measured window recovered from nothing: %v, then %v", before, fs)
	}
}

// TestNilTracerDeliverAllocs proves the tracing hooks add zero allocations
// to the BenchmarkFabricDeliver message path when no tracer is attached: the
// nil-tracer fast path is one nil check per hook. SetTracer(nil) is called
// explicitly so the test stays honest if the default ever changes.
func TestNilTracerDeliverAllocs(t *testing.T) {
	defer quietAllocs()()
	s := sim.New()
	n := New(s, flatCost(), 2)
	n.SetTracer(nil)
	var delta uint64
	client := s.Spawn("client", func(p *sim.Proc) {
		call := func(i int) {
			reply := n.Call(p, 1, 1, 8, Payload{Kind: PayloadPageReq, A: int32(i)})
			if reply.Payload.C != int32(i) {
				t.Errorf("reply %d carries %d", i, reply.Payload.C)
			}
		}
		for i := 0; i < 64; i++ {
			call(i)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < 200; i++ {
			call(i)
		}
		runtime.ReadMemStats(&m1)
		delta = m1.Mallocs - m0.Mallocs
	})
	server := s.Spawn("server", func(p *sim.Proc) {})
	n.Attach(client, func(hc *HandlerCtx, m Msg) {})
	n.Attach(server, func(hc *HandlerCtx, m Msg) {
		hc.Reply(m, 2, 8, Payload{Kind: PayloadPageReply, C: m.Payload.A})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if delta != 0 {
		t.Errorf("200 nil-tracer call round trips allocated %d objects, want 0", delta)
	}
}

// roundTripBody is a test Body implementation.
type roundTripBody struct{ tag int }

func (*roundTripBody) BodyKind() PayloadKind { return PayloadNoticeSet }

// TestPayloadRoundTripEveryVariant sends one message per payload variant —
// empty, scalar slots, flags, vector, and pointer body — and checks every
// slot arrives intact, for both one-way delivery and the reply path.
func TestPayloadRoundTripEveryVariant(t *testing.T) {
	body := &roundTripBody{tag: 9}
	payloads := []Payload{
		{Kind: PayloadNone},
		{Kind: PayloadLockReq, A: 7, B: 1, C: -3, D: 1 << 30, Flag: true, Flag2: true},
		{Kind: PayloadLockGrant, C: 5, D: 2, Body: body},
		{Kind: PayloadBarrier, A: 11, Vec: []int32{1, 2, 3}},
		{Kind: PayloadPageReq, A: 4, B: 2, C: 6},
		{Kind: PayloadPageReply, Body: body},
	}
	s := sim.New()
	n := New(s, flatCost(), 2)
	got := make([]Payload, 0, len(payloads))
	echoed := make([]Payload, 0, len(payloads))
	client := s.Spawn("client", func(p *sim.Proc) {
		for _, pl := range payloads {
			reply := n.Call(p, 1, int(pl.Kind)+1, 8, pl)
			echoed = append(echoed, reply.Payload)
		}
	})
	server := s.Spawn("server", func(p *sim.Proc) {})
	n.Attach(client, func(hc *HandlerCtx, m Msg) {})
	n.Attach(server, func(hc *HandlerCtx, m Msg) {
		got = append(got, m.Payload)
		hc.Reply(m, m.Kind, 8, m.Payload) // echo the payload back unchanged
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	check := func(tag string, seen []Payload) {
		if len(seen) != len(payloads) {
			t.Fatalf("%s: %d payloads, want %d", tag, len(seen), len(payloads))
		}
		for i, want := range payloads {
			g := seen[i]
			if g.Kind != want.Kind || g.A != want.A || g.B != want.B || g.C != want.C ||
				g.D != want.D || g.Flag != want.Flag || g.Flag2 != want.Flag2 {
				t.Errorf("%s: payload %v: got %+v, want %+v", tag, want.Kind, g, want)
			}
			if len(g.Vec) != len(want.Vec) {
				t.Errorf("%s: payload %v: vec %v, want %v", tag, want.Kind, g.Vec, want.Vec)
			}
			for j := range want.Vec {
				if g.Vec[j] != want.Vec[j] {
					t.Errorf("%s: payload %v: vec %v, want %v", tag, want.Kind, g.Vec, want.Vec)
				}
			}
			if want.Body != nil {
				rb, ok := g.Body.(*roundTripBody)
				if !ok || rb != body || rb.tag != 9 {
					t.Errorf("%s: payload %v: body %#v, want the original pointer", tag, want.Kind, g.Body)
				}
			} else if g.Body != nil {
				t.Errorf("%s: payload %v: unexpected body %#v", tag, want.Kind, g.Body)
			}
		}
	}
	check("request", got)
	check("reply", echoed)
}

// TestSameInstantSendersKeepLinkClaimOrder pins the interplay between
// same-instant wakes and contention mode: three senders wake at the same
// virtual instant and send concurrently; their shared-link claims must
// serialize in process schedule order with exact queueing delays.
func TestSameInstantSendersKeepLinkClaimOrder(t *testing.T) {
	const size = 4000
	cm := flatCost()
	cm.LinkPerByte = 100 * sim.Nanosecond
	s := sim.New()
	n := New(s, cm, 6)
	var arrivals [3]sim.Time
	var order []int32
	for i := 0; i < 3; i++ {
		i := i
		sp := s.Spawn("sender", func(p *sim.Proc) {
			p.Sleep(10 * sim.Microsecond) // all three wake at the same instant
			n.Send(p, 3+i, 1, size, Payload{A: int32(i)})
		})
		n.Attach(sp, nil)
	}
	n.EnableContention()
	for i := 0; i < 3; i++ {
		i := i
		rp := s.Spawn("recv", func(p *sim.Proc) { p.Park(sim.Wait{}) })
		n.Attach(rp, func(hc *HandlerCtx, m Msg) {
			arrivals[i] = hc.Now() - cm.HandlerFixed
			order = append(order, m.Payload.A)
			rp.UnparkAt(hc.Now())
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// All sends finish their programmed I/O at 10µs + SendFixed; the link then
	// serves them one occupancy at a time, in process schedule order.
	occupancy := sim.Time(size+MsgHeader) * cm.LinkPerByte
	sendEnd := 10*sim.Microsecond + cm.SendFixed
	for i, at := range arrivals {
		want := sendEnd + sim.Time(i+1)*occupancy + cm.WireLatency
		if at != want {
			t.Errorf("arrival %d = %v, want %v", i, at, want)
		}
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("claim service order = %v, want [0 1 2]", order)
	}
	if want := 3 * occupancy; n.LinkWait() != want {
		t.Errorf("LinkWait = %v, want %v", n.LinkWait(), want)
	}
}
