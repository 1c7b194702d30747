package syncmgr

import (
	"testing"

	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/sim"
)

// testBody is a hook-owned payload body for round-trip checks.
type testBody struct{ tag int32 }

func (*testBody) BodyKind() fabric.PayloadKind { return fabric.PayloadNoticeSet }

// recHooks populate every hook-owned payload slot on the send side and verify
// the slots (plus the manager-owned ones) on the receive side, for all four
// synchronization message kinds.
type recHooks struct {
	t    *testing.T
	self int

	grantBody *testBody

	appliedGrant  bool
	appliedDepart bool
	absorbed      bool
}

func (h *recHooks) MakeLockRequest(l core.LockID, mode Mode) (fabric.Payload, int) {
	return fabric.Payload{C: 77, D: 88, Flag: true, Vec: []int32{int32(h.self), 6}}, 12
}

func (h *recHooks) MakeLockGrant(l core.LockID, mode Mode, req fabric.Payload, requester int) (fabric.Payload, int, sim.Time) {
	if req.Kind != fabric.PayloadLockReq {
		h.t.Errorf("grant side sees request kind %v", req.Kind)
	}
	if core.LockID(req.A) != l || Mode(req.B) != mode {
		h.t.Errorf("manager slots: lock %d mode %d, want %d %v", req.A, req.B, l, mode)
	}
	if req.C != 77 || req.D != 88 || !req.Flag || len(req.Vec) != 2 || req.Vec[1] != 6 {
		h.t.Errorf("hook slots did not round-trip: %+v", req)
	}
	h.grantBody = &testBody{tag: 31}
	return fabric.Payload{C: 99, Body: h.grantBody}, 8, 0
}

func (h *recHooks) ApplyLockGrant(l core.LockID, mode Mode, payload fabric.Payload) sim.Time {
	if payload.Kind != fabric.PayloadLockGrant {
		h.t.Errorf("grant kind = %v", payload.Kind)
	}
	if payload.C != 99 {
		h.t.Errorf("grant hook slot C = %d, want 99", payload.C)
	}
	if b, ok := payload.Body.(*testBody); !ok || b.tag != 31 {
		h.t.Errorf("grant body did not round-trip: %#v", payload.Body)
	}
	h.appliedGrant = true
	return 0
}

func (h *recHooks) LocalReacquire(core.LockID, Mode) {}

func (h *recHooks) MakeArrival(b core.BarrierID) (fabric.Payload, int, sim.Time) {
	return fabric.Payload{Vec: []int32{int32(h.self), 40}, Body: &testBody{tag: 7}}, 8, 0
}

func (h *recHooks) AbsorbArrival(b core.BarrierID, from int, payload fabric.Payload) sim.Time {
	if payload.Kind != fabric.PayloadBarrier || core.BarrierID(payload.A) != b {
		h.t.Errorf("arrival payload = %+v for barrier %d", payload, b)
	}
	if len(payload.Vec) != 2 || payload.Vec[0] != int32(from) || payload.Vec[1] != 40 {
		h.t.Errorf("arrival vec from %d = %v", from, payload.Vec)
	}
	if body, ok := payload.Body.(*testBody); !ok || body.tag != 7 {
		h.t.Errorf("arrival body = %#v", payload.Body)
	}
	h.absorbed = true
	return 0
}

func (h *recHooks) PrepareDepartures(core.BarrierID) sim.Time { return 0 }

func (h *recHooks) MakeDeparture(b core.BarrierID, to int) (fabric.Payload, int, sim.Time) {
	return fabric.Payload{Vec: []int32{int32(to)}, Body: &testBody{tag: 13}}, 4, 0
}

func (h *recHooks) ApplyDeparture(b core.BarrierID, payload fabric.Payload) sim.Time {
	if payload.Kind != fabric.PayloadBarrier || core.BarrierID(payload.A) != b {
		h.t.Errorf("departure payload = %+v for barrier %d", payload, b)
	}
	if len(payload.Vec) != 1 || payload.Vec[0] != int32(h.self) {
		h.t.Errorf("departure vec at %d = %v", h.self, payload.Vec)
	}
	if body, ok := payload.Body.(*testBody); !ok || body.tag != 13 {
		h.t.Errorf("departure body = %#v", payload.Body)
	}
	h.appliedDepart = true
	return 0
}

// TestTypedPayloadRoundTripAllKinds drives one remote lock acquire (request +
// grant) and one barrier episode (arrival + departure) through recording
// hooks, checking every payload slot for all four synchronization message
// kinds.
func TestTypedPayloadRoundTripAllKinds(t *testing.T) {
	const n = 2
	s := sim.New()
	net := fabric.New(s, fabric.DefaultCostModel(), n)
	hooks := make([]*recHooks, n)
	locks := make([]*LockMgr, n)
	bars := make([]*BarrierMgr, n)
	for i := 0; i < n; i++ {
		i := i
		var p *sim.Proc
		p = s.Spawn("proc", func(p *sim.Proc) {
			if i == 1 {
				// Lock 0 is managed (and initially owned) by proc 0: this
				// acquire sends a request and applies the returned grant.
				locks[1].Acquire(0, Exclusive)
				locks[1].Release(0)
			}
			bars[i].Wait(0)
		})
		hooks[i] = &recHooks{t: t, self: i}
		cnt := &core.Stats{}
		locks[i] = NewLockMgr(p, net, n, hooks[i], cnt)
		bars[i] = NewBarrierMgr(p, net, n, hooks[i], cnt)
		lm, bm := locks[i], bars[i]
		net.Attach(p, func(hc *fabric.HandlerCtx, m fabric.Msg) {
			if !lm.Handle(hc, m) && !bm.Handle(hc, m) {
				t.Errorf("unhandled message kind %d", m.Kind)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !hooks[1].appliedGrant {
		t.Error("no lock grant was applied")
	}
	if !hooks[0].absorbed {
		t.Error("the manager absorbed no remote arrival")
	}
	if !hooks[1].appliedDepart {
		t.Error("no remote departure was applied")
	}
}
