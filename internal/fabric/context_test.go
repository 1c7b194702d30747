package fabric

import (
	"reflect"
	"slices"
	"testing"

	"ecvslrc/internal/sim"
	"ecvslrc/internal/trace"
)

// TestExecutionContextsAgree drives one protocol action — a one-way Send, a
// Forward and a Reply, back to back — through a handler's context and through
// the processor's own (Network.Proc), starting at the same virtual instant.
// The two differ only in who is running: the traffic counters, every trace
// record of the run and the replies must be equal, and the program must have
// slept exactly as long as the handler was busy.
func TestExecutionContextsAgree(t *testing.T) {
	type outcome struct {
		stats   []Stats
		recs    []trace.Rec
		spent   sim.Time // virtual time the action took in its context
		replies [2]Msg
	}
	const actor, owner = 1, 2
	run := func(inProc bool) outcome {
		var out outcome
		cm := flatCost()
		cm.SendPerByte = 10 * sim.Nanosecond
		s := sim.New()
		n := New(s, cm, 4)
		tr := trace.New(4)
		n.SetTracer(tr)

		var held []Msg // the two requests, in arrival order
		action := func(hc *HandlerCtx) {
			start := hc.Now()
			hc.Send(owner, 5, 16, Payload{A: 1})
			hc.Forward(held[1], owner, 4)
			hc.Reply(held[0], 6, 24, Payload{B: 2})
			out.spent = hc.Now() - start
		}
		procs := make([]*sim.Proc, 4)
		procs[0] = s.Spawn("first", func(p *sim.Proc) {
			out.replies[0] = n.Call(p, actor, 1, 8, Payload{})
		})
		procs[actor] = s.Spawn("actor", func(p *sim.Proc) {
			if inProc {
				p.Park(sim.Wait{})
				action(n.Proc(p))
			}
		})
		procs[owner] = s.Spawn("owner", func(p *sim.Proc) {})
		procs[3] = s.Spawn("second", func(p *sim.Proc) {
			p.Sleep(sim.Millisecond)
			out.replies[1] = n.Call(p, actor, 2, 8, Payload{})
		})
		n.Attach(procs[0], func(*HandlerCtx, Msg) {})
		n.Attach(procs[3], func(*HandlerCtx, Msg) {})
		n.Attach(procs[owner], func(hc *HandlerCtx, m Msg) {
			if m.Kind == 2 { // the forwarded request; the one-way note needs no answer
				hc.Reply(m, 7, 0, Payload{C: 3})
			}
		})
		n.Attach(procs[actor], func(hc *HandlerCtx, m Msg) {
			if held = append(held, m); len(held) < 2 {
				return
			}
			// The program resumes once the handler's fixed cost is consumed:
			// the instant this handler context reads now.
			if inProc {
				procs[actor].UnparkAt(hc.Now())
			} else {
				action(hc)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		for i := range procs {
			out.stats = append(out.stats, n.ProcStats(i))
		}
		out.recs = tr.Merged()
		return out
	}

	handler, proc := run(false), run(true)
	if !slices.Equal(handler.stats, proc.stats) {
		t.Errorf("traffic counters differ:\n  handler: %+v\n  program: %+v", handler.stats, proc.stats)
	}
	if !slices.Equal(handler.recs, proc.recs) {
		t.Errorf("trace records differ:\n  handler: %+v\n  program: %+v", handler.recs, proc.recs)
	}
	if !reflect.DeepEqual(handler.replies, proc.replies) {
		t.Errorf("replies differ:\n  handler: %+v\n  program: %+v", handler.replies, proc.replies)
	}
	if got := handler.stats[actor]; got.Msgs != 3 {
		t.Errorf("the actor sent %d messages, want 3 (note, forward, reply)", got.Msgs)
	}
	if r := handler.replies; r[0].From != actor || r[0].Payload.B != 2 || r[1].From != owner || r[1].Payload.C != 3 {
		t.Errorf("replies = %+v, want the actor's to the first request and the owner's to the forwarded one", r)
	}
	if handler.spent == 0 || proc.spent != handler.spent {
		t.Errorf("the program slept %v, the handler was busy %v: want equal and non-zero", proc.spent, handler.spent)
	}
}

// TestBadSendsPanicInBothContexts: a send to oneself, to a processor that
// does not exist, and a reply to a one-way message are protocol bugs whoever
// commits them, and none of them touches the counters before it is caught.
func TestBadSendsPanicInBothContexts(t *testing.T) {
	bad := []struct {
		name string
		do   func(hc *HandlerCtx, oneWay Msg)
	}{
		{"self-send", func(hc *HandlerCtx, _ Msg) { hc.Send(hc.self, 1, 0, Payload{}) }},
		{"forward to self", func(hc *HandlerCtx, m Msg) { hc.Forward(m, hc.self, 0) }},
		{"destination past the last processor", func(hc *HandlerCtx, _ Msg) { hc.Send(2, 1, 0, Payload{}) }},
		{"negative destination", func(hc *HandlerCtx, m Msg) { hc.Forward(m, -1, 0) }},
		{"reply to a one-way message", func(hc *HandlerCtx, m Msg) { hc.Reply(m, 1, 0, Payload{}) }},
	}
	s := sim.New()
	n := New(s, flatCost(), 2)
	try := func(where string, hc *HandlerCtx, oneWay Msg) {
		for _, b := range bad {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s from %s did not panic", b.name, where)
					}
				}()
				b.do(hc, oneWay)
			}()
		}
	}
	p0 := s.Spawn("p0", func(p *sim.Proc) {
		try("the program", n.Proc(p), Msg{From: 1, To: 0, Kind: 1})
		n.Send(p, 1, 1, 0, Payload{})
	})
	p1 := s.Spawn("p1", func(*sim.Proc) {})
	n.Attach(p0, func(*HandlerCtx, Msg) {})
	n.Attach(p1, func(hc *HandlerCtx, m Msg) { try("a handler", hc, m) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := n.Total(); got.Msgs != 1 {
		t.Errorf("%d messages counted, want only the one good send", got.Msgs)
	}
}
