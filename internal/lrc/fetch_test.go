package lrc

import (
	"testing"

	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/sim"
)

// TestFetchRoundTripEveryImpl drives the page-fetch message pair
// (kindFetchReq / kindFetchReply) end to end for each LRC implementation: a
// writer modifies a page under a lock, the reader's acquire invalidates it,
// and the reader's access miss must fetch exactly the written modifications
// through the typed PayloadPageReq/PayloadPageReply messages.
func TestFetchRoundTripEveryImpl(t *testing.T) {
	for _, impl := range core.ModelImpls(core.LRC) {
		impl := impl
		t.Run(impl.String(), func(t *testing.T) {
			s := sim.New()
			net := fabric.New(s, fabric.DefaultCostModel(), 2)
			al := mem.NewAllocator()
			base := al.Alloc("data", mem.PageSize, 4)
			nodes := make([]*Node, 2)
			var got int32
			// Lock 0 is managed by proc 0, the writer, so the grant ordering
			// is deterministic: the reader's acquire always reaches the
			// writer after its release.
			p0 := s.Spawn("writer", func(p *sim.Proc) {
				d := nodes[0]
				d.Acquire(0)
				d.WriteI32(base+8, 4242)
				d.Release(0)
				d.Barrier(1)
			})
			p1 := s.Spawn("reader", func(p *sim.Proc) {
				d := nodes[1]
				p.Sleep(sim.Millisecond) // let the writer win the first acquire
				d.Acquire(0)
				got = d.ReadI32(base + 8) // invalid page: access miss + fetch
				d.Release(0)
				d.Barrier(1)
			})
			nodes[0] = New(p0, net, al, 2, impl)
			nodes[1] = New(p1, net, al, 2, impl)
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if got != 4242 {
				t.Errorf("fetched value = %d, want 4242", got)
			}
			if misses := nodes[1].Tally.AccessMisses; misses != 1 {
				t.Errorf("reader access misses = %d, want 1", misses)
			}
			// The miss costs one fetch request; the responder pays the reply.
			if msgs := net.ProcStats(1).Msgs; msgs < 3 { // acquire + arrive + fetch
				t.Errorf("reader sent %d messages, want at least 3", msgs)
			}
		})
	}
}

// TestFetchServesOnlyNoticedIntervals: a fetch carries the responder's
// modifications up to the last interval the requester holds a write notice
// for, and none of a later one. The writer modifies one page in two
// intervals, the second after the reader's acquire brought it the first's
// notice. The reader's miss must install the first modification and leave
// the second's word as it was: that word reaching the reader's image early
// is invisible to a race-free program's reads, so only the image shows it.
func TestFetchServesOnlyNoticedIntervals(t *testing.T) {
	for _, impl := range core.ModelImpls(core.LRC) {
		t.Run(impl.String(), func(t *testing.T) {
			s := sim.New()
			net := fabric.New(s, fabric.DefaultCostModel(), 2)
			al := mem.NewAllocator()
			base := al.Alloc("data", mem.PageSize, 4)
			x, y := base+8, base+64 // one page
			nodes := make([]*Node, 2)
			var got int32
			p0 := s.Spawn("writer", func(p *sim.Proc) {
				d := nodes[0]
				d.Acquire(0)
				d.WriteI32(x, 4242)
				d.Release(0)                 // closes interval 1
				p.Sleep(2 * sim.Millisecond) // past the reader's acquire
				d.Acquire(1)
				d.WriteI32(y, 7)
				d.Release(1) // closes interval 2, not yet noticed by the reader
				d.Barrier(1)
			})
			p1 := s.Spawn("reader", func(p *sim.Proc) {
				d := nodes[1]
				p.Sleep(sim.Millisecond)
				d.Acquire(0) // the notice of interval 1
				p.Sleep(5 * sim.Millisecond)
				got = d.ReadI32(x) // the miss, after interval 2 closed
				if early := d.Im.ReadI32(y); early != 0 {
					t.Errorf("the miss installed %d from the writer's unnoticed interval, want 0", early)
				}
				d.Release(0)
				d.Barrier(1)
			})
			nodes[0] = New(p0, net, al, 2, impl)
			nodes[1] = New(p1, net, al, 2, impl)
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if got != 4242 {
				t.Errorf("fetched value = %d, want 4242", got)
			}
			if misses := nodes[1].Tally.AccessMisses; misses != 1 {
				t.Errorf("reader access misses = %d, want 1", misses)
			}
		})
	}
}
