package ec

import (
	"strings"
	"testing"

	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/sim"
	"ecvslrc/internal/wcollect"
)

// newTestNode builds a single EC node inside a throwaway simulation.
func newTestNode(t *testing.T, impl core.Impl, body func(n *Node)) {
	t.Helper()
	s := sim.New()
	net := fabric.New(s, fabric.DefaultCostModel(), 1)
	al := mem.NewAllocator()
	al.Alloc("data", 4*mem.PageSize, 4)
	var n *Node
	s.Spawn("p0", func(p *sim.Proc) { body(n) })
	n = New(s.Procs()[0].Sim().Procs()[0], net, al, 1, impl)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsBadImpl(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for LRC impl passed to ec.New")
		}
	}()
	s := sim.New()
	net := fabric.New(s, fabric.DefaultCostModel(), 1)
	al := mem.NewAllocator()
	al.Alloc("x", 64, 4)
	p := s.Spawn("p", func(p *sim.Proc) {})
	New(p, net, al, 1, core.Impl{Model: core.LRC, Trap: core.Twinning, Collect: core.Diffs})
}

func TestDoubleBindPanics(t *testing.T) {
	newTestNode(t, core.Impl{Model: core.EC, Trap: core.Twinning, Collect: core.Diffs}, func(n *Node) {
		n.Bind(1, mem.Range{Base: 0, Len: 64})
		defer func() {
			if r := recover(); r == nil || !strings.Contains(r.(string), "already bound") {
				t.Errorf("recover = %v", r)
			}
		}()
		n.Bind(1, mem.Range{Base: 64, Len: 64})
	})
}

func TestRebindRequiresExclusiveHold(t *testing.T) {
	newTestNode(t, core.Impl{Model: core.EC, Trap: core.Twinning, Collect: core.Diffs}, func(n *Node) {
		n.Bind(1, mem.Range{Base: 0, Len: 64})
		defer func() {
			if recover() == nil {
				t.Error("want panic for Rebind without the lock held")
			}
		}()
		n.Rebind(1, mem.Range{Base: 64, Len: 64})
	})
}

func TestAccessToUnboundLockPanics(t *testing.T) {
	newTestNode(t, core.Impl{Model: core.EC, Trap: core.Twinning, Collect: core.Diffs}, func(n *Node) {
		defer func() {
			if recover() == nil {
				t.Error("want panic for acquiring an unbound lock")
			}
		}()
		n.Acquire(99)
	})
}

func TestLocalEpochsAdvanceIncarnation(t *testing.T) {
	newTestNode(t, core.Impl{Model: core.EC, Trap: core.Twinning, Collect: core.Timestamps}, func(n *Node) {
		n.Bind(1, mem.Range{Base: 0, Len: 64})
		for k := 0; k < 3; k++ {
			n.Acquire(1)
			n.WriteI32(0, int32(k))
			n.Release(1)
		}
		if n.ls(1).inc != 3 {
			t.Errorf("inc = %d, want 3 (one per local write epoch)", n.ls(1).inc)
		}
	})
}

func TestPruneDiffs(t *testing.T) {
	newTestNode(t, core.Impl{Model: core.EC, Trap: core.Twinning, Collect: core.Diffs}, func(n *Node) {
		n.Bind(1, mem.Range{Base: 0, Len: 64})
		n.ls(1).diffs = []taggedDiff{{Tag: 1}, {Tag: 2}, {Tag: 3}}
		// Incomplete gossip: no pruning.
		n.pruneDiffs(n.ls(1))
		if len(n.ls(1).diffs) != 3 {
			t.Fatalf("pruned without full gossip: %d", len(n.ls(1).diffs))
		}
		n.known(n.ls(1))[0] = 2
		n.pruneDiffs(n.ls(1))
		if len(n.ls(1).diffs) != 1 || n.ls(1).diffs[0].Tag != 3 {
			t.Errorf("diffs after prune = %+v", n.ls(1).diffs)
		}
	})
}

func TestBindingSmallLargeBoundary(t *testing.T) {
	var b binding
	b.setRanges([]mem.Range{{Base: 0, Len: mem.PageSize - 1}})
	if !b.small {
		t.Error("just under a page should be small")
	}
	b.setRanges([]mem.Range{{Base: 0, Len: mem.PageSize}})
	if b.small {
		t.Error("a full page should be large")
	}
	b.setRanges([]mem.Range{{Base: 0, Len: 3000}, {Base: 8192, Len: 3000}})
	if b.small {
		t.Error("multi-range totals above a page should be large")
	}
	if b.words != 1500 {
		t.Errorf("words = %d", b.words)
	}
}

func TestGrantPayloadSelectsByIncarnation(t *testing.T) {
	newTestNode(t, core.Impl{Model: core.EC, Trap: core.Twinning, Collect: core.Timestamps}, func(n *Node) {
		n.Bind(1, mem.Range{Base: 0, Len: 64})
		n.Acquire(1)
		n.WriteI32(0, 7)
		n.Release(1)
		h := (*lockHooks)(n)
		payload, _, _ := h.MakeLockGrant(1, 0, fabric.Payload{C: 0, D: 1}, 0)
		g := payload.Body.(*grantBody)
		if len(g.Stamped.Runs) == 0 {
			t.Error("requester at inc 0 should receive the epoch-1 write")
		}
		payload2, _, _ := h.MakeLockGrant(1, 0, fabric.Payload{C: 1, D: 1}, 0)
		g2 := payload2.Body.(*grantBody)
		if len(g2.Stamped.Runs) != 0 {
			t.Error("requester at inc 1 already has everything")
		}
		if payload.C != 1 {
			t.Errorf("owner inc = %d", payload.C)
		}
	})
}

func TestRebindForcesFullSend(t *testing.T) {
	newTestNode(t, core.Impl{Model: core.EC, Trap: core.Twinning, Collect: core.Diffs}, func(n *Node) {
		n.Bind(1, mem.Range{Base: 0, Len: 64})
		n.Acquire(1)
		n.Rebind(1, mem.Range{Base: 128, Len: 64})
		n.WriteI32(128, 9)
		n.Release(1)
		h := (*lockHooks)(n)
		payload, size, _ := h.MakeLockGrant(1, 0, fabric.Payload{C: 0, D: 1}, 0)
		g := payload.Body.(*grantBody)
		if !g.full || g.Ranges == nil {
			t.Error("stale binding version must trigger a conservative full send")
		}
		if size < 64 {
			t.Errorf("full send size = %d, want >= bound bytes", size)
		}
		if _, n2 := wcollect.ApplyRuns(mem.NewImage(mem.PageSize), g.Full), 0; n2 != 0 {
			_ = n2
		}
	})
}
