package ec

import (
	"fmt"
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
	n = New(s.Procs()[0], net, al, 1, impl)
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

// newTestCell runs nprocs EC nodes of one cell, sharing its binding table;
// body(i, n) is processor i's program. It returns the table.
func newTestCell(t *testing.T, nprocs int, impl core.Impl, body func(i int, n *Node)) *Bindings {
	t.Helper()
	s := sim.New()
	net := fabric.New(s, fabric.DefaultCostModel(), nprocs)
	al := mem.NewAllocator()
	al.Alloc("data", 4*mem.PageSize, 4)
	binds := new(Bindings)
	nodes := make([]*Node, nprocs)
	for i := range nodes {
		p := s.Spawn(fmt.Sprintf("p%d", i), func(*sim.Proc) { body(i, nodes[i]) })
		nodes[i] = NewWithImage(p, net, al, nprocs, impl, mem.NewImage(al.Size()), binds)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return binds
}

// wantPanic runs f and checks it panics with a message containing every part.
func wantPanic(t *testing.T, f func(), parts ...string) {
	t.Helper()
	defer func() {
		t.Helper()
		msg := fmt.Sprint(recover())
		for _, part := range parts {
			if !strings.Contains(msg, part) {
				t.Errorf("panic %q does not mention %q", msg, part)
			}
		}
	}()
	f()
}

// TestBindContract: Bind is a static declaration issued identically on
// every processor. The cell records it once, so each node may bind a lock
// once, every node must name the same ranges, a Rebind changes only the
// rebinding node's slot, and a node may use a lock before its own Bind.
func TestBindContract(t *testing.T) {
	impl := core.Impl{Model: core.EC, Trap: core.Twinning, Collect: core.Timestamps}
	a := []mem.Range{{Base: 0, Len: 64}, {Base: 256, Len: 8}}
	t.Run("second Bind on a node", func(t *testing.T) {
		newTestCell(t, 2, impl, func(i int, n *Node) {
			n.Bind(1, a...)
			if i == 1 {
				wantPanic(t, func() { n.Bind(1, a...) }, "lock 1 already bound")
			}
		})
	})
	t.Run("ranges differ across nodes", func(t *testing.T) {
		b := []mem.Range{{Base: 0, Len: 64}, {Base: 256, Len: 16}}
		newTestCell(t, 2, impl, func(i int, n *Node) {
			if i == 0 {
				n.Bind(7, a...)
				return
			}
			n.P.Sleep(sim.Millisecond)
			wantPanic(t, func() { n.Bind(7, b...) }, "lock 7", fmt.Sprint(a), fmt.Sprint(b))
		})
	})
	t.Run("Rebind is local", func(t *testing.T) {
		c := []mem.Range{{Base: 1024, Len: 32}}
		binds := newTestCell(t, 3, impl, func(i int, n *Node) {
			n.Bind(1, a...)
			switch i {
			case 0:
				n.Acquire(1)
				n.Rebind(1, c...)
				n.WriteI32(1024, 42)
				n.Release(1)
			case 1, 2:
				// Processor 1 manages lock 1 and made its slot granting
				// processor 0's acquire, before the Rebind; processor 2
				// makes its slot after it, from the cell's binding.
				n.P.Sleep(10 * sim.Millisecond)
				if b := n.ls(1).b; fmt.Sprint(b.ranges) != fmt.Sprint(a) || b.version != 1 {
					t.Errorf("node %d: bound to %v version %d after another node's Rebind, want %v version 1", i, b.ranges, b.version, a)
				}
				n.P.Sleep(sim.Time(i) * 10 * sim.Millisecond)
				n.Acquire(1)
				if b := n.ls(1).b; fmt.Sprint(b.ranges) != fmt.Sprint(c) || b.version != 2 {
					t.Errorf("node %d: bound to %v version %d after acquiring, want %v version 2", i, b.ranges, b.version, c)
				}
				if got := n.ReadI32(1024); got != 42 {
					t.Errorf("node %d read %d under the rebound lock, want 42", i, got)
				}
				n.Release(1)
			}
		})
		if b := binds.b[1]; fmt.Sprint(b.ranges) != fmt.Sprint(a) || b.version != 1 {
			t.Errorf("the cell's binding became %v version %d, want %v version 1", b.ranges, b.version, a)
		}
	})
	t.Run("used before the local Bind", func(t *testing.T) {
		// Lock 1's manager, and so its first owner, is processor 1: it
		// grants processor 0's acquire before it has bound the lock itself.
		newTestCell(t, 2, impl, func(i int, n *Node) {
			if i == 0 {
				n.Bind(1, a...)
				n.Acquire(1)
				n.WriteI32(0, 42)
				n.Release(1)
				return
			}
			n.P.Sleep(10 * sim.Millisecond)
			if slotOf(n, 1) == nil {
				t.Fatal("processor 1 made no slot for the lock it granted")
			}
			n.Bind(1, a...)
			n.Acquire(1)
			if got := n.ReadI32(0); got != 42 {
				t.Errorf("read %d, want 42", got)
			}
			n.Release(1)
		})
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
