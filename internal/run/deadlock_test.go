package run

import (
	"strings"
	"testing"

	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/sim"
)

// nestedLockApp reproduces the deadlock scenario of Section 3.3: in one
// Barnes-Hut phase "different fields of two different bodies are accessed
// together, resulting in a nested access of locks corresponding to the two
// bodies. If only one lock is associated with all fields of a body, then the
// nested locks can result in deadlock." Two processors nest the two body
// locks in opposite orders; the deterministic simulator detects the
// resulting deadlock. The fix the paper adopted — splitting each body's
// fields into two lock sets — is what internal/apps/barnes.go implements.
type nestedLockApp struct {
	base    mem.Addr
	ordered bool // acquire in a global order instead (no deadlock)
}

func (a *nestedLockApp) Name() string               { return "nested-locks" }
func (a *nestedLockApp) Layout(al *mem.Allocator)   { a.base = al.Alloc("bodies", 256, 4) }
func (a *nestedLockApp) Init(im *mem.Image)         {}
func (a *nestedLockApp) Verify(im *mem.Image) error { return nil }

func (a *nestedLockApp) Program(d core.DSM) {
	d.Bind(1, mem.Range{Base: a.base, Len: 64})
	d.Bind(2, mem.Range{Base: a.base + 64, Len: 64})
	first, second := core.LockID(1), core.LockID(2)
	if d.Proc() == 1 && !a.ordered {
		first, second = second, first
	}
	for r := 0; r < 4; r++ {
		d.Acquire(first)
		d.Compute(200 * sim.Microsecond) // widen the window so they collide
		d.Acquire(second)
		d.WriteI32(a.base+mem.Addr(64*int(first-1)), int32(r))
		d.Release(second)
		d.Release(first)
	}
	d.Barrier(0)
	d.StatsEnd()
}

func TestNestedBodyLocksDeadlock(t *testing.T) {
	app := &nestedLockApp{}
	_, err := Run(app, core.Impl{Model: core.EC, Trap: core.Twinning, Collect: core.Diffs}, 2, fabric.DefaultCostModel())
	if err == nil {
		t.Fatal("opposite-order nested acquisition must deadlock")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want a detected deadlock", err)
	}
	// Each processor holds its first lock and waits for the other's.
	for _, want := range []string{"nested-locks/p0(lock 2)", "nested-locks/p1(lock 1)"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("err = %v, want it to name %s", err, want)
		}
	}
}

func TestNestedBodyLocksOrderedIsFine(t *testing.T) {
	app := &nestedLockApp{ordered: true}
	if _, err := Run(app, core.Impl{Model: core.EC, Trap: core.Twinning, Collect: core.Diffs}, 2, fabric.DefaultCostModel()); err != nil {
		t.Fatal(err)
	}
}

// rebindClobberApp regression-tests the acquire-for-rebind path: processor 0
// writes fresh values into a region, then reuses a lock (previously bound to
// that same region and last owned by processor 1 with STALE contents) for a
// new purpose. A plain Acquire would install processor 1's stale data over
// the fresh values; AcquireForRebind must not.
type rebindClobberApp struct {
	base mem.Addr
}

func (a *rebindClobberApp) Name() string               { return "rebind-clobber" }
func (a *rebindClobberApp) Layout(al *mem.Allocator)   { a.base = al.Alloc("data", mem.PageSize, 4) }
func (a *rebindClobberApp) Init(im *mem.Image)         {}
func (a *rebindClobberApp) Verify(im *mem.Image) error { return nil }

func (a *rebindClobberApp) Program(d core.DSM) {
	ec := d.Model() == core.EC
	region := mem.Range{Base: a.base, Len: 256}
	guard := core.LockID(7) // covers the region for the ordinary data path
	slot := core.LockID(9)  // the reused task-slot lock
	d.Bind(guard, region)
	d.Bind(slot, region)

	switch d.Proc() {
	case 1:
		// Write old values through the slot lock, leaving p1 as its owner
		// with (soon to be) stale memory.
		d.Acquire(slot)
		d.WriteI32(a.base, 111)
		d.Release(slot)
		d.Barrier(0)
		d.Barrier(1)
	case 0:
		d.Barrier(0)
		// Fresh values under the guard lock.
		d.Acquire(guard)
		d.WriteI32(a.base, 222)
		// Reuse the slot lock for a different range. Its grant comes from
		// p1 whose copy of the region is stale; the data must not travel.
		if ec {
			d.AcquireForRebind(slot)
			d.Rebind(slot, mem.Range{Base: a.base + 512, Len: 64})
			d.Release(slot)
		}
		if got := d.ReadI32(a.base); got != 222 {
			panic("stale data clobbered the fresh write")
		}
		d.Release(guard)
		d.Barrier(1)
	default:
		d.Barrier(0)
		d.Barrier(1)
	}
	d.StatsEnd()
}

func TestAcquireForRebindDoesNotClobber(t *testing.T) {
	forAllImpls(t, func(t *testing.T, impl core.Impl) {
		app := &rebindClobberApp{}
		if _, err := Run(app, impl, 3, fabric.DefaultCostModel()); err != nil {
			t.Fatal(err)
		}
	})
}
