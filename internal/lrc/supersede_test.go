package lrc

import (
	"testing"

	"ecvslrc/internal/fabric"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/sim"
)

// TestSupersededDiffsDropBytes: a writer rewrites word x of one page in four
// barrier epochs, and word z only in the first. Each diff harvested at or
// below the writer's watermark drops the bytes of the earlier diffs it
// covers, so the three that only carry x go and the first, which alone
// carries z, keeps its bytes. A reader that reads the page only at the end
// fetches all four and must still see both words' last values.
func TestSupersededDiffsDropBytes(t *testing.T) {
	const epochs = 4
	s := sim.New()
	net := fabric.New(s, fabric.DefaultCostModel(), 2)
	al := mem.NewAllocator()
	base := al.Alloc("data", mem.PageSize, 4)
	x, z := base+8, base+64
	nodes := make([]*Node, 2)
	var gotX, gotZ int32
	p0 := s.Spawn("writer", func(p *sim.Proc) {
		d := nodes[0]
		for e := int32(1); e <= epochs; e++ {
			d.WriteI32(x, e) // from the second epoch on, harvests epoch e-1
			if e == 1 {
				d.WriteI32(z, 99)
			}
			d.Barrier(0)
		}
		d.Barrier(0) // the watermark reaches the last epoch
		d.Barrier(1)
	})
	p1 := s.Spawn("reader", func(p *sim.Proc) {
		d := nodes[1]
		for range epochs + 1 {
			d.Barrier(0)
		}
		gotX, gotZ = d.ReadI32(x), d.ReadI32(z) // one miss: window (0, 4]
		d.Barrier(1)
	})
	nodes[0] = New(p0, net, al, 2, diffImpl())
	nodes[1] = New(p1, net, al, 2, diffImpl())
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if gotX != epochs || gotZ != 99 {
		t.Errorf("reader read x=%d z=%d, want %d and 99", gotX, gotZ, epochs)
	}
	ds := nodes[0].meta[mem.PageOf(x)].diffs
	if len(ds) != epochs {
		t.Fatalf("writer stores %d diffs, want %d", len(ds), epochs)
	}
	for i, want := range []struct {
		cover   int32
		dropped bool
	}{{0, false}, {3, true}, {4, true}, {0, false}} {
		if ds[i].cover != want.cover || ds[i].Diff.Dropped() != want.dropped {
			t.Errorf("diff %d: cover %d dropped %v, want cover %d dropped %v",
				ds[i].Ival, ds[i].cover, ds[i].Diff.Dropped(), want.cover, want.dropped)
		}
		if ds[i].Diff.Words() == 0 {
			t.Errorf("diff %d lost its word count", ds[i].Ival)
		}
	}
}

// TestFetchWindowEndingBeforeCover: the writer rewrites x under a second
// lock after the reader's acquire brought it the notice of the first write,
// and then rewrites it again, which harvests the second write's diff. That
// diff covers the first, but the reader holds no notice of it: its miss
// fetches the window (0, k] alone and must read the first write's value. The
// watermark forbids the drop here, since no barrier has passed; without it
// the reader's miss would install nothing for interval k.
func TestFetchWindowEndingBeforeCover(t *testing.T) {
	s := sim.New()
	net := fabric.New(s, fabric.DefaultCostModel(), 2)
	al := mem.NewAllocator()
	base := al.Alloc("data", mem.PageSize, 4)
	x := base + 8
	nodes := make([]*Node, 2)
	var got, after int32
	p0 := s.Spawn("writer", func(p *sim.Proc) {
		d := nodes[0]
		d.Acquire(0)
		d.WriteI32(x, 1)
		d.Release(0)
		p.Sleep(2 * sim.Millisecond) // past the reader's acquire, which closes interval k
		d.Acquire(1)
		d.WriteI32(x, 2) // harvests k
		d.Release(1)
		d.Acquire(1)     // closes interval k+1
		d.WriteI32(x, 3) // harvests k+1, which covers k
		d.Release(1)
		d.Barrier(1)
	})
	p1 := s.Spawn("reader", func(p *sim.Proc) {
		d := nodes[1]
		p.Sleep(sim.Millisecond)
		d.Acquire(0) // the notice of interval k
		p.Sleep(5 * sim.Millisecond)
		got = d.ReadI32(x) // the miss, after k+1 was harvested
		d.Release(0)
		d.Barrier(1)
		after = d.ReadI32(x)
	})
	nodes[0] = New(p0, net, al, 2, diffImpl())
	nodes[1] = New(p1, net, al, 2, diffImpl())
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("reader's window (0, k] read x=%d, want the first write's 1", got)
	}
	if after != 3 {
		t.Errorf("after the barrier the reader read x=%d, want 3", after)
	}
	if misses := nodes[1].Extra.AccessMisses; misses != 2 {
		t.Errorf("reader access misses = %d, want 2", misses)
	}
}

// TestDroppedDiffPastWindowPanics: the guard of the rule. A fetch window
// that holds a dropped diff but ends before the diff's cover would install
// nothing for it, so the miss panics instead of reading a stale value.
func TestDroppedDiffPastWindowPanics(t *testing.T) {
	s := sim.New()
	net := fabric.New(s, fabric.DefaultCostModel(), 2)
	al := mem.NewAllocator()
	base := al.Alloc("data", mem.PageSize, 4)
	nodes := make([]*Node, 2)
	var recovered any
	p0 := s.Spawn("writer", func(p *sim.Proc) {
		d := nodes[0]
		d.Acquire(0)
		d.WriteI32(base, 1)
		d.Release(0)
		p.Sleep(2 * sim.Millisecond)
		d.WriteI32(base, 2) // harvests interval 1
		ds := d.meta[mem.PageOf(base)].diffs
		ds[0].Diff, ds[0].cover = ds[0].Diff.Drop(), 2 // as if interval 2 covered it
		d.Barrier(1)
	})
	p1 := s.Spawn("reader", func(p *sim.Proc) {
		d := nodes[1]
		p.Sleep(sim.Millisecond)
		d.Acquire(0) // the notice of interval 1
		p.Sleep(5 * sim.Millisecond)
		func() {
			defer func() { recovered = recover() }()
			d.ReadI32(base)
		}()
		d.Release(0)
		d.Barrier(1)
	})
	nodes[0] = New(p0, net, al, 2, diffImpl())
	nodes[1] = New(p1, net, al, 2, diffImpl())
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if recovered == nil {
		t.Error("a window (0, 1] holding a diff dropped for interval 2 did not panic")
	}
}
