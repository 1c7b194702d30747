package lrc

import (
	"testing"

	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/nodebase"
	"ecvslrc/internal/sim"
	"ecvslrc/internal/vm"
)

func newTestNode(t *testing.T, impl core.Impl, body func(n *Node)) {
	t.Helper()
	s := sim.New()
	net := fabric.New(s, fabric.DefaultCostModel(), 1)
	al := mem.NewAllocator()
	al.Alloc("data", 4*mem.PageSize, 4)
	var n *Node
	p := s.Spawn("p0", func(p *sim.Proc) { body(n) })
	n = New(p, net, al, 1, impl)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// holdAll gives n a fresh log of history's records, every one held:
// history[p] must be writer p's records indexed 1, 2, ... in order.
func (n *Node) holdAll(history [][]*interval) {
	n.hist = NewHistory(len(history))
	n.setWriters(len(history))
	for p, recs := range history {
		for _, r := range recs {
			n.hist.add(r)
		}
		n.held[p] = n.hist.top(p)
	}
}

func diffImpl() core.Impl {
	return core.Impl{Model: core.LRC, Trap: core.Twinning, Collect: core.Diffs}
}

func TestNewRejectsBadImpl(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for EC impl passed to lrc.New")
		}
	}()
	s := sim.New()
	net := fabric.New(s, fabric.DefaultCostModel(), 1)
	al := mem.NewAllocator()
	al.Alloc("x", 64, 4)
	p := s.Spawn("p", func(p *sim.Proc) {})
	New(p, net, al, 1, core.Impl{Model: core.EC, Trap: core.Twinning, Collect: core.Diffs})
}

func TestTwinningStartsWriteProtected(t *testing.T) {
	newTestNode(t, diffImpl(), func(n *Node) {
		for pg := 0; pg < n.MMU.Pages(); pg++ {
			if n.MMU.Prot(pg) != vm.ReadOnly {
				t.Fatalf("page %d prot = %v, want ro", pg, n.MMU.Prot(pg))
			}
		}
		n.WriteI32(0, 1) // first write must twin via a fault
		if n.MMU.Faults() != 1 || !n.Twins.Has(0) {
			t.Errorf("faults=%d twinned=%v", n.MMU.Faults(), n.Twins.Has(0))
		}
	})
}

func TestCompilerInstrNoProtection(t *testing.T) {
	newTestNode(t, core.Impl{Model: core.LRC, Trap: core.CompilerInstr, Collect: core.Timestamps}, func(n *Node) {
		n.WriteI32(0, 1)
		if n.MMU.Faults() != 0 {
			t.Errorf("faults = %d, want 0 under instrumentation", n.MMU.Faults())
		}
		if got := n.DB.DirtyPages(); len(got) != 1 || got[0] != 0 {
			t.Errorf("dirty pages = %v", got)
		}
	})
}

func TestCloseIntervalRecordsNotices(t *testing.T) {
	newTestNode(t, diffImpl(), func(n *Node) {
		n.WriteI32(0, 1)
		n.WriteI32(2*mem.PageSize, 2)
		work := n.closeInterval()
		if work <= 0 {
			t.Error("closing a dirty interval should cost time")
		}
		recs := n.recordsAfter(0, 0)
		if len(recs) != 1 || recs[0].idx != 1 {
			t.Fatalf("records = %+v", recs)
		}
		if len(recs[0].pages) != 2 {
			t.Errorf("pages = %v, want 2 pages", recs[0].pages)
		}
		if n.vec[0] != 1 || n.cur != 2 {
			t.Errorf("vec=%v cur=%d", n.vec, n.cur)
		}
		// Empty close: no new record.
		n.closeInterval()
		if len(n.recordsAfter(0, 0)) != 1 {
			t.Error("empty interval must not produce a record")
		}
	})
}

func TestLazyDiffCreatedAtHarvest(t *testing.T) {
	newTestNode(t, diffImpl(), func(n *Node) {
		n.WriteI32(0, 42)
		n.closeInterval()
		if len(n.meta[0].diffs) != 0 {
			t.Error("diff must not exist before harvest (lazy diffing)")
		}
		n.harvestPage(0)
		ds := n.meta[0].diffs
		if len(ds) != 1 || ds[0].Ival != 1 || ds[0].Diff.Words() != 1 {
			t.Errorf("diffs = %+v", ds)
		}
		if n.Twins.Has(0) {
			t.Error("twin must be dropped after harvest")
		}
	})
}

func TestRewriteForcesHarvestOfClosedInterval(t *testing.T) {
	newTestNode(t, diffImpl(), func(n *Node) {
		n.WriteI32(0, 1)
		n.closeInterval()
		n.WriteI32(4, 2) // fault: must harvest interval 1 first, then retwin
		if len(n.meta[0].diffs) != 1 {
			t.Fatalf("diffs = %+v", n.meta[0].diffs)
		}
		d := n.meta[0].diffs[0].Diff
		im := mem.NewImage(mem.PageSize)
		d.Apply(im)
		if d.Words() != 1 || im.ReadI32(0) != 1 || im.ReadI32(4) != 0 {
			t.Errorf("interval-1 diff = %+v (must contain only the first write)", d)
		}
	})
}

func TestIntervalWireSize(t *testing.T) {
	iv := newInterval(1, 3, make([]int32, 8), []int{1, 2, 3})
	if iv.wire != 8+32+12 {
		t.Errorf("wire = %d", iv.wire)
	}
}

func TestIntervalBefore(t *testing.T) {
	newTestNode(t, diffImpl(), func(n *Node) {
		// Fake a two-processor history on a one-node test rig.
		n.vec = make([]int32, 2)
		cv := closedVecs{}
		n.holdAll([][]*interval{nil, {
			cv.close(1, 1, []int32{0, 0}, []int{0}),
			cv.close(1, 2, []int32{5, 1}, []int{0}),
		}})
		if !n.intervalBefore(cv, 1, 1, 1, 2) {
			t.Error("same-processor intervals are ordered by index")
		}
		if !n.intervalBefore(cv, 0, 5, 1, 2) {
			t.Error("(0,5) precedes (1,2): (1,2) closed with vector [5 1], which covers it")
		}
		if n.intervalBefore(cv, 0, 6, 1, 2) {
			t.Error("(0,6) is not covered by rec(1,2)")
		}
		if n.intervalBefore(cv, 0, 1, 1, 99) {
			t.Error("unknown record: incomparable")
		}
	})
}

func TestCollectNoticesHonoursPeerVector(t *testing.T) {
	newTestNode(t, diffImpl(), func(n *Node) {
		n.WriteI32(0, 1)
		n.closeInterval()
		n.WriteI32(0, 2)
		n.closeInterval()
		recs, size := n.collectNotices([]int32{1})
		if len(recs) != 1 || recs[0].idx != 2 {
			t.Errorf("records = %+v", recs)
		}
		if size != recs[0].wire {
			t.Errorf("size = %d", size)
		}
		recs, _ = n.collectNotices([]int32{2})
		if len(recs) != 0 {
			t.Errorf("up-to-date peer got %+v", recs)
		}
	})
}

// TestCarvedWindowsDoNotAlias grows five pages' writer windows in turn
// from one small chunk: their first windows sit side by side, and the fourth
// page's starts a new chunk. A carved slice's capacity is its length, so a
// page's second window must move it out rather than overwrite its
// neighbour's first: after every insert, each page holds exactly the windows
// inserted into it, sorted by processor, with the values written through the
// returned pointers.
func TestCarvedWindowsDoNotAlias(t *testing.T) {
	room := nodebase.Chunk[writerWindow]{Size: 3}
	var pages [5]pageMeta
	var want [len(pages)]map[int32]int32
	for k := range want {
		want[k] = map[int32]int32{}
	}
	// Each page's writers arrive out of order, so inserts land in the middle.
	for i, q := range []int32{7, 3, 11, 1, 9, 5} {
		for k := range pages {
			proc := q + int32(k)
			w := pages[k].window(proc, &room)
			w.noticed = proc*10 + int32(k)
			want[k][proc] = w.noticed
			for j := range pages {
				ws := pages[j].writers
				if len(ws) != len(want[j]) {
					t.Fatalf("insert %d into page %d: page %d holds %d windows, want %d", i, k, j, len(ws), len(want[j]))
				}
				for x, got := range ws {
					if x > 0 && ws[x-1].proc >= got.proc {
						t.Fatalf("insert %d into page %d: page %d's windows are not sorted: %v", i, k, j, ws)
					}
					if n, ok := want[j][got.proc]; !ok || got.noticed != n {
						t.Fatalf("insert %d into page %d: page %d holds window %+v, want noticed %d (present %v)", i, k, j, got, n, ok)
					}
				}
			}
		}
	}
}
