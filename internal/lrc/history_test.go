package lrc

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/sim"
)

// TestHistoryShared runs 8 processors over one log, with migratory writes
// under locks, barriers and reads that drain every node's fetch windows, so
// the collector prunes, and a last round whose notices stay pending. Every
// node holding record (q, idx) must hold the log's one pointer; the log must
// hold nothing below the lowest floor of any node; each node's held range
// must end at its vector; and each node's running NoticeHistoryBytes must
// equal a brute-force sum over what it holds.
func TestHistoryShared(t *testing.T) {
	for _, fanIn := range []int{0, 4} {
		t.Run(fmt.Sprintf("fanin=%d", fanIn), func(t *testing.T) { historyShared(t, fanIn) })
	}
}

func historyShared(t *testing.T, fanIn int) {
	const nprocs, pages, rounds = 8, 4, 6
	s := sim.New()
	net := fabric.New(s, fabric.DefaultCostModel(), nprocs)
	al := mem.NewAllocator()
	base := al.Alloc("data", pages*mem.PageSize, 4)
	hist := NewHistory(nprocs)
	nodes := make([]*Node, nprocs)
	for i := range nodes {
		i := i
		p := s.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			n := nodes[i]
			for r := 0; r < rounds; r++ {
				l := core.LockID(r % 2)
				n.Acquire(l)
				a := base + mem.Addr(((i+r)%pages)*mem.PageSize+i*mem.WordSize)
				n.WriteI32(a, n.ReadI32(a)+int32(r+1))
				n.Release(l)
				n.Barrier(0)
				if r == rounds-1 {
					break // leave the last round's notices pending: they pin records
				}
				for pg := 0; pg < pages; pg++ {
					n.ReadI32(base + mem.Addr(pg*mem.PageSize))
				}
				n.Barrier(1)
			}
		})
		nodes[i] = NewWithImage(p, net, al, nprocs, diffImpl(), mem.NewImage(al.Size()), hist)
		if fanIn > 0 {
			nodes[i].SetBarrierFanIn(fanIn)
		}
	}
	gc := NewGC(nodes)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	rep := gc.Report()
	if rep.Collections == 0 || rep.RecordsPruned == 0 || rep.Violations != 0 {
		t.Fatalf("gc report %+v: want passes that prune and no violations", rep)
	}

	shared, trimmed := 0, false
	for q := 0; q < nprocs; q++ {
		low := gcMaxIdx
		for _, n := range nodes {
			low = min(low, n.floor[q])
		}
		if b := hist.logs[q].base; b != low {
			t.Errorf("writer %d: log trimmed at %d, lowest floor is %d", q, b, low)
		}
		trimmed = trimmed || low > 0
		for idx := hist.logs[q].base + 1; idx <= hist.top(q); idx++ {
			holders := 0
			for y, n := range nodes {
				if r := n.record(q, idx); r != nil {
					holders++
					if r != hist.at(q, idx) || r.proc != q || r.idx != idx {
						t.Fatalf("node %d: record (%d,%d) is not the log's", y, q, idx)
					}
				}
			}
			if holders > 1 {
				shared++
			}
		}
	}
	if shared == 0 || !trimmed {
		t.Errorf("%d records held by several nodes, trimmed=%v: the run exercises too little", shared, trimmed)
	}

	// Every notice body the run's grants and barriers carried went back to
	// the node that built it, emptied, and once: a body listed twice would
	// ride two messages at once, and one that kept its records would pin
	// them past their pruning.
	recycled := map[*noticeBody]bool{}
	for y, n := range nodes {
		for _, b := range n.freeNotices {
			if b.owner != n || b.records != nil || b.minVec != nil || recycled[b] {
				t.Errorf("node %d: free notice body %p: owner %p, %d records, minVec %v, listed before %v",
					y, b, b.owner, len(b.records), b.minVec, recycled[b])
			}
			recycled[b] = true
		}
	}
	if len(recycled) == 0 {
		t.Error("no notice body came back for reuse")
	}

	for y, n := range nodes {
		var want int64
		for q := 0; q < nprocs; q++ {
			if n.held[q] != n.vec[q] {
				t.Errorf("node %d: holds writer %d up to %d, vector says %d", y, q, n.held[q], n.vec[q])
			}
			for _, r := range n.recordsAfter(q, 0) {
				want += int64(r.wire)
			}
		}
		for _, pm := range n.meta {
			if pm != nil {
				for _, idf := range pm.diffs {
					want += int64(idf.Diff.WireSize())
				}
			}
		}
		if got := n.NoticeHistoryBytes(); got != want {
			t.Errorf("node %d: NoticeHistoryBytes = %d, brute force %d", y, got, want)
		}
	}
}

// TestAbsorbRejectsGap: a writer's records arrive in index order, so a
// record past the next one the node can hold is a protocol bug. absorb must
// panic, naming the processor, the writer and both indices.
func TestAbsorbRejectsGap(t *testing.T) {
	newTestNode(t, diffImpl(), func(n *Node) {
		n.vec = make([]int32, 4)
		n.holdAll(make([][]*interval, 4))
		rec := func(idx int32) *interval { return newInterval(2, idx, make([]int32, 4), []int{1}) }
		n.absorb([]*interval{rec(1)}, nil)
		defer func() {
			msg := fmt.Sprint(recover())
			for _, want := range []string{"proc 0", "writer 2", "holds up to 1", "received 3"} {
				if !strings.Contains(msg, want) {
					t.Errorf("gap panic %q does not name %q", msg, want)
				}
			}
		}()
		n.absorb([]*interval{rec(3)}, nil)
	})
}

// TestAbsorbCountsPrunedReturn: a record at or below the node's floor was
// collected; if it ever came back, absorb must count a violation and leave
// the held range alone.
func TestAbsorbCountsPrunedReturn(t *testing.T) {
	newTestNode(t, diffImpl(), func(n *Node) {
		n.vec = make([]int32, 2)
		var recs []*interval
		for idx := int32(1); idx <= 3; idx++ {
			recs = append(recs, newInterval(1, idx, make([]int32, 2), []int{1}))
		}
		n.holdAll([][]*interval{nil, recs})
		n.gc = &GC{}
		n.floor[1] = 2
		n.absorb(recs[:2], nil)
		if v := n.gc.report.Violations; v != 2 || n.held[1] != 3 {
			t.Errorf("violations = %d, held = %d; want 2 and 3", v, n.held[1])
		}
	})
}

// TestAbsorbHeldLogAllocs is the strict allocation guard of notice
// absorption over a shared log: once a page's writer window exists,
// absorbing an in-order batch of records the log already holds only moves
// the node's held index — zero heap allocations.
func TestAbsorbHeldLogAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const nprocs, batches, per = 3, 16, 4
	s := sim.New()
	net := fabric.New(s, fabric.DefaultCostModel(), nprocs)
	al := mem.NewAllocator()
	al.Alloc("data", 2*mem.PageSize, 4)
	hist := NewHistory(nprocs)
	var recs [][]*interval // recs[k]: batch k, writers 1 and 2 in (proc, idx) order
	for k := 0; k <= batches; k++ {
		var batch []*interval
		for q := 1; q < nprocs; q++ {
			for j := 0; j < per; j++ {
				r := newInterval(q, hist.top(q)+1, make([]int32, nprocs), []int{q - 1})
				hist.add(r)
				batch = append(batch, r)
			}
		}
		recs = append(recs, batch)
	}
	var got uint64
	var n *Node
	p := s.Spawn("p0", func(p *sim.Proc) {
		vec := make([]int32, nprocs)
		absorbBatch := func(k int) {
			vec[1], vec[2] = int32((k+1)*per), int32((k+1)*per)
			n.absorb(recs[k], vec)
		}
		absorbBatch(0) // makes the page metadata and the writer windows
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for k := 1; k <= batches; k++ {
			absorbBatch(k)
		}
		runtime.ReadMemStats(&m1)
		got = m1.Mallocs - m0.Mallocs
	})
	n = NewWithImage(p, net, al, nprocs, diffImpl(), mem.NewImage(al.Size()), hist)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := int32((batches + 1) * per); n.held[1] != want || n.held[2] != want {
		t.Fatalf("held = %v, want %d for both writers", n.held, want)
	}
	if got != 0 {
		t.Errorf("%d in-order batches over a shared log allocated %d objects, want 0", batches, got)
	}
}
