package lrc

import (
	"runtime"
	"runtime/debug"
	"testing"

	"ecvslrc/internal/vm"
)

// TestHarvestSteadyStateAllocs guards the twinning write path: once the twin
// pool is warm, a write fault on a page with a pending closed epoch — the
// harvest that diffs the epoch, then the re-twin — allocates exactly the
// diff's encoding: one object when the epoch changed the page, none when it
// did not. Each epoch is closed by hand, since closeInterval also records
// write notices, which allocate; the page's diff list is compacted between
// epochs as the collector does, so its growth does not count either.
func TestHarvestSteadyStateAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const warm, epochs = 4, 16
	for _, changed := range []bool{true, false} {
		var got, want uint64
		if changed {
			want = epochs
		}
		newTestNode(t, diffImpl(), func(n *Node) {
			pm := n.pageMeta(0)
			var m0, m1 runtime.MemStats
			for k := 0; k < warm+epochs; k++ {
				if k == warm {
					runtime.ReadMemStats(&m0)
				}
				v := int32(7)
				if changed {
					v = int32(k + 1)
				}
				n.WriteI32(0, v) // write fault: harvest the closed epoch, twin the page
				pm.closedIval = n.cur
				n.openPages = n.openPages[:0]
				n.MMU.SetProt(0, vm.ReadOnly)
				pm.diffs = pm.diffs[:0]
			}
			runtime.ReadMemStats(&m1)
			got = m1.Mallocs - m0.Mallocs
		})
		if got != want {
			t.Errorf("changed=%v: %d warm write-fault harvests allocated %d objects, want %d", changed, epochs, got, want)
		}
	}
}

// TestCloseIntervalAllocs guards the record a twinning close makes: once the
// writer's log has room, a warm closeInterval that modified one page
// allocates exactly the record. The record keeps Σ vec and its wire size,
// not a copy of the processor's vector.
func TestCloseIntervalAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const warm, epochs = 4, 16
	var got uint64
	newTestNode(t, diffImpl(), func(n *Node) {
		n.hist.logs[0].recs = make([]*interval, 0, warm+epochs)
		var m0, m1 runtime.MemStats
		for k := 0; k < warm+epochs; k++ {
			n.WriteI32(0, int32(k+1)) // write fault: harvest the closed epoch, twin the page
			runtime.ReadMemStats(&m0)
			n.closeInterval()
			runtime.ReadMemStats(&m1)
			if k >= warm {
				got += m1.Mallocs - m0.Mallocs
			}
		}
		if n.cur != warm+epochs+1 {
			t.Fatalf("%d closes made %d records", warm+epochs, n.cur-1)
		}
	})
	if got != epochs {
		t.Errorf("%d warm one-page closes allocated %d objects, want %d (one record each)", epochs, got, epochs)
	}
}
