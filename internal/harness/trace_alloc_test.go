package harness

import (
	"runtime"
	"runtime/debug"
	"testing"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
)

// TestTracedCellAllocationBudget pins what Config.Trace may cost a cell in
// host memory: the profiling tracer keeps no event history, so a traced cell
// allocates what the untraced one does plus the tracer's own O(procs) state
// and short queues — not the ~64 bytes a record a buffered trace costs
// (Water/LRC-diff at bench scale emits some 200 000).
func TestTracedCellAllocationBudget(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	impl := core.Impl{Model: core.LRC, Trap: core.Twinning, Collect: core.Diffs}
	cellCost := func(trace bool) (bytes, mallocs uint64) {
		cfg := Config{Scale: apps.Bench, NProcs: 8, Cost: fabric.DefaultCostModel(), Trace: trace}
		// The image pools and per-app caches make a cell's first runs dearer;
		// the smallest of a few is the cell's own cost.
		for i := 0; i < 4; i++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if row := RunCell(cfg, "Water", impl); row.Err != nil {
				t.Fatal(row.Err)
			}
			runtime.ReadMemStats(&m1)
			b, m := m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
			if i == 0 || b < bytes {
				bytes = b
			}
			if i == 0 || m < mallocs {
				mallocs = m
			}
		}
		return bytes, mallocs
	}
	plainB, plainM := cellCost(false)
	tracedB, tracedM := cellCost(true)
	t.Logf("untraced %d B / %d mallocs, traced %d B / %d mallocs", plainB, plainM, tracedB, tracedM)
	const slackBytes, slackMallocs = 256 << 10, 256
	if tracedB > plainB+slackBytes {
		t.Errorf("traced cell allocated %d B, untraced %d B: tracing may add at most %d B", tracedB, plainB, slackBytes)
	}
	if tracedM > plainM+slackMallocs {
		t.Errorf("traced cell made %d mallocs, untraced %d: tracing may add at most %d", tracedM, plainM, slackMallocs)
	}
}
