package harness

import (
	"errors"
	"testing"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/perf"
)

// TestPanicCellWallAttribution poisons a cell (the PR 6 isolation scenario)
// and checks the perf record still attributes wall time to the crashed cell:
// outcome panic, a positive wall measurement, and the elapsed time surfaced
// on the *CellPanic itself — a slow-then-crashing cell must be
// distinguishable from a fast one.
func TestPanicCellWallAttribution(t *testing.T) {
	key := imageKey{"SOR", apps.Test}
	poison := &imageEntry{}
	poison.once.Do(func() {
		other, err := apps.New("QS", apps.Test)
		if err != nil {
			t.Fatal(err)
		}
		al := mem.NewAllocator()
		other.Layout(al)
		im := mem.NewImage(al.Size())
		other.Init(im)
		poison.al, poison.im = al, im
	})
	imageCache.Store(key, poison)
	defer imageCache.Delete(key)

	reg := perf.New()
	impl := core.Implementations()[0]
	cfg := Config{Scale: apps.Test, NProcs: 2, Cost: fabric.DefaultCostModel(), Perf: reg}
	row := RunCell(cfg, "SOR", impl)
	var cp *CellPanic
	if !errors.As(row.Err, &cp) {
		t.Fatalf("poisoned cell returned %v, want *CellPanic", row.Err)
	}
	if cp.Elapsed <= 0 {
		t.Error("CellPanic carries no elapsed time despite an attached registry")
	}
	cells := reg.Cells()
	if len(cells) != 1 {
		t.Fatalf("got %d perf cells, want 1", len(cells))
	}
	c := cells[0]
	if c.Outcome != string(perf.OutcomePanic) {
		t.Errorf("outcome = %q, want panic", c.Outcome)
	}
	if c.WallNS <= 0 {
		t.Error("panicked cell has no wall time in the perf record")
	}
	if c.App != "SOR" || c.Impl != impl.String() || c.NProcs != 2 {
		t.Errorf("panicked cell identity = %v", c.Key())
	}
}

// TestRunCellPerfAttribution pins the happy-path record: one cell, outcome
// ok, run-phase counters populated, peak heap observed.
func TestRunCellPerfAttribution(t *testing.T) {
	reg := perf.New()
	impl := core.Impl{Model: core.LRC, Trap: core.Twinning, Collect: core.Diffs}
	cfg := Config{Scale: apps.Test, NProcs: 4, Cost: fabric.DefaultCostModel(), Perf: reg, Variant: "paper"}
	row := RunCell(cfg, "SOR", impl)
	if row.Err != nil {
		t.Fatal(row.Err)
	}
	cells := reg.Cells()
	if len(cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(cells))
	}
	c := cells[0]
	if c.Variant != "paper" || c.Outcome != "ok" || c.WallNS <= 0 || c.Mallocs <= 0 {
		t.Errorf("cell = %+v", c)
	}
	counters := reg.Counters()
	for _, phase := range []string{"phase_init_ns", "phase_simulate_ns", "phase_verify_ns"} {
		if counters[phase] <= 0 {
			t.Errorf("%s = %d, want > 0", phase, counters[phase])
		}
	}
	if reg.PeakHeapBytes() <= 0 {
		t.Error("no peak heap recorded")
	}
}
