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

// TestPerfRegistryParallelDeterminism runs the same table twice on the
// parallel worker pool, each with a fresh registry, and requires the
// *identity* content of the registries to match exactly: same cell set, same
// run counts, same outcomes, same phase-counter keys. Wall times and alloc
// deltas are host noise and deliberately not compared. Runs under -race in
// CI (the harness package is in the race job), which exercises the
// registry's concurrent merge path.
func TestPerfRegistryParallelDeterminism(t *testing.T) {
	appNames := []string{"SOR", "IS"}
	observe := func() ([]perf.Cell, map[string]int64) {
		reg := perf.New()
		cfg := Config{Scale: apps.Test, NProcs: 4, Cost: fabric.DefaultCostModel(), Parallel: 8, Perf: reg}
		if _, err := TableModel(cfg, core.EC, appNames); err != nil {
			t.Fatal(err)
		}
		if _, err := Table3(cfg, appNames); err != nil {
			t.Fatal(err)
		}
		return reg.Cells(), reg.Counters()
	}
	cellsA, countersA := observe()
	cellsB, countersB := observe()
	if len(cellsA) != len(cellsB) {
		t.Fatalf("cell counts differ: %d vs %d", len(cellsA), len(cellsB))
	}
	var runsA, runsB int64
	for i := range cellsA {
		ca, cb := cellsA[i], cellsB[i]
		if ca.Key() != cb.Key() || ca.Runs != cb.Runs || ca.Outcome != cb.Outcome {
			t.Errorf("cell %d diverged: %+v vs %+v", i, ca.Key(), cb.Key())
		}
		runsA += ca.Runs
		runsB += cb.Runs
	}
	if runsA != runsB {
		t.Errorf("run totals differ: %d vs %d", runsA, runsB)
	}
	for name := range countersA {
		if _, ok := countersB[name]; !ok {
			t.Errorf("counter %q present in first registry only", name)
		}
	}
	// Table3 (6 impls + seq) and TableModel EC (3 impls, merged into the
	// same cells) over 2 apps: 12 impl cells + 2 seq cells.
	if want := 14; len(cellsA) != want {
		t.Errorf("distinct cells = %d, want %d", len(cellsA), want)
	}
}

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
