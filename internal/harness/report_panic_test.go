package harness_test

import (
	"errors"
	"strings"
	"testing"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/harness"
	"ecvslrc/internal/sweep"
)

// TestReportSurfacesCellPanic checks that a table over a poisoned
// application survives and that its error exposes the *CellPanic with the
// application's name, so the failure is diagnosable from the report alone.
// The sequential reference is the first run of the application to panic.
func TestReportSurfacesCellPanic(t *testing.T) {
	restore, err := harness.PoisonImage("SOR", "QS", apps.Test)
	if err != nil {
		t.Fatal(err)
	}
	defer restore()

	cfg := harness.Config{Scale: apps.Test, NProcs: 2, Cost: fabric.DefaultCostModel()}
	for _, blk := range []sweep.Block{sweep.Table3, sweep.Table4, sweep.Table5} {
		_, err := sweep.Report(cfg, []string{"IS", "SOR"}, blk)
		if err == nil {
			t.Fatalf("block %d over a poisoned cell succeeded", blk)
		}
		var cp *harness.CellPanic
		if !errors.As(err, &cp) {
			t.Fatalf("block %d error does not expose the *CellPanic: %.200s", blk, err)
		}
		if cp.App != "SOR" || !cp.Seq || cp.NProcs != 1 {
			t.Errorf("CellPanic identity = %s seq=%v %d procs, want SOR's sequential reference", cp.App, cp.Seq, cp.NProcs)
		}
		if !strings.Contains(err.Error(), "SOR/seq") || !strings.Contains(err.Error(), "replay alloc") {
			t.Errorf("error names neither the cell nor the panic value: %.200s", err)
		}
	}
}
