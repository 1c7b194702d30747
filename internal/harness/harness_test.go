package harness

import (
	"testing"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
)

// TestPaperScaleSpeedup checks that at paper-size data sets the parallel
// runs achieve real speedup over the sequential reference, as Table 3 shows
// for every application.
func TestPaperScaleSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run")
	}
	cfg := Config{Scale: apps.Paper, NProcs: 8, Cost: fabric.DefaultCostModel()}
	for _, name := range []string{"Water", "IS"} {
		seq, err := RunSeq(cfg, name)
		if err != nil {
			t.Fatal(err)
		}
		row := RunCell(cfg, name, core.Impl{Model: core.LRC, Trap: core.Twinning, Collect: core.Diffs})
		if row.Err != nil {
			t.Fatal(row.Err)
		}
		speedup := float64(seq) / float64(row.Stats.Time)
		if speedup < 2 {
			t.Errorf("%s: speedup %.2f at 8 procs, want >= 2", name, speedup)
		}
		t.Logf("%s: seq %v, LRC-diff %v, speedup %.2f", name, seq, row.Stats.Time, speedup)
	}
}
