package ecvslrc

import (
	"testing"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/harness"
	"ecvslrc/internal/sweep"
)

// TestFrontEndsAgree pins the point of describing a cell once: the same cell
// yields the same core.Stats through the root API, the harness and the sweep
// engine — including at large scale, where the resolver's defaults (notice GC
// on, barrier fan-in 16) change the message pattern and a front end that
// assembled its own options would disagree. cmd/dsmrun's TestCLIMatchesHarness
// ties the CLI to the same harness cells.
func TestFrontEndsAgree(t *testing.T) {
	cells := []struct {
		app, impl string
		nprocs    int
		scale     Scale
	}{
		{"SOR", "EC-time", 4, Test},
		{"Water", "LRC-diff", 4, Test},
		{"SOR", "LRC-diff", 32, apps.Large},
	}
	for _, c := range cells {
		t.Run(c.app+"/"+c.impl+"/"+c.scale.String(), func(t *testing.T) {
			impl, err := core.ParseImpl(c.impl)
			if err != nil {
				t.Fatal(err)
			}
			row := harness.RunCell(harness.Config{Scale: c.scale, NProcs: c.nprocs, Cost: fabric.DefaultCostModel(), Timeout: cellTimeout}, c.app, impl)
			if row.Err != nil {
				t.Fatal(row.Err)
			}
			api, err := Run(c.app, c.impl, c.nprocs, c.scale)
			if err != nil {
				t.Fatal(err)
			}
			if api != row.Stats {
				t.Errorf("ecvslrc.Run %+v != harness.RunCell %+v", api, row.Stats)
			}
			traced, err := Trace(c.app, c.impl, c.nprocs, c.scale)
			if err != nil {
				t.Fatal(err)
			}
			if traced.Stats != row.Stats {
				t.Errorf("ecvslrc.Trace %+v != harness.RunCell %+v", traced.Stats, row.Stats)
			}
			recs, err := sweep.Run(sweep.Grid{Scale: c.scale, Apps: []string{c.app}, Impls: []core.Impl{impl}, NProcs: []int{c.nprocs}})
			if err != nil || len(recs) != 1 {
				t.Fatalf("sweep.Run: %d records, err %v", len(recs), err)
			}
			if recs[0].Stats != row.Stats {
				t.Errorf("sweep.Run %+v != harness.RunCell %+v", recs[0].Stats, row.Stats)
			}
		})
	}
}

// TestSweepBaselineFirst runs the root Sweep over the topology axis and holds
// its contract: one record per (variant, app, implementation) cell, every
// baseline (flat-link) record ahead of every Clos record, and each baseline
// record's statistics equal to ecvslrc.Run's for the same cell.
func TestSweepBaselineFirst(t *testing.T) {
	const nprocs = 4
	names := []string{"SOR", "IS"}
	recs, err := Sweep("topo=flat,clos:radix=2", Test, nprocs, names...)
	if err != nil {
		t.Fatal(err)
	}
	cells := len(names) * len(Impls())
	if len(recs) != 2*cells {
		t.Fatalf("Sweep returned %d records, want %d (2 variants x %d cells)", len(recs), 2*cells, cells)
	}
	var clos int
	for i, r := range recs {
		if i < cells {
			if r.Variant != sweep.BaselineName || r.Topo != "" {
				t.Errorf("record %d is variant %q topo %q, want the baseline first", i, r.Variant, r.Topo)
				continue
			}
			want, err := Run(r.App, r.Impl, nprocs, Test)
			if err != nil {
				t.Fatal(err)
			}
			if r.Stats != want {
				t.Errorf("%s/%s: Sweep baseline %+v != ecvslrc.Run %+v", r.App, r.Impl, r.Stats, want)
			}
			continue
		}
		flat := recs[i-cells]
		if r.Topo != "clos:radix=2" || r.App != flat.App || r.Impl != flat.Impl {
			t.Errorf("record %d is %s/%s topo %q, want %s/%s on clos:radix=2", i, r.App, r.Impl, r.Topo, flat.App, flat.Impl)
		}
		if r.Stats != flat.Stats {
			clos++
		}
	}
	if clos == 0 {
		t.Error("every clos:radix=2 record equals its flat record: the topology axis changed nothing")
	}
}
