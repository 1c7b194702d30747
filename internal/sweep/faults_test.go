package sweep

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/run"
	"ecvslrc/internal/sim"
)

// TestParseVariantSpecFaultAxis pins the fault axis: presets expand like any
// other axis, the default is elided from names, and the resulting variants
// carry the resolved plan.
func TestParseVariantSpecFaultAxis(t *testing.T) {
	vs, err := ParseVariantSpec("fault=off,drop1e-2")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 {
		t.Fatalf("got %d variants, want 2: %+v", len(vs), vs)
	}
	if vs[0].Name != BaselineName || vs[0].Faults != nil {
		t.Errorf("baseline = %+v, want fault-free %q first", vs[0], BaselineName)
	}
	v := vs[1]
	if v.Name != "fault=drop1e-2" || v.Faults == nil || v.Faults.Name != "drop1e-2" {
		t.Errorf("fault variant = %+v, want name fault=drop1e-2 with a plan", v)
	}
	want, err := fabric.FaultPreset("drop1e-2")
	if err != nil {
		t.Fatal(err)
	}
	if *v.Faults != *want {
		t.Errorf("plan = %+v, want the drop1e-2 preset %+v", *v.Faults, *want)
	}
	if _, err := ParseVariantSpec("fault=nosuch"); !errors.Is(err, ErrSpec) {
		t.Errorf("unknown preset error = %v, want ErrSpec", err)
	}
}

// TestSweepFaultVariant runs a small grid with a lossy variant: the faulted
// cells must complete, record recovery counters, and cost more virtual time
// than their fault-free counterparts; the fault-free records must stay
// zero-countered with an empty Fault field.
func TestSweepFaultVariant(t *testing.T) {
	vs, err := ParseVariantSpec("fault=drop1e-2")
	if err != nil {
		t.Fatal(err)
	}
	impl, err := core.ParseImpl("LRC-diff")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := Run(Grid{
		Scale:    apps.Test,
		Apps:     []string{"SOR"},
		Impls:    []core.Impl{impl},
		NProcs:   []int{4},
		Variants: vs,
		Timeout:  3600 * sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	base, faulted := recs[0], recs[1]
	if base.Fault != "" || base.Retransmits != 0 || base.RecoveryWait != 0 {
		t.Errorf("fault-free record carries fault data: %+v", base)
	}
	if faulted.Fault != "drop1e-2" {
		t.Errorf("faulted record Fault = %q, want drop1e-2", faulted.Fault)
	}
	if faulted.Retransmits == 0 {
		t.Error("1% loss produced no retransmissions")
	}
	if faulted.Stats.Time <= base.Stats.Time {
		t.Errorf("recovery cost did not land in virtual time: %v <= %v",
			faulted.Stats.Time, base.Stats.Time)
	}

	// The degradation section must surface the faulted cells.
	var buf bytes.Buffer
	if err := WriteBaselineReport(&buf, recs, BaselineName); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fault degradation") {
		t.Error("baseline report has no fault-degradation section")
	}
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "drop1e-2") {
		t.Error("CSV rows do not name the fault plan")
	}
}

// TestSweepPartialFailure gives the grid one unrecoverable variant alongside
// the baseline: Run must return every baseline record plus a *CellFailures
// naming each dead cell, instead of aborting on the first.
func TestSweepPartialFailure(t *testing.T) {
	impl, err := core.ParseImpl("LRC-diff")
	if err != nil {
		t.Fatal(err)
	}
	doomed := &fabric.FaultPlan{Seed: 2, Drop: 0.99}
	recs, err := Run(Grid{
		Scale:  apps.Test,
		Apps:   []string{"SOR", "IS"},
		Impls:  []core.Impl{impl},
		NProcs: []int{2},
		Variants: []Variant{
			Baseline(),
			{Name: "doomed", Cost: fabric.DefaultCostModel(), Machine: run.Machine{Faults: doomed}},
		},
	})
	var cf *CellFailures
	if !errors.As(err, &cf) {
		t.Fatalf("error = %v, want *CellFailures", err)
	}
	if len(cf.Errs) != 2 {
		t.Errorf("got %d failed cells, want 2: %v", len(cf.Errs), cf)
	}
	if !strings.Contains(cf.Error(), "reliable delivery gave up") {
		t.Errorf("failure list does not carry the cell errors: %.300s", cf)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d surviving records, want the 2 baseline cells", len(recs))
	}
	for _, r := range recs {
		if r.Variant != BaselineName {
			t.Errorf("surviving record from variant %q, want only %q", r.Variant, BaselineName)
		}
	}
}
