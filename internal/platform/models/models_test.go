package models

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"ecvslrc/internal/fabric"
	"ecvslrc/internal/platform"
)

// TestDECstationModelMatchesDefault pins the anchor contract field for field:
// the derived paper platform IS fabric.DefaultCostModel(), bit-exactly. Every
// golden in the repository rests on this; a failure here means either the
// model's primitives or the default constants changed without the other.
func TestDECstationModelMatchesDefault(t *testing.T) {
	m, ok := platform.ByName("decstation_atm")
	if !ok {
		t.Fatal("decstation_atm not registered")
	}
	got := reflect.ValueOf(m.Derive())
	want := reflect.ValueOf(fabric.DefaultCostModel())
	typ := got.Type()
	for i := 0; i < typ.NumField(); i++ {
		if g, w := got.Field(i).Interface(), want.Field(i).Interface(); g != w {
			t.Errorf("%s: derived %v, DefaultCostModel %v", typ.Field(i).Name, g, w)
		}
	}
}

// maxErrByModel is the library's stated calibration error per model — the
// numbers recorded in DESIGN.md's status table and each model's changelog.
// Tightening a model is fine; loosening one must be a reviewed change here
// AND a changelog entry.
var maxErrByModel = map[string]float64{
	"decstation_atm": 0.03,
	"cluster_gbe":    0.04,
	"rdma_100g":      0.07,
	"grace":          0.33,
}

func TestAllModelsValidate(t *testing.T) {
	if got := len(platform.Models()); got < 4 {
		t.Fatalf("model library has %d models, want >= 4", got)
	}
	for _, m := range platform.Models() {
		checks := m.Validate()
		if len(checks) < 4 {
			t.Errorf("%s: only %d reference checks, want >= 4", m.Name, len(checks))
		}
		for _, c := range checks {
			if !c.Pass() {
				t.Errorf("%s: %s = %g %s, want %g within %.0f%% (got %.1f%%) [%s]",
					m.Name, c.Name, c.Got, c.Unit, c.Want, c.Tol*100, c.RelErr*100, c.Source)
			}
			if c.Source == "" {
				t.Errorf("%s: %s: reference without a source", m.Name, c.Name)
			}
		}
		if got := platform.Status(checks); got != "validated" {
			t.Errorf("%s: status %q, want validated", m.Name, got)
		}
		ceiling, ok := maxErrByModel[m.Name]
		if !ok {
			t.Errorf("%s: not in the stated-calibration-error table; add it with its changelog entry", m.Name)
			continue
		}
		if got := platform.MaxErr(checks); got > ceiling {
			t.Errorf("%s: max calibration error %.4f exceeds the stated %.2f", m.Name, got, ceiling)
		}
	}
}

// TestModelsRegisterAsPresets checks the cost-name table: every model
// resolves by name to exactly its derived constants, the pre-library knob
// presets still resolve to their historical values, and the names list in
// the order the fabric registry listed them before platform owned the table.
func TestModelsRegisterAsPresets(t *testing.T) {
	for _, m := range platform.Models() {
		cm, err := platform.Lookup(m.Name)
		if err != nil {
			t.Errorf("Lookup(%q): %v", m.Name, err)
			continue
		}
		if cm != m.Derive() {
			t.Errorf("preset %q != model.Derive()", m.Name)
		}
	}
	base := fabric.DefaultCostModel()
	compat := map[string]fabric.CostModel{
		"paper":     base,
		"net-x2":    base.ScaleNetwork(2),
		"net-x4":    base.ScaleNetwork(4),
		"cpu-x4":    base.ScaleCPU(4),
		"hw-detect": base.HardwareWriteDetection(),
		"hw-diff":   base.ZeroCostDiff(),
		"modern":    base.ScaleNetwork(10).ScaleCPU(25),
	}
	for name, want := range compat {
		cm, err := platform.Lookup(name)
		if err != nil {
			t.Errorf("compat preset %q: %v", name, err)
			continue
		}
		if cm != want {
			t.Errorf("compat preset %q drifted: %+v, want %+v", name, cm, want)
		}
	}
	// The paper platform and its aliases lead, models follow in registration
	// order.
	want := []string{"paper", "net-x2", "net-x4", "cpu-x4", "hw-detect", "hw-diff", "modern",
		"decstation_atm", "cluster_gbe", "rdma_100g", "grace"}
	if names := platform.PresetNames(); !slices.Equal(names, want) {
		t.Errorf("cost names = %v, want %v", names, want)
	}
	for i, p := range platform.Presets() {
		if cm, err := platform.Lookup(p.Name); err != nil || cm != p.Cost || p.Name != want[i] || p.Desc == "" {
			t.Errorf("Presets()[%d] = %q (%q): Lookup gives %+v, %v", i, p.Name, p.Desc, cm, err)
		}
	}
}

// TestEveryModelHasChangelog enforces the library's documentation contract:
// one directory per model, each with a non-empty sibling CHANGELOG.md (the
// append-only calibration history; also enforced by the CI platform job).
func TestEveryModelHasChangelog(t *testing.T) {
	for _, m := range platform.Models() {
		path := filepath.Join(m.Name, "CHANGELOG.md")
		info, err := os.Stat(path)
		if err != nil {
			t.Errorf("%s: %v", m.Name, err)
			continue
		}
		if info.Size() == 0 {
			t.Errorf("%s: empty CHANGELOG.md", m.Name)
		}
	}
}

// TestModelMetadata keeps the status table renderable: every model carries a
// description and a priority rank.
func TestModelMetadata(t *testing.T) {
	for _, m := range platform.Models() {
		if m.Desc == "" {
			t.Errorf("%s: empty description", m.Name)
		}
		if m.Priority == "" {
			t.Errorf("%s: empty priority", m.Name)
		}
	}
}
