package harness

import (
	"errors"
	"strings"
	"testing"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/run"
)

func TestConfigValidate(t *testing.T) {
	good := Config{Scale: apps.Test, NProcs: 2, Cost: fabric.DefaultCostModel()}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	// Each rejection names the offending value and — for enumerated fields —
	// the accepted ones, so a bad -scale flag is self-diagnosing.
	bad := []struct {
		name string
		cfg  Config
		want string // substring of the error message
	}{
		{"zero-procs", Config{Scale: apps.Test, NProcs: 0}, "nprocs 0 outside 1..32767"},
		{"unknown-scale", Config{Scale: apps.Scale(99), NProcs: 4},
			"unknown scale 99 (valid: test, bench, paper, large)"},
		{"negative-scale", Config{Scale: apps.Scale(-1), NProcs: 4},
			"unknown scale -1 (valid: test, bench, paper, large)"},
		{"negative-timeout", Config{Scale: apps.Test, NProcs: 4, Timeout: -1},
			"negative timeout"},
		{"negative-fanin", Config{Scale: apps.Test, NProcs: 4, Machine: run.Machine{BarrierFanIn: -2}},
			"negative barrier fan-in -2"},
		{"bad-topology", Config{Scale: apps.Test, NProcs: 4, Machine: run.Machine{Topology: &fabric.Topology{Radix: 1, Taper: 1}}},
			"radix 1 < 2"},
		{"topology-with-faults", Config{Scale: apps.Test, NProcs: 4, Machine: run.Machine{
			Topology: &fabric.Topology{Radix: 4, Taper: 1},
			Faults:   &fabric.FaultPlan{Seed: 1}}},
			"mutually exclusive"},
		{"bad-fault-plan", Config{Scale: apps.Test, NProcs: 4, Machine: run.Machine{Faults: &fabric.FaultPlan{Drop: 2}}},
			"drop rate 2 outside [0,1]"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil {
				t.Fatalf("config %+v accepted", tc.cfg)
			}
			if !errors.Is(err, ErrConfig) {
				t.Errorf("error does not wrap ErrConfig: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err.Error(), tc.want)
			}
		})
	}
}

// TestInitImageCached checks the per-(app, scale) cache returns the same
// seeded image on every call and that cells using it still verify.
func TestInitImageCached(t *testing.T) {
	a, err := InitImage("SOR", apps.Test)
	if err != nil {
		t.Fatal(err)
	}
	b, err := InitImage("SOR", apps.Test)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second InitImage call did not hit the cache")
	}
	if _, err := InitImage("no-such-app", apps.Test); err == nil {
		t.Error("want error for unknown app")
	}
	// The computed layout is cached alongside the image and shared by cells.
	la, err := InitLayout("SOR", apps.Test)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := InitLayout("SOR", apps.Test)
	if err != nil {
		t.Fatal(err)
	}
	if la != lb {
		t.Error("second InitLayout call did not hit the cache")
	}
	if la.Size() != a.Size() {
		t.Errorf("cached layout spans %d bytes, image %d", la.Size(), a.Size())
	}
	// A cell run off the cached image must produce the exact stats of a
	// cold run (run.Run seeds its own image, bypassing the cache).
	cfg := Config{Scale: apps.Test, NProcs: 4, Cost: fabric.DefaultCostModel()}
	impl := core.Impl{Model: core.LRC, Trap: core.Twinning, Collect: core.Diffs}
	row := RunCell(cfg, "SOR", impl)
	if row.Err != nil {
		t.Fatal(row.Err)
	}
	app, err := apps.New("SOR", apps.Test)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := run.Run(app, impl, cfg.NProcs, cfg.Cost)
	if err != nil {
		t.Fatal(err)
	}
	if row.Stats != cold.Stats {
		t.Errorf("cached-image stats differ from cold run:\n  cached: %+v\n  cold:   %+v", row.Stats, cold.Stats)
	}
}
