package harness

import (
	"errors"
	"os"
	"strings"
	"testing"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/perf"
	"ecvslrc/internal/run"
)

// TestBenchReportMatchesSeedGolden pins the complete `dsmbench -all -micro
// -scale bench` output against the seed's byte-identical golden: with
// contention off and the default cost model, no refactor (sweep engine,
// image cache, fabric transmit path) may move a single byte.
func TestBenchReportMatchesSeedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale full sweep")
	}
	want, err := os.ReadFile("testdata/bench_all_micro.golden")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Scale: apps.Bench, NProcs: 8, Cost: fabric.DefaultCostModel()}
	got, err := BenchReport(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("BenchReport drifted from the seed golden (%d vs %d bytes); regenerate deliberately with `go run ./cmd/dsmbench -all -micro -scale bench > internal/harness/testdata/bench_all_micro.golden` only if the simulated statistics were meant to change", len(got), len(want))
	}
}

// TestBenchReportWithTracingMatchesSeedGolden re-runs the full bench-scale
// report with a fresh tracer attached to every cell and requires the output
// to stay byte-identical to the seed golden: tracing is observation-only at
// every hook point, so turning it on moves no simulated statistic. Config.Trace
// attaches the profiling tracer; the buffered kind is held to the same results
// by sweep's TestStreamingProfileMatchesBuffered and run's
// TestTracingObservationOnly.
func TestBenchReportWithTracingMatchesSeedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale full sweep")
	}
	want, err := os.ReadFile("testdata/bench_all_micro.golden")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Scale: apps.Bench, NProcs: 8, Cost: fabric.DefaultCostModel(), Trace: true}
	got, err := BenchReport(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("BenchReport with tracing enabled drifted from the seed golden (%d vs %d bytes): a trace hook is perturbing the simulation", len(got), len(want))
	}
}

// reportMallocCeiling bounds the heap allocations of the whole 79-cell
// bench-scale report run one cell at a time: about 176 700 measured (Go 1.24,
// linux/amd64), plus 15 % for allocator and Go-version drift. One extra
// allocation per delivered message alone adds about 112 000. Flight free
// lists kept per destination instead of per network, LRC page state and
// message vectors allocated one object at a time instead of from chunks, and
// LRC notice bodies not recycled add about 70 000 together.
const reportMallocCeiling = 203_000

// TestBenchReportWithMetricsMatchesSeedGolden is the same invariant for the
// host-side perf layer: a live registry on every cell reads host clocks and
// MemStats only, so the simulated report must not move by a byte. It also
// sanity-checks the registry actually observed the sweep (cells recorded,
// phase counters non-zero) so a silently-disconnected registry can't fake a
// pass. Cells run one at a time, so each cell's allocation delta is exact
// and their sum is held under reportMallocCeiling.
func TestBenchReportWithMetricsMatchesSeedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale full sweep")
	}
	want, err := os.ReadFile("testdata/bench_all_micro.golden")
	if err != nil {
		t.Fatal(err)
	}
	reg := perf.New()
	cfg := Config{Scale: apps.Bench, NProcs: 8, Cost: fabric.DefaultCostModel(), Parallel: 1, Perf: reg}
	got, err := BenchReport(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("BenchReport with metrics enabled drifted from the seed golden (%d vs %d bytes): the perf layer is perturbing the simulation", len(got), len(want))
	}
	cells := reg.Cells()
	var runs, mallocs int64
	for _, c := range cells {
		runs += c.Runs
		mallocs += c.Mallocs
	}
	if len(cells) == 0 || runs == 0 {
		t.Error("registry attached but observed no cells")
	}
	// The report simulates each cell once: Tables 4 and 5 regroup Table 3's
	// rows. 7 apps x (6 impls + seq) + 5 factor kernels x 6 impls.
	if want := 7*7 + 5*6; int(runs) != want || len(cells) != want {
		t.Errorf("report ran %d cells (%d distinct), want %d of each", runs, len(cells), want)
	}
	if reg.Counters()["phase_simulate_ns"] <= 0 {
		t.Error("no simulate-phase time attributed")
	}
	t.Logf("report cells allocated %d objects (ceiling %d)", mallocs, reportMallocCeiling)
	if mallocs > reportMallocCeiling {
		t.Errorf("report cells allocated %d objects, over the %d ceiling: a simulation path started allocating", mallocs, reportMallocCeiling)
	}
}

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
	if _, err := BenchReport(Config{Scale: apps.Test, NProcs: 0}, nil); !errors.Is(err, ErrConfig) {
		t.Errorf("BenchReport did not propagate config error: %v", err)
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
