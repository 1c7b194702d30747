package sweep

import (
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/harness"
	"ecvslrc/internal/perf"
)

func testConfig() harness.Config {
	return harness.Config{Scale: apps.Test, NProcs: 4, Cost: fabric.DefaultCostModel()}
}

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
	cfg := harness.Config{Scale: apps.Bench, NProcs: 8, Cost: fabric.DefaultCostModel()}
	got, err := Report(cfg, nil, AllBlocks()...)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("Report drifted from the seed golden (%d vs %d bytes); regenerate deliberately with `go run ./cmd/dsmbench -all -micro -scale bench > internal/sweep/testdata/bench_all_micro.golden` only if the simulated statistics were meant to change", len(got), len(want))
	}
}

// TestBenchReportWithTracingMatchesSeedGolden re-runs the full bench-scale
// report with a fresh tracer attached to every cell and requires the output
// to stay byte-identical to the seed golden: tracing is observation-only at
// every hook point, so turning it on moves no simulated statistic.
// Config.Trace attaches the profiling tracer (the grid's Breakdown); the
// buffered kind is held to the same results by TestStreamingProfileMatchesBuffered
// and run's TestTracingObservationOnly.
func TestBenchReportWithTracingMatchesSeedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale full sweep")
	}
	want, err := os.ReadFile("testdata/bench_all_micro.golden")
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.Config{Scale: apps.Bench, NProcs: 8, Cost: fabric.DefaultCostModel(), Trace: true}
	got, err := Report(cfg, nil, AllBlocks()...)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("Report with tracing enabled drifted from the seed golden (%d vs %d bytes): a trace hook is perturbing the simulation", len(got), len(want))
	}
}

// reportMallocCeiling bounds the heap allocations of the whole 84-cell
// bench-scale report run one cell at a time: about 176 750 measured (Go 1.24,
// linux/amd64; the five factor kernels' sequential references take about 50
// of them), plus 15 % for allocator and Go-version drift. One extra
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
	cfg := harness.Config{Scale: apps.Bench, NProcs: 8, Cost: fabric.DefaultCostModel(), Parallel: 1, Perf: reg}
	got, err := Report(cfg, nil, AllBlocks()...)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("Report with metrics enabled drifted from the seed golden (%d vs %d bytes): the perf layer is perturbing the simulation", len(got), len(want))
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
	// The report simulates each cell once: every block reads the records of
	// one sweep. 7 apps and 5 factor kernels x (6 impls + seq).
	if want := (7 + 5) * 7; int(runs) != want || len(cells) != want {
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

// TestReportConfigError: an invalid configuration fails before any cell
// runs, with an error that wraps both ErrGrid and harness.ErrConfig.
func TestReportConfigError(t *testing.T) {
	_, err := Report(harness.Config{Scale: apps.Test, NProcs: 0}, nil, AllBlocks()...)
	if !errors.Is(err, harness.ErrConfig) || !errors.Is(err, ErrGrid) {
		t.Errorf("Report did not propagate the config error: %v", err)
	}
}

func TestTable3TestScale(t *testing.T) {
	recs, err := Run(Grid{Scale: apps.Test, Apps: []string{"SOR", "IS"}, NProcs: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	best := bestPerModel(recs)
	if len(best) != 2 {
		t.Fatalf("groups = %d", len(best))
	}
	for i, m := range best {
		if m.app != []string{"SOR", "IS"}[i] || m.ec == nil || m.lrc == nil {
			t.Fatalf("group %d = %+v", i, m)
		}
		if m.ec.Seq <= 0 || m.ec.Stats.Time <= 0 || m.lrc.Stats.Time <= 0 {
			t.Errorf("%s: non-positive times: %+v", m.app, m)
		}
		if !strings.HasPrefix(m.ec.Impl, "EC-") || !strings.HasPrefix(m.lrc.Impl, "LRC-") {
			t.Errorf("%s: best EC %s, best LRC %s", m.app, m.ec.Impl, m.lrc.Impl)
		}
		// Each is the fastest of its model; at test scale communication
		// dominates and speedup is not expected (TestPaperScaleSpeedup).
		for _, r := range recs {
			if r.App != m.app {
				continue
			}
			b := m.lrc
			if strings.HasPrefix(r.Impl, "EC-") {
				b = m.ec
			}
			if r.Stats.Time < b.Stats.Time {
				t.Errorf("%s: %s (%v) beats the chosen %s (%v)", m.app, r.Impl, r.Stats.Time, b.Impl, b.Stats.Time)
			}
		}
	}
	out, err := Report(testConfig(), []string{"SOR", "IS"}, Table3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "SOR") || !strings.Contains(out, "1 proc.") {
		t.Errorf("format:\n%s", out)
	}
}

func TestTableModelFormat(t *testing.T) {
	out, err := Report(testConfig(), []string{"IS"}, Table4)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table 4") || !strings.Contains(out, "EC-ci") || strings.Contains(out, "LRC") {
		t.Errorf("format:\n%s", out)
	}
	out5, err := Report(testConfig(), []string{"IS"}, Table5)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out5, "Table 5") || !strings.Contains(out5, "LRC-diff") {
		t.Errorf("format:\n%s", out5)
	}
}

// TestAppColumnFitsKernelNames: a factor kernel's name is longer than the
// suite's 12-character column, so every table block widens its App column to
// fit it and each row stays as wide as its header.
func TestAppColumnFitsKernelNames(t *testing.T) {
	out, err := Report(testConfig(), []string{"micro-prefetch", "SOR"}, Table3, Table4, Table5, Counters)
	if err != nil {
		t.Fatal(err)
	}
	for _, block := range strings.Split(out, "\n\n") {
		lines := strings.Split(strings.TrimSuffix(block, "\n"), "\n")
		header, rows := lines[1], lines[2:]
		if len(rows) != 2 {
			t.Fatalf("%s: %d rows, want 2:\n%s", lines[0], len(rows), block)
		}
		for _, row := range rows {
			if len(row) != len(header) {
				t.Errorf("%s: row %q is %d wide, its header %d", lines[0], row, len(row), len(header))
			}
		}
	}
}

func TestTable2AllScales(t *testing.T) {
	for _, s := range []apps.Scale{apps.Test, apps.Bench, apps.Paper} {
		out, err := Report(harness.Config{Scale: s}, nil, Table2)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range apps.Names() {
			if !strings.Contains(out, name) {
				t.Errorf("scale %v: missing %s", s, name)
			}
		}
	}
}

func TestMicroKernels(t *testing.T) {
	recs, err := Run(Grid{Scale: apps.Test, Apps: apps.MicroNames(), NProcs: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Report(testConfig(), nil, Micro)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "micro-migratory") {
		t.Errorf("format:\n%s", out)
	}
	// Factor checks at kernel scale:
	cells := cellIndex(recs, BaselineName)
	cell := func(name, impl string) Record {
		r, ok := cells[cellKey{name, impl, 4}]
		if !ok {
			t.Fatalf("missing %s %s", name, impl)
		}
		return r
	}
	// Migratory data: timestamps move less data than diffs (Section 5.3).
	if mt, md := cell("micro-migratory", "EC-time"), cell("micro-migratory", "EC-diff"); mt.Stats.Bytes >= md.Stats.Bytes {
		t.Errorf("migratory: EC-time bytes %d >= EC-diff bytes %d", mt.Stats.Bytes, md.Stats.Bytes)
	}
	// Prefetching: LRC needs fewer messages than EC when one consumer reads
	// many small objects from one page (Section 7.1).
	if lp, ep := cell("micro-prefetch", "LRC-diff"), cell("micro-prefetch", "EC-ci"); lp.Stats.Msgs >= ep.Stats.Msgs {
		t.Errorf("prefetch: LRC msgs %d >= EC msgs %d", lp.Stats.Msgs, ep.Stats.Msgs)
	}
	// False sharing: EC moves less data than LRC (Section 7.1).
	if ef, lf := cell("micro-false-sharing", "EC-diff"), cell("micro-false-sharing", "LRC-diff"); ef.Stats.Bytes >= lf.Stats.Bytes {
		t.Errorf("false sharing: EC bytes %d >= LRC bytes %d", ef.Stats.Bytes, lf.Stats.Bytes)
	}
}

// TestPerfRegistryParallelDeterminism renders the same tables twice on the
// parallel worker pool, each with a fresh registry, and requires the
// *identity* content of the registries to match exactly: same cell set, same
// run counts, same outcomes, same phase-counter keys. Wall times and alloc
// deltas are host noise and deliberately not compared. Runs under -race in
// CI, which exercises the registry's concurrent merge path.
func TestPerfRegistryParallelDeterminism(t *testing.T) {
	appNames := []string{"SOR", "IS"}
	observe := func() ([]perf.Cell, map[string]int64) {
		reg := perf.New()
		cfg := harness.Config{Scale: apps.Test, NProcs: 4, Cost: fabric.DefaultCostModel(), Parallel: 8, Perf: reg}
		if _, err := Report(cfg, appNames, Table4); err != nil {
			t.Fatal(err)
		}
		if _, err := Report(cfg, appNames, Table3); err != nil {
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
	// Table 3 (6 impls + seq) and Table 4 (3 impls + seq, merged into the
	// same cells) over 2 apps: 12 impl cells + 2 seq cells.
	if want := 14; len(cellsA) != want {
		t.Errorf("distinct cells = %d, want %d", len(cellsA), want)
	}
}

// TestForkedCellsParallelMatchSerial: every node maps the cached image of
// its (app, scale) copy-on-write, so parallel cells fork one template at
// once — the first fork writes its memory file — and write their private
// pages side by side. The race detector does not see mapped memory, so the
// check is by results: two workers must give every cell's record exactly as
// one worker does.
func TestForkedCellsParallelMatchSerial(t *testing.T) {
	recs := func(parallel int) []Record {
		got, err := Run(Grid{Scale: apps.Test, Apps: []string{"SOR"}, NProcs: []int{16}, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	// Two workers first, so the first fork of the template is contended.
	parallel, serial := recs(2), recs(1)
	if len(serial) != len(core.Implementations()) {
		t.Fatalf("%d records, want one per implementation", len(serial))
	}
	if !reflect.DeepEqual(parallel, serial) {
		t.Errorf("2-worker records differ from 1-worker records:\n%+v\nvs\n%+v", parallel, serial)
	}
}
