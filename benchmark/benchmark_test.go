package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/sim"
)

// contract is BENCHMARK.json as the driver reads it.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestContractMatchesDriver pins BENCHMARK.json to the driver's own tables:
// same workloads, same metric names, units, directions and bounds, all
// within the contract's limits.
func TestContractMatchesDriver(t *testing.T) {
	c := readContract(t)
	if !reflect.DeepEqual(c.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json   %+v\n driver %+v", c.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(c.PerLayer, perLayer()) {
		t.Errorf("per_layer differs:\n json   %+v\n driver %+v", c.PerLayer, perLayer())
	}
	ws := workloads()
	if len(c.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the driver", len(c.Workloads), len(ws))
	}
	for i, w := range ws {
		if c.Workloads[i].Name != w.Name || c.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: json %+v, driver {%s %s}", i, c.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1..128", n)
	}
	seen := map[string]bool{}
	setup := false
	for _, d := range append(append([]metricDef(nil), c.EndToEnd...), c.PerLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q breaks the contract's naming rule", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q is used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside [0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in seconds, lower is better")
	}
	for _, d := range c.EndToEnd {
		if d.Bound <= 0 {
			t.Errorf("end-to-end metric %s has no bound", d.Name)
		}
	}
	// 4 + 22 runs per workload, each run_seconds of timed passes plus set-up,
	// warm-up and start-up, must fit the driver's 3420 s.
	if runs := 4 + 22*len(c.Workloads); float64(runs)*(float64(c.RunSeconds)+12) > 3420 {
		t.Errorf("%d runs of %d s + overhead exceed the driver's budget", runs, c.RunSeconds)
	}
}

// tinyWorkloads are the four workloads' shapes at test scale: the same code
// paths (serial list with sequential references, sweep grid with contention,
// faults and the breakdown), small enough for tier-1.
func tinyWorkloads() []workload {
	all := core.Implementations()
	serial := func(name, app string, seq bool) workload {
		return workload{Name: name, Why: "test", Procs: 1, Cells: cross(nil, apps.Test, 4, app, seq, all)}
	}
	spec := "contention=on fault=off,drop1e-2"
	return []workload{
		serial("grid_p8", "SOR+", true),
		serial("sync_p8", "Water", false),
		serial("scale_large", "IS", false),
		{Name: "sweep_par", Why: "test", Procs: 2, Spec: spec,
			Cells: sweepCells(spec, apps.Test, 4, []string{"IS", "QS"})},
	}
}

// goldenOf commits a pass in memory, the way -update-golden does on disk.
func goldenOf(t *testing.T, p passResult) golden {
	t.Helper()
	lines := passLines(p)
	g, err := parseGolden([]byte("sha256 " + digestOf(lines) + "\n" + strings.Join(lines, "\n") + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func prepare(t *testing.T, w workload, seed uint64) *prepared {
	t.Helper()
	prep, err := setUp(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	return prep
}

// checkReport asserts that every declared metric was emitted (report.set
// already panics on a second emission or an undeclared name) with its unit.
func checkReport(t *testing.T, w string, rep *report, defs []metricDef) {
	t.Helper()
	if miss := rep.missing(); len(miss) > 0 {
		t.Errorf("%s: metrics not emitted: %v", w, miss)
	}
	if len(rep.values) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", w, len(rep.values), len(defs))
	}
	for _, d := range defs {
		if v, ok := rep.values[d.Name]; ok && v.Unit != d.Unit {
			t.Errorf("%s: %s emitted in %q, declared %q", w, d.Name, v.Unit, d.Unit)
		}
	}
}

// TestEveryMetricEmittedOnce runs both modes of every workload shape and
// checks the emitted metric set against the declared one.
func TestEveryMetricEmittedOnce(t *testing.T) {
	unit, err := runProbes(1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(unit) != len(probeMetrics) {
		t.Errorf("%d probes ran, %d declared", len(unit), len(probeMetrics))
	}
	for _, w := range tinyWorkloads() {
		prep := prepare(t, w, 1)
		var out bytes.Buffer
		chk := &checker{golden: goldenOf(t, prep.pass()), seed: 1, out: &out}
		opt := options{Seed: 1, Seconds: 0, Out: t.TempDir()}

		checkReport(t, w.Name, measureEndToEnd(prep, opt, []float64{0.1, 0.2, 0.3}, chk, &out), endToEnd)
		rep, err := measureLayers(prep, opt, unit, chk, &out)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		checkReport(t, w.Name, rep, perLayer())
		if chk.failed != 0 || chk.attempted == 0 {
			t.Errorf("%s: %d of %d cells failed:\n%s", w.Name, chk.failed, chk.attempted, out.String())
		}
		if _, err := os.Stat(opt.Out + "/" + w.Name + ".spans.json"); err != nil {
			t.Errorf("%s: span file: %v", w.Name, err)
		}
	}
}

// TestExactCountsRepeat pins the acceptance rule that the count pass's
// counts are exact: two count passes agree on every one.
func TestExactCountsRepeat(t *testing.T) {
	for _, w := range tinyWorkloads() {
		prep := prepare(t, w, 1)
		_, a := observedPass(prep, newSpanLog(), "count", true)
		_, b := observedPass(prep, newSpanLog(), "count", true)
		if a.counts != b.counts {
			t.Errorf("%s: counts differ between two count passes:\n %+v\n %+v", w.Name, a.counts, b.counts)
		}
		if a.counts.Msgs == 0 || a.counts.Dispatches == 0 {
			t.Errorf("%s: count pass counted nothing: %+v", w.Name, a.counts)
		}
	}
}

// TestWrongDigestFailsCell plants a wrong committed value: the run must
// report the cell and the field, and count it failed, not abort.
func TestWrongDigestFailsCell(t *testing.T) {
	w := tinyWorkloads()[0]
	prep := prepare(t, w, 1)
	p := prep.pass()
	g := goldenOf(t, p)
	key := w.Cells[2].key()
	g.Lines[key] = strings.Replace(g.Lines[key], " msgs=", " msgs=9", 1)

	failures := verifyPass(g, p, 1)
	if len(failures) != 1 || !strings.Contains(failures[0], key) || !strings.Contains(failures[0], "field msgs") {
		t.Fatalf("failures = %q, want one naming %s and field msgs", failures, key)
	}
	var out bytes.Buffer
	chk := &checker{golden: g, seed: 1, out: &out}
	chk.check("pass", p)
	if chk.failed != 1 || chk.attempted != len(w.Cells) {
		t.Errorf("failed %d of %d, want 1 of %d", chk.failed, chk.attempted, len(w.Cells))
	}
}

// TestStalledCellFailsNotCrashes forces one cell past its virtual-time
// watchdog on both the timed and the traced path.
func TestStalledCellFailsNotCrashes(t *testing.T) {
	w := tinyWorkloads()[1]
	prep := prepare(t, w, 1)
	g := goldenOf(t, prep.pass())
	prep.W.Cells = append([]cell(nil), w.Cells...)
	prep.W.Cells[1].Timeout = sim.Microsecond

	observed, _ := observedPass(prep, newSpanLog(), "count", true)
	for what, p := range map[string]passResult{"timed": prep.pass(), "observed": observed} {
		failures := verifyPass(g, p, 1)
		if len(failures) != 1 || !strings.Contains(failures[0], w.Cells[1].key()) {
			t.Errorf("%s path: failures = %q, want exactly the stalled cell", what, failures)
		}
	}
}

// TestSeedDependentCellsSkipDigest: a fault cell's statistics follow the
// seed, so at seeds other than 1 only self-verification holds them.
func TestSeedDependentCellsSkipDigest(t *testing.T) {
	w := tinyWorkloads()[3]
	g := goldenOf(t, prepare(t, w, 1).pass())
	other := prepare(t, w, 7).pass()
	if failures := verifyPass(g, other, 7); len(failures) != 0 {
		t.Errorf("seed 7 against the seed-1 digest: %q", failures)
	}
	if failures := verifyPass(g, other, 1); len(failures) == 0 {
		t.Error("a seed-7 pass matched the seed-1 digest on its fault cells; the seed is not reaching the fault plan")
	}
}

// TestTimedPathIsUnobserved: timed passes run with tracer and registry nil,
// except the sweep workload's own Breakdown.
func TestTimedPathIsUnobserved(t *testing.T) {
	for _, w := range workloads() {
		if w.Spec == "" {
			for _, c := range w.Cells {
				if cfg := cellConfig(c); cfg.Perf != nil || cfg.Trace || cfg.Timeout != 0 {
					t.Errorf("%s: cell %s is observed on the timed path: %+v", w.Name, c.key(), cfg)
				}
			}
			continue
		}
		g, err := sweepGrid(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		if g.Perf != nil || g.Progress != nil || !g.Breakdown || g.Parallel != 2 {
			t.Errorf("%s: grid = %+v, want Perf nil, Breakdown on, 2 workers", w.Name, g)
		}
		if got, want := len(g.Apps)*len(g.Variants)*len(core.Implementations()), len(w.Cells); got != want {
			t.Errorf("%s: grid has %d cells, the workload lists %d", w.Name, got, want)
		}
	}
}

// TestCommittedDigestsParse checks the four committed digests are
// self-consistent and cover exactly their workload's cells.
func TestCommittedDigestsParse(t *testing.T) {
	for _, w := range workloads() {
		g, err := loadGolden(w.Name)
		if err != nil {
			t.Error(err)
			continue
		}
		if len(g.Lines) != len(w.Cells) {
			t.Errorf("%s.digest has %d cells, the workload %d", w.Name, len(g.Lines), len(w.Cells))
		}
		for _, c := range w.Cells {
			if _, ok := g.Lines[c.key()]; !ok {
				t.Errorf("%s.digest lacks %s", w.Name, c.key())
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
