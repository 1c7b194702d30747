// Command benchmark is the repository's benchmark driver: four workloads,
// host-cost end-to-end metrics, and two sources of per-layer metrics (probes
// and observed passes). It measures the simulator from outside only — it times
// calls into each package's public functions and reads the counters those
// functions already return. README.md has the tables; BENCHMARK.json is the
// contract the metric names, units and bounds are pinned to.
//
//	go run ./benchmark -workload all -seed 1      every end-to-end metric, verified
//	go run ./benchmark -workload grid_p8 -traced  plus every per-layer metric
//	go run ./benchmark -workload probes           the unit-cost probes alone
//	go run ./benchmark -workload all -repeat 2    two sets, compared against the bounds
//
// All times are host time unless the name says sim.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/harness"
	"ecvslrc/internal/sweep"
)

// processStart anchors setup_s: package initialisation runs before main, so
// this is as close to process start as the program can observe.
var processStart = time.Now()

const (
	// setupSamples is how many cold set-ups one run measures: its own plus
	// fresh child processes, because the caches set-up fills (harness images,
	// the apps' memoized references) cannot be emptied from outside.
	setupSamples = 5
	// minPasses is the fewest timed passes a run reports medians over.
	minPasses = 3
)

type options struct {
	Workload     string
	Seed         uint64
	Seconds      float64
	Trace        bool
	Out          string
	UpdateGolden bool
	Repeat       int
	SetupOnly    bool
}

// result is the driver contract's last stdout line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	fs.StringVar(&opt.Workload, "workload", "all", "workload: "+strings.Join(workloadNames(), ", ")+", probes, or all")
	fs.Uint64Var(&opt.Seed, "seed", 1, "seed for the generated inputs (cell order, fault-plan seed, probe data); the digests are committed at seed 1")
	fs.Float64Var(&opt.Seconds, "seconds", 20, "how long the timed passes measure; at least 3 passes run")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics (probes + observed passes) instead of the end-to-end ones")
	traced := fs.Bool("traced", false, "same as -trace 1")
	fs.StringVar(&opt.Out, "out", ".bench_build/spans", "directory for the observed passes' Chrome trace span file")
	fs.BoolVar(&opt.UpdateGolden, "update-golden", false, "rewrite benchmark/golden/<workload>.digest from a seed-1 pass (benchmark PRs only)")
	fs.IntVar(&opt.Repeat, "repeat", 1, "with -workload all: run the whole set this many times and compare the medians against the bounds")
	fs.BoolVar(&opt.SetupOnly, "setup-only", false, "internal: set up, print the set-up time and exit (one cold set-up sample)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.Trace = *trace != 0 || *traced
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if opt.UpdateGolden && opt.Seed != 1 {
		fmt.Fprintln(stderr, "benchmark: the digests are committed at -seed 1")
		return 2
	}
	if opt.Repeat < 1 {
		fmt.Fprintln(stderr, "benchmark: -repeat must be at least 1")
		return 2
	}

	switch opt.Workload {
	case "all":
		return runAll(opt, stdout, stderr)
	case "probes":
		return runProbesOnly(opt, stdout)
	}
	w, ok := workloadByName(opt.Workload)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (valid: %s, probes, all)\n",
			opt.Workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := runWorkload(w, opt, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
		return 1
	}
	if res != nil {
		printResult(stdout, *res)
	}
	return 0
}

func printResult(w io.Writer, res result) {
	line, err := json.Marshal(res)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(w, "%s\n", line)
}

// prepared is a workload after set-up: everything a pass needs.
type prepared struct {
	W    workload
	Grid sweep.Grid // sweep workload
}

// setUp does what a user pays before the first cell can run: it resolves the
// platform models and variant axes, constructs every application once, and
// fills the harness's per-(app, scale) layout and initial-image caches, which
// also computes and memoizes each application's verification reference.
func setUp(w workload, seed uint64) (*prepared, error) {
	runtime.GOMAXPROCS(w.Procs)
	p := &prepared{W: w}
	if w.Spec != "" {
		g, err := sweepGrid(w, seed)
		if err != nil {
			return nil, err
		}
		p.Grid = g
	}
	type instance struct {
		app   string
		scale apps.Scale
	}
	seen := map[instance]bool{}
	for _, c := range w.Cells {
		k := instance{c.App, c.Scale}
		if seen[k] {
			continue
		}
		seen[k] = true
		if _, err := apps.New(c.App, c.Scale); err != nil {
			return nil, err
		}
		if _, err := harness.InitImage(c.App, c.Scale); err != nil {
			return nil, err
		}
		if _, err := harness.InitLayout(c.App, c.Scale); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// pass runs one untraced pass: the timed path, with tracer and perf registry
// nil everywhere except the sweep workload's own Breakdown.
func (p *prepared) pass() passResult {
	if p.W.Spec != "" {
		return runSweepPass(p.W.Cells, p.Grid)
	}
	return runSerialPass(p.W.Cells, runCell)
}

// coldSetups measures set-up in fresh child processes, one after another.
func coldSetups(w workload, seed uint64, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-workload", w.Name, "-seed", strconv.FormatUint(seed, 10), "-setup-only")
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		s, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up child printed %q: %w", b, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// checker accumulates the correctness verdict over every pass of a run.
type checker struct {
	golden    golden
	seed      uint64
	attempted int
	failed    int
	shown     int
	out       io.Writer
}

func (c *checker) check(what string, p passResult) {
	c.attempted += len(p.Cells)
	failures := verifyPass(c.golden, p, c.seed)
	c.failed += len(failures)
	for _, f := range failures {
		if c.shown < 10 {
			fmt.Fprintf(c.out, "FAIL %s: %s\n", what, f)
		}
		c.shown++
	}
}

// runWorkload measures one workload in this process. It returns nil (and no
// error) in the modes that print no result line.
func runWorkload(w workload, opt options, stdout io.Writer) (*result, error) {
	prep, err := setUp(w, opt.Seed)
	if err != nil {
		return nil, err
	}
	ownSetup := time.Since(processStart).Seconds()
	if opt.SetupOnly {
		fmt.Fprintf(stdout, "%.9f\n", ownSetup)
		return nil, nil
	}
	if opt.UpdateGolden {
		path, err := writeGolden(w.Name, prep.pass())
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
		return nil, nil
	}
	g, err := loadGolden(w.Name)
	if err != nil {
		return nil, err
	}
	chk := &checker{golden: g, seed: opt.Seed, out: stdout}
	fmt.Fprintf(stdout, "workload %s  seed %d  %d cells/pass  GOMAXPROCS %d\n  why: %s\n",
		w.Name, opt.Seed, len(w.Cells), w.Procs, w.Why)

	var rep *report
	if opt.Trace {
		var unit map[string]float64
		if unit, err = runProbes(opt.Seed, 1); err == nil {
			rep, err = measureLayers(prep, opt, unit, chk, stdout)
		}
	} else {
		var setups []float64
		if setups, err = coldSetups(w, opt.Seed, setupSamples-1); err == nil {
			rep = measureEndToEnd(prep, opt, append(setups, ownSetup), chk, stdout)
		}
	}
	if err != nil {
		return nil, err
	}
	if miss := rep.missing(); len(miss) > 0 {
		return nil, fmt.Errorf("metrics not reported: %s", strings.Join(miss, ", "))
	}
	ratio := float64(chk.failed) / float64(chk.attempted)
	fmt.Fprintf(stdout, "  %-32s %14.6g %-6s %d failed of %d attempted\n", "fail_ratio", ratio, "ratio", chk.failed, chk.attempted)
	if opt.Seed == 1 && chk.failed == 0 {
		fmt.Fprintf(stdout, "  digest %s matches %s/%s.digest\n", g.Sum[:16], goldenDir, w.Name)
	}
	return &result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: rep.values}, nil
}

// measureEndToEnd is the -trace 0 run: one warm-up pass, then timed passes
// for -seconds (at least minPasses), all verified. setups are the cold
// set-up samples, measured before anything here ran.
func measureEndToEnd(prep *prepared, opt options, setups []float64, chk *checker, stdout io.Writer) *report {
	chk.check("warm-up", prep.pass())
	var passes []passResult
	for start := time.Now(); len(passes) < minPasses || time.Since(start).Seconds() < opt.Seconds; {
		p := prep.pass()
		chk.check(fmt.Sprintf("pass %d", len(passes)+1), p)
		passes = append(passes, p)
	}

	series := func(f func(passResult) float64) []float64 {
		out := make([]float64, len(passes))
		for i, p := range passes {
			out[i] = f(p)
		}
		return out
	}
	rep := newReport(endToEnd)
	put := func(name string, estimate func([]float64) float64, vals []float64) {
		rep.set(name, estimate(vals), spreadNote(vals))
		fmt.Fprintf(stdout, "  samples %-18s %.6g\n", name, vals)
	}
	put("setup_s", steady, setups)
	put("wall_s", steady, series(func(p passResult) float64 { return p.Wall.Seconds() }))
	put("cpu_s", steady, series(func(p passResult) float64 { return p.CPU.Seconds() }))
	// The slowest cell is the one whose own steady time is largest, not
	// whichever cell a disturbance hit in each pass.
	perCell := make([]float64, len(prep.W.Cells))
	for i := range perCell {
		perCell[i] = steady(series(func(p passResult) float64 { return p.Cells[i].Wall.Seconds() }))
	}
	rep.set("slowest_cell_s", slices.Max(perCell), fmt.Sprintf("largest per-cell first quartile of %d cells", len(perCell)))
	put("mallocs_per_pass", steady, series(func(p passResult) float64 { return float64(p.Mallocs) }))
	put("alloc_mb_per_pass", steady, series(func(p passResult) float64 { return float64(p.AllocBytes) / (1 << 20) }))
	put("peak_rss_mb", provision, series(func(p passResult) float64 { return p.PeakRSS }))
	rep.print(stdout, "end-to-end metrics (host time; first quartile of the timed passes, third for peak memory)")
	return rep
}

// childResult runs one workload in a child process, so peak_rss_mb is per
// workload, streams its report through and returns its result line.
func childResult(opt options, name string, stdout, stderr io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatUint(opt.Seed, 10),
		"-seconds", strconv.FormatFloat(opt.Seconds, 'g', -1, 64)}
	if opt.Trace {
		args = append(args, "-trace", "1")
		args = append(args, "-out", opt.Out)
	}
	if opt.UpdateGolden {
		args = append(args, "-update-golden")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(stdout, &buf)
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	if opt.UpdateGolden {
		return result{Correct: true}, nil
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s: result line: %w", name, err)
	}
	return res, nil
}

// runAll runs every workload, each in its own process, -repeat times, and
// with -repeat >= 2 compares the sets against each metric's own bound.
func runAll(opt options, stdout, stderr io.Writer) int {
	sets := make([]map[string]result, opt.Repeat)
	ok := true
	for s := range sets {
		sets[s] = map[string]result{}
		if opt.Repeat > 1 {
			fmt.Fprintf(stdout, "--- set %d of %d ---\n", s+1, opt.Repeat)
		}
		for _, name := range workloadNames() {
			res, err := childResult(opt, name, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
			ok = ok && res.Correct
			sets[s][name] = res
		}
	}
	if opt.Repeat > 1 && !opt.Trace && !opt.UpdateGolden {
		ok = compareSets(stdout, sets) && ok
	}
	if !ok {
		return 1
	}
	return 0
}

// compareSets prints, per end-to-end metric x workload, the first and last
// set's values, their relative difference and PASS/FAIL against the
// metric's own bound. A workload that cannot hold a bound needs more passes,
// never a wider bound.
func compareSets(w io.Writer, sets []map[string]result) bool {
	first, last := sets[0], sets[len(sets)-1]
	pass := true
	fmt.Fprintf(w, "\n%-12s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "first", "last", "worse by", "bound", "")
	for _, name := range workloadNames() {
		for _, d := range endToEnd {
			a, b := first[name].Metrics[d.Name].Value, last[name].Metrics[d.Name].Value
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "PASS"
			if worse > d.Bound {
				verdict, pass = "FAIL", false
			}
			fmt.Fprintf(w, "%-12s %-20s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n",
				name, d.Name, a, b, 100*worse, 100*d.Bound, verdict)
		}
	}
	return pass
}
