// Command dsmsweep runs a sensitivity sweep: the (application x
// implementation x processor count) evaluation matrix under a set of
// cost-model variants, with structured CSV/JSON-lines/markdown artifacts and
// a baseline-comparison report.
//
// Usage:
//
//	dsmsweep -scale bench -variants "net=x2,x4 detect=sw,hw" -out sweep-out
//	dsmsweep -scale test -apps SOR,IS -procs 4,8 -variants "contention=off,on"
//	dsmsweep -scale bench -variants "platform=decstation_atm,cluster_gbe,rdma_100g,grace"
//	dsmsweep -preset rdma_100g -scale bench
//
// Variant axes: platform=NAME (any cost preset, including the registered
// platform models — see internal/platform), net=xK, cpu=xK, detect=sw|hw,
// diff=sw|free, contention=off|on, fault=off|drop1e-3|drop1e-2|chaos,
// topo=flat|clos:radix=K[:taper=T][:stages=N]; the calibrated paper
// platform ("paper") is always included as the comparison baseline.
// -preset adds one cost spec ("name" or "name+knob", platform.Resolve
// grammar) as an extra variant. At
// -scale large every cell defaults to LRC notice GC and a fan-in-16
// barrier tree (override with -fanin 1 for flat barriers).
// With -out unset, the markdown report goes to stdout; with it set,
// sweep.csv, sweep.jsonl, sweep.md and report.md are written to the
// directory.
//
// -breakdown profiles every cell and attaches the virtual-time profiler's
// stall decomposition (compute, trap-diff, page-fetch, lock/barrier/link
// wait, fault recovery) to each record, adding the stall columns to
// sweep.csv. The profile is built while the cell runs and no event history is
// kept, so it works at every -procs value the machine does. All other record
// fields are identical with it on or off.
//
// -progress streams per-cell completion heartbeats (wall time, running
// cells/sec, ETA) to stderr; -perf-out writes a schema-versioned
// BENCH_*.json host-performance trajectory (see internal/perf and
// cmd/dsmperf); -cpuprofile/-memprofile write standard pprof profiles. All
// are observation-only: the emitted records are identical with and without
// them.
//
// Failed cells do not abort the sweep: the surviving records are emitted,
// every failed cell is listed on stderr, and the exit code is 1.
//
// Exit codes: 0 on success, 1 on run/emit failure (including partial
// failures), 2 on invalid flags (including -variants specs, which carry the
// wrapped sweep.ErrSpec message).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/perf"
	"ecvslrc/internal/platform"
	_ "ecvslrc/internal/platform/models" // register the platform models as presets
	"ecvslrc/internal/sim"
	"ecvslrc/internal/sweep"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli is main with injectable arguments and streams, so the exit-code
// contract is table-testable. Returns the process exit code.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dsmsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.String("scale", "bench", "problem scale: "+strings.Join(apps.ScaleNames(), ", "))
	procsFlag := fs.String("procs", "8", "comma-separated processor counts, e.g. \"4,8\"")
	appsFlag := fs.String("apps", "", "comma-separated application subset (default: all)")
	implsFlag := fs.String("impls", "", "comma-separated implementation subset, e.g. \"EC-time,LRC-diff\" (default: all six)")
	variants := fs.String("variants", "", "variant spec, e.g. \"net=x2,x4 detect=sw,hw\" (default: baseline only)")
	preset := fs.String("preset", "", "add one cost spec as a variant: a preset ("+strings.Join(fabric.PresetNames(), ", ")+"), optionally +knobs, e.g. \"rdma_100g+net=x2\"")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "max cells simulated concurrently (records are identical for any value)")
	fanin := fs.Int("fanin", 0, "barrier fan-in for every cell: radix-r arrival tree (0 = scale default, 1 = force flat, r >= 2 = tree)")
	out := fs.String("out", "", "artifact directory (csv, jsonl, markdown, report); empty prints markdown to stdout")
	timeout := fs.Float64("timeout", 0, "per-cell virtual-time watchdog in simulated seconds: stalled cells fail with a diagnostic instead of hanging the sweep (0 disables)")
	breakdown := fs.Bool("breakdown", false, "profile every cell as it runs and attach the virtual-time stall breakdown (compute, trap-diff, page-fetch, lock/barrier/link wait, recovery) to each record; any -procs")
	progress := fs.Bool("progress", false, "stream per-cell completion heartbeats (wall time, running cells/sec, ETA) to stderr")
	perfOut := fs.String("perf-out", "", "write a BENCH_*.json host-performance trajectory to this file (per-cell alloc deltas are exact only with -parallel 1)")
	rev := fs.String("rev", "", "revision stamp for -perf-out (default: the build's vcs.revision, else \"unknown\")")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	usageFail := func(format string, fargs ...any) int {
		fmt.Fprintf(stderr, "dsmsweep: "+format+"\n", fargs...)
		return 2
	}

	if *timeout < 0 {
		return usageFail("negative -timeout")
	}
	if *fanin < 0 {
		return usageFail("negative -fanin")
	}
	g := sweep.Grid{Parallel: *parallel, Timeout: sim.Time(*timeout * float64(sim.Second)), BarrierFanIn: *fanin, Breakdown: *breakdown}
	sc, err := apps.ParseScale(*scale)
	if err != nil {
		return usageFail("%v", err)
	}
	g.Scale = sc
	for _, s := range splitList(*procsFlag) {
		np, err := strconv.Atoi(s)
		if err != nil {
			return usageFail("bad -procs entry %q", s)
		}
		g.NProcs = append(g.NProcs, np)
	}
	if *appsFlag != "" {
		known := make(map[string]bool)
		for _, n := range apps.Names() {
			known[n] = true
		}
		for _, n := range splitList(*appsFlag) {
			if !known[n] {
				return usageFail("unknown app %q (known: %s)", n, strings.Join(apps.Names(), ", "))
			}
			g.Apps = append(g.Apps, n)
		}
	}
	if *implsFlag != "" {
		for _, s := range splitList(*implsFlag) {
			impl, err := core.ParseImpl(s)
			if err != nil {
				return usageFail("%v", err)
			}
			g.Impls = append(g.Impls, impl)
		}
	}
	vs, err := sweep.ParseVariantSpec(*variants)
	if err != nil {
		return usageFail("%v", err)
	}
	if *preset != "" {
		cm, err := platform.Resolve(*preset)
		if err != nil {
			return usageFail("%v", err)
		}
		have := false
		for _, v := range vs {
			if v.Name == *preset {
				have = true
			}
		}
		if !have {
			vs = append(vs, sweep.Variant{Name: *preset, Cost: cm})
		}
	}
	g.Variants = vs
	if *perfOut != "" {
		g.Perf = perf.New()
		g.Perf.SetAllocsExact(*parallel == 1)
	}
	if *progress {
		g.Progress = perf.ProgressEmitter(stderr)
	}

	stopProf, err := perf.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(stderr, "dsmsweep: %v\n", err)
		return 2
	}
	code := sweepRun(g, *out, recsEmitEnv{stdout: stdout, stderr: stderr})
	if *perfOut != "" {
		meta := perf.HostMeta(*rev)
		meta.Scale, meta.Parallel = *scale, *parallel
		meta.Cmd = "dsmsweep " + strings.Join(args, " ")
		traj := g.Perf.Snapshot(meta)
		if err := writeTrajectory(*perfOut, traj); err != nil {
			fmt.Fprintf(stderr, "dsmsweep: %v\n", err)
			if code == 0 {
				code = 1
			}
		} else {
			fmt.Fprintf(stderr, "dsmsweep: perf trajectory (%d cells, %d runs, %.1f cells/s) -> %s\n",
				len(traj.Cells), traj.CellRuns, traj.CellsPerSec, *perfOut)
		}
	}
	if err := stopProf(); err != nil {
		fmt.Fprintf(stderr, "dsmsweep: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	return code
}

// recsEmitEnv carries the output streams into the run/emit stage.
type recsEmitEnv struct {
	stdout, stderr io.Writer
}

// sweepRun executes the grid and emits artifacts; split from cli so the
// profiling/trajectory epilogue runs on every exit path.
func sweepRun(g sweep.Grid, out string, env recsEmitEnv) int {
	stdout, stderr := env.stdout, env.stderr
	fail := func(err error) int {
		fmt.Fprintf(stderr, "dsmsweep: %v\n", err)
		return 1
	}

	recs, err := sweep.Run(g)
	// Per-cell failures are not fatal to emission: the surviving records are
	// written out, then the failed cells are listed and the exit code is 1.
	var cellFailures *sweep.CellFailures
	if err != nil && !errors.As(err, &cellFailures) {
		return fail(err)
	}
	finish := func() int {
		if cellFailures == nil {
			return 0
		}
		fmt.Fprintf(stderr, "dsmsweep: %d of %d cells failed (partial results emitted):\n",
			len(cellFailures.Errs), len(recs)+len(cellFailures.Errs))
		for _, e := range cellFailures.Errs {
			fmt.Fprintf(stderr, "  %v\n", e)
		}
		return 1
	}

	if out == "" {
		if err := sweep.WriteMarkdown(stdout, recs); err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout)
		if err := sweep.WriteBaselineReport(stdout, recs, sweep.BaselineName); err != nil {
			return fail(err)
		}
		return finish()
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return fail(err)
	}
	emit := func(name string, write func(f *os.File) error) error {
		path := filepath.Join(out, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	for _, e := range []struct {
		name  string
		write func(f *os.File) error
	}{
		{"sweep.csv", func(f *os.File) error { return sweep.WriteCSV(f, recs) }},
		{"sweep.jsonl", func(f *os.File) error { return sweep.WriteJSONL(f, recs) }},
		{"sweep.md", func(f *os.File) error { return sweep.WriteMarkdown(f, recs) }},
		{"report.md", func(f *os.File) error { return sweep.WriteBaselineReport(f, recs, sweep.BaselineName) }},
	} {
		if err := emit(e.name, e.write); err != nil {
			return fail(err)
		}
	}
	fmt.Fprintf(stdout, "dsmsweep: %d records (%d variants) -> %s\n", len(recs), len(g.Variants), out)
	return finish()
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

func writeTrajectory(path string, t *perf.Trajectory) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := perf.WriteTrajectory(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
