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
// -preset adds one cost spec as an extra variant; -fanin and -timeout apply
// to every cell (these and the other shared flags: internal/cmdline).
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
// cells/sec, ETA) to stderr; it is observation-only: the emitted records are
// identical with and without it.
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
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"ecvslrc/internal/cmdline"
	"ecvslrc/internal/core"
	"ecvslrc/internal/perf"
	"ecvslrc/internal/sweep"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli is main with injectable arguments and streams, so the exit-code
// contract is table-testable. Returns the process exit code.
func cli(args []string, stdout, stderr io.Writer) int {
	c := cmdline.New("dsmsweep", stdout, stderr)
	c.BindScale("bench")
	c.BindPreset("", "add one cost spec as a variant")
	c.BindFanInTimeout()
	c.BindGrid()
	c.BindProfiles()
	procsFlag := c.FS.String("procs", "8", "comma-separated processor counts, e.g. \"4,8\"")
	implsFlag := c.FS.String("impls", "", "comma-separated implementation subset, e.g. \"EC-time,LRC-diff\" (default: all six)")
	variants := c.FS.String("variants", "", "variant spec, e.g. \"net=x2,x4 detect=sw,hw\" (default: baseline only)")
	out := c.FS.String("out", "", "artifact directory (csv, jsonl, markdown, report); empty prints markdown to stdout")
	breakdown := c.FS.Bool("breakdown", false, "profile every cell as it runs and attach the virtual-time stall breakdown (compute, trap-diff, page-fetch, lock/barrier/link wait, recovery) to each record; any -procs")
	progress := c.FS.Bool("progress", false, "stream per-cell completion heartbeats (wall time, running cells/sec, ETA) to stderr")
	if code, done := c.Parse(args); done {
		return code
	}
	cfg := &c.Config
	g := sweep.Grid{
		Scale: cfg.Scale, Apps: c.Apps, Parallel: cfg.Parallel, Timeout: cfg.Timeout,
		Breakdown: *breakdown,
	}
	for _, s := range cmdline.SplitList(*procsFlag) {
		np, err := strconv.Atoi(s)
		if err != nil {
			return c.Usage(fmt.Errorf("bad -procs entry %q", s))
		}
		g.NProcs = append(g.NProcs, np)
	}
	for _, s := range cmdline.SplitList(*implsFlag) {
		impl, err := core.ParseImpl(s)
		if err != nil {
			return c.Usage(err)
		}
		g.Impls = append(g.Impls, impl)
	}
	var err error
	if g.Variants, err = sweep.ParseVariantSpec(*variants); err != nil {
		return c.Usage(err)
	}
	have := c.Preset == ""
	for i := range g.Variants {
		// -fanin applies to every cell of the sweep.
		g.Variants[i].BarrierFanIn = cfg.BarrierFanIn
		have = have || g.Variants[i].Name == c.Preset
	}
	if !have {
		g.Variants = append(g.Variants, sweep.Variant{Name: c.Preset, Cost: cfg.Cost, Machine: cfg.Machine})
	}
	if *progress {
		g.Progress = perf.ProgressEmitter(stderr)
	}
	return c.Run(func() int { return sweepRun(c, g, *out) })
}

// sweepRun executes the grid and emits artifacts; split from cli so the
// profiling epilogue runs on every exit path.
func sweepRun(c *cmdline.Cmd, g sweep.Grid, out string) int {
	stdout, stderr, fail := c.Stdout, c.Stderr, c.Fail

	recs, err := sweep.Run(g)
	// Per-cell failures are not fatal to emission: the surviving records are
	// written out, then the failed cells are listed and the exit code is 1.
	var cellFailures *sweep.CellFailures
	switch {
	case errors.Is(err, sweep.ErrGrid):
		return c.Usage(err) // the machine validator, reached through the grid
	case err != nil && !errors.As(err, &cellFailures):
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
	for _, e := range []struct {
		name  string
		write func(w io.Writer) error
	}{
		{"sweep.csv", func(w io.Writer) error { return sweep.WriteCSV(w, recs) }},
		{"sweep.jsonl", func(w io.Writer) error { return sweep.WriteJSONL(w, recs) }},
		{"sweep.md", func(w io.Writer) error { return sweep.WriteMarkdown(w, recs) }},
		{"report.md", func(w io.Writer) error { return sweep.WriteBaselineReport(w, recs, sweep.BaselineName) }},
	} {
		if err := cmdline.WriteFile(filepath.Join(out, e.name), e.write); err != nil {
			return fail(err)
		}
	}
	fmt.Fprintf(stdout, "dsmsweep: %d records (%d variants) -> %s\n", len(recs), len(g.Variants), out)
	return finish()
}
