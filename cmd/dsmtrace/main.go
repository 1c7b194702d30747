// Command dsmtrace answers "why is this cell slow?": it runs one
// (application, implementation) combination with event tracing enabled and
// emits the attribution artifacts — per-page heat and sharing patterns,
// per-lock contention chains, barrier imbalance, a message-class timeline,
// a Chrome trace-event view, and the virtual-time profiler's products (the
// per-processor stall breakdown, folded stacks, the critical path and its
// what-if projections).
//
// Usage:
//
//	dsmtrace -app Water -impl LRC-diff -procs 8 -report pages,locks,timeline -out results/
//	dsmtrace -app SOR -impl LRC-diff -procs 8 -report profile,critpath,whatif -out results/
//	dsmtrace -app SOR -impl LRC-diff -procs 8 -report profile,whatif
//	dsmtrace -app SOR -impl EC-time -procs 4 -scale test
//
// With -out set, the selected reports (all by default: summary.md, pages.csv,
// locks.csv, timeline.json, trace.bin, profile.md, profile.folded,
// critpath.csv, critpath.json, whatif.md) are written to the directory. With
// -out unset, the selected markdown reports (the summary by default) are
// printed to stdout one blank line apart: summary (which holds the barrier
// tables), profile and whatif. The other reports only write files, so they
// need -out: such selections fail fast with the wrapped trace.ErrConfig
// message before the run starts, never silently writing nothing; so does
// -sched without the bin report, which alone holds the dispatch stream.
// Tracing is observation-only: the run's statistics are bit-identical to an
// untraced dsmrun of the same cell, which the shared cell and machine flags
// (internal/cmdline) describe identically.
//
// The process runs on one P unless the GOMAXPROCS environment variable is
// set: one simulation is one baton, so a second P only adds wake-ups.
//
// Exit codes: 0 on success, 1 on run/emit failure, 2 on invalid flags
// (including -report selections, which carry the wrapped trace.ErrConfig
// message).
package main

import (
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"ecvslrc/internal/cmdline"
	"ecvslrc/internal/harness"
	"ecvslrc/internal/perf"
	"ecvslrc/internal/trace"
)

func main() {
	perf.SingleCellProcs()
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli is main with injectable arguments and streams, so the exit-code
// contract is table-testable. Returns the process exit code.
func cli(args []string, stdout, stderr io.Writer) int {
	c := cmdline.New("dsmtrace", stdout, stderr)
	c.BindCell("bench")
	reports := c.FS.String("report", "", "comma-separated reports: "+strings.Join(trace.ReportNames(), ", ")+" (default: all with -out, summary without)")
	out := c.FS.String("out", "", "artifact directory; empty prints the markdown reports to stdout")
	sched := c.FS.Bool("sched", false, "also record scheduler dispatch events into trace.bin (very voluminous; needs the bin report, and turns run-ahead off)")
	if code, done := c.Parse(args); done {
		return code
	}
	if err := harness.CheckBufferedTrace(c.Config.NProcs); err != nil {
		return c.Usage(err)
	}
	sel, err := trace.ParseReports(*reports, *out == "")
	if err != nil {
		return c.Usage(err)
	}
	if *sched && !slices.Contains(sel, trace.ReportBinary) {
		return c.Usage(fmt.Errorf("trace: %w: -sched records the dispatch stream, which only trace.bin holds: select the bin report", trace.ErrConfig))
	}
	return c.Run(func() int {
		row, meta := harness.RunTraced(c.Config, c.App, c.Impl, *sched)
		if row.Err != nil {
			return c.Fail(row.Err)
		}
		if *out == "" {
			if err := trace.WriteReports(stdout, sel, row.Trace, meta); err != nil {
				return c.Fail(err)
			}
			return 0
		}
		written, err := trace.EmitReports(*out, sel, row.Trace, meta)
		if err != nil {
			return c.Fail(err)
		}
		fmt.Fprintf(stdout, "dsmtrace: %s on %v, %d procs: %d events, %v simulated -> %s\n",
			c.App, c.Impl, c.Config.NProcs, row.Trace.Len(), row.Stats.Time, strings.Join(written, ", "))
		return 0
	})
}
