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
//	dsmtrace -app SOR -impl EC-time -procs 4 -scale test
//
// With -out unset the markdown summary goes to stdout; with it set, the
// selected reports (summary.md, pages.csv, locks.csv, timeline.json,
// trace.bin, profile.md, profile.folded, critpath.csv, critpath.json,
// whatif.md) are written to the directory. Every selection other than
// summary/barriers produces files, so it needs -out: such selections fail
// fast with the wrapped trace.ErrConfig message before the run starts,
// never silently writing nothing. Tracing is observation-only: the run's
// statistics are bit-identical to an untraced dsmrun of the same cell, which
// the shared cell and machine flags (internal/cmdline) describe identically.
//
// Exit codes: 0 on success, 1 on run/emit failure, 2 on invalid flags
// (including -report selections, which carry the wrapped trace.ErrConfig
// message).
package main

import (
	"fmt"
	"io"
	"os"
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
	reports := c.FS.String("report", "", "comma-separated reports: "+strings.Join(trace.ReportNames(), ", ")+" (default: all)")
	out := c.FS.String("out", "", "artifact directory; empty prints the summary to stdout")
	sched := c.FS.Bool("sched", false, "also record scheduler dispatch events (very voluminous)")
	if code, done := c.Parse(args); done {
		return code
	}
	if err := harness.CheckBufferedTrace(c.Config.NProcs); err != nil {
		return c.Usage(err)
	}
	// Stdout mode emits the summary only; files need -out.
	sel := []trace.Report{trace.ReportSummary}
	if *reports != "" || *out != "" {
		var err error
		if sel, err = trace.ParseReports(*reports); err != nil {
			return c.Usage(err)
		}
	}
	topts := trace.Options{Reports: sel, OutDir: *out, Sched: *sched}
	if err := topts.Validate(); err != nil {
		return c.Usage(err)
	}
	return c.Run(func() int {
		row, meta := harness.RunTraced(c.Config, c.App, c.Impl, topts.Sched)
		if row.Err != nil {
			return c.Fail(row.Err)
		}
		an := trace.Analyze(row.Trace, meta)
		if *out == "" {
			if err := trace.WriteMarkdown(stdout, an); err != nil {
				return c.Fail(err)
			}
			return 0
		}
		written, err := trace.EmitReports(*out, sel, trace.Artifacts{Analysis: an}, row.Trace)
		if err != nil {
			return c.Fail(err)
		}
		fmt.Fprintf(stdout, "dsmtrace: %s on %v, %d procs: %d events, %v simulated -> %s\n",
			c.App, c.Impl, c.Config.NProcs, row.Trace.Len(), row.Stats.Time, strings.Join(written, ", "))
		return 0
	})
}
