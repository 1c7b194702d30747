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
// statistics are bit-identical to an untraced dsmrun.
//
// Exit codes: 0 on success, 1 on run/emit failure, 2 on invalid flags
// (including -report selections, which carry the wrapped trace.ErrConfig
// message).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/perf"
	"ecvslrc/internal/platform"
	_ "ecvslrc/internal/platform/models" // register the platform models as presets
	"ecvslrc/internal/run"
	"ecvslrc/internal/trace"
)

func main() {
	perf.SingleCellProcs()
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli is main with injectable arguments and streams, so the exit-code
// contract is table-testable. Returns the process exit code.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dsmtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	appName := fs.String("app", "SOR", "application: "+strings.Join(apps.Names(), ", "))
	implName := fs.String("impl", "LRC-diff", "implementation: EC-ci, EC-time, EC-diff, LRC-ci, LRC-time, LRC-diff")
	procs := fs.Int("procs", 8, "number of simulated processors")
	scale := fs.String("scale", "bench", "problem scale: test, bench or paper")
	preset := fs.String("preset", "paper", "cost spec: a preset ("+strings.Join(fabric.PresetNames(), ", ")+"), optionally +knobs, e.g. \"rdma_100g+net=x2\"")
	contention := fs.Bool("contention", false, "model shared-link contention (queueing delays appear in the analysis)")
	reports := fs.String("report", "", "comma-separated reports: "+strings.Join(trace.ReportNames(), ", ")+" (default: all)")
	out := fs.String("out", "", "artifact directory; empty prints the summary to stdout")
	sched := fs.Bool("sched", false, "also record scheduler dispatch events (very voluminous)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintf(stderr, "dsmtrace: %v\n", err)
		return 1
	}
	usageFail := func(format string, fargs ...any) int {
		fmt.Fprintf(stderr, "dsmtrace: "+format+"\n", fargs...)
		return 2
	}

	sc, err := apps.ParseScale(*scale)
	if err != nil {
		return usageFail("%v", err)
	}
	impl, err := core.ParseImpl(*implName)
	if err != nil {
		return usageFail("%v", err)
	}
	if *procs < 1 || *procs > trace.MaxProcs {
		return usageFail("traced runs support 1..%d processors, got %d", trace.MaxProcs, *procs)
	}
	cost, err := platform.Resolve(*preset)
	if err != nil {
		return usageFail("%v", err)
	}
	var sel []trace.Report
	if *reports == "" && *out == "" {
		// Stdout mode emits the summary only; files need -out.
		sel = []trace.Report{trace.ReportSummary}
	} else {
		sel, err = trace.ParseReports(*reports)
		if err != nil {
			return usageFail("%v", err)
		}
	}
	topts := trace.Options{Reports: sel, OutDir: *out, Sched: *sched}
	if err := topts.Validate(); err != nil {
		return usageFail("%v", err)
	}

	a, err := apps.New(*appName, sc)
	if err != nil {
		return fail(err)
	}
	tr := trace.New(*procs)
	if topts.Sched {
		tr.EnableSched()
	}
	res, err := run.RunWith(a, impl, *procs, cost, run.Options{Contention: *contention, Trace: tr})
	if err != nil {
		return fail(err)
	}

	// Re-derive the layout on a fresh instance (Layout may bind app state)
	// so the analysis can name pages by region.
	a2, err := apps.New(*appName, sc)
	if err != nil {
		return fail(err)
	}
	meta := run.TraceMeta(a2, impl, *procs, *scale)

	if *out == "" {
		if err := trace.WriteMarkdown(stdout, trace.Analyze(tr, meta)); err != nil {
			return fail(err)
		}
		return 0
	}
	written, err := trace.EmitReports(*out, sel, trace.Artifacts{Analysis: trace.Analyze(tr, meta)}, tr)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "dsmtrace: %s on %v, %d procs: %d events, %v simulated -> %s\n",
		*appName, impl, *procs, tr.Len(), res.Stats.Time, strings.Join(written, ", "))
	return 0
}
