// Command dsmrun executes one (application, implementation) combination on
// the simulated DSM cluster and prints its statistics.
//
// Usage:
//
//	dsmrun -app Water -impl LRC-diff -procs 8 -scale paper
//	dsmrun -app QS -impl EC-time -procs 4 -scale test
//	dsmrun -app SOR -impl LRC-diff -procs 8 -trace trace-out
//	dsmrun -app SOR -impl LRC-diff -procs 8 -profile
//	dsmrun -app Water -impl LRC-diff -perf -cpuprofile cpu.pprof
//	dsmrun -app Water -impl LRC-diff -procs 256 -scale large -gc -fanin 16 -topo clos:radix=16
//
// -profile prints the virtual-time profile after the run: the per-processor
// stall breakdown, the critical path's decomposition and the what-if
// projections (internal/trace's profiler), without needing a -trace
// directory. -perf prints a host-side breakdown after the run (phase wall
// times, each cell's wall time and allocation delta — the sequential
// reference's too under -seq — and peak heap; internal/perf). Both are
// observation-only: the simulated statistics are identical with and without
// them. The cell and machine flags (-app ... -timeout, -cpuprofile,
// -memprofile) are the shared ones of internal/cmdline; at -scale large the
// cell gets notice GC and a fan-in-16 barrier tree unless -fanin says
// otherwise, and the printed label shows the machine that ran.
//
// The process runs on one P unless the GOMAXPROCS environment variable is
// set: one simulation is one baton, so a second P only adds wake-ups.
//
// Exit codes: 0 on success, 1 on run failure, 2 on invalid flags.
package main

import (
	"fmt"
	"io"
	"os"
	"sort"
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
	c := cmdline.New("dsmrun", stdout, stderr)
	c.BindCell("paper")
	c.BindProfiles()
	seq := c.FS.Bool("seq", false, "also run the sequential reference")
	traceDir := c.FS.String("trace", "", "record an event trace and write all attribution reports to this directory (see cmd/dsmtrace for report selection)")
	profileFlag := c.FS.Bool("profile", false, "print the virtual-time profile after the run (per-proc stall breakdown, critical path, what-if projections); implies tracing")
	perfFlag := c.FS.Bool("perf", false, "print a host-side performance breakdown (phase wall times, allocs, peak heap) after the run")
	if code, done := c.Parse(args); done {
		return code
	}
	cfg, app, impl := &c.Config, c.App, c.Impl
	// An untraceable cell must fail like a bad flag, before the (potentially
	// long) run.
	traced := *traceDir != "" || *profileFlag
	if traced {
		if err := harness.CheckBufferedTrace(cfg.NProcs); err != nil {
			return c.Usage(err)
		}
	}
	if *perfFlag {
		cfg.Perf = perf.New()
	}
	return c.Run(func() int {
		if *seq {
			t, err := harness.RunSeq(*cfg, app)
			if err != nil {
				return c.Fail(err)
			}
			fmt.Fprintf(stdout, "%s sequential: %v\n", app, t)
		}
		var row harness.Row
		var meta trace.Meta
		if traced {
			row, meta = harness.RunTraced(*cfg, app, impl, false)
		} else {
			row = harness.RunCell(*cfg, app, impl)
		}
		if row.Err != nil {
			return c.Fail(row.Err)
		}
		// The label names the machine the cell ran on — scale defaults
		// resolved — so equal labels mean equal cells in every front end.
		m, variant := row.Machine, c.Preset
		if m.Contention {
			variant += "+contention"
		}
		if m.Faults != nil {
			variant += "+fault=" + m.Faults.Name
		}
		if m.Topology != nil {
			variant += "+topo=" + m.Topology.String()
		}
		if m.BarrierFanIn >= 2 {
			variant += fmt.Sprintf("+fanin=%d", m.BarrierFanIn)
		}
		if m.NoticeGC {
			variant += "+gc"
		}
		fmt.Fprintf(stdout, "%s on %v, %d procs (%s scale, %s cost):\n  %v\n", app, impl, cfg.NProcs, cfg.Scale, variant, row.Stats)
		if m.Faults != nil {
			f := row.Faults
			fmt.Fprintf(stdout, "  faults: %d sent, %d dropped, %d duplicated, %d delayed; %d retransmits, %d dups dropped, %d reordered, %d acks (%d lost), recovery wait %v\n",
				f.Sent, f.Dropped, f.Duplicated, f.Delayed, f.Retransmits, f.DupsDropped, f.OutOfOrder, f.Acks, f.AcksLost, f.RecoveryWait)
		}
		if row.GC != nil {
			fmt.Fprintf(stdout, "  gc: %d passes, %d records + %d diffs pruned, %d notice bytes live at exit\n",
				row.GC.Collections, row.GC.RecordsPruned, row.GC.DiffsPruned, row.NoticeBytes)
		}
		if traced {
			// The analysis (event scan, profile build, critical-path walk) is
			// timed apart from file emission, so "analyze" wall time lands in
			// the -perf breakdown alongside init/simulate/verify.
			ph := cfg.Perf.StartPhase("analyze")
			art := trace.Analyzed(row.Trace, meta)
			ph.End()
			if *traceDir != "" {
				ph = cfg.Perf.StartPhase("trace_emit")
				all, _ := trace.ParseReports("") // the empty selection is every report
				written, err := trace.EmitReports(*traceDir, all, art, row.Trace)
				ph.End()
				if err != nil {
					return c.Fail(err)
				}
				fmt.Fprintf(stdout, "  trace: %d events -> %s\n", row.Trace.Len(), strings.Join(written, ", "))
			}
			if *profileFlag {
				if err := trace.WriteProfileMarkdown(stdout, art.Profile, art.CritPath); err != nil {
					return c.Fail(err)
				}
				fmt.Fprintln(stdout)
				if err := trace.WriteWhatIfMarkdown(stdout, art.CritPath); err != nil {
					return c.Fail(err)
				}
			}
		}
		if cfg.Perf != nil {
			printPerf(stdout, cfg.Perf)
		}
		return 0
	})
}

// printPerf renders the host-side breakdown: phase wall times in name
// order, then each recorded cell's totals — labelled by impl when -seq
// recorded the sequential reference as a second cell — then the peak heap.
func printPerf(w io.Writer, reg *perf.Registry) {
	counters := reg.Counters()
	var phases []string
	for name := range counters {
		if strings.HasPrefix(name, "phase_") {
			phases = append(phases, name)
		}
	}
	sort.Strings(phases)
	fmt.Fprintf(w, "  perf:")
	for _, name := range phases {
		label := strings.TrimSuffix(strings.TrimPrefix(name, "phase_"), "_ns")
		fmt.Fprintf(w, " %s %.1fms |", label, float64(counters[name])/1e6)
	}
	cells := reg.Cells()
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(w, " |")
		}
		if len(cells) > 1 {
			fmt.Fprintf(w, " %s", c.Impl)
		}
		fmt.Fprintf(w, " wall %.1fms | %d mallocs (%.1f MiB)",
			float64(c.WallNS)/1e6, c.Mallocs, float64(c.AllocBytes)/(1<<20))
	}
	fmt.Fprintf(w, " | peak heap %.1f MiB\n", float64(reg.PeakHeapBytes())/(1<<20))
}
