// Command dsmrun executes one (application, implementation) combination on
// the simulated DSM cluster and prints its statistics.
//
// Usage:
//
//	dsmrun -app Water -impl LRC-diff -procs 8 -scale paper
//	dsmrun -app QS -impl EC-time -procs 4 -scale test
//	dsmrun -app Water -impl LRC-diff -perf -cpuprofile cpu.pprof
//	dsmrun -app Water -impl LRC-diff -procs 256 -scale large -gc -fanin 16 -topo clos:radix=16
//
// -perf prints a host-side breakdown after the run (phase wall times, baton
// handoffs, each cell's wall time and allocation delta — the sequential
// reference's too under -seq — then the peak heap and the process's peak
// resident set, which also counts the copy-on-write node images of runs past
// 8 processors; internal/perf). It is observation-only: the
// simulated statistics are identical with and without it. The cell and
// machine flags (-app ... -timeout, -cpuprofile, -memprofile) are the shared
// ones of internal/cmdline; at -scale large the cell gets notice GC and a
// fan-in-16 barrier tree unless -fanin says otherwise, and the printed label
// shows the machine that ran.
//
// cmd/dsmtrace runs the same cell with event tracing and prints or writes its
// attribution reports; dsmtrace -report profile,whatif prints the
// virtual-time profile.
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
	perfFlag := c.FS.Bool("perf", false, "print a host-side performance breakdown (phase wall times, allocs, peak heap) after the run")
	if code, done := c.Parse(args); done {
		return code
	}
	cfg, app, impl := &c.Config, c.App, c.Impl
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
		row := harness.RunCell(*cfg, app, impl)
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
		if cfg.Perf != nil {
			printPerf(stdout, cfg.Perf)
		}
		return 0
	})
}

// printPerf renders the host-side breakdown: phase wall times in name
// order, the simulation's baton handoffs, then each recorded cell's totals —
// labelled by impl when -seq recorded the sequential reference as a second
// cell — then the peak heap and the peak resident set.
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
	if n, ok := counters["sim_handoffs"]; ok {
		fmt.Fprintf(w, " %d handoffs |", n)
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
	fmt.Fprintf(w, " | peak heap %.1f MiB | peak rss %.1f MiB\n",
		float64(reg.PeakHeapBytes())/(1<<20), float64(perf.PeakRSSBytes())/(1<<20))
}
