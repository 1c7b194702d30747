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
// times, allocation delta, peak heap — internal/perf); -cpuprofile/
// -memprofile write standard pprof profiles. All are observation-only: the
// simulated statistics are identical with and without them.
//
// The process runs on one P unless the GOMAXPROCS environment variable is
// set: one simulation is one baton, so a second P only adds wake-ups.
//
// Exit codes: 0 on success, 1 on run failure, 2 on invalid flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/perf"
	"ecvslrc/internal/platform"
	_ "ecvslrc/internal/platform/models" // register the platform models as presets
	"ecvslrc/internal/run"
	"ecvslrc/internal/sim"
	"ecvslrc/internal/sweep"
	"ecvslrc/internal/trace"
)

func main() {
	perf.SingleCellProcs()
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli is main with injectable arguments and streams, so the exit-code
// contract is table-testable. Returns the process exit code.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dsmrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	appName := fs.String("app", "SOR", "application: "+strings.Join(apps.Names(), ", "))
	implName := fs.String("impl", "LRC-diff", "implementation: EC-ci, EC-time, EC-diff, LRC-ci, LRC-time, LRC-diff")
	procs := fs.Int("procs", 8, "number of simulated processors")
	scale := fs.String("scale", "paper", "problem scale: "+strings.Join(apps.ScaleNames(), ", "))
	seq := fs.Bool("seq", false, "also run the sequential reference")
	preset := fs.String("preset", "paper", "cost spec: a preset ("+strings.Join(fabric.PresetNames(), ", ")+"), optionally +knobs, e.g. \"rdma_100g+net=x2\"")
	contention := fs.Bool("contention", false, "model shared-link contention (concurrent bulk transfers queue)")
	traceDir := fs.String("trace", "", "record an event trace and write all attribution reports to this directory (see cmd/dsmtrace for report selection)")
	profileFlag := fs.Bool("profile", false, "print the virtual-time profile after the run (per-proc stall breakdown, critical path, what-if projections); implies tracing")
	faults := fs.String("faults", "off", "fault-plan preset injected into the fabric: "+strings.Join(fabric.FaultPresetNames(), ", "))
	faultSeed := fs.Uint64("fault-seed", 0, "override the fault plan's PRNG seed (0 keeps the preset's seed)")
	timeout := fs.Float64("timeout", 0, "virtual-time watchdog in simulated seconds: fail with a stall diagnostic instead of running past it (0 disables)")
	gc := fs.Bool("gc", false, "collect LRC notice history at barriers (provably invisible to statistics and results)")
	fanin := fs.Int("fanin", 0, "barrier fan-in: arrange barrier episodes as a radix-r tree (0 = flat, r >= 2 = tree)")
	topo := fs.String("topo", "flat", "interconnect: \"flat\" or \"clos:radix=K[:taper=T][:stages=N]\" (folded-Clos switch fabric)")
	perfFlag := fs.Bool("perf", false, "print a host-side performance breakdown (phase wall times, allocs, peak heap) after the run")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	usageFail := func(format string, fargs ...any) int {
		fmt.Fprintf(stderr, "dsmrun: "+format+"\n", fargs...)
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
	cost, err := platform.Resolve(*preset)
	if err != nil {
		return usageFail("%v", err)
	}
	plan, err := fabric.FaultPreset(*faults)
	if err != nil {
		return usageFail("%v", err)
	}
	if *faultSeed != 0 {
		if plan == nil {
			return usageFail("-fault-seed needs a fault plan (-faults)")
		}
		plan.Seed = *faultSeed
	}
	if *timeout < 0 {
		return usageFail("negative -timeout")
	}
	if *fanin < 0 {
		return usageFail("negative -fanin")
	}
	topology, err := sweep.ParseTopologySpec(*topo)
	if err != nil {
		return usageFail("%v", err)
	}
	if topology != nil && plan != nil {
		return usageFail("-topo cannot combine with -faults: retransmission timing is calibrated against the flat link")
	}
	// The trace options are validated up front, before the (potentially
	// long) run: a bad report selection must fail like a bad flag.
	var topts trace.Options
	var tr *trace.Tracer
	if *traceDir != "" || *profileFlag {
		if *procs < 1 || *procs > trace.MaxProcs {
			return usageFail("traced runs support 1..%d processors, got %d", trace.MaxProcs, *procs)
		}
		if *traceDir != "" {
			sel, err := trace.ParseReports("")
			if err != nil {
				return usageFail("%v", err)
			}
			topts = trace.Options{Reports: sel, OutDir: *traceDir}
			if err := topts.Validate(); err != nil {
				return usageFail("%v", err)
			}
		}
		tr = trace.New(*procs)
	}

	stopProf, err := perf.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return usageFail("%v", err)
	}
	var reg *perf.Registry
	if *perfFlag {
		reg = perf.New()
		reg.SetAllocsExact(true)
	}
	code := func() int {
		fail := func(err error) int {
			fmt.Fprintf(stderr, "dsmrun: %v\n", err)
			return 1
		}
		if *seq {
			a, err := apps.New(*appName, sc)
			if err != nil {
				return fail(err)
			}
			t, err := run.RunSeq(a)
			if err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "%s sequential: %v\n", *appName, t)
		}
		a, err := apps.New(*appName, sc)
		if err != nil {
			return fail(err)
		}
		cs := reg.StartCell("", *appName, impl.String(), *procs)
		res, err := run.RunWith(a, impl, *procs, cost, run.Options{
			Contention:   *contention,
			Trace:        tr,
			Faults:       plan,
			Timeout:      sim.Time(*timeout * float64(sim.Second)),
			Perf:         reg,
			NoticeGC:     *gc,
			BarrierFanIn: *fanin,
			Topology:     topology,
		})
		if err != nil {
			cs.End(perf.OutcomeErr)
			return fail(err)
		}
		cs.End(perf.OutcomeOK)
		variant := *preset
		if *contention {
			variant += "+contention"
		}
		if plan != nil {
			variant += "+fault=" + *faults
		}
		if topology != nil {
			variant += "+topo=" + topology.String()
		}
		if *fanin >= 2 {
			variant += fmt.Sprintf("+fanin=%d", *fanin)
		}
		if *gc {
			variant += "+gc"
		}
		fmt.Fprintf(stdout, "%s on %v, %d procs (%s scale, %s cost):\n  %v\n", *appName, impl, *procs, *scale, variant, res.Stats)
		if plan != nil {
			f := res.Faults
			fmt.Fprintf(stdout, "  faults: %d sent, %d dropped, %d duplicated, %d delayed; %d retransmits, %d dups dropped, %d reordered, %d acks (%d lost), recovery wait %v\n",
				f.Sent, f.Dropped, f.Duplicated, f.Delayed, f.Retransmits, f.DupsDropped, f.OutOfOrder, f.Acks, f.AcksLost, f.RecoveryWait)
		}
		if res.GC != nil {
			fmt.Fprintf(stdout, "  gc: %d passes, %d records + %d diffs pruned, %d notice bytes live at exit\n",
				res.GC.Collections, res.GC.RecordsPruned, res.GC.DiffsPruned, res.NoticeBytes)
		}
		if tr != nil {
			a2, err := apps.New(*appName, sc)
			if err != nil {
				return fail(err)
			}
			meta := run.TraceMeta(a2, impl, *procs, *scale)
			// The analysis (event scan, profile build, critical-path walk) is
			// timed apart from file emission, so "analyze" wall time lands in
			// the perf trajectory alongside init/simulate/verify.
			ph := reg.StartPhase("analyze")
			art := trace.Analyzed(tr, meta)
			ph.End()
			if *traceDir != "" {
				ph = reg.StartPhase("trace_emit")
				written, err := trace.EmitReports(topts.OutDir, topts.Reports, art, tr)
				ph.End()
				if err != nil {
					return fail(err)
				}
				fmt.Fprintf(stdout, "  trace: %d events -> %s\n", tr.Len(), strings.Join(written, ", "))
			}
			if *profileFlag {
				if err := trace.WriteProfileMarkdown(stdout, art.Profile, art.CritPath); err != nil {
					return fail(err)
				}
				fmt.Fprintln(stdout)
				if err := trace.WriteWhatIfMarkdown(stdout, art.CritPath); err != nil {
					return fail(err)
				}
			}
		}
		if reg != nil {
			printPerf(stdout, reg)
		}
		return 0
	}()
	if err := stopProf(); err != nil {
		fmt.Fprintf(stderr, "dsmrun: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	return code
}

// printPerf renders the host-side breakdown: phase wall times in declared
// order, then the cell's totals.
func printPerf(w io.Writer, reg *perf.Registry) {
	traj := reg.Snapshot(perf.Meta{Parallel: 1})
	counters := traj.Counters
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
	if len(traj.Cells) > 0 {
		c := traj.Cells[0]
		fmt.Fprintf(w, " wall %.1fms | %d mallocs (%.1f MiB)",
			float64(c.WallNS)/1e6, c.Mallocs, float64(c.AllocBytes)/(1<<20))
	}
	fmt.Fprintf(w, " | peak heap %.1f MiB\n", float64(traj.PeakHeapBytes)/(1<<20))
}
