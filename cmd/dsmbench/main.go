// Command dsmbench regenerates the paper's evaluation tables: Table 2
// (application parameters), Table 3 (best EC vs best LRC), Table 4 (EC
// trapping x collection), Table 5 (LRC trapping x collection), the Section
// 7.2 message/data counters, and the Section 7.1 factor kernels.
//
// Usage:
//
//	dsmbench -table 3 -scale paper -procs 8
//	dsmbench -all -scale bench
//	dsmbench -all -scale bench -preset rdma_100g
//	dsmbench -micro -cpuprofile cpu.pprof
//
// -preset regenerates the tables under a different cost spec; the default
// "paper" keeps the output byte-identical to the calibrated platform. That
// flag, -scale, -procs, -apps, -parallel and the pprof pair are the shared
// ones documented in internal/cmdline.
//
// Exit codes: 0 on success, 1 on run failure, 2 on invalid flags.
package main

import (
	"fmt"
	"io"
	"os"

	"ecvslrc/internal/cmdline"
	"ecvslrc/internal/core"
	"ecvslrc/internal/harness"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli is main with injectable arguments and streams, so the exit-code
// contract is table-testable. Returns the process exit code.
func cli(args []string, stdout, stderr io.Writer) int {
	c := cmdline.New("dsmbench", stdout, stderr)
	c.BindScale("paper")
	c.BindProcs()
	c.BindPreset("paper", "cost spec")
	c.BindGrid()
	c.BindProfiles()
	table := c.FS.Int("table", 0, "table to regenerate (2, 3, 4 or 5)")
	all := c.FS.Bool("all", false, "regenerate every table")
	micro := c.FS.Bool("micro", false, "run the Section 7.1 factor kernels")
	counters := c.FS.Bool("counters", false, "print the Section 7.2 message/data counters")
	if code, done := c.Parse(args); done {
		return code
	}
	cfg, names := c.Config, c.Apps
	return c.Run(func() int {
		if *all {
			// The complete report (Tables 2-5, counters, micro) comes from one
			// harness entry point so the byte-identity regression test pins
			// exactly what this command prints.
			out, err := harness.BenchReport(cfg, names)
			if err != nil {
				return c.Fail(err)
			}
			fmt.Fprint(stdout, out)
			return 0
		}
		did := false
		if *table == 2 {
			did = true
			fmt.Fprint(stdout, harness.Table2(cfg))
			fmt.Fprintln(stdout)
		}
		var t3 []harness.Table3Result
		if *table == 3 || *counters {
			did = true
			var err error
			if t3, err = harness.Table3(cfg, names); err != nil {
				return c.Fail(err)
			}
			if *table == 3 {
				fmt.Fprint(stdout, harness.FormatTable3(t3))
				fmt.Fprintln(stdout)
			}
		}
		if *table == 4 || *table == 5 {
			did = true
			model := core.EC
			if *table == 5 {
				model = core.LRC
			}
			rows, err := harness.TableModel(cfg, model, names)
			if err != nil {
				return c.Fail(err)
			}
			fmt.Fprint(stdout, harness.FormatTableModel(model, rows, names))
			fmt.Fprintln(stdout)
		}
		if *counters {
			fmt.Fprint(stdout, harness.FormatCounters(t3))
			fmt.Fprintln(stdout)
		}
		if *micro {
			did = true
			rows, err := harness.Micro(cfg)
			if err != nil {
				return c.Fail(err)
			}
			fmt.Fprint(stdout, harness.FormatMicro(rows))
		}
		if !did {
			c.FS.Usage()
			return 2
		}
		return 0
	})
}
