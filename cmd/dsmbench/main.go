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
// The requested blocks print in that order, separated by blank lines. They
// render from one sweep per kind of block (the suite, the factor kernels)
// over the cells those blocks print: each cell runs once, and no cell runs
// that no block prints.
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
	"ecvslrc/internal/sweep"
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
	blocks := sweep.AllBlocks()
	if !*all {
		blocks = nil
		tables := map[int]sweep.Block{2: sweep.Table2, 3: sweep.Table3, 4: sweep.Table4, 5: sweep.Table5}
		if b, ok := tables[*table]; ok {
			blocks = append(blocks, b)
		}
		if *counters {
			blocks = append(blocks, sweep.Counters)
		}
		if *micro {
			blocks = append(blocks, sweep.Micro)
		}
		if len(blocks) == 0 {
			c.FS.Usage()
			return 2
		}
	}
	return c.Run(func() int {
		// sweep.Report is the whole of the output, so -all is exactly what
		// the byte-identity regression test pins.
		out, err := sweep.Report(c.Config, c.Apps, blocks...)
		if err != nil {
			return c.Fail(err)
		}
		fmt.Fprint(stdout, out)
		return 0
	})
}
