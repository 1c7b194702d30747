package main

import (
	"fmt"
	"strings"
	"testing"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/harness"
	"ecvslrc/internal/run"
)

// TestCLIMatchesHarness is the command-line leg of the root package's
// TestFrontEndsAgree: the statistics line dsmrun prints for a cell is the
// harness's for the same description — at large scale too, where dsmrun used
// to assemble its own options and miss the scale defaults — and the printed
// variant label names the resolved machine.
func TestCLIMatchesHarness(t *testing.T) {
	cases := []struct {
		args  []string
		cfg   harness.Config
		app   string
		impl  string
		label string
	}{
		{[]string{"-app", "SOR", "-impl", "EC-time", "-procs", "4", "-scale", "test"},
			harness.Config{Scale: apps.Test, NProcs: 4}, "SOR", "EC-time", "(test scale, paper cost)"},
		{[]string{"-app", "Water", "-impl", "LRC-diff", "-procs", "4", "-scale", "test", "-contention", "-fanin", "2", "-gc"},
			harness.Config{Scale: apps.Test, NProcs: 4, Machine: run.Machine{Contention: true, BarrierFanIn: 2, NoticeGC: true}},
			"Water", "LRC-diff", "(test scale, paper+contention+fanin=2+gc cost)"},
		{[]string{"-app", "SOR", "-impl", "LRC-diff", "-procs", "32", "-scale", "large"},
			harness.Config{Scale: apps.Large, NProcs: 32}, "SOR", "LRC-diff", "(large scale, paper+fanin=16+gc cost)"},
		// -fanin 1 forces the flat barrier where the scale default is a tree.
		{[]string{"-app", "SOR", "-impl", "LRC-diff", "-procs", "32", "-scale", "large", "-fanin", "1"},
			harness.Config{Scale: apps.Large, NProcs: 32, Machine: run.Machine{BarrierFanIn: 1}},
			"SOR", "LRC-diff", "(large scale, paper+gc cost)"},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := cli(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			impl, err := core.ParseImpl(tc.impl)
			if err != nil {
				t.Fatal(err)
			}
			tc.cfg.Cost = fabric.DefaultCostModel()
			row := harness.RunCell(tc.cfg, tc.app, impl)
			if row.Err != nil {
				t.Fatal(row.Err)
			}
			lines := strings.Split(stdout.String(), "\n")
			if len(lines) < 2 || strings.TrimSpace(lines[1]) != fmt.Sprint(row.Stats) {
				t.Errorf("dsmrun printed\n%s\nharness.RunCell gives %v", stdout.String(), row.Stats)
			}
			if !strings.Contains(lines[0], tc.label) {
				t.Errorf("header %q does not carry the resolved label %q", lines[0], tc.label)
			}
		})
	}
}
