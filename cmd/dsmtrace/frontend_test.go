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

// TestCLIMachineFlags checks dsmtrace describes its cell through the shared
// binder: the machine flags it gained that way reach the run (the simulated
// time it reports is the harness's for the same description), and their bad
// values fail like any other command's.
func TestCLIMachineFlags(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr strings.Builder
	code := cli([]string{"-app", "Water", "-impl", "LRC-diff", "-scale", "test", "-procs", "4",
		"-faults", "drop1e-2", "-contention", "-fanin", "2", "-gc", "-timeout", "3600",
		"-report", "summary", "-out", dir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	plan, err := fabric.FaultPreset("drop1e-2")
	if err != nil {
		t.Fatal(err)
	}
	row := harness.RunCell(harness.Config{
		Scale: apps.Test, NProcs: 4, Cost: fabric.DefaultCostModel(),
		Machine: run.Machine{Contention: true, Faults: plan, BarrierFanIn: 2, NoticeGC: true},
	}, "Water", core.Impl{Model: core.LRC, Trap: core.Twinning, Collect: core.Diffs})
	if row.Err != nil {
		t.Fatal(row.Err)
	}
	if want := fmt.Sprintf("%v simulated", row.Stats.Time); !strings.Contains(stdout.String(), want) {
		t.Errorf("dsmtrace printed %q, harness.RunCell gives %s", stdout.String(), want)
	}
	stderr.Reset()
	if code := cli([]string{"-topo", "clos:radix=4", "-faults", "chaos"}, &stdout, &stderr); code != 2 ||
		!strings.Contains(stderr.String(), "mutually exclusive") {
		t.Errorf("-topo with -faults: exit %d, stderr %q", code, stderr.String())
	}
}
