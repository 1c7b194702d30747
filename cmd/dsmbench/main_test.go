package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIExitCodes pins the exit-code contract: 0 on success and -h, 2 on
// every flag/usage error.
func TestCLIExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"help exits zero", []string{"-h"}, 0, "Usage of dsmbench"},
		{"unknown flag", []string{"-nonsense"}, 2, ""},
		{"bad scale", []string{"-all", "-scale", "huge"}, 2, `unknown scale "huge"`},
		{"unknown app", []string{"-all", "-apps", "NoSuch"}, 2, `unknown application "NoSuch"`},
		{"empty apps list", []string{"-all", "-apps", " , "}, 2, "lists no applications"},
		{"bad preset", []string{"-all", "-preset", "quantum"}, 2, "unknown cost preset"},
		{"bad preset knob", []string{"-all", "-preset", "paper+net=x0"}, 2, "positive xK factor"},
		{"no action", []string{"-scale", "test"}, 2, ""},
		{"no -perf-out flag", []string{"-all", "-perf-out", "x.json"}, 2, "flag provided but not defined: -perf-out"},
		{"no -rev flag", []string{"-all", "-rev", "abc"}, 2, "flag provided but not defined: -rev"},
		{"good table", []string{"-table", "3", "-scale", "test", "-procs", "2", "-apps", "SOR"}, 0, ""},
		{"good table on a platform model", []string{"-table", "3", "-scale", "test", "-procs", "2",
			"-apps", "SOR", "-preset", "grace"}, 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := cli(tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Errorf("exit code = %d, want %d (stderr: %s)", code, tc.code, stderr.String())
			}
			if tc.stderr != "" && !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q does not contain %q", stderr.String(), tc.stderr)
			}
		})
	}
}

// TestCLIProfiles checks the pprof wiring writes non-empty profile files on
// a successful run.
func TestCLIProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var out, errw strings.Builder
	code := cli([]string{"-table", "2", "-scale", "test", "-cpuprofile", cpu, "-memprofile", mem}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit code = %d: %s", code, errw.String())
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile missing: %v", err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

// TestBlocksAreTheAllReport checks every single-block invocation against
// -all: each of -table 2..5, -counters and -micro prints exactly its block,
// and the six blocks joined by blank lines are the -all output.
func TestBlocksAreTheAllReport(t *testing.T) {
	run := func(args ...string) string {
		t.Helper()
		var stdout, stderr strings.Builder
		args = append(args, "-scale", "test", "-procs", "4", "-apps", "SOR,IS")
		if code := cli(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
		}
		return stdout.String()
	}
	all := run("-all")
	var blocks []string
	for _, args := range [][]string{
		{"-table", "2"}, {"-table", "3"}, {"-table", "4"}, {"-table", "5"}, {"-counters"}, {"-micro"},
	} {
		out := run(args...)
		if !strings.HasSuffix(out, "\n") || strings.Contains(out, "\n\n") {
			t.Errorf("%v: not one block:\n%s", args, out)
		}
		blocks = append(blocks, out)
	}
	if got := strings.Join(blocks, "\n"); got != all {
		t.Errorf("the single blocks joined:\n%s\ndiffer from -all:\n%s", got, all)
	}
}
