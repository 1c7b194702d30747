package main

import (
	"strings"
	"testing"
)

// TestCLIExitCodes pins the exit-code contract the CI smoke steps rely on:
// invalid flag values must exit non-zero, and invalid -variants specs must
// carry the wrapped sweep.ErrSpec message so failures are legible.
func TestCLIExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string // required substring of stderr, "" for any
	}{
		{"help exits zero", []string{"-h"}, 0, "Usage of dsmsweep"},
		{"unknown flag", []string{"-nonsense"}, 2, ""},
		{"bad scale", []string{"-scale", "huge"}, 2, `unknown scale "huge"`},
		{"bad procs", []string{"-procs", "eight"}, 2, `bad -procs entry "eight"`},
		{"unknown app", []string{"-apps", "NoSuch"}, 2, `unknown application "NoSuch"`},
		{"bad impl", []string{"-impls", "EC-magic"}, 2, `unknown implementation "EC-magic"`},
		{"bad variant axis", []string{"-variants", "warp=x9"}, 2,
			`invalid variant spec: unknown axis "warp"`},
		{"malformed variant", []string{"-variants", "net"}, 2,
			`invalid variant spec: "net" is not axis=v1,v2,...`},
		{"bad variant value", []string{"-variants", "detect=maybe"}, 2,
			"invalid variant spec"},
		{"bad preset", []string{"-preset", "quantum"}, 2, "unknown cost preset"},
		{"bad preset knob", []string{"-preset", "paper+net"}, 2, "not a knob setting"},
		{"bad platform axis", []string{"-variants", "platform=nope"}, 2,
			"invalid variant spec"},
		{"bad fault preset", []string{"-variants", "fault=lossy"}, 2, "invalid variant spec"},
		{"negative timeout", []string{"-timeout", "-1"}, 2, "-timeout must be a finite number of simulated seconds in [0, 9.2e9], got -1"},
		{"no -perf-out flag", []string{"-perf-out", "x.json"}, 2, "flag provided but not defined: -perf-out"},
		{"no -rev flag", []string{"-rev", "abc"}, 2, "flag provided but not defined: -rev"},
		{"good run", []string{"-scale", "test", "-procs", "2", "-apps", "IS", "-impls", "LRC-time"}, 0, ""},
		{"faulted run", []string{"-scale", "test", "-procs", "2", "-apps", "IS", "-impls", "LRC-time",
			"-variants", "fault=drop1e-2", "-timeout", "3600"}, 0, ""},
		{"platform sweep", []string{"-scale", "test", "-procs", "2", "-apps", "IS", "-impls", "LRC-time",
			"-variants", "platform=grace"}, 0, ""},
		{"breakdown past the buffered tracer", []string{"-scale", "test", "-procs", "256", "-apps", "IS",
			"-impls", "LRC-time", "-breakdown"}, 0, ""},
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

// TestCLIPartialFailure drives the sweep with a watchdog so tight every cell
// stalls: the CLI must still emit the (empty) report, list the failed cells
// on stderr and exit 1 — the satellite contract for robust sweeps.
func TestCLIPartialFailure(t *testing.T) {
	var stdout, stderr strings.Builder
	code := cli([]string{"-scale", "test", "-procs", "2", "-apps", "IS",
		"-impls", "LRC-time", "-timeout", "0.000001"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "cells failed") {
		t.Errorf("stderr does not list failed cells: %s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "watchdog") {
		t.Errorf("stderr does not carry the stall diagnostic: %s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "Sensitivity") {
		t.Errorf("partial failure suppressed report emission: %s", stdout.String())
	}
}

// TestCLIProgress drives -progress end to end: the heartbeats stream to
// stderr, one per unit of the grid, and stdout stays the report.
func TestCLIProgress(t *testing.T) {
	base := []string{"-scale", "test", "-procs", "2", "-apps", "SOR,IS",
		"-impls", "EC-time,LRC-diff", "-parallel", "1"}
	var plainOut, plainErr strings.Builder
	if code := cli(base, &plainOut, &plainErr); code != 0 {
		t.Fatalf("plain run exited %d: %s", code, plainErr.String())
	}

	args := append(append([]string{}, base...), "-progress")
	var out, errw strings.Builder
	if code := cli(args, &out, &errw); code != 0 {
		t.Fatalf("observed run exited %d: %s", code, errw.String())
	}
	if out.String() != plainOut.String() {
		t.Error("-progress changed stdout")
	}
	// 2 seq refs + 1 baseline variant x 2 apps x 1 nprocs x 2 impls = 6 units.
	beats := 0
	for _, line := range strings.Split(errw.String(), "\n") {
		if strings.Contains(line, "cells/s") && strings.Contains(line, "ETA") {
			beats++
		}
	}
	if beats != 6 {
		t.Errorf("got %d heartbeats, want 6:\n%s", beats, errw.String())
	}
	if !strings.Contains(errw.String(), "6/6") {
		t.Errorf("no final 6/6 heartbeat:\n%s", errw.String())
	}
}

// TestCLIGridErrorsAreUsageErrors: a grid the shared validator rejects is a
// bad flag value (exit 2), not a run failure, whichever flag carried it.
func TestCLIGridErrorsAreUsageErrors(t *testing.T) {
	for want, args := range map[string][]string{
		"negative barrier fan-in -1":    {"-scale", "test", "-fanin", "-1"},
		"nprocs 0 outside 1..32767":     {"-scale", "test", "-procs", "0"},
		"nprocs 40000 outside 1..32767": {"-scale", "test", "-procs", "8,40000"},
	} {
		var stdout, stderr strings.Builder
		if code := cli(args, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), want) {
			t.Errorf("%v: exit %d, stderr %q; want 2 and %q", args, code, stderr.String(), want)
		}
	}
}
