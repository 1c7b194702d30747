package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIExitCodes pins the exit-code contract: 2 for usage errors, 1 for
// run failures, 0 on success.
func TestCLIExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"help exits zero", []string{"-h"}, 0, "Usage of dsmrun"},
		{"unknown flag", []string{"-nonsense"}, 2, ""},
		{"bad scale", []string{"-scale", "huge"}, 2, `unknown scale "huge"`},
		{"bad impl", []string{"-impl", "EC-magic"}, 2, "unknown implementation"},
		{"bad preset", []string{"-preset", "quantum"}, 2, "unknown cost preset"},
		{"bad preset names valid set", []string{"-preset", "quantum"}, 2, "valid: paper"},
		{"bad preset knob", []string{"-preset", "paper+net=x0"}, 2, "positive xK factor"},
		{"malformed preset knob", []string{"-preset", "paper+net"}, 2, "not a knob setting"},
		{"negative timeout", []string{"-timeout", "-1"}, 2, "-timeout must be a finite number of simulated seconds in [0, 9.2e9], got -1"},
		{"procs past the lock table", []string{"-scale", "test", "-app", "IS", "-procs", "40000"}, 2,
			"nprocs 40000 outside 1..32767"},
		// Traced runs are dsmtrace's.
		{"no -trace flag", []string{"-trace", "out"}, 2, "flag provided but not defined: -trace"},
		{"no -profile flag", []string{"-profile"}, 2, "flag provided but not defined: -profile"},
		{"unknown app fails run", []string{"-app", "NoSuch", "-scale", "test", "-procs", "2"}, 1, "unknown app"},
		{"good run", []string{"-app", "SOR", "-impl", "EC-time", "-scale", "test", "-procs", "2"}, 0, ""},
		{"good run on a platform model", []string{"-app", "SOR", "-impl", "EC-time", "-scale", "test",
			"-procs", "2", "-preset", "rdma_100g+cpu=x2"}, 0, ""},
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

// TestCLIPerfBreakdown runs the same cell with and without -perf: the
// simulated statistics line must be identical (observation-only), and the
// perf line must carry the phase breakdown and cell totals.
func TestCLIPerfBreakdown(t *testing.T) {
	base := []string{"-app", "SOR", "-impl", "LRC-diff", "-scale", "test", "-procs", "2"}
	var plain, plainErr strings.Builder
	if code := cli(base, &plain, &plainErr); code != 0 {
		t.Fatalf("plain run exited %d: %s", code, plainErr.String())
	}
	var out, errw strings.Builder
	if code := cli(append(append([]string{}, base...), "-perf"), &out, &errw); code != 0 {
		t.Fatalf("perf run exited %d: %s", code, errw.String())
	}
	if !strings.HasPrefix(out.String(), plain.String()) {
		t.Errorf("-perf changed the simulated output:\nplain:\n%s\nperf:\n%s", plain.String(), out.String())
	}
	perfLines := strings.TrimPrefix(out.String(), plain.String())
	for _, want := range []string{"perf:", "init", "simulate", "verify", "handoffs", "wall", "mallocs", "peak heap", "peak rss"} {
		if !strings.Contains(perfLines, want) {
			t.Errorf("perf breakdown missing %q: %s", want, perfLines)
		}
	}
	if n := strings.Count(perfLines, "mallocs"); n != 1 || strings.Contains(perfLines, "LRC-diff") {
		t.Errorf("one-cell breakdown has %d cell entries or an impl label: %s", n, perfLines)
	}

	// With -seq the sequential reference is a second recorded cell: both
	// cells get an entry, labelled by impl.
	seq := append(append([]string{}, base...), "-seq")
	plain.Reset()
	if code := cli(seq, &plain, &plainErr); code != 0 {
		t.Fatalf("plain -seq run exited %d: %s", code, plainErr.String())
	}
	out.Reset()
	if code := cli(append(seq, "-perf"), &out, &errw); code != 0 {
		t.Fatalf("-seq -perf run exited %d: %s", code, errw.String())
	}
	if !strings.HasPrefix(out.String(), plain.String()) {
		t.Errorf("-perf changed the -seq output:\nplain:\n%s\nperf:\n%s", plain.String(), out.String())
	}
	perfLines = strings.TrimPrefix(out.String(), plain.String())
	if n := strings.Count(perfLines, "mallocs"); n != 2 {
		t.Errorf("-seq breakdown has %d cell entries, want 2: %s", n, perfLines)
	}
	for _, want := range []string{" LRC-diff wall ", " seq wall ", "peak heap"} {
		if !strings.Contains(perfLines, want) {
			t.Errorf("-seq breakdown missing %q: %s", want, perfLines)
		}
	}
}

// TestCLIProfiles checks the pprof wiring writes non-empty profiles.
func TestCLIProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var out, errw strings.Builder
	code := cli([]string{"-app", "IS", "-impl", "EC-time", "-scale", "test", "-procs", "2",
		"-cpuprofile", cpu, "-memprofile", mem}, &out, &errw)
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
