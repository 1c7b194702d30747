package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIExitCodes pins the exit-code contract the CI smoke steps rely on:
// invalid flag values must exit non-zero, and invalid -report selections
// must carry the wrapped trace.ErrConfig message so failures are legible.
func TestCLIExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string // required substring of stderr, "" for any
	}{
		{"help exits zero", []string{"-h"}, 0, "Usage of dsmtrace"},
		{"unknown flag", []string{"-nonsense"}, 2, ""},
		{"bad scale", []string{"-scale", "huge"}, 2, `unknown scale "huge"`},
		{"bad impl", []string{"-impl", "EC-magic"}, 2, `unknown implementation "EC-magic"`},
		{"bad procs", []string{"-procs", "0"}, 2, "traced runs support"},
		{"procs past the buffered tracer", []string{"-scale", "test", "-procs", "256"}, 2,
			"traced runs support 1..255 processors, got 256"},
		{"bad preset", []string{"-preset", "quantum"}, 2, "unknown cost preset"},
		{"bad preset knob", []string{"-preset", "paper+diff=hw"}, 2, `knob "diff" takes "free"`},
		{"bad report", []string{"-report", "pages,nonsense", "-out", t.TempDir()}, 2,
			`invalid trace options: unknown report "nonsense"`},
		{"empty report list", []string{"-report", ",,", "-out", t.TempDir()}, 2,
			"invalid trace options: report list selects nothing"},
		{"file report without out", []string{"-report", "pages"}, 2,
			"invalid trace options: report pages needs an output directory"},
		{"profile without out", []string{"-report", "profile", "-app", "IS", "-scale", "test", "-procs", "2"}, 0, ""},
		{"critpath without out", []string{"-report", "critpath"}, 2,
			"invalid trace options: report critpath needs an output directory"},
		{"whatif without out", []string{"-report", "whatif", "-app", "IS", "-scale", "test", "-procs", "2"}, 0, ""},
		{"file report among stdout ones", []string{"-report", "summary,timeline"}, 2,
			"invalid trace options: report timeline needs an output directory"},
		{"sched without bin", []string{"-sched", "-report", "summary,profile", "-out", t.TempDir()}, 2,
			"invalid trace options: -sched records the dispatch stream, which only trace.bin holds"},
		{"sched without out", []string{"-sched"}, 2,
			"invalid trace options: -sched records the dispatch stream, which only trace.bin holds"},
		{"unknown app", []string{"-app", "NoSuch", "-scale", "test", "-procs", "2"}, 1,
			`unknown application "NoSuch"`},
		{"good run", []string{"-app", "IS", "-impl", "LRC-time", "-scale", "test", "-procs", "2"}, 0, ""},
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

// TestProfileReportsEmitted drives a real traced run through the profiler
// selection and checks every artifact lands with the advertised content.
func TestProfileReportsEmitted(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr strings.Builder
	code := cli([]string{"-app", "IS", "-impl", "LRC-diff", "-scale", "test", "-procs", "4",
		"-report", "profile,critpath,whatif", "-out", dir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	for _, name := range []string{"profile.md", "profile.folded", "critpath.csv", "critpath.json", "whatif.md"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s missing or empty (%v)", name, err)
		}
	}
	prof, err := os.ReadFile(filepath.Join(dir, "profile.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"conservation", "## Per-processor stall breakdown", "## Critical path"} {
		if !strings.Contains(string(prof), want) {
			t.Errorf("profile.md lacks %q", want)
		}
	}
	cp, err := os.ReadFile(filepath.Join(dir, "critpath.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(cp), "proc,start_ns,end_ns,duration_ns,class,object\n") {
		t.Errorf("critpath.csv header = %q", strings.SplitN(string(cp), "\n", 2)[0])
	}
}

// TestCLIVirtualProfile prints the virtual-time profile to stdout: without
// -out, -report profile,whatif renders exactly profile.md, a blank line and
// whatif.md of an -out run of the same cell.
func TestCLIVirtualProfile(t *testing.T) {
	cell := []string{"-app", "SOR", "-impl", "LRC-diff", "-scale", "test", "-procs", "2", "-report", "profile,whatif"}
	var out, errw strings.Builder
	if code := cli(cell, &out, &errw); code != 0 {
		t.Fatalf("stdout run exited %d: %s", code, errw.String())
	}
	dir := t.TempDir()
	var files strings.Builder
	if code := cli(append(cell, "-out", dir), &files, &errw); code != 0 {
		t.Fatalf("-out run exited %d: %s", code, errw.String())
	}
	prof, err := os.ReadFile(filepath.Join(dir, "profile.md"))
	if err != nil {
		t.Fatal(err)
	}
	whatif, err := os.ReadFile(filepath.Join(dir, "whatif.md"))
	if err != nil {
		t.Fatal(err)
	}
	if want := string(prof) + "\n" + string(whatif); out.String() != want {
		t.Errorf("stdout is not profile.md + blank line + whatif.md:\n%s\nwant:\n%s", out.String(), want)
	}
	for _, want := range []string{"# Virtual-time profile", "## Per-processor stall breakdown",
		"## Critical path", "# What-if projections", "max speedup"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("profile output missing %q: %s", want, out.String())
		}
	}
}

// TestRunAheadReportsMatchSched is the CI "Run-ahead trace identity" step
// under a fault plan: the dispatch stream (-sched) turns run-ahead off, and
// every report but trace.bin, which alone holds that stream, must read the
// same byte for byte either way.
func TestRunAheadReportsMatchSched(t *testing.T) {
	cell := []string{"-app", "QS", "-impl", "LRC-diff", "-procs", "8", "-scale", "test", "-faults", "chaos"}
	const reports = "summary,pages,locks,barriers,timeline,profile,critpath,whatif"
	ahead, ordered := t.TempDir(), t.TempDir()
	for _, run := range [][]string{
		{"-report", reports, "-out", ahead},
		{"-report", reports + ",bin", "-sched", "-out", ordered},
	} {
		var stdout, stderr strings.Builder
		if code := cli(append(cell, run...), &stdout, &stderr); code != 0 {
			t.Fatalf("%v exited %d: %s", run, code, stderr.String())
		}
	}
	files, err := os.ReadDir(ordered)
	if err != nil {
		t.Fatal(err)
	}
	compared := 0
	for _, f := range files {
		if f.Name() == "trace.bin" {
			continue
		}
		o, err := os.ReadFile(filepath.Join(ordered, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		a, err := os.ReadFile(filepath.Join(ahead, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, o) {
			t.Errorf("%s differs between the run-ahead and the -sched run", f.Name())
		}
		compared++
	}
	if own, err := os.ReadDir(ahead); err != nil || len(own) != compared || compared == 0 {
		t.Errorf("the run-ahead run wrote %d files (%v), the -sched run %d besides trace.bin", len(own), err, compared)
	}
}
