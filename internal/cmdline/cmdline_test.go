package cmdline

import (
	"strings"
	"testing"

	"ecvslrc/internal/harness"
)

// parse drives a command that binds every shared flag group through the
// three steps each main takes: Parse, its own checks (here dsmtrace's, the
// buffered tracer's processor bound, when traced), Run.
func parse(traced bool, args ...string) (c *Cmd, code int, stderr string) {
	var out, errw strings.Builder
	c = New("dsmtest", &out, &errw)
	c.BindCell("test")
	c.BindGrid()
	c.BindProfiles()
	code, done := c.Parse(args)
	if !done {
		if err := harness.CheckBufferedTrace(c.Config.NProcs); traced && err != nil {
			code = c.Usage(err)
		} else {
			code = c.Run(func() int { return 0 })
		}
	}
	return c, code, errw.String()
}

// TestBadSharedFlagValues is the one table for every bad value of every
// shared flag: exit 2 and a message naming the valid set (or the rule
// broken). The per-command TestCLIExitCodes tables stay as the compatibility
// check of each command's message substrings.
func TestBadSharedFlagValues(t *testing.T) {
	cases := []struct {
		name   string
		traced bool
		args   []string
		want   string
	}{
		{"unknown scale", false, []string{"-scale", "huge"}, `unknown scale "huge" (valid: test, bench, paper, large)`},
		{"unknown impl", false, []string{"-impl", "EC-magic"}, `unknown implementation "EC-magic" (valid: EC-ci, EC-time, EC-diff, LRC-ci, LRC-time, LRC-diff)`},
		{"unknown app in -apps", false, []string{"-apps", "SOR,NoSuch"}, `unknown application "NoSuch" (valid: SOR, SOR+, QS, Water, Barnes-Hut, IS, 3D-FFT, micro-migratory, micro-producer-consumer, micro-false-sharing, micro-prefetch, micro-rebinding)`},
		{"empty -apps", false, []string{"-apps", ", ,"}, "-apps lists no applications"},
		{"unknown preset", false, []string{"-preset", "quantum"}, `unknown cost preset "quantum" (valid: paper, net-x2`},
		{"unknown knob", false, []string{"-preset", "paper+warp=x2"}, `unknown knob "warp" (knobs: net=xK, cpu=xK, detect=hw, diff=free)`},
		{"malformed knob", false, []string{"-preset", "paper+net"}, "not a knob setting (knobs: net=xK"},
		{"non-positive knob factor", false, []string{"-preset", "paper+cpu=x0"}, "needs a positive xK factor"},
		{"wrong knob value", false, []string{"-preset", "paper+detect=sw"}, `knob "detect" takes "hw"`},
		{"unknown fault preset", false, []string{"-faults", "lossy"}, `unknown fault preset "lossy" (known: off, drop1e-3, drop1e-2, chaos)`},
		{"fault seed without a plan", false, []string{"-fault-seed", "7"}, "-fault-seed needs a fault plan (-faults)"},
		{"unknown topology", false, []string{"-topo", "mesh:radix=4"}, `neither "flat" nor "clos:radix=K[:taper=T][:stages=N]"`},
		{"unknown topology key", false, []string{"-topo", "clos:radix=4:width=2"}, "unknown key \"width\" (known: radix, taper, stages)"},
		{"degenerate topology", false, []string{"-topo", "clos:radix=1"}, "radix 1 < 2"},
		{"topology with faults", false, []string{"-topo", "clos:radix=4", "-faults", "drop1e-3"}, "mutually exclusive"},
		{"negative timeout", false, []string{"-timeout", "-1"}, "-timeout must be a finite number of simulated seconds in [0, 9.2e9], got -1"},
		{"NaN timeout", false, []string{"-timeout", "NaN"}, "-timeout must be a finite number of simulated seconds in [0, 9.2e9], got NaN"},
		{"infinite timeout", false, []string{"-timeout", "+Inf"}, "-timeout must be a finite number of simulated seconds in [0, 9.2e9], got +Inf"},
		{"overflowing timeout", false, []string{"-timeout", "1e300"}, "-timeout must be a finite number of simulated seconds in [0, 9.2e9], got 1e+300"},
		{"timeout just past int64 ns", false, []string{"-timeout", "9.3e9"}, "in [0, 9.2e9], got 9.3e+09"},
		{"negative fan-in", false, []string{"-fanin", "-1"}, "negative barrier fan-in -1"},
		{"zero procs", false, []string{"-procs", "0"}, "nprocs 0 outside 1..32767"},
		{"procs past the lock table", false, []string{"-procs", "40000"}, "nprocs 40000 outside 1..32767"},
		{"zero procs, traced", true, []string{"-procs", "0"}, "traced runs support 1..255 processors, got 0"},
		{"procs past the buffered tracer", true, []string{"-procs", "256"}, "traced runs support 1..255 processors, got 256"},
		{"unwritable cpu profile", false, []string{"-cpuprofile", "/no/such/dir/cpu.pprof"}, "no such file or directory"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, code, stderr := parse(tc.traced, tc.args...)
			if code != 2 {
				t.Errorf("exit code = %d, want 2 (stderr: %s)", code, stderr)
			}
			if !strings.HasPrefix(stderr, "dsmtest: ") || !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q does not contain %q", stderr, tc.want)
			}
		})
	}
}

// TestResolvedValues checks the good path: every bound flag lands in the one
// cell description, and an untraced 256-processor cell is fine.
func TestResolvedValues(t *testing.T) {
	c, code, stderr := parse(false, "-app", "IS", "-impl", "EC-time", "-procs", "256", "-scale", "large",
		"-preset", "rdma_100g+net=x2", "-contention", "-faults", "drop1e-2", "-fault-seed", "9",
		"-fanin", "4", "-gc", "-timeout", "1.5", "-apps", "SOR, IS", "-parallel", "3")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	cfg := c.Config
	if c.App != "IS" || c.Impl.String() != "EC-time" || cfg.NProcs != 256 || cfg.Scale.String() != "large" ||
		!cfg.Contention || cfg.Faults == nil || cfg.Faults.Name != "drop1e-2" || cfg.Faults.Seed != 9 ||
		cfg.Topology != nil || cfg.BarrierFanIn != 4 || !cfg.NoticeGC || cfg.Timeout.Seconds() != 1.5 ||
		cfg.Parallel != 3 || strings.Join(c.Apps, ",") != "SOR,IS" || c.Preset != "rdma_100g+net=x2" {
		t.Errorf("resolved %+v app=%q impl=%v apps=%v preset=%q", cfg, c.App, c.Impl, c.Apps, c.Preset)
	}
	if cfg.Cost == (harness.Config{}).Cost {
		t.Error("-preset did not resolve a cost model")
	}
	// -apps takes every name a cell does (apps.Check), the factor kernels too.
	if c, code, stderr := parse(false, "-apps", "micro-migratory,IS"); code != 0 || strings.Join(c.Apps, ",") != "micro-migratory,IS" {
		t.Errorf("-apps with a factor kernel: exit %d, apps %v: %s", code, c.Apps, stderr)
	}
	if _, code, stderr := parse(false, "-timeout", "9.2e9", "-procs", "32767"); code != 0 {
		t.Errorf("the largest -timeout and -procs exit %d: %s", code, stderr)
	}
	if _, code, _ := parse(false, "-h"); code != 0 {
		t.Errorf("-h exits %d, want 0", code)
	}
	if _, code, _ := parse(false, "-nonsense"); code != 2 {
		t.Errorf("unknown flag exits %d, want 2", code)
	}
}
