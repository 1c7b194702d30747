// Package cmdline is the one front end behind the commands: it binds the flags
// they share onto a flag.FlagSet, resolves them into one cell description
// (harness.Config plus the application and implementation), and brackets
// the command body with the common prologue and epilogue — validation and
// the pprof profiles. Each cmd/*/main.go keeps only the flags and output that
// are its own.
//
// The shared flags, by group:
//
//	cell     -app -impl -procs -scale
//	machine  -preset ("name" or "name+knob", platform.Resolve's grammar)
//	         -contention -faults -fault-seed -topo -gc -fanin -timeout
//	         (run.Machine documents each; at -scale large harness.Options
//	         turns notice GC on and resolves -fanin 0 to a 16-way tree)
//	grid     -apps -parallel
//	host     -cpuprofile -memprofile write standard pprof profiles
//
// All host-side flags are observation-only: simulated statistics are
// identical with and without them.
package cmdline

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/harness"
	"ecvslrc/internal/perf"
	"ecvslrc/internal/platform"
	_ "ecvslrc/internal/platform/models" // register the platform models as presets
	"ecvslrc/internal/sim"
)

// Cmd is one command's flag set and streams. After Parse, Config, App, Impl,
// Apps and Preset hold the resolved values of whichever flags were bound.
type Cmd struct {
	FS             *flag.FlagSet
	Stdout, Stderr io.Writer

	Config harness.Config
	App    string    // -app
	Impl   core.Impl // -impl
	Apps   []string  // -apps; the whole suite by default
	Preset string    // -preset as written

	name string
	// Raw values of the shared flags; nil when the command did not bind them.
	impl, scale, apps, faults, topo, cpuprofile, memprofile *string
	procs                                                   *int
	faultSeed                                               *uint64
	timeout                                                 *float64
}

// New starts a command's flag set; usage and flag errors go to stderr.
func New(name string, stdout, stderr io.Writer) *Cmd {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return &Cmd{FS: fs, Stdout: stdout, Stderr: stderr, name: name}
}

// BindScale binds -scale.
func (c *Cmd) BindScale(def string) {
	c.scale = c.FS.String("scale", def, "problem scale: "+strings.Join(apps.ScaleNames(), ", "))
}

// BindProcs binds -procs as one processor count.
func (c *Cmd) BindProcs() {
	c.procs = c.FS.Int("procs", 8, "number of simulated processors")
}

// BindPreset binds -preset; role says what the cost spec is for.
func (c *Cmd) BindPreset(def, role string) {
	c.FS.StringVar(&c.Preset, "preset", def, role+": a preset ("+strings.Join(platform.PresetNames(), ", ")+"), optionally +knobs, e.g. \"rdma_100g+net=x2\"")
}

// BindFanInTimeout binds the two machine flags that also apply to a whole
// sweep: -fanin and -timeout.
func (c *Cmd) BindFanInTimeout() {
	c.FS.IntVar(&c.Config.BarrierFanIn, "fanin", 0, "barrier fan-in: radix-r arrival tree (0 = scale default: flat, 16 at -scale large; 1 = force flat; r >= 2 = tree)")
	c.timeout = c.FS.Float64("timeout", 0, "per-cell virtual-time watchdog in simulated seconds: a stalled cell fails with a diagnostic instead of running past it (0 disables)")
}

// BindCell binds the description of one cell: its identity (-app -impl
// -procs -scale) and its machine (-preset -contention -faults -fault-seed
// -topo -fanin -gc -timeout).
func (c *Cmd) BindCell(scale string) {
	c.FS.StringVar(&c.App, "app", "SOR", "application: "+strings.Join(apps.Names(), ", "))
	c.impl = c.FS.String("impl", "LRC-diff", "implementation: "+strings.Join(core.ImplNames(), ", "))
	c.BindProcs()
	c.BindScale(scale)
	c.BindPreset("paper", "cost spec")
	c.FS.BoolVar(&c.Config.Contention, "contention", false, "model shared-link contention (concurrent bulk transfers queue)")
	c.faults = c.FS.String("faults", "off", "fault-plan preset injected into the fabric: "+strings.Join(fabric.FaultPresetNames(), ", "))
	c.faultSeed = c.FS.Uint64("fault-seed", 0, "override the fault plan's PRNG seed (0 keeps the preset's seed)")
	c.topo = c.FS.String("topo", "flat", "interconnect: \"flat\" or \"clos:radix=K[:taper=T][:stages=N]\" (folded-Clos switch fabric)")
	c.FS.BoolVar(&c.Config.NoticeGC, "gc", false, "collect LRC notice history at barriers (provably invisible to statistics and results; always on at -scale large)")
	c.BindFanInTimeout()
}

// BindGrid binds the flags of the many-cell commands: -apps and -parallel.
func (c *Cmd) BindGrid() {
	c.apps = c.FS.String("apps", "", "comma-separated application subset, e.g. \"SOR,QS\" (default: all)")
	c.FS.IntVar(&c.Config.Parallel, "parallel", runtime.GOMAXPROCS(0), "max cells simulated concurrently (output is identical for any value)")
}

// BindProfiles binds -cpuprofile and -memprofile.
func (c *Cmd) BindProfiles() {
	c.cpuprofile = c.FS.String("cpuprofile", "", "write a CPU profile to this file")
	c.memprofile = c.FS.String("memprofile", "", "write a heap profile to this file on exit")
}

// SplitList splits a comma-separated flag value, dropping empty entries.
func SplitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// Usage reports a bad flag value and returns the usage exit code.
func (c *Cmd) Usage(err error) int {
	fmt.Fprintf(c.Stderr, "%s: %v\n", c.name, err)
	return 2
}

// Fail reports a run failure and returns its exit code.
func (c *Cmd) Fail(err error) int {
	fmt.Fprintf(c.Stderr, "%s: %v\n", c.name, err)
	return 1
}

// Parse parses args and resolves every bound shared flag into c's exported
// fields. done reports that the command is over — help was printed or a flag
// was bad — and exit is then its exit code.
func (c *Cmd) Parse(args []string) (exit int, done bool) {
	if err := c.FS.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, true
		}
		return 2, true
	}
	if err := c.resolve(); err != nil {
		return c.Usage(err), true
	}
	return 0, false
}

func (c *Cmd) resolve() (err error) {
	cfg := &c.Config
	if c.scale != nil {
		if cfg.Scale, err = apps.ParseScale(*c.scale); err != nil {
			return err
		}
	}
	if c.impl != nil {
		if c.Impl, err = core.ParseImpl(*c.impl); err != nil {
			return err
		}
	}
	if c.procs != nil {
		cfg.NProcs = *c.procs
	}
	if c.Preset != "" {
		if cfg.Cost, err = platform.Resolve(c.Preset); err != nil {
			return err
		}
	}
	if c.faults != nil {
		if cfg.Faults, err = fabric.FaultPreset(*c.faults); err != nil {
			return err
		}
		if *c.faultSeed != 0 {
			if cfg.Faults == nil {
				return errors.New("-fault-seed needs a fault plan (-faults)")
			}
			cfg.Faults.Seed = *c.faultSeed
		}
		if cfg.Topology, err = fabric.ParseTopology(*c.topo); err != nil {
			return err
		}
	}
	if c.timeout != nil {
		// float64(math.MaxInt64) is 2^63, so ns below it converts exactly;
		// NaN fails both comparisons.
		ns := *c.timeout * float64(sim.Second)
		if !(ns >= 0 && ns < math.MaxInt64) {
			return fmt.Errorf("-timeout must be a finite number of simulated seconds in [0, 9.2e9], got %v", *c.timeout)
		}
		cfg.Timeout = sim.Time(ns)
	}
	switch {
	case c.apps == nil:
	case *c.apps == "":
		c.Apps = apps.Names()
	default:
		for _, n := range SplitList(*c.apps) {
			if err := apps.Check(n); err != nil {
				return err
			}
			c.Apps = append(c.Apps, n)
		}
		if len(c.Apps) == 0 {
			return errors.New("-apps lists no applications")
		}
	}
	return nil
}

// Run is the command proper: it validates the cell description (the single
// validator behind harness.Config.Validate — exit 2), then brackets body with
// the pprof profiles. A command that describes many cells (dsmsweep: -procs
// is its own list flag) gets the same validation from sweep.Run, per variant.
func (c *Cmd) Run(body func() int) int {
	if c.procs != nil {
		if err := c.Config.Validate(); err != nil {
			return c.Usage(err)
		}
	}
	stop := func() error { return nil }
	if c.cpuprofile != nil {
		var err error
		if stop, err = perf.StartProfiles(*c.cpuprofile, *c.memprofile); err != nil {
			return c.Usage(err)
		}
	}
	code := body()
	if err := stop(); err != nil {
		code = max(code, c.Fail(err))
	}
	return code
}

// WriteFile creates path and fills it through write, reporting the first of
// the create, write and close errors.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
