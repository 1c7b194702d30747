// Package harness describes and runs one cell of the evaluation matrix — one
// application under one implementation on one machine — and its sequential
// reference: every front end gets a cell's options, cached initial image and
// statistics here. It also holds the bounded worker pool the sweep engine
// (internal/sweep, which runs every grid and renders the paper's tables) runs
// its cells on.
package harness

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/perf"
	"ecvslrc/internal/run"
	"ecvslrc/internal/sim"
	"ecvslrc/internal/syncmgr"
	"ecvslrc/internal/trace"
)

// Config describes the cells of one experiment — everything about a cell but
// its application and implementation: problem scale, processor count, cost
// model, machine shape, watchdog and the host-side attachments. Every front
// end (the sweep engine, the CLIs through internal/cmdline, the root API)
// describes its cells with one, and Options resolves it into the run.Options
// of a cell.
type Config struct {
	Scale  apps.Scale
	NProcs int
	Cost   fabric.CostModel
	// Machine is the simulated machine's shape: contention, fault plan,
	// topology, barrier fan-in, notice GC (see run.Machine for each). Options
	// applies the scale-dependent defaults.
	run.Machine
	// Parallel bounds how many cells of a grid built from this configuration
	// (sweep.Report) run concurrently. Each cell is an isolated
	// sim.Simulator, so cells are embarrassingly parallel; results are always
	// assembled in grid order, making the output independent of the worker
	// count. <= 0 means GOMAXPROCS.
	Parallel int
	// Trace attaches a fresh profiling tracer to every cell
	// (trace.NewProfiling): the virtual-time profile is built while the cell
	// runs and no event history is kept, so any processor count is traceable.
	// Tracing is observation-only — the tables are byte-identical with it on,
	// and the cell schedules exactly as untraced (run-ahead included).
	// RunCell hands the cell's tracer back on Row.Trace for
	// trace.BuildProfile (the sweep engine's stall breakdown). Reports that
	// need the history go through RunTraced instead.
	Trace bool
	// Timeout arms the virtual-time watchdog of every cell
	// (run.Options.Timeout); 0 disables.
	Timeout sim.Time
	// Perf, when non-nil, attributes host-side performance to every cell:
	// wall-clock time, runtime.MemStats allocation deltas and peak heap per
	// (app, impl, nprocs, variant), plus the run-phase timers
	// (run.Options.Perf). Observation-only; nil costs nothing.
	Perf *perf.Registry
	// Variant labels this configuration's cost variant in the perf record
	// (the sweep engine sets it to the variant name; "" for the calibrated
	// paper platform). Purely a metrics label — it changes no behavior.
	Variant string
}

// ErrConfig is wrapped by every Config validation failure.
var ErrConfig = errors.New("invalid harness config")

// Validate reports whether the configuration can run at all. Errors wrap
// ErrConfig so callers can classify them with errors.Is. RunCell and
// RunTraced call it, and the sweep engine per variant; RunSeq checks the
// scale only, the sequential reference running on one processor whatever
// NProcs says.
func (cfg Config) Validate() error {
	if cfg.NProcs < 1 || cfg.NProcs > syncmgr.MaxProcs {
		return fmt.Errorf("harness: %w: nprocs %d outside 1..%d", ErrConfig, cfg.NProcs, syncmgr.MaxProcs)
	}
	if err := validScale(cfg.Scale); err != nil {
		return err
	}
	if err := (run.Options{Machine: cfg.Machine, Timeout: cfg.Timeout}).Validate(); err != nil {
		return fmt.Errorf("harness: %w: %v", ErrConfig, err)
	}
	return nil
}

// validApp rejects an unknown application name as a config error.
func validApp(name string) error {
	if err := apps.Check(name); err != nil {
		return fmt.Errorf("harness: %w: %v", ErrConfig, err)
	}
	return nil
}

// validScale is Validate's scale check.
func validScale(s apps.Scale) error {
	switch s {
	case apps.Test, apps.Bench, apps.Paper, apps.Large:
		return nil
	}
	return fmt.Errorf("harness: %w: unknown scale %d (valid: %s)",
		ErrConfig, int(s), strings.Join(apps.ScaleNames(), ", "))
}

// ForEach runs fn(i) for every i in [0, n) on a bounded worker pool. fn must
// write its result to an index-addressed slot; iteration order is unspecified
// but every index completes before ForEach returns, so callers assemble
// deterministic output regardless of par; par <= 0 means GOMAXPROCS, the one
// place the Parallel default of Config and sweep.Grid is resolved. The sweep
// engine runs its sequential references and grid cells on it.
//
// A panic in fn(i) is confined to that index: the worker recovers, records
// the panic (with its stack) against i, and moves on, so one poisoned cell
// cannot take down the rest of a sweep. The recovered panics are
// returned joined in index order; nil means every index completed normally.
func ForEach(par, n int, fn func(int)) error {
	errs := make([]error, n)
	call := func(i int) {
		defer func() {
			if v := recover(); v != nil {
				errs[i] = fmt.Errorf("harness: cell %d panicked: %v\n%s", i, v, debug.Stack())
			}
		}()
		fn(i)
	}
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > n {
		par = n
	}
	if par <= 1 {
		for i := 0; i < n; i++ {
			call(i)
		}
		return errors.Join(errs...)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				call(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

// Row is the outcome of one (application, implementation) cell.
type Row struct {
	App  string
	Impl core.Impl
	run.Result
	Err error
	// Machine is the machine the cell ran on: Config.Machine with the
	// scale-dependent defaults resolved.
	Machine run.Machine
	// Trace is the cell's tracer: the profiling tracer when Config.Trace was
	// set (the sweep engine's stall breakdown takes its per-record profile
	// from it), the buffered one after RunTraced, nil otherwise.
	Trace *trace.Tracer
}

// imageCache memoizes the computed layout and pre-seeded initial image per
// (application, scale): both are pure functions of the problem instance, and
// a sweep re-runs the same instance for every implementation, processor count
// and cost variant. Seeding runs under a per-key once — not a global lock —
// so a parallel sweep's first touches of distinct apps seed concurrently. The
// footprint is bounded by #apps x #scales (a few MB per paper-scale image);
// cells share images and layouts read-only. An image is also the template
// its cells' nodes and sequential runs fork (mem.Image.Fork): its memory
// file is written on the first fork and lives as long as the entry.
var imageCache sync.Map // imageKey -> *imageEntry

type imageKey struct {
	app   string
	scale apps.Scale
}

type imageEntry struct {
	once sync.Once
	im   *mem.Image
	al   *mem.Allocator
	err  error
}

func initEntry(app string, scale apps.Scale) *imageEntry {
	e, _ := imageCache.LoadOrStore(imageKey{app, scale}, &imageEntry{})
	ent := e.(*imageEntry)
	ent.once.Do(func() {
		a, err := apps.New(app, scale)
		if err != nil {
			ent.err = err
			return
		}
		al := mem.NewAllocator()
		a.Layout(al)
		im := mem.NewImage(al.Size())
		a.Init(im)
		ent.im, ent.al = im, al
	})
	return ent
}

// InitImage returns the cached pre-seeded initial image for (app, scale),
// seeding it on first use. The returned image must be treated as read-only.
func InitImage(app string, scale apps.Scale) (*mem.Image, error) {
	ent := initEntry(app, scale)
	return ent.im, ent.err
}

// InitLayout returns the cached computed layout for (app, scale), computing
// it on first use. Cells replay it (run.Options.Layout) instead of laying
// shared memory out again; the returned allocator must be treated as
// read-only.
func InitLayout(app string, scale apps.Scale) (*mem.Allocator, error) {
	ent := initEntry(app, scale)
	return ent.al, ent.err
}

// Options resolves the run.Options of cfg's cells of app. It is the only
// place a cell's options are assembled — every front end that runs a cell
// gets them here (through RunCell, RunTraced or RunSeq), so the same cell
// yields the same statistics everywhere: the cached layout and seeded image
// of (app, scale), and the scale-dependent machine defaults.
func Options(cfg Config, app string) (run.Options, error) {
	ent := initEntry(app, cfg.Scale)
	if ent.err != nil {
		return run.Options{}, ent.err
	}
	opts := run.Options{
		Machine:   cfg.Machine,
		InitImage: ent.im,
		Layout:    ent.al,
		Timeout:   cfg.Timeout,
		Perf:      cfg.Perf,
	}
	// The large machine gets the scaling machinery by default: notice GC is
	// equivalence-pinned (TestNoticeGCEquivalence), and a flat 256-1024-way
	// barrier funnels the whole machine through one manager handler. The
	// golden-pinned scales (test/bench/paper) keep everything off unless
	// asked. BarrierFanIn == 1 explicitly forces the flat protocol.
	if cfg.Scale == apps.Large {
		opts.NoticeGC = true
		if opts.BarrierFanIn == 0 {
			opts.BarrierFanIn = 16
		}
	}
	if cfg.Trace {
		opts.Trace = trace.NewProfiling(cfg.NProcs)
	}
	return opts, nil
}

// CellPanic is the structured error a cell reports when its run panics. The
// panic is confined to the cell — the rest of the sweep completes —
// and the error carries the full cell identity plus the recovered value and
// stack, so a crashing configuration is diagnosable from the report alone.
// RunSeq reports a panicking sequential reference the same way, with Seq set.
type CellPanic struct {
	App    string
	Impl   core.Impl // unset when Seq
	NProcs int
	Seq    bool   // the application's sequential reference (RunSeq), not a cell
	Value  any    // the recovered panic value
	Stack  []byte // stack captured at recovery
	// Elapsed is the cell's host wall time up to the panic, measured when a
	// perf registry is attached (Config.Perf; zero otherwise). It makes a
	// slow-then-crashing cell distinguishable from a fast one.
	Elapsed time.Duration
}

func (cp *CellPanic) Error() string {
	after := ""
	if cp.Elapsed > 0 {
		after = fmt.Sprintf(" after %v", cp.Elapsed.Round(time.Microsecond))
	}
	impl := cp.Impl.String()
	if cp.Seq {
		impl = "seq"
	}
	return fmt.Sprintf("harness: cell %s/%s (%d procs) panicked%s: %v\n%s",
		cp.App, impl, cp.NProcs, after, cp.Value, cp.Stack)
}

// outcomeOf classifies a cell error for the perf record.
func outcomeOf(err error) perf.Outcome {
	switch {
	case err == nil:
		return perf.OutcomeOK
	default:
		var cp *CellPanic
		if errors.As(err, &cp) {
			return perf.OutcomePanic
		}
		return perf.OutcomeErr
	}
}

// RunCell executes one cell of the evaluation matrix. A panic anywhere in the
// cell's run is recovered into a *CellPanic in Row.Err rather than crashing
// the caller. With Config.Perf attached, the cell's wall time and allocation
// deltas are recorded whatever the outcome — the panic path is attributed
// its elapsed time too. An invalid cfg fails without running the cell.
func RunCell(cfg Config, app string, impl core.Impl) Row {
	if err := cmp.Or(cfg.Validate(), validApp(app)); err != nil {
		return Row{App: app, Impl: impl, Err: err}
	}
	return runCell(cfg, app, impl, nil)
}

// CheckBufferedTrace reports whether a buffered tracer (trace.New) can record
// an nprocs-processor run; the CLIs call it up front so an oversize traced
// run fails like a bad flag, not after the run.
func CheckBufferedTrace(nprocs int) error {
	if nprocs < 1 || nprocs > trace.MaxProcs {
		return fmt.Errorf("harness: %w: traced runs support 1..%d processors, got %d", ErrConfig, trace.MaxProcs, nprocs)
	}
	return nil
}

// RunTraced is RunCell with a buffered event tracer attached (trace.New;
// scheduler dispatch events too when sched is set), for the reports that need
// the event history: Row.Trace holds the tracer, and the returned metadata
// names the run and its shared-memory layout (from the cached allocator) for
// trace.Analyze and trace.EmitReports. Tracing is observation-only: Row.Stats
// equals RunCell's.
func RunTraced(cfg Config, app string, impl core.Impl, sched bool) (Row, trace.Meta) {
	if err := cmp.Or(cfg.Validate(), validApp(app), CheckBufferedTrace(cfg.NProcs)); err != nil {
		return Row{App: app, Impl: impl, Err: err}, trace.Meta{}
	}
	tr := trace.New(cfg.NProcs)
	if sched {
		tr.EnableSched()
	}
	row := runCell(cfg, app, impl, tr)
	meta := trace.Meta{App: app, Impl: impl.String(), Scale: cfg.Scale.String(), NProcs: cfg.NProcs}
	if al, err := InitLayout(app, cfg.Scale); err == nil {
		meta.Regions, meta.Pages = al.Regions(), al.Pages()
	}
	return row, meta
}

// runCell is RunCell; a non-nil tr replaces the tracer Options attaches.
func runCell(cfg Config, app string, impl core.Impl, tr *trace.Tracer) (row Row) {
	row = Row{App: app, Impl: impl}
	cs := cfg.Perf.StartCell(cfg.Variant, app, impl.String(), cfg.NProcs)
	defer func() {
		if v := recover(); v != nil {
			row.Err = &CellPanic{
				App: app, Impl: impl, NProcs: cfg.NProcs, Value: v,
				Stack: debug.Stack(), Elapsed: cs.Elapsed(),
			}
		}
		cs.End(outcomeOf(row.Err))
	}()
	a, err := apps.New(app, cfg.Scale)
	if err != nil {
		row.Err = err
		return row
	}
	opts, err := Options(cfg, app)
	if err != nil {
		row.Err = err
		return row
	}
	if tr != nil {
		opts.Trace = tr
	}
	row.Machine, row.Trace = opts.Machine, opts.Trace
	row.Result, row.Err = run.RunWith(a, impl, cfg.NProcs, cfg.Cost, opts)
	return row
}

// RunSeq executes the sequential reference of one application. With
// Config.Perf attached it is attributed like a cell, under impl "seq". A
// panic comes back as a *CellPanic with Seq set, like a cell's.
func RunSeq(cfg Config, app string) (t sim.Time, err error) {
	cs := cfg.Perf.StartCell(cfg.Variant, app, "seq", 1)
	defer func() {
		if v := recover(); v != nil {
			err = &CellPanic{
				App: app, NProcs: 1, Seq: true, Value: v,
				Stack: debug.Stack(), Elapsed: cs.Elapsed(),
			}
		}
		cs.End(outcomeOf(err))
	}()
	if err := cmp.Or(validScale(cfg.Scale), validApp(app)); err != nil {
		return 0, err
	}
	a, err := apps.New(app, cfg.Scale)
	if err != nil {
		return 0, err
	}
	opts, err := Options(cfg, app)
	if err != nil {
		return 0, err
	}
	return run.RunSeqWith(a, opts)
}
