// Package harness regenerates the paper's evaluation artifacts: Table 2
// (application parameters), Table 3 (best EC vs best LRC), Tables 4 and 5
// (write trapping x write collection within each model), the in-text
// message/data counters of Section 7.2, and the Section 7.1 factor
// microbenchmarks.
package harness

import (
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
// end (the table entry points, the sweep engine, the CLIs through
// internal/cmdline, the root API) describes its cells with one, and Options
// resolves it into the run.Options of a cell.
type Config struct {
	Scale  apps.Scale
	NProcs int
	Cost   fabric.CostModel
	// Machine is the simulated machine's shape: contention, fault plan,
	// topology, barrier fan-in, notice GC (see run.Machine for each). Options
	// applies the scale-dependent defaults.
	run.Machine
	// Parallel bounds how many table cells run concurrently. Each cell is an
	// isolated sim.Simulator, so cells are embarrassingly parallel; results
	// are always assembled in table order, making the output independent of
	// the worker count. <= 0 means GOMAXPROCS.
	Parallel int
	// Trace attaches a fresh profiling tracer to every cell
	// (trace.NewProfiling): the virtual-time profile is built while the cell
	// runs and no event history is kept, so any processor count is traceable.
	// Tracing is observation-only — the tables are byte-identical with it on,
	// and the cell schedules exactly as untraced (run-ahead included).
	// RunCell hands the cell's tracer back on Row.Trace for
	// trace.BuildProfile (the sweep engine's stall breakdown); the table
	// entry points discard it. Reports that need the history go through
	// RunTraced instead.
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
// ErrConfig so callers can classify them with errors.Is. RunCell, RunTraced
// and the table entry points call it; RunSeq checks the scale only, the
// sequential reference running on one processor whatever NProcs says.
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
// engine reuses this pool for its grid cells.
//
// A panic in fn(i) is confined to that index: the worker recovers, records
// the panic (with its stack) against i, and moves on, so one poisoned cell
// cannot take down the rest of a table or sweep. The recovered panics are
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
// cells share images and layouts read-only. Past 8 processors an image is
// also the template its cells' nodes fork (mem.Image.Fork): its memory file
// is written on the first such fork and lives as long as the entry.
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
// panic is confined to the cell — the rest of the table or sweep completes —
// and the error carries the full cell identity plus the recovered value and
// stack, so a crashing configuration is diagnosable from the report alone.
type CellPanic struct {
	App    string
	Impl   core.Impl
	NProcs int
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
	return fmt.Sprintf("harness: cell %s/%v (%d procs) panicked%s: %v\n%s",
		cp.App, cp.Impl, cp.NProcs, after, cp.Value, cp.Stack)
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
	if err := cfg.Validate(); err != nil {
		return Row{App: app, Impl: impl, Err: err}
	}
	return runCell(cfg, app, impl, nil)
}

// CheckBufferedTrace reports whether a buffered tracer (trace.New) can record
// an nprocs-processor run; the CLIs call it up front so an oversize traced
// run fails like a bad flag, not after the run.
func CheckBufferedTrace(nprocs int) error {
	if nprocs < 1 || nprocs > trace.MaxProcs {
		return fmt.Errorf("traced runs support 1..%d processors, got %d", trace.MaxProcs, nprocs)
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
	err := cfg.Validate()
	if err == nil {
		err = CheckBufferedTrace(cfg.NProcs)
	}
	if err != nil {
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
// Config.Perf attached it is attributed like a cell, under impl "seq".
func RunSeq(cfg Config, app string) (t sim.Time, err error) {
	cs := cfg.Perf.StartCell(cfg.Variant, app, "seq", 1)
	defer func() {
		if v := recover(); v != nil {
			cs.End(perf.OutcomePanic)
			panic(v) // ForEach's per-index recovery attributes it
		}
		cs.End(outcomeOf(err))
	}()
	if err := validScale(cfg.Scale); err != nil {
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

// Table2 renders the application-parameter table for the configured scale.
func Table2(cfg Config) string {
	params := map[apps.Scale]map[string]string{
		apps.Paper: {
			"SOR":        "1000x1000 floats, 50 iterations",
			"SOR+":       "1000x1000 floats (boundary rows shared), 50 iterations",
			"QS":         "262,144 integers, cutoff 1024",
			"Water":      "343 molecules, 5 iterations",
			"Barnes-Hut": "8,192 bodies, 5 iterations",
			"IS":         "N = 2^20, Bmax = 2^9, 10 rankings",
			"3D-FFT":     "64x64x32",
		},
		apps.Bench: {
			"SOR":        "256x256 floats, 8 iterations",
			"SOR+":       "256x256 floats (boundary rows shared), 8 iterations",
			"QS":         "32,768 integers, cutoff 1024",
			"Water":      "125 molecules, 3 iterations",
			"Barnes-Hut": "512 bodies, 2 iterations",
			"IS":         "N = 2^16, Bmax = 2^9, 5 rankings",
			"3D-FFT":     "32x32x32",
		},
		apps.Test: {
			"SOR":        "48x64 floats, 4 iterations",
			"SOR+":       "48x64 floats (boundary rows shared), 4 iterations",
			"QS":         "4,096 integers, cutoff 256",
			"Water":      "37 molecules, 2 iterations",
			"Barnes-Hut": "64 bodies, 2 iterations",
			"IS":         "N = 4096, Bmax = 128, 3 rankings",
			"3D-FFT":     "16x16x32",
		},
		apps.Large: {
			"SOR":        "1026x64 floats, 4 iterations",
			"SOR+":       "1026x64 floats (boundary rows shared), 4 iterations",
			"QS":         "131,072 integers, cutoff 512",
			"Water":      "1,024 molecules, 2 iterations",
			"Barnes-Hut": "2,048 bodies, 2 iterations",
			"IS":         "N = 2^18, Bmax = 2^10, 3 rankings",
			"3D-FFT":     "64x64x8",
		},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Application Parameters (%s scale)\n", cfg.Scale)
	fmt.Fprintf(&b, "%-12s %s\n", "Application", "Data Set Size")
	for _, name := range apps.Names() {
		fmt.Fprintf(&b, "%-12s %s\n", name, params[cfg.Scale][name])
	}
	return b.String()
}

// Table3Result holds one application row of Table 3.
type Table3Result struct {
	App      string
	SeqTime  sim.Time
	BestEC   Row
	BestLRC  Row
	ECImpls  []Row
	LRCImpls []Row
}

// runGrid runs every (application, implementation) cell — and, with seq, each
// application's sequential reference — concurrently up to cfg.Parallel, and
// returns each application's rows in implementation order under its name,
// plus the sequential times in appNames order; the result is identical for
// any worker count. It collects every failed cell before giving up, so one
// bad configuration reports the whole damage, not just its first victim. An
// invalid cfg fails once, before any cell runs.
func runGrid(cfg Config, appNames []string, impls []core.Impl, seq bool) (map[string][]Row, []sim.Time, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	stride := len(impls)
	if seq {
		stride++
	}
	rows := make([]Row, len(appNames)*len(impls))
	seqTimes := make([]sim.Time, len(appNames))
	seqErrs := make([]error, len(appNames))
	errs := []error{ForEach(cfg.Parallel, len(appNames)*stride, func(k int) {
		i, j := k/stride, k%stride
		if seq {
			j-- // slot 0 of each application is its sequential reference
		}
		if j < 0 {
			seqTimes[i], seqErrs[i] = RunSeq(cfg, appNames[i])
			return
		}
		rows[i*len(impls)+j] = RunCell(cfg, appNames[i], impls[j])
	})}
	out := make(map[string][]Row, len(appNames))
	for i, name := range appNames {
		if seqErrs[i] != nil {
			errs = append(errs, fmt.Errorf("harness: %s sequential: %w", name, seqErrs[i]))
		}
		out[name] = rows[i*len(impls) : (i+1)*len(impls)]
		for _, row := range out[name] {
			if row.Err != nil {
				errs = append(errs, fmt.Errorf("harness: %s/%v: %w", row.App, row.Impl, row.Err))
			}
		}
	}
	return out, seqTimes, errors.Join(errs...)
}

// Table3 runs every implementation of every application and reports the
// best EC against the best LRC, the paper's headline comparison.
func Table3(cfg Config, appNames []string) ([]Table3Result, error) {
	rows, seqTimes, err := runGrid(cfg, appNames, core.Implementations(), true)
	if err != nil {
		return nil, err
	}
	var out []Table3Result
	for i, name := range appNames {
		r := Table3Result{App: name, SeqTime: seqTimes[i]}
		for _, row := range rows[name] {
			if row.Impl.Model == core.EC {
				r.ECImpls = append(r.ECImpls, row)
			} else {
				r.LRCImpls = append(r.LRCImpls, row)
			}
		}
		r.BestEC = best(r.ECImpls)
		r.BestLRC = best(r.LRCImpls)
		out = append(out, r)
	}
	return out, nil
}

// modelRows regroups Table 3's rows as the trapping x collection matrix of
// one model — what TableModel would simulate again, the simulator being
// deterministic.
func modelRows(t3 []Table3Result, model core.Model) map[string][]Row {
	out := make(map[string][]Row, len(t3))
	for _, r := range t3 {
		out[r.App] = r.ECImpls
		if model == core.LRC {
			out[r.App] = r.LRCImpls
		}
	}
	return out
}

func best(rows []Row) Row {
	b := rows[0]
	for _, r := range rows[1:] {
		if r.Stats.Time < b.Stats.Time {
			b = r
		}
	}
	return b
}

// FormatTable3 renders Table 3 in the paper's layout.
func FormatTable3(rows []Table3Result) string {
	var b strings.Builder
	b.WriteString("Table 3: Execution Times — best EC vs best LRC\n")
	fmt.Fprintf(&b, "%-12s %9s %9s %9s %10s %10s\n", "App", "1 proc.", "EC", "LRC", "EC Imp.", "LRC Imp.")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %9.2f %9.2f %9.2f %10s %10s\n",
			r.App, r.SeqTime.Seconds(), r.BestEC.Stats.Time.Seconds(), r.BestLRC.Stats.Time.Seconds(),
			implSuffix(r.BestEC.Impl), implSuffix(r.BestLRC.Impl))
	}
	return b.String()
}

func implSuffix(i core.Impl) string {
	s := i.String()
	return s[strings.Index(s, "-")+1:]
}

// TableModel runs the trapping x collection matrix for one model (Table 4
// for EC, Table 5 for LRC), with cells running concurrently up to
// cfg.Parallel.
func TableModel(cfg Config, model core.Model, appNames []string) (map[string][]Row, error) {
	rows, _, err := runGrid(cfg, appNames, core.ModelImpls(model), false)
	return rows, err
}

// FormatTableModel renders Table 4 or Table 5.
func FormatTableModel(model core.Model, rows map[string][]Row, appNames []string) string {
	var b strings.Builder
	n := 4
	if model == core.LRC {
		n = 5
	}
	fmt.Fprintf(&b, "Table %d: Execution Times (seconds) for Write Trapping x Write Collection in %v\n", n, model)
	impls := core.ModelImpls(model)
	fmt.Fprintf(&b, "%-12s", "App")
	for _, i := range impls {
		fmt.Fprintf(&b, " %10s", i)
	}
	b.WriteString("\n")
	for _, name := range appNames {
		fmt.Fprintf(&b, "%-12s", name)
		for _, c := range rows[name] { // in impls order, as TableModel returns them
			fmt.Fprintf(&b, " %10.2f", c.Stats.Time.Seconds())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FormatCounters renders the Section 7.2 in-text counters (messages and MB
// moved) for the best implementations, the quantities the paper quotes when
// explaining each application's outcome.
func FormatCounters(rows []Table3Result) string {
	var b strings.Builder
	b.WriteString("Section 7.2 counters: messages and data moved (best impls)\n")
	fmt.Fprintf(&b, "%-12s %12s %12s %12s %12s\n", "App", "EC msgs", "LRC msgs", "EC MB", "LRC MB")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %12d %12d %12.1f %12.1f\n",
			r.App, r.BestEC.Stats.Msgs, r.BestLRC.Stats.Msgs,
			r.BestEC.Stats.MB(), r.BestLRC.Stats.MB())
	}
	return b.String()
}

// Micro runs the Section 7.1 factor kernels for every implementation, with
// cells running concurrently up to cfg.Parallel.
func Micro(cfg Config) (map[string][]Row, error) {
	rows, _, err := runGrid(cfg, apps.MicroNames(), core.Implementations(), false)
	return rows, err
}

// FormatMicro renders the factor-kernel comparison.
func FormatMicro(rows map[string][]Row) string {
	var b strings.Builder
	b.WriteString("Section 7.1 factor kernels (time / msgs / KB per implementation)\n")
	for _, name := range apps.MicroNames() {
		fmt.Fprintf(&b, "%s:\n", name)
		for _, r := range rows[name] {
			fmt.Fprintf(&b, "  %-10s %10v %8d msgs %8.1f KB\n",
				r.Impl, r.Stats.Time, r.Stats.Msgs, float64(r.Stats.Bytes)/1024)
		}
	}
	return b.String()
}

// BenchReport renders the complete `dsmbench -all` output — Tables 2-5, the
// Section 7.2 counters and the Section 7.1 factor kernels — as one string.
// cmd/dsmbench prints exactly this for -all, and the byte-identity regression
// test pins it against the seed's golden output with contention off.
func BenchReport(cfg Config, appNames []string) (string, error) {
	if len(appNames) == 0 {
		appNames = apps.Names()
	}
	var b strings.Builder
	b.WriteString(Table2(cfg))
	b.WriteString("\n")
	t3, err := Table3(cfg, appNames)
	if err != nil {
		return "", err
	}
	b.WriteString(FormatTable3(t3))
	b.WriteString("\n")
	// Tables 4 and 5 are Table 3's rows regrouped: each suite cell runs once.
	b.WriteString(FormatTableModel(core.EC, modelRows(t3, core.EC), appNames))
	b.WriteString("\n")
	b.WriteString(FormatTableModel(core.LRC, modelRows(t3, core.LRC), appNames))
	b.WriteString("\n")
	b.WriteString(FormatCounters(t3))
	b.WriteString("\n")
	m, err := Micro(cfg)
	if err != nil {
		return "", err
	}
	b.WriteString(FormatMicro(m))
	return b.String(), nil
}
