// Package sweep is the sensitivity-sweep subsystem: it runs a grid of
// (application x implementation x processor count x cost variant) cells on
// the bounded-worker harness and emits structured, deterministic results.
// The paper's verdict — entry consistency vs lazy release consistency —
// depends on platform constants (messaging software, wire bandwidth,
// write-detection cost, diff hardware); a sweep quantifies that dependence by
// re-running the evaluation matrix under named cost-model variants (see
// fabric's presets and knobs, and ParseVariantSpec for the spec syntax) and
// comparing every variant against the calibrated paper platform.
//
// Run is the one grid runner: the paper's evaluation tables render from its
// records too (Report, what dsmbench prints).
package sweep

import (
	"cmp"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/harness"
	"ecvslrc/internal/perf"
	"ecvslrc/internal/run"
	"ecvslrc/internal/sim"
	"ecvslrc/internal/trace"
)

// Variant is one platform point of a sweep: a name for reports, the cost
// constants and the machine shape (run.Machine: contention, fault plan,
// topology, barrier fan-in, notice GC). ParseVariantSpec fills it from the
// axes; programmatic callers set the fields they need.
type Variant struct {
	Name string
	Cost fabric.CostModel
	run.Machine
}

// BaselineName is the canonical name of the calibrated paper platform.
const BaselineName = "paper"

// Baseline returns the paper-default variant every report compares against.
func Baseline() Variant {
	return Variant{Name: BaselineName, Cost: fabric.DefaultCostModel()}
}

// Grid describes a sweep: the cross product of Apps x NProcs x Impls is run
// under every Variant. Zero-valued fields get defaults from normalized.
type Grid struct {
	Scale    apps.Scale
	Apps     []string    // default: the paper's application suite
	Impls    []core.Impl // default: all six implementations
	NProcs   []int       // default: {8}
	Variants []Variant   // default: {Baseline()}
	// Parallel and Timeout are harness.Config's, applied to every cell:
	// records are assembled in grid order, so results are identical for any
	// worker count, and a stalled cell fails instead of hanging the sweep.
	Parallel int
	Timeout  sim.Time
	// Breakdown profiles every cell and attaches the virtual-time profiler's
	// per-class stall decomposition to each record (Record.Stall), adding the
	// breakdown columns to the CSV. The profile is built while the cell runs
	// (trace.NewProfiling), so it costs no event history and works at every
	// processor count. Opt-in: every cell still pays the emit hooks, and the
	// extra columns would churn downstream consumers of the flat CSV.
	// Observation-only — all other record fields are byte-identical with it
	// on or off.
	Breakdown bool
	// Perf, when non-nil, attributes host-side performance (wall time,
	// allocation deltas, peak heap) to every cell of the grid, labeled with
	// the variant name (internal/perf). Observation-only: the records are
	// byte-identical with and without it.
	Perf *perf.Registry
	// Progress, when non-nil, is invoked once after every completed unit of
	// work — each sequential reference and each grid cell — with the running
	// completion count, the total, the cell's label and its host wall time.
	// Calls may come from concurrent workers; perf.ProgressEmitter returns a
	// serializing implementation that streams heartbeats with throughput and
	// ETA. Observation-only: records do not depend on it.
	Progress func(done, total int, cell string, wall time.Duration)
}

// ErrGrid is wrapped by every Grid validation failure.
var ErrGrid = errors.New("invalid sweep grid")

// normalized fills defaults and validates, wrapping ErrGrid on failure.
func (g Grid) normalized() (Grid, error) {
	if len(g.Apps) == 0 {
		g.Apps = apps.Names()
	}
	if len(g.Impls) == 0 {
		g.Impls = core.Implementations()
	}
	if len(g.NProcs) == 0 {
		g.NProcs = []int{8}
	}
	if len(g.Variants) == 0 {
		g.Variants = []Variant{Baseline()}
	}
	for _, i := range g.Impls {
		if !i.Valid() {
			return g, fmt.Errorf("sweep: %w: implementation %v", ErrGrid, i)
		}
	}
	seen := make(map[string]bool, len(g.Variants))
	for _, v := range g.Variants {
		if v.Name == "" {
			return g, fmt.Errorf("sweep: %w: variant with empty name", ErrGrid)
		}
		if seen[v.Name] {
			return g, fmt.Errorf("sweep: %w: duplicate variant %q", ErrGrid, v.Name)
		}
		seen[v.Name] = true
		for _, np := range g.NProcs {
			if err := g.config(v, np).Validate(); err != nil {
				return g, fmt.Errorf("sweep: %w: variant %q: %w", ErrGrid, v.Name, err)
			}
		}
	}
	return g, nil
}

// config is the harness description of the grid's cells under v on np
// processors.
func (g Grid) config(v Variant, np int) harness.Config {
	return harness.Config{
		Scale: g.Scale, NProcs: np, Cost: v.Cost, Machine: v.Machine,
		Timeout: g.Timeout, Parallel: 1, Perf: g.Perf, Variant: v.Name, Trace: g.Breakdown,
	}
}

// Record is the outcome of one sweep cell: full run statistics plus the
// variant metadata and the speedup against the application's memoized
// sequential reference (which is platform-independent — the sequential
// program pays computation time only).
type Record struct {
	Variant    string     `json:"variant"`
	Contention bool       `json:"contention"`
	App        string     `json:"app"`
	Impl       string     `json:"impl"`
	NProcs     int        `json:"nprocs"`
	Seq        sim.Time   `json:"seq_ns"`
	Stats      core.Stats `json:"stats"`
	Speedup    float64    `json:"speedup"`
	// LinkWait is the total shared-link queueing delay of the run — the
	// quantity contention mode exists to measure (zero with contention off).
	LinkWait sim.Time `json:"link_wait_ns"`
	// Fault names the variant's fault-plan preset; the counters below come
	// from the reliable sublayer. All stay at their zero values (and out of
	// the JSON) for fault-free variants, keeping fault-free output identical
	// to sweeps that predate fault injection.
	Fault        string   `json:"fault,omitempty"`
	Retransmits  int64    `json:"retransmits,omitempty"`
	DupsDropped  int64    `json:"dups_dropped,omitempty"`
	RecoveryWait sim.Time `json:"recovery_wait_ns,omitempty"`
	// Topo names the variant's switch topology in canonical spec form; empty
	// (and out of the JSON) for the flat calibrated link, keeping flat-fabric
	// output identical to sweeps that predate the topology model.
	Topo string `json:"topo,omitempty"`
	// Stall is the virtual-time profiler's stall-class decomposition of the
	// cell, summed over all processors. Present only with Grid.Breakdown on
	// (and out of the JSON otherwise), keeping non-breakdown output identical
	// to sweeps that predate the profiler.
	Stall *StallBreakdown `json:"stall,omitempty"`
}

// StallBreakdown is one record's machine-wide stall decomposition: every
// simulated nanosecond of every processor, classified by the virtual-time
// profiler (trace.BuildProfile). The classes sum exactly to the summed
// per-processor end times (the profiler's conservation invariant).
type StallBreakdown struct {
	Compute     sim.Time `json:"compute_ns"`
	TrapDiff    sim.Time `json:"trap_diff_ns"`
	PageFetch   sim.Time `json:"page_fetch_ns"`
	LockWait    sim.Time `json:"lock_wait_ns"`
	BarrierWait sim.Time `json:"barrier_wait_ns"`
	LinkWait    sim.Time `json:"link_wait_ns"`
	Recovery    sim.Time `json:"recovery_ns"`
}

// stallOf folds a profile's per-class totals into the record form.
func stallOf(p *trace.Profile) *StallBreakdown {
	return &StallBreakdown{
		Compute:     p.Total[trace.ClassCompute],
		TrapDiff:    p.Total[trace.ClassTrapDiff],
		PageFetch:   p.Total[trace.ClassPageFetch],
		LockWait:    p.Total[trace.ClassLockWait],
		BarrierWait: p.Total[trace.ClassBarrierWait],
		LinkWait:    p.Total[trace.ClassLinkWait],
		Recovery:    p.Total[trace.ClassRecovery],
	}
}

// CellFailures aggregates every failed cell of a sweep, in grid order. Run
// returns it together with the records of the cells that did succeed, so
// callers can emit partial results and still exit nonzero with the full list
// of casualties.
type CellFailures struct {
	Errs []error
}

func (cf *CellFailures) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep: %d cell(s) failed:", len(cf.Errs))
	for _, e := range cf.Errs {
		b.WriteString("\n  ")
		b.WriteString(e.Error())
	}
	return b.String()
}

func (cf *CellFailures) Unwrap() []error { return cf.Errs }

// Run executes the grid and returns one Record per cell, in grid order:
// variants outermost, then applications, processor counts, implementations.
// Cells run concurrently up to g.Parallel on the harness worker pool; the
// records are identical for any worker count. A failing cell — error or
// panic — does not abort the sweep: the surviving records are returned in
// grid order together with a *CellFailures listing every casualty, so
// callers can emit partial results and still fail loudly.
func Run(g Grid) ([]Record, error) {
	g, err := g.normalized()
	if err != nil {
		return nil, err
	}
	baseCfg := harness.Config{Scale: g.Scale, NProcs: g.NProcs[0], Cost: fabric.DefaultCostModel(), Perf: g.Perf}

	// Progress accounting: every sequential reference and every grid cell is
	// one unit. The callback gets a monotone completion count; wall times are
	// measured here (host clock) only when someone is listening.
	total := len(g.Apps) + len(g.Variants)*len(g.Apps)*len(g.NProcs)*len(g.Impls)
	var done atomic.Int64
	report := func(cell string, start time.Time) {
		g.Progress(int(done.Add(1)), total, cell, time.Since(start))
	}
	startClock := func() (t time.Time) {
		if g.Progress != nil {
			t = time.Now()
		}
		return t
	}

	// Sequential references, once per application: every cell of the same
	// app shares one memoized value regardless of variant, processor count
	// or implementation. A failure here is fatal — every record of that app
	// would be missing its denominator.
	seqTimes := make([]sim.Time, len(g.Apps))
	seqErrs := make([]error, len(g.Apps))
	if err := harness.ForEach(g.Parallel, len(g.Apps), func(i int) {
		t0 := startClock()
		seqTimes[i], seqErrs[i] = harness.RunSeq(baseCfg, g.Apps[i])
		if g.Progress != nil {
			report(g.Apps[i]+"/seq", t0)
		}
	}); err != nil {
		return nil, fmt.Errorf("sweep: sequential references: %w", err)
	}
	for i, err := range seqErrs {
		if err != nil {
			return nil, fmt.Errorf("sweep: %s sequential: %w", g.Apps[i], err)
		}
	}

	nApps, nProcs, nImpls := len(g.Apps), len(g.NProcs), len(g.Impls)
	cells := len(g.Variants) * nApps * nProcs * nImpls
	recs := make([]Record, cells)
	cellErrs := make([]error, cells)
	poolErr := harness.ForEach(g.Parallel, cells, func(k int) {
		ii := k % nImpls
		ni := k / nImpls % nProcs
		ai := k / (nImpls * nProcs) % nApps
		vi := k / (nImpls * nProcs * nApps)
		v, app, np, impl := g.Variants[vi], g.Apps[ai], g.NProcs[ni], g.Impls[ii]
		t0 := startClock()
		row := harness.RunCell(g.config(v, np), app, impl)
		if g.Progress != nil {
			report(fmt.Sprintf("%s/%s/%v/%d", v.Name, app, impl, np), t0)
		}
		if row.Err != nil {
			cellErrs[k] = fmt.Errorf("sweep: %s/%s on %v, %d procs: %w", v.Name, app, impl, np, row.Err)
			return
		}
		var stall *StallBreakdown
		if g.Breakdown && row.Trace != nil {
			// The profile build is host-side analysis, attributed to its own
			// perf phase so breakdown cost is visible among the run phases.
			ph := g.Perf.StartPhase("analyze")
			meta := trace.Meta{App: app, Impl: impl.String(), Scale: g.Scale.String(), NProcs: np}
			stall = stallOf(trace.BuildProfile(row.Trace, meta))
			ph.End()
		}
		seq := seqTimes[ai]
		rec := Record{
			Variant:      v.Name,
			Contention:   v.Contention,
			App:          app,
			Impl:         impl.String(),
			NProcs:       np,
			Seq:          seq,
			Stats:        row.Stats,
			Speedup:      float64(seq) / float64(row.Stats.Time),
			LinkWait:     row.LinkWait,
			Retransmits:  row.Faults.Retransmits,
			DupsDropped:  row.Faults.DupsDropped,
			RecoveryWait: row.Faults.RecoveryWait,
			Stall:        stall,
		}
		// Fault and Topo stay empty — and out of the JSON — for the
		// fault-free flat fabric; a hand-built plan has no preset name.
		if v.Faults != nil {
			rec.Fault = cmp.Or(v.Faults.Name, "custom")
		}
		if v.Topology != nil {
			rec.Topo = v.Topology.String()
		}
		recs[k] = rec
	})
	var failed []error
	if poolErr != nil {
		failed = append(failed, poolErr)
	}
	ok := make([]Record, 0, cells)
	for k := range recs {
		if cellErrs[k] != nil {
			failed = append(failed, cellErrs[k])
			continue
		}
		ok = append(ok, recs[k])
	}
	if len(failed) > 0 {
		return ok, &CellFailures{Errs: failed}
	}
	return ok, nil
}
