// Package perf is the host-side observability layer: counters, fixed-bucket
// histograms, phase timers and per-cell spans measuring the *host* running
// the simulator — wall-clock time, allocation counts, peak heap — as opposed
// to internal/trace, which observes the *simulated* machine in virtual time.
//
// The layer is observation-only by construction:
//
//   - Every entry point is nil-safe: a nil *Registry (and the nil Counter /
//     Histogram handles and zero-valued CellSpan / Phase it hands out) turns
//     every operation into a pointer check — no clock reads, no
//     runtime.MemStats, no allocation. The disabled path is pinned at zero
//     allocations by BenchmarkPerfDisabled and TestDisabledRegistryAllocs.
//   - Nothing here reads virtual time. Metrics come from host clocks and the
//     Go runtime, so simulated statistics are byte-identical with metrics on
//     (TestBenchReportWithMetricsMatchesSeedGolden pins the full report).
//
// All handles are safe for concurrent use: counters, the peak heap and
// histogram buckets are atomics, and the per-cell records are mutex-guarded,
// so a registry can be shared by every worker of a parallel harness sweep.
package perf

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically-increasing atomic counter. The nil Counter
// (from a nil Registry) accepts Add and reports zero.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d. No-op on the nil Counter.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Value returns the current count; zero on the nil Counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-bucket histogram: bounds are ascending upper bounds,
// observations beyond the last bound land in an overflow bucket. Buckets and
// the sum are atomics, so concurrent Observe calls are race-free and the
// totals are deterministic for a deterministic observation set.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1; last is overflow
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records v. No-op on the nil Histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations; zero on the nil Histogram.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// WallBuckets is the default bucket layout for host wall-time histograms:
// exponential upper bounds from 100µs to 100s, in nanoseconds.
var WallBuckets = []int64{
	100e3, 1e6, 10e6, 100e6, 1e9, 10e9, 100e9,
}

// Outcome classifies how a cell run ended.
type Outcome string

// Cell outcomes. Severity orders panic > err > ok; merged cells keep the
// worst outcome seen.
const (
	OutcomeOK    Outcome = "ok"
	OutcomeErr   Outcome = "err"
	OutcomePanic Outcome = "panic"
)

func outcomeRank(o Outcome) int {
	switch o {
	case OutcomePanic:
		return 2
	case OutcomeErr:
		return 1
	default:
		return 0
	}
}

// Cell is the host-side performance record of one evaluation-matrix cell,
// attributed by (variant, app, impl, nprocs). Repeated runs of the same cell
// (Table 3 and Table 4 both run SOR/EC-time, say) merge: Runs counts them,
// WallNS / Mallocs / AllocBytes accumulate, MinWallNS keeps the fastest run
// (the least-noisy wall estimator, benchmarking's min-of-N).
type Cell struct {
	Variant string
	App     string
	Impl    string
	NProcs  int
	Outcome string
	Runs    int64
	// WallNS is the summed host wall-clock time of all runs; MinWallNS the
	// fastest single run.
	WallNS    int64
	MinWallNS int64
	// Mallocs and AllocBytes are summed runtime.MemStats deltas across the
	// cell's runs. Exact only when cells run one at a time; under parallel
	// workers concurrent cells bleed into each other's windows.
	Mallocs    int64
	AllocBytes int64
}

// Key is the cell's merge identity.
func (c Cell) Key() CellKey {
	return CellKey{Variant: c.Variant, App: c.App, Impl: c.Impl, NProcs: c.NProcs}
}

// CellKey identifies a cell.
type CellKey struct {
	Variant string
	App     string
	Impl    string
	NProcs  int
}

// Registry collects every metric of one measurement session. The zero value
// is not useful; use New. A nil *Registry is the disabled layer: every
// method is a no-op returning nil/zero handles.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	cells    map[CellKey]*Cell

	peakHeap atomic.Int64 // highest HeapAlloc seen at a cell span's edges
}

// New returns an empty enabled registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		cells:    make(map[CellKey]*Cell),
	}
}

// Counter returns the named counter, creating it on first use. Nil registry
// returns the nil Counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use (later bounds are ignored). Nil registry returns the nil
// Histogram.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
		r.hists[name] = h
	}
	return h
}

// Phase times one named phase of a run; obtain it from StartPhase and call
// End when the phase completes. The elapsed time accumulates into the
// counter "phase_<name>_ns", so phases aggregate across cells.
type Phase struct {
	c     *Counter
	start time.Time
}

// StartPhase starts timing the named phase. On the nil registry it returns
// the zero Phase, whose End is a pointer check — no clock is read.
func (r *Registry) StartPhase(name string) Phase {
	if r == nil {
		return Phase{}
	}
	return Phase{c: r.Counter("phase_" + name + "_ns"), start: time.Now()}
}

// End stops the phase and accumulates its wall time.
func (p Phase) End() {
	if p.c == nil {
		return
	}
	p.c.Add(int64(time.Since(p.start)))
}

// CellSpan measures one cell run: host wall time plus runtime.MemStats
// deltas (Mallocs, TotalAlloc) between StartCell and End, with the observed
// HeapAlloc folded into the registry's peak heap at both edges.
type CellSpan struct {
	r        *Registry
	cell     Cell
	start    time.Time
	mallocs0 uint64
	alloc0   uint64
}

// StartCell opens a measurement span for the identified cell. On the nil
// registry it returns the zero CellSpan: End and Elapsed become pointer
// checks, and no clock or MemStats read happens.
func (r *Registry) StartCell(variant, app, impl string, nprocs int) CellSpan {
	if r == nil {
		return CellSpan{}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.observeHeap(m.HeapAlloc)
	return CellSpan{
		r:        r,
		cell:     Cell{Variant: variant, App: app, Impl: impl, NProcs: nprocs},
		start:    time.Now(),
		mallocs0: m.Mallocs,
		alloc0:   m.TotalAlloc,
	}
}

// Elapsed returns the host wall time since StartCell; zero on a span from
// the nil registry.
func (cs CellSpan) Elapsed() time.Duration {
	if cs.r == nil {
		return 0
	}
	return time.Since(cs.start)
}

// End closes the span with the given outcome and records the cell, merging
// it with any earlier run of the same identity: runs, wall time and
// allocation deltas accumulate, MinWallNS keeps the fastest run and the
// worst outcome wins. Slow cells that die are still attributed their elapsed
// time: the harness calls End(OutcomePanic) from its recovery path, so a
// slow-then-crashing cell is distinguishable from a fast one in the record.
func (cs CellSpan) End(outcome Outcome) {
	if cs.r == nil {
		return
	}
	wall := int64(time.Since(cs.start))
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	cs.r.observeHeap(m.HeapAlloc)
	cs.r.Histogram("cell_wall_ns", WallBuckets).Observe(wall)
	mallocs, alloc := int64(m.Mallocs-cs.mallocs0), int64(m.TotalAlloc-cs.alloc0)

	cs.r.mu.Lock()
	defer cs.r.mu.Unlock()
	key := cs.cell.Key()
	cur := cs.r.cells[key]
	if cur == nil {
		c := cs.cell
		c.Outcome, c.MinWallNS = string(outcome), wall
		cur = &c
		cs.r.cells[key] = cur
	}
	cur.Runs++
	cur.WallNS += wall
	cur.MinWallNS = min(cur.MinWallNS, wall)
	cur.Mallocs += mallocs
	cur.AllocBytes += alloc
	if outcomeRank(outcome) > outcomeRank(Outcome(cur.Outcome)) {
		cur.Outcome = string(outcome)
	}
}

// observeHeap raises the peak heap to v if v exceeds it.
func (r *Registry) observeHeap(v uint64) {
	for {
		cur := r.peakHeap.Load()
		if int64(v) <= cur || r.peakHeap.CompareAndSwap(cur, int64(v)) {
			return
		}
	}
}

// PeakHeapBytes returns the highest HeapAlloc observed at the edges of any
// cell span; zero on the nil registry.
func (r *Registry) PeakHeapBytes() int64 {
	if r == nil {
		return 0
	}
	return r.peakHeap.Load()
}

// Cells returns a copy of every cell record, sorted by (variant, app, impl,
// nprocs); nil on the nil registry.
func (r *Registry) Cells() []Cell {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Cell, 0, len(r.cells))
	for _, c := range r.cells {
		out = append(out, *c)
	}
	r.mu.Unlock()
	slices.SortFunc(out, func(a, b Cell) int {
		return cmp.Or(cmp.Compare(a.Variant, b.Variant), cmp.Compare(a.App, b.App),
			cmp.Compare(a.Impl, b.Impl), cmp.Compare(a.NProcs, b.NProcs))
	})
	return out
}

// Counters returns a point-in-time copy of every named counter.
func (r *Registry) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	return out
}
