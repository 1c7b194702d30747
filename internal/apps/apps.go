// Package apps implements the paper's application suite (Section 2): SOR and
// SOR+, Quicksort, Water, Barnes-Hut, Integer Sort and 3D-FFT, plus the
// synthetic kernels behind the Section 7.1 factor analysis. Every application
// is written once, in the dual programming style of Section 3.3: the LRC code
// path is the program "as written for sequential consistency", and the EC
// path adds the lock bindings, read-only locks, extra exclusive locks and
// rebinding the model demands.
package apps

import (
	"fmt"
	"strings"
	"sync"

	"ecvslrc/internal/core"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/run"
	"ecvslrc/internal/sim"
)

// Scale selects a problem-size preset.
type Scale int

// TestHorizon and BenchHorizon are the virtual-time watchdog limits
// (run.Options.Timeout) of the suites that run every cell at test or bench
// scale. Each lies about fifteen times past the slowest such cell: 3D-FFT's
// sequential run at 0.684 s at test scale, and Barnes-Hut under EC at 8
// processors, 3.74 s with initialization, at bench scale under every machine
// variant the suites use. They decide nothing on working code; a protocol
// bug that livelocks a cell fails it within seconds of host time with a
// *sim.Stalled naming the blocked processes, instead of hanging the suite
// until go test's timeout.
const (
	TestHorizon  = 10 * sim.Second
	BenchHorizon = 60 * sim.Second
)

const (
	// Test is small enough for unit tests (fractions of a second of real time).
	Test Scale = iota
	// Bench is a medium size for Go benchmarks.
	Bench
	// Paper is the data-set size of Table 2.
	Paper
	// Large is the scaled-machine tier: problem sizes chosen so 256-1024
	// simulated processors each have real work while the shared image
	// stays small (every node has a private image, a copy-on-write fork of
	// one template, so host memory grows with the
	// pages each node writes, not with the full image). Cells at this scale
	// default to LRC notice garbage collection and tree barrier fan-in
	// (see internal/harness); 8-proc output at the other tiers is
	// unaffected.
	Large
)

func (s Scale) String() string {
	switch s {
	case Test:
		return "test"
	case Bench:
		return "bench"
	case Large:
		return "large"
	default:
		return "paper"
	}
}

// ScaleNames lists the valid -scale flag spellings, in tier order. It is the
// single source of truth for CLI flag parsing and config error messages.
func ScaleNames() []string { return []string{"test", "bench", "paper", "large"} }

// ParseScale maps a -scale flag spelling to its Scale. The error names every
// valid spelling, so CLIs can print it verbatim.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "test":
		return Test, nil
	case "bench":
		return Bench, nil
	case "paper":
		return Paper, nil
	case "large":
		return Large, nil
	}
	return 0, fmt.Errorf("apps: unknown scale %q (valid: %s)", s, strings.Join(ScaleNames(), ", "))
}

// Factory builds a fresh application instance at the given scale. Instances
// hold per-run state and must not be reused across runs.
type Factory func(scale Scale) run.App

var registry = map[string]Factory{}

func register(name string, f Factory) { registry[name] = f }

// New builds the named application at the given scale.
func New(name string, scale Scale) (run.App, error) {
	if err := Check(name); err != nil {
		return nil, err
	}
	return registry[name](scale), nil
}

// Check reports whether name is a registered application. The error names
// every valid name, suite and micro kernels alike.
func Check(name string) error {
	if _, ok := registry[name]; !ok {
		return fmt.Errorf("apps: unknown application %q (valid: %s)", name,
			strings.Join(append(Names(), MicroNames()...), ", "))
	}
	return nil
}

// Names lists the registered applications in table order.
func Names() []string {
	return []string{"SOR", "SOR+", "QS", "Water", "Barnes-Hut", "IS", "3D-FFT"}
}

// MicroNames lists the synthetic Section 7.1 kernels.
func MicroNames() []string {
	return []string{"micro-migratory", "micro-producer-consumer", "micro-false-sharing", "micro-prefetch", "micro-rebinding"}
}

// refMemo holds an application's sequential verification reference per
// problem size: the reference is a pure function of the instance, and a sweep
// runs the same instance in every cell. Init warms it, so set-up pays for the
// solve; Verify reads it back.
type refMemo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*refEntry[V]
}

type refEntry[V any] struct {
	once sync.Once
	v    V
}

// get returns the reference for k, running solve on the first request only:
// parallel first requests for one k wait for a single solve, and a hit does
// not allocate.
func (r *refMemo[K, V]) get(k K, solve func() V) V {
	r.mu.Lock()
	e := r.m[k]
	if e == nil {
		if r.m == nil {
			r.m = make(map[K]*refEntry[V])
		}
		e = new(refEntry[V])
		r.m[k] = e
	}
	r.mu.Unlock()
	e.once.Do(func() { e.v = solve() })
	return e.v
}

// bindOne returns d.Bind for single-range bindings, passing every call the
// same one-element argument slice. Bind does not retain its argument
// (core.DSM), but a fresh variadic slice passed through the interface would
// escape to the heap on every call — once per lock per processor.
func bindOne(d core.DSM) func(core.LockID, mem.Range) {
	arg := make([]mem.Range, 1)
	return func(l core.LockID, r mem.Range) {
		arg[0] = r
		d.Bind(l, arg...)
	}
}

// lockSet is the set of locks a kernel holds for a phase, in acquisition
// order (so releases stay deterministic). Membership is a flag indexed by
// lock id: the once-per-phase check in front of every read lock hashes
// nothing, and reset un-marks only the members.
type lockSet struct {
	member []bool
	order  []core.LockID
}

// newLockSet returns an empty set over lock ids [0, ids).
func newLockSet(ids int) *lockSet { return &lockSet{member: make([]bool, ids)} }

// add inserts l and reports whether it was absent.
func (s *lockSet) add(l core.LockID) bool {
	if s.member[l] {
		return false
	}
	s.member[l] = true
	s.order = append(s.order, l)
	return true
}

// reset empties the set, keeping its storage.
func (s *lockSet) reset() {
	for _, l := range s.order {
		s.member[l] = false
	}
	s.order = s.order[:0]
}

// lcg is a small deterministic pseudo-random generator (stdlib-only, and
// identical across runs so results are bit-reproducible).
type lcg struct{ s uint64 }

func newLCG(seed uint64) *lcg { return &lcg{s: seed*2862933555777941757 + 3037000493} }

func (l *lcg) next() uint64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return l.s
}

// intn returns a value in [0, n).
func (l *lcg) intn(n int) int { return int(l.next() % uint64(n)) }

// f64 returns a value in [0, 1).
func (l *lcg) f64() float64 { return float64(l.next()>>11) / (1 << 53) }

// band splits n items into p nearly-equal contiguous chunks and returns the
// half-open range of chunk i.
func band(n, p, i int) (lo, hi int) { return n * i / p, n * (i + 1) / p }

// us is shorthand for microseconds of simulated time.
func us(n float64) sim.Time { return sim.Time(n * 1000) }
