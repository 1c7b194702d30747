package perf

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// BenchmarkPerfDisabled drives every hot-path entry point against the nil
// registry — the disabled layer every cell pays when metrics are off. The
// CI alloc guard asserts 0 allocs/op: disabled metrics must be a pointer
// check, never a clock read or an allocation.
func BenchmarkPerfDisabled(b *testing.B) {
	var r *Registry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs := r.StartCell("", "app", "impl", 8)
		_ = cs.Elapsed()
		cs.End(OutcomeOK)
		ph := r.StartPhase("simulate")
		ph.End()
		r.Counter("c").Add(1)
		r.Histogram("h", WallBuckets).Observe(int64(i))
	}
}

// TestDisabledRegistryAllocs is the strict in-process form of the
// BenchmarkPerfDisabled guard: a window of disabled-path operations must
// perform zero heap allocations, measured as a runtime Mallocs delta with
// GC pinned off (the same discipline as the trace and fabric nil-path
// tests). It takes the smaller delta of two windows, as
// TestGrantSteadyStateAllocs does: a stray runtime allocation lands in one
// window only, while any per-operation allocation shows in both.
func TestDisabledRegistryAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// One P: no other goroutine of the test binary allocates in the window.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var r *Registry
	const n = 1000
	window := func() uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			cs := r.StartCell("", "app", "impl", 8)
			_ = cs.Elapsed()
			cs.End(OutcomePanic)
			ph := r.StartPhase("init")
			ph.End()
			r.Counter("c").Add(1)
			_ = r.Counter("c").Value()
			r.Histogram("h", WallBuckets).Observe(int64(i))
			_ = r.Histogram("h", WallBuckets).Count()
			_ = r.Cells()
			_ = r.PeakHeapBytes()
			_ = r.Counters()
		}
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	if delta := min(window(), window()); delta != 0 {
		t.Errorf("%d disabled-path operations allocated %d objects, want 0", 12*n, delta)
	}
}
