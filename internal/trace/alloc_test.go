package trace

import (
	"runtime"
	"runtime/debug"
	"testing"

	"ecvslrc/internal/sim"
)

// BenchmarkTraceAppend drives the enabled-tracer emit path: appending one
// fixed-width value record to a warm per-processor buffer. The CI alloc
// guard asserts 0 allocs/op: buffer growth is amortized doubling, which
// rounds to zero over the measured iterations.
func BenchmarkTraceAppend(b *testing.B) {
	tr := New(4)
	tr.Reserve(b.N/4 + 16) // steady state: warm buffers, appends never grow
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Send(1, i&3, (i+1)&3, 1, 64)
	}
}

// BenchmarkProfilerDisabled drives the profiler emit hooks through a nil
// tracer: the path every untraced run takes. The CI alloc guard asserts
// 0 allocs/op — instrumentation must cost nothing when profiling is off.
func BenchmarkProfilerDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Block(1, i&3, sim.ForPage(i))
		tr.Work(2, i&3, WorkTrapDiff, ObjPage, i&7, 25)
		tr.Recovery(3, i&3, 40)
		tr.Wake(4, i&3)
	}
}

// TestEmitSteadyStateAllocs is the strict in-process form of the
// BenchmarkTraceAppend guard: after Reserve pre-grows the buffers, a window
// of emits across every helper must perform zero heap allocations.
func TestEmitSteadyStateAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// One P: no other goroutine of the test binary allocates in the window.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tr := New(4)
	tr.Reserve(16 << 10)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 1000; i++ {
		p := i & 3
		tr.Send(1, p, (p+1)&3, 1, 64)
		tr.Deliver(2, (p+1)&3, p, 1, 64)
		tr.Fault(3, p, i&7, i&1 == 0)
		tr.Miss(4, p, i&7, 1, i&1 == 0)
		tr.Collect(5, p, DomainPage, i&7, i, 8)
		tr.LockAcq(6, p, i&3, false, false)
		tr.BarArrive(7, p, 0)
	}
	runtime.ReadMemStats(&m1)
	if delta := m1.Mallocs - m0.Mallocs; delta != 0 {
		t.Errorf("7000 emits into reserved buffers allocated %d objects, want 0", delta)
	}
}

// TestProfilingEmitSteadyStateAllocs is the same guard for a profiling
// tracer driven the way the scheduler drives it: once the first interval has
// sized each processor's queue and work list, emitting and folding perform
// zero heap allocations, however many records go by — and none are kept.
func TestProfilingEmitSteadyStateAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// One P: no other goroutine of the test binary allocates in the window.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tr := NewProfiling(4)
	interval := func(i int) {
		p := i & 3
		at := sim.Time(i) * 100
		tr.ProcResumed(at, p)
		tr.Fault(at, p, i&7, true)
		tr.Work(at, p, WorkTrapDiff, ObjPage, i&7, 25)
		tr.Work(at, p, WorkTrapDiff, ObjPage, (i+1)&7, 30)
		tr.Miss(at, p, i&7, 1, true)
		tr.Send(at, p, (p+1)&3, 10, 64)
		tr.ProcBlocked(at, p, sim.ForPage(i&7))
		tr.EventDispatched(at+50, 0, -1)
		tr.LinkWait(at+50, p, 20)
		tr.Deliver(at+90, (p+1)&3, p, 11, 4096)
		tr.Recovery(at+90, p, 15)
	}
	for i := 0; i < 8; i++ {
		interval(i)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 8; i < 2*foldEvery; i++ {
		interval(i)
	}
	runtime.ReadMemStats(&m1)
	if delta := m1.Mallocs - m0.Mallocs; delta != 0 {
		t.Errorf("%d profiled intervals allocated %d objects, want 0", 2*foldEvery-8, delta)
	}
	if n := tr.Len(); n > 4*16 {
		t.Errorf("profiling tracer holds %d records, want only the open intervals' few", n)
	}
	if err := BuildProfile(tr, Meta{NProcs: 4}).CheckConservation(); err != nil {
		t.Error(err)
	}
}
