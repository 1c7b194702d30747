package sim

import (
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

// TestScheduleAllocs guards the event loop's allocation behaviour: in steady
// state, Schedule and event dispatch reuse the heap, slot and free-list
// backing arrays, so a schedule/run cycle performs no per-event allocations
// beyond the caller's own closure.
func TestScheduleAllocs(t *testing.T) {
	s := New()
	fn := func() {}
	// Warm the queue capacities before measuring.
	for i := 0; i < 64; i++ {
		s.Schedule(s.Now()+Time(i%7), fn)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		s.Schedule(s.Now(), fn) // same instant
		s.Schedule(s.Now()+Microsecond, fn)
		s.Schedule(s.Now()+2*Microsecond, fn)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Errorf("schedule/dispatch cycle allocates %.2f objects per run, want 0", avg)
	}
}

// TestHandoffAllocs guards the baton handoff: two processes sleeping in
// lock-step with staggered phases (the sim.handoff_ns probe's shape) hand
// the baton over on every wake, and once warm those handoffs allocate
// nothing. Handoffs must count every one.
func TestHandoffAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// One P: no other goroutine of the test binary allocates in the window.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const warm, rounds = 8, 1000
	s := New()
	var m0, m1 runtime.MemStats
	var h0, h1 int64
	for i := 0; i < 2; i++ {
		s.Spawn("p", func(p *Proc) {
			p.Sleep(Time(i + 1))
			for k := 0; k < warm+rounds; k++ {
				if i == 0 && k == warm {
					runtime.ReadMemStats(&m0)
					h0 = s.Handoffs()
				}
				p.Sleep(2)
			}
			if i == 0 {
				runtime.ReadMemStats(&m1)
				h1 = s.Handoffs()
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m1.Mallocs - m0.Mallocs; got != 0 {
		t.Errorf("%d warm handoffs allocated %d objects, want 0", h1-h0, got)
	}
	if h1-h0 != 2*rounds {
		t.Errorf("Handoffs counted %d over %d rounds of two processes, want %d", h1-h0, rounds, 2*rounds)
	}
}

// TestStalledReleasesGoroutines: the coroutines of unfinished processes
// must exit once a run the watchdog stalled returns, instead of staying
// suspended forever. A looping sleeper keeps the queue from draining, so
// only the watchdog ends the run.
func TestStalledReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		s := New()
		s.Spawn("sleeper", func(p *Proc) {
			for {
				p.Sleep(Microsecond)
			}
		})
		s.Spawn("parked", func(p *Proc) {
			p.Park(Wait{})
		})
		s.SetWatchdog(5 * Microsecond)
		if _, ok := s.Run().(*Stalled); !ok {
			t.Fatal("expected the watchdog to stall the run")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines alive after stalled runs, started with %d", got, before)
	}
}

// TestDeadlockReleasesGoroutines: a deadlocked run must release its parked
// goroutines when Run returns, like a stalled one.
func TestDeadlockReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		s := New()
		s.Spawn("stuck", func(p *Proc) { p.Park(Wait{}) })
		if _, ok := s.Run().(*Deadlock); !ok {
			t.Fatal("expected deadlock")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines alive after deadlocked runs, started with %d", got, before)
	}
}

// TestEventCallbackPanicBecomesFailure: a panic inside a scheduled callback
// must surface as Run's error — the event loop runs on process goroutines,
// where an escaping panic would kill the whole program.
func TestEventCallbackPanicBecomesFailure(t *testing.T) {
	s := New()
	s.Spawn("bystander", func(p *Proc) {
		p.Sleep(10 * Microsecond)
	})
	s.Schedule(Microsecond, func() { panic("boom in event") })
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "boom in event") {
		t.Fatalf("err = %v, want the event panic", err)
	}
}

// TestFailureBeforeFirstResume ends a run before a freshly spawned process
// ever gets control: its goroutine must still be released and its body
// skipped.
func TestFailureBeforeFirstResume(t *testing.T) {
	s := New()
	ran := false
	s.Schedule(0, func() { panic("boom") }) // fails before the spawn's first runProc event fires
	s.Spawn("never-started", func(p *Proc) { ran = true })
	if err := s.Run(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want the event panic", err)
	}
	if ran {
		t.Error("process body ran despite a failure before its first dispatch")
	}
}
