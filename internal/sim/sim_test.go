package sim

import (
	"slices"
	"strings"
	"testing"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2.0µs"},
		{3 * Millisecond, "3.00ms"},
		{13230 * Millisecond, "13.23s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	s := New()
	var end Time
	s.Spawn("p0", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		p.Sleep(7 * Microsecond)
		end = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 12*Microsecond {
		t.Errorf("end = %v, want 12µs", end)
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []string {
		s := New()
		var order []string
		for i, d := range []Time{30, 10, 20} {
			name := string(rune('a' + i))
			delay := d
			s.Spawn(name, func(p *Proc) {
				p.Sleep(delay * Microsecond)
				order = append(order, p.Name())
				p.Sleep(delay * Microsecond)
				order = append(order, p.Name())
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	want := "b,c,b,a,c,a"
	for i := 0; i < 3; i++ {
		if got := strings.Join(run(), ","); got != want {
			t.Fatalf("run %d: order %q, want %q", i, got, want)
		}
	}
}

func TestTieBreakBySpawnOrder(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 4; i++ {
		s.Spawn("p", func(p *Proc) {
			p.Sleep(Microsecond)
			order = append(order, p.ID())
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("order = %v, want ascending IDs", order)
		}
	}
}

func TestWaiterRendezvous(t *testing.T) {
	s := New()
	var got any
	var when Time
	s.Spawn("consumer", func(p *Proc) {
		w := NewWaiter(p)
		s.Schedule(9*Microsecond, func() { w.Deliver("hello", 10*Microsecond) })
		got = w.Wait(Wait{})
		when = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "hello" || when != 10*Microsecond {
		t.Errorf("got %v at %v, want hello at 10µs", got, when)
	}
}

func TestWaiterDeliverBeforeWait(t *testing.T) {
	s := New()
	var got any
	s.Spawn("consumer", func(p *Proc) {
		w := NewWaiter(p)
		w.Deliver(42, p.Now())
		p.Sleep(Microsecond)
		got = w.Wait(Wait{}) // already ready: must not block
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("got %v, want 42", got)
	}
}

func TestInjectWorkExtendsSleep(t *testing.T) {
	s := New()
	var end Time
	var p0 *Proc
	p0 = s.Spawn("worker", func(p *Proc) {
		p.Sleep(100 * Microsecond)
		end = p.Now()
	})
	// At t=40µs a "handler" steals 25µs of the worker's CPU.
	s.Schedule(40*Microsecond, func() { p0.InjectWork(25 * Microsecond) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 125*Microsecond {
		t.Errorf("end = %v, want 125µs", end)
	}
}

func TestInjectWorkWhileParkedDelaysResume(t *testing.T) {
	s := New()
	var end Time
	s.Spawn("waiter", func(p *Proc) {
		w := NewWaiter(p)
		s.Schedule(10*Microsecond, func() {
			p.InjectWork(30 * Microsecond) // handler work while parked
		})
		s.Schedule(20*Microsecond, func() { w.Deliver(nil, 20*Microsecond) })
		w.Wait(Wait{})
		end = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 40*Microsecond {
		t.Errorf("end = %v, want 40µs (10 + 30 handler work)", end)
	}
}

// TestDeadlockDetection pins the deadlock report: every blocked process is
// named with what it waits for, rendered from its typed wait.
func TestDeadlockDetection(t *testing.T) {
	s := New()
	s.Spawn("stuck", func(p *Proc) { p.Park(ForBarrier(3)) })
	s.Spawn("fetcher", func(p *Proc) { NewWaiter(p).Wait(ForPage(12)) })
	s.Spawn("anon", func(p *Proc) { p.Park(Wait{}) })
	err := s.Run()
	d, ok := err.(*Deadlock)
	if !ok {
		t.Fatalf("err = %v, want *Deadlock", err)
	}
	want := []string{"stuck(barrier 3)", "fetcher(page 12)", "anon(unlabelled)"}
	if !slices.Equal(d.Blocked, want) {
		t.Errorf("blocked = %v, want %v", d.Blocked, want)
	}
}

// TestWatchdogStallsLongRun pins the watchdog contract: a run whose clock
// would pass the limit stops with a *Stalled naming the blocked processes
// (here: one sleeper mid-sleep, one process parked forever), without
// advancing past the limit.
func TestWatchdogStallsLongRun(t *testing.T) {
	s := New()
	s.SetWatchdog(50 * Microsecond)
	s.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(10 * Microsecond)
		}
	})
	s.Spawn("parked", func(p *Proc) {
		p.Park(ForLock(5)) // a grant that never comes
	})
	err := s.Run()
	st, ok := err.(*Stalled)
	if !ok {
		t.Fatalf("err = %v, want *Stalled", err)
	}
	if st.Limit != 50*Microsecond {
		t.Errorf("Limit = %v, want 50µs", st.Limit)
	}
	if st.At > 50*Microsecond {
		t.Errorf("stopped at %v, past the %v limit", st.At, st.Limit)
	}
	if want := []string{"sleeper(sleep)", "parked(lock 5)"}; !slices.Equal(st.Blocked, want) {
		t.Errorf("blocked = %v, want %v", st.Blocked, want)
	}
}

// TestWatchdogAboveFinishIsInert pins the zero-overhead requirement: a
// watchdog the run never reaches changes neither the result nor the timing.
func TestWatchdogAboveFinishIsInert(t *testing.T) {
	runIt := func(limit Time) (Time, error) {
		s := New()
		if limit > 0 {
			s.SetWatchdog(limit)
		}
		var end Time
		s.Spawn("worker", func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Sleep(10 * Microsecond)
			}
			end = p.Now()
		})
		err := s.Run()
		return end, err
	}
	plain, err := runIt(0)
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := runIt(Second)
	if err != nil {
		t.Fatal(err)
	}
	if plain != guarded {
		t.Errorf("watchdog changed the finish time: %v vs %v", plain, guarded)
	}
}

func TestPanicPropagates(t *testing.T) {
	s := New()
	s.Spawn("boom", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("kaput")
	})
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "kaput") {
		t.Fatalf("err = %v, want panic text", err)
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	s := New()
	s.Spawn("p", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		defer func() {
			if recover() == nil {
				t.Error("expected panic on scheduling in the past")
			}
		}()
		s.Schedule(5*Microsecond, func() {})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUnparkNotParkedIsNoop(t *testing.T) {
	s := New()
	p := s.Spawn("p", func(p *Proc) {
		p.Sleep(Microsecond)
	})
	s.Schedule(0, func() { p.UnparkAt(0) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStop(t *testing.T) {
	s := New()
	s.Spawn("looper", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
		}
	})
	s.Schedule(10*Microsecond, func() { s.Stop() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 10*Microsecond {
		t.Errorf("stopped at %v, want 10µs", s.Now())
	}
}
