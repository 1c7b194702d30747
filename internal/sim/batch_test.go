package sim

import (
	"testing"
)

// TestSameInstantWakeBatchOrder pins the per-instant batching rule: when
// several processes become runnable at one virtual instant, they are drained
// through the batch in schedule order, and a plain callback scheduled between
// them (which is never batched) still fires at its sequence position.
func TestSameInstantWakeBatchOrder(t *testing.T) {
	s := New()
	var log []string
	// The callback is scheduled before Run, so its sequence number precedes
	// every sleep-wake the processes schedule once running.
	s.Schedule(10*Microsecond, func() { log = append(log, "fn") })
	for _, name := range []string{"p0", "p1", "p2"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			p.Sleep(10 * Microsecond)
			if p.Now() != 10*Microsecond {
				t.Errorf("%s woke at %v", name, p.Now())
			}
			log = append(log, name)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"fn", "p0", "p1", "p2"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

// TestBatchedWakeHonoursInjectedWork: a process already prefetched into the
// per-instant batch must still defer its resume when an earlier process in
// the chain injects handler work into it, exactly as unbatched validation
// would.
func TestBatchedWakeHonoursInjectedWork(t *testing.T) {
	s := New()
	var resumed Time
	var pB *Proc
	pA := s.Spawn("a", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		// Both wakes landed on the batch; b must now wait out the extra work.
		pB.InjectWork(5 * Microsecond)
	})
	pB = s.Spawn("b", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		resumed = p.Now()
	})
	_ = pA
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if resumed != 15*Microsecond {
		t.Errorf("b resumed at %v, want 15µs (10µs sleep + 5µs injected)", resumed)
	}
}

// timerLog is a Timer implementation recording its firings.
type timerLog struct {
	at []Time
}

func (tl *timerLog) Fire(at Time) { tl.at = append(tl.at, at) }

// TestScheduleTimerFiresInOrder: typed timer events obey the same time and
// same-instant sequencing as closures, without allocating per event.
func TestScheduleTimerFiresInOrder(t *testing.T) {
	s := New()
	tl := &timerLog{}
	s.ScheduleTimer(20*Microsecond, tl, nil)
	s.ScheduleTimer(10*Microsecond, tl, nil)
	s.ScheduleTimer(10*Microsecond, tl, nil)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(tl.at) != 3 || tl.at[0] != 10*Microsecond || tl.at[1] != 10*Microsecond || tl.at[2] != 20*Microsecond {
		t.Errorf("timer firings = %v", tl.at)
	}
}
