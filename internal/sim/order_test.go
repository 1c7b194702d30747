package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestSameInstantWakeOrder: when several processes become runnable at one
// virtual instant, they resume in schedule order, and a plain callback
// scheduled before them still fires at its sequence position.
func TestSameInstantWakeOrder(t *testing.T) {
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

// TestSameInstantWakeHonoursInjectedWork: a process whose wake is already
// queued at the current instant must still defer its resume when a process
// resumed earlier at that instant injects handler work into it.
func TestSameInstantWakeHonoursInjectedWork(t *testing.T) {
	s := New()
	var resumed Time
	var pB *Proc
	pA := s.Spawn("a", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		// b's wake is queued at this instant; b must now wait out the extra work.
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

// orderTag names one scheduled event by its place in the total order.
type orderTag struct {
	at  Time
	seq uint64
}

// tagTimer logs its own tag when it fires.
type tagTimer struct {
	tag   orderTag
	fired *[]orderTag
}

func (tt *tagTimer) Fire(Time) { *tt.fired = append(*tt.fired, tt.tag) }

// TestEventOrderMatchesSort: seeded random interleavings of Schedule,
// ScheduleTimer, same-instant events and process wakes must dispatch in
// exactly the (at, seq) order a sort of everything scheduled gives. Each
// event logs the tag it was scheduled under when it fires (a process when
// its wake resumes it); an ordered probe keeps every sleep a queued wake.
func TestEventOrderMatchesSort(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		s.SetProbe(&recProbe{ordered: true})
		var scheduled, fired []orderTag
		// event queues a callback or a timer between 0 and 3 µs from now;
		// a callback may queue more.
		var event func(depth int)
		event = func(depth int) {
			at := s.Now() + Time(rng.Intn(4))*Microsecond
			if rng.Intn(2) == 0 {
				tt := &tagTimer{fired: &fired}
				s.ScheduleTimer(at, tt, nil)
				tt.tag = orderTag{at, s.seq}
				scheduled = append(scheduled, tt.tag)
				return
			}
			var tag orderTag
			s.Schedule(at, func() {
				fired = append(fired, tag)
				for n := rng.Intn(3); n > 0 && depth > 0; n-- {
					event(depth - 1)
				}
			})
			tag = orderTag{at, s.seq}
			scheduled = append(scheduled, tag)
		}
		nprocs := 1 + rng.Intn(6)
		next := make([]orderTag, nprocs)
		for i := 0; i < nprocs; i++ {
			s.Spawn("p", func(p *Proc) {
				fired = append(fired, next[i])
				for k := rng.Intn(20); k > 0; k-- {
					for n := rng.Intn(3); n > 0; n-- {
						event(2)
					}
					// Short sleeps keep several wakes on one instant.
					d := Time(1+rng.Intn(2)) * Microsecond
					next[i] = orderTag{p.Now() + d, s.seq + 1}
					scheduled = append(scheduled, next[i])
					p.Sleep(d)
					fired = append(fired, next[i])
				}
			})
			next[i] = orderTag{0, s.seq}
			scheduled = append(scheduled, next[i])
		}
		for n := rng.Intn(8); n > 0; n-- {
			event(3)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		sort.Slice(scheduled, func(a, b int) bool {
			if scheduled[a].at != scheduled[b].at {
				return scheduled[a].at < scheduled[b].at
			}
			return scheduled[a].seq < scheduled[b].seq
		})
		if !reflect.DeepEqual(fired, scheduled) {
			t.Fatalf("seed %d: dispatch order\n  got:  %v\n  want: %v", seed, fired, scheduled)
		}
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
