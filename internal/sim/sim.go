package sim

import (
	"fmt"
	"iter"
	"math"
	"runtime/debug"
)

// event is a scheduled callback. Events at equal times fire in scheduling
// order (seq), which is what makes the simulation deterministic. A queued
// event lives in a slab slot (Simulator.slots) from schedule until step
// takes it; the heap orders only its key.
//
// The scheduler's own wake-ups (sleep expiry, deferred resume, unpark) are
// encoded as typed events targeting a Proc instead of closures: they are by
// far the most frequent events, and storing them inline keeps the event loop
// allocation-free. Subsystems with their own high-frequency events (the
// fabric's message deliveries) use typed timer events (kindTimer) the same
// way: the Timer target is stored inline, so no closure is allocated.
type event struct {
	at   Time
	seq  uint64
	kind uint8
	gen  uint64 // kindSleepWake: wake-generation guard
	p    *Proc  // target of the typed kinds; kindTimer: the process it acts on, or nil
	fn   func() // kindFn only
	t    Timer  // kindTimer only
}

const (
	kindFn        = uint8(iota) // run fn
	kindSleepWake               // resume p if its wake generation still matches
	kindRunProc                 // resume p unconditionally (busyUntil deferral, spawn)
	kindUnpark                  // resume p if still parked
	kindTimer                   // fire t
)

// Probe observes scheduler activity for the tracing subsystem. All methods
// run with the baton held and must not mutate simulation state: a probed run
// must stay bit-identical to an unprobed one. ProcBlocked fires when a
// process gives up the CPU, with what it waits for as the blocking code
// labelled it (a Sleep is a sleep; Park and Waiter.Wait take the caller's
// Wait); ProcResumed fires once per actual process resume (the wake half of
// the block/wake cycle — busyUntil deferrals and stale wake generations do
// not fire it); EventDispatched fires for every event the loop dispatches,
// with the internal event kind and the target process id (-1 for callbacks
// and timers). A process running ahead of the queue reports its sleeps on
// its local clock, so a ProcBlocked/ProcResumed pairing tiles each process's
// lifetime into blocked intervals as if every sleep blocked — the profiler's
// time-accounting foundation.
type Probe interface {
	ProcBlocked(at Time, proc int, w Wait)
	ProcResumed(at Time, proc int)
	EventDispatched(at Time, kind uint8, proc int)
}

// Timer is the typed-event counterpart of a Schedule closure for subsystems
// that schedule many recurring events of their own (message deliveries, link
// claims). The target is stored inline in the event, so scheduling one
// allocates nothing; Fire runs in scheduler context at the scheduled instant,
// under the same ordering rules as any event.
type Timer interface {
	Fire(at Time)
}

// hkey is the heap's view of a queued event: its order, (at, seq), and the
// slab slot holding its payload. Sifting 24-byte keys instead of whole
// events is what keeps a push or pop cheap.
type hkey struct {
	at   Time
	seq  uint64
	slot int32
}

// keyLess orders keys by (at, seq): earlier time first, scheduling order on
// ties. seq is unique, so this is a strict total order.
func keyLess(a, b *hkey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Simulator owns the virtual clock and the event queue, and drives the
// processes, which are coroutines of Run. All simulation state (processes,
// protocol structures, memory images) is mutated by exactly one coroutine at
// a time: the holder of the scheduling baton. Run's goroutine starts with
// it; a process that blocks keeps it and drives the event loop itself until
// some process must resume — itself (no switch at all, the common case for
// an undisturbed Sleep) or another one, which the blocking process names in
// next before yielding to Run, and Run resumes. A handoff is therefore two
// coroutine switches (process → Run → process) that never enter the
// runtime's scheduler, and the event order is exactly that of a dedicated
// scheduler loop. No locking is needed anywhere in the simulation.
type Simulator struct {
	now Time
	seq uint64

	// queue is the event queue: a 4-ary min-heap of keys ordered by keyLess,
	// so it alone decides the order of every event, same-instant ones
	// included. The payloads live in slots, and a slot freed by dispatch is
	// reused through free. All three are reused in steady state, so Schedule
	// and dispatch allocate nothing.
	queue []hkey
	slots []event
	free  []int32

	// probe, when non-nil, observes dispatches, blocks and resumes. The
	// disabled path costs one nil check per event.
	probe   Probe
	ordered bool // the probe needs global event order: no run-ahead

	procs   []*Proc
	next    *Proc // set by a process yielding to Run: who resumes next, nil when the run is over
	failure error // first panic captured from a process

	// watchdog, when > 0, is the virtual-time horizon past which the run is
	// declared stalled: the first event scheduled beyond it stops the loop
	// and Run returns a *Stalled naming every blocked process. watchdogHit
	// records that the horizon fired.
	watchdog    Time
	watchdogHit bool

	// Run-ahead (see Proc.Sleep). lookahead is the declared bound: no event
	// at time t acts on a process before t+lookahead unless it is aimed at
	// that process. ahead is the process computing ahead of the queue, nil
	// when none; while it is, now holds its local clock, aheadFrom the
	// queue's clock, and limit the end of its window.
	lookahead Time
	ahead     *Proc
	aheadFrom Time
	limit     Time

	handoffs int64 // baton passes from a blocking process to another
}

// New returns an empty simulator at time zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current simulated time: a process running ahead of the
// queue sees its own clock.
func (s *Simulator) Now() Time { return s.now }

// SetLookahead declares that nothing reaches a process sooner than l after
// the event that causes it, except events aimed at it (ScheduleTimer's
// target, Proc.AddInbound). A computing process with nothing aimed at it may
// then run ahead of the queue by up to l past the earliest pending event;
// the event order, and so every simulated result, is unchanged. Zero (the
// default) still lets a process run through sleeps that end before any
// pending event.
func (s *Simulator) SetLookahead(l Time) { s.lookahead = l }

// Handoffs returns how many times the baton passed from a blocking process
// to another one — each two coroutine switches (process → Run → process).
func (s *Simulator) Handoffs() int64 { return s.handoffs }

// SetProbe installs the scheduler observation hook (nil to remove). Must be
// called before Run; the probe only records, so probed runs are bit-identical
// to unprobed ones. A probe whose Ordered method reports true (the tracer's
// dispatch stream) needs global event order, so it turns run-ahead off.
func (s *Simulator) SetProbe(p Probe) {
	o, ok := p.(interface{ Ordered() bool })
	s.probe, s.ordered = p, ok && o.Ordered()
}

// SetWatchdog arms the virtual-time watchdog: if the simulation is about to
// advance past limit, the run stops and Run returns a *Stalled error naming
// every still-blocked process and what it waits on. Events at exactly limit
// still fire. Zero disables the watchdog (the default). A watchdog bounds
// livelocks and pathological slowdowns the plain deadlock detector cannot
// see, because in those the event queue never drains.
func (s *Simulator) SetWatchdog(limit Time) { s.watchdog = limit }

// Procs returns the processes spawned so far, in spawn order.
func (s *Simulator) Procs() []*Proc { return s.procs }

// Schedule registers fn to run at time at (>= Now) in scheduler context.
// Callbacks scheduled for the same instant run in the order scheduled.
func (s *Simulator) Schedule(at Time, fn func()) {
	s.schedule(event{at: at, fn: fn})
}

// ScheduleTimer registers t to fire at time at (>= Now) in scheduler context,
// under the same same-instant ordering as Schedule, without allocating: the
// target is stored inline in the event. to, when non-nil, is the process the
// firing acts on (injects work into, unparks); it counts toward to's inbound
// tally until it fires, so to does not run ahead past it.
func (s *Simulator) ScheduleTimer(at Time, t Timer, to *Proc) {
	if to != nil {
		to.inbound++
	}
	s.schedule(event{at: at, kind: kindTimer, t: t, p: to})
}

// schedule enqueues e (whose at must be >= Now), assigning its sequence
// number. A process running ahead first waits for the queue to catch up.
func (s *Simulator) schedule(e event) {
	s.catchUp()
	if e.at < s.now {
		panic(fmt.Sprintf("sim: schedule in the past: %v < %v", e.at, s.now))
	}
	s.seq++
	e.seq = s.seq
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
		s.slots[slot] = e
	} else {
		slot = int32(len(s.slots))
		s.slots = append(s.slots, e)
	}
	s.heapPush(hkey{at: e.at, seq: e.seq, slot: slot})
}

// take copies the payload out of slot and frees the slot, releasing its
// closure and process for GC. It runs before dispatch, which may schedule
// and so grow the slab under any pointer into it.
func (s *Simulator) take(slot int32) event {
	ev := s.slots[slot]
	s.slots[slot] = event{}
	s.free = append(s.free, slot)
	return ev
}

// dispatch runs one event with the baton held, returning the process that
// must now resume (marked running), or nil to keep looping.
func (s *Simulator) dispatch(ev *event) *Proc {
	if s.probe != nil {
		pid := -1
		if ev.p != nil && ev.kind != kindTimer {
			pid = ev.p.id
		}
		s.probe.EventDispatched(ev.at, ev.kind, pid)
	}
	switch ev.kind {
	case kindFn:
		ev.fn()
		return nil
	case kindSleepWake:
		// wake re-checks busyUntil and reschedules if the sleep was
		// extended by injected handler work.
		if ev.p.wakeGen == ev.gen {
			return s.wake(ev.p)
		}
		return nil
	case kindRunProc:
		return s.wake(ev.p)
	case kindUnpark:
		if ev.p.parked && ev.p.state == stateBlocked {
			ev.p.parked = false
			return s.wake(ev.p)
		}
		return nil
	case kindTimer:
		if ev.p != nil {
			ev.p.inbound--
		}
		ev.t.Fire(ev.at)
		return nil
	}
	panic("sim: unknown event kind")
}

// step drains events until some process must resume (returned marked
// running) or the run is over (nil). Called by the baton holder. A panic in
// an event callback is recorded as the run's failure and ends the run: the
// baton may be held by any process, where an escaping panic would unwind
// that process's body and be misattributed to it.
func (s *Simulator) step() (next *Proc) {
	defer func() {
		if r := recover(); r != nil {
			s.failure = &procPanic{proc: "(event callback)", value: r, stack: debug.Stack()}
			next = nil
		}
	}()
	for len(s.queue) > 0 && s.failure == nil {
		top := s.queue[0]
		if s.watchdog > 0 && top.at > s.watchdog {
			// The next event lies beyond the watchdog horizon: declare the
			// run stalled without advancing the clock past the limit.
			s.watchdogHit = true
			return nil
		}
		s.heapPop()
		ev := s.take(top.slot)
		s.now = ev.at
		if p := s.dispatch(&ev); p != nil {
			return p
		}
	}
	return nil
}

// heapPush inserts k into the 4-ary heap. Parents move down into the hole
// and k is written once, as in heapPop: an event at the current instant
// climbs all the way to the root.
func (s *Simulator) heapPush(k hkey) {
	q := append(s.queue, k)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !keyLess(&k, &q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = k
	s.queue = q
}

// heapPop removes the minimum key of the 4-ary heap.
func (s *Simulator) heapPop() {
	q := s.queue
	last := len(q) - 1
	e := q[last]
	q = q[:last]
	s.queue = q
	if last > 0 {
		i := 0
		for {
			first := i<<2 + 1
			if first >= last {
				break
			}
			min := first
			end := first + 4
			if end > last {
				end = last
			}
			for c := first + 1; c < end; c++ {
				if keyLess(&q[c], &q[min]) {
					min = c
				}
			}
			if !keyLess(&q[min], &e) {
				break
			}
			q[i] = q[min]
			i = min
		}
		q[i] = e
	}
}

// Spawn creates a process that will execute body when Run starts. The process
// begins at time 0 (or at the current time if spawned mid-run), and processes
// spawned earlier get control first on ties. The body runs as a coroutine of
// Run (iter.Pull); a process stopped before its first resume never runs it.
func (s *Simulator) Spawn(name string, body func(*Proc)) *Proc {
	s.catchUp()
	p := &Proc{
		sim:   s,
		id:    len(s.procs),
		name:  name,
		state: stateBlocked,
	}
	p.resume, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		p.top(body)
	})
	s.procs = append(s.procs, p)
	s.schedule(event{at: s.now, kind: kindRunProc, p: p})
	return p
}

// wake prepares p to resume, or returns nil if it must not run yet. Must be
// called with the baton held.
func (s *Simulator) wake(p *Proc) *Proc {
	if p.state == stateDone {
		return nil
	}
	if p.state != stateBlocked {
		panic(fmt.Sprintf("sim: resuming %s in state %v", p.name, p.state))
	}
	// A process may not run before its busyUntil horizon (time consumed on
	// its behalf by message handlers while it was blocked).
	if p.busyUntil > s.now {
		s.schedule(event{at: p.busyUntil, kind: kindRunProc, p: p})
		return nil
	}
	if p.scriptHead < p.scriptLen {
		// p ran ahead past this point: replay its next sleep with the calls
		// its own Sleep would have made on resuming here, at the same
		// position in event order.
		d := p.script[p.scriptHead]
		if p.scriptHead++; p.scriptHead == p.scriptLen {
			p.scriptHead, p.scriptLen = 0, 0
		}
		p.busyUntil = s.now + d
		p.wakeGen++
		s.schedule(event{at: p.busyUntil, kind: kindSleepWake, p: p, gen: p.wakeGen})
		return nil
	}
	p.state = stateRunning
	return p
}

// window returns the time p may run ahead to: the earliest pending event
// (read before p's own wake is queued) plus the lookahead, capped at the
// watchdog horizon. Nothing bounds it when the queue is empty. A run with
// an ordered probe (SetProbe), or a p with something aimed at it, gets no
// window.
func (s *Simulator) window(p *Proc) Time {
	if s.ordered || p.inbound > 0 {
		return s.now
	}
	limit := Time(math.MaxInt64)
	if len(s.queue) > 0 {
		limit = s.queue[0].at + s.lookahead
	}
	if s.watchdog > 0 && limit > s.watchdog {
		limit = s.watchdog + 1
	}
	return limit
}

// catchUp ends a run-ahead before the running process interacts with the
// queue (see Proc.sync).
func (s *Simulator) catchUp() {
	if p := s.ahead; p != nil {
		p.sync()
	}
}

// Deadlock is returned by Run when the event queue drains while processes are
// still blocked.
type Deadlock struct {
	At      Time
	Blocked []string // names of the blocked processes with what they wait for
}

// Error describes the deadlock with every blocked process and what it waits
// for.
func (d *Deadlock) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: blocked: %v", d.At, d.Blocked)
}

// Stalled is returned by Run when the virtual-time watchdog (SetWatchdog)
// fires: the simulation was about to advance past the limit with work still
// pending. Blocked lists every unfinished process with what it waits for
// (lock, barrier, page, ...), same format as Deadlock.
type Stalled struct {
	Limit   Time
	At      Time     // virtual time reached when the watchdog fired
	Blocked []string // names of the unfinished processes with what they wait for
}

// Error names the limit and every process still waiting when it fired.
func (st *Stalled) Error() string {
	return fmt.Sprintf("sim: watchdog: no progress past %v (stopped at %v): blocked: %v",
		st.Limit, st.At, st.Blocked)
}

// Run drives the simulation until the event queue is empty or a process
// panics. It returns nil when every spawned process has finished, a *Deadlock
// if some are still blocked, or the captured panic as an error.
func (s *Simulator) Run() error {
	// Each process yields back here naming the next one to resume (nil when
	// the run is over); the baton never passes directly between processes.
	for p := s.step(); p != nil; p = s.next {
		s.next = nil
		p.resume()
	}
	// Gather the blocked set for the deadlock report before the teardown
	// below stops those coroutines.
	var blocked []string
	for _, p := range s.procs {
		if p.state != stateDone {
			blocked = append(blocked, fmt.Sprintf("%s(%v)", p.name, p.waitingFor))
		}
	}
	// The run is over in every branch from here: stop suspended process
	// coroutines so stalled, deadlocked and failed runs do not leak their
	// goroutines, which are never garbage collected.
	s.killBlocked()
	if s.failure != nil {
		return s.failure
	}
	if s.watchdogHit {
		return &Stalled{Limit: s.watchdog, At: s.now, Blocked: blocked}
	}
	if len(blocked) > 0 {
		return &Deadlock{At: s.now, Blocked: blocked}
	}
	return nil
}

// killBlocked stops every process coroutine still suspended when a run ends
// (watchdog, deadlock or failure): its pending yield returns false, and it
// unwinds via a sentinel panic recovered in Proc.runBody. One that never
// started exits without running its body. Without this, repeated terminated
// runs accumulate goroutines forever.
func (s *Simulator) killBlocked() {
	for _, p := range s.procs {
		if p.state != stateDone {
			p.stop()
			p.state, p.finishedAt = stateDone, s.now
		}
	}
}

type procPanic struct {
	proc  string
	value any
	stack []byte
}

// Error reproduces the panicking process, value and stack.
func (e *procPanic) Error() string {
	return fmt.Sprintf("sim: process %s panicked: %v\n%s", e.proc, e.value, e.stack)
}
