package sim

import (
	"fmt"
	"runtime/debug"
)

type procState int

const (
	stateBlocked procState = iota
	stateRunning
	stateDone
)

// String names the state for panics and debug output.
func (st procState) String() string {
	switch st {
	case stateBlocked:
		return "blocked"
	case stateRunning:
		return "running"
	case stateDone:
		return "done"
	}
	return "?"
}

// Proc is a simulated processor: a coroutine of Run that runs application
// and protocol code against the virtual clock. Exactly one Proc (or Run)
// executes at any instant; control moves by explicit coroutine switches.
type Proc struct {
	sim   *Simulator
	id    int
	name  string
	state procState

	// The coroutine (iter.Pull over the body): Run calls resume to run the
	// process until it yields or returns; the process yields to give the
	// baton back, and yield returns false once killBlocked has called stop.
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	stop   func()

	// busyUntil is the horizon before which this process may not resume:
	// message handlers that ran on its behalf while it was blocked have
	// consumed its CPU up to this point.
	busyUntil Time

	waitingFor Wait
	parked     bool
	killed     bool // stopped by Simulator.killBlocked: unwind instead of resuming
	finishedAt Time
	wakeGen    uint64  // invalidates stale sleep-wake events
	callWaiter *Waiter // reused rendezvous for synchronous calls

	// inbound counts what is aimed at this process and may act on it
	// sooner than the lookahead: pending targeted timers plus AddInbound
	// marks. A process with a non-zero tally never runs ahead.
	inbound int
	// script holds the sleeps taken while running ahead, after the first
	// (which is queued as usual), for wake to replay: script[scriptHead:
	// scriptLen] are still to come. It lives inline, so running ahead never
	// allocates; a full script ends the run-ahead like a sleep that leaves
	// the window.
	script     [32]Time
	scriptHead int
	scriptLen  int
}

// WaitKind is what a blocked process waits for. trace.EvBlock records it,
// so the set is append-only: 2, a synchronous call of unnamed purpose, is
// retired and stays reserved.
type WaitKind uint16

const (
	// WaitNone is an unlabelled wait (the zero Wait).
	WaitNone WaitKind = iota
	// WaitSleep is a Sleep: the processor is computing.
	WaitSleep
	_
	// WaitPage is an access miss waiting for the data of page Obj.
	WaitPage
	// WaitBarrier is waiting for barrier Obj to lower.
	WaitBarrier
	// WaitLock is waiting for the grant of lock Obj.
	WaitLock
)

// Wait names what a blocked process waits for: the kind of wait and the
// page, lock or barrier it is on. The zero value is unlabelled.
type Wait struct {
	Kind WaitKind
	Obj  int32
}

// ForPage, ForLock and ForBarrier label a wait on that object.
func ForPage(pg int) Wait   { return Wait{WaitPage, int32(pg)} }
func ForLock(l int) Wait    { return Wait{WaitLock, int32(l)} }
func ForBarrier(b int) Wait { return Wait{WaitBarrier, int32(b)} }

// String renders the wait for deadlock and watchdog reports.
func (w Wait) String() string {
	switch w.Kind {
	case WaitSleep:
		return "sleep"
	case WaitPage:
		return fmt.Sprintf("page %d", w.Obj)
	case WaitBarrier:
		return fmt.Sprintf("barrier %d", w.Obj)
	case WaitLock:
		return fmt.Sprintf("lock %d", w.Obj)
	}
	return "unlabelled"
}

// killSignal is the sentinel panic value used to unwind a suspended process
// when its run ends; it is recovered in runBody and not treated as a
// failure.
type killSignal struct{}

// ID returns the process's spawn index, used as the processor identifier.
func (p *Proc) ID() int { return p.id }

// Name returns the debug name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated time. Valid only while p is running.
func (p *Proc) Now() Time { return p.sim.now }

// FinishedAt reports when the process body returned (valid after Run).
func (p *Proc) FinishedAt() Time { return p.finishedAt }

// top is the coroutine body wrapping the user function. A process whose
// body returned holds the baton: it drives the event loop once more and
// yields the next process to Run by returning.
func (p *Proc) top(body func(*Proc)) {
	if s := p.sim; s.probe != nil {
		s.probe.ProcResumed(s.now, p.id)
	}
	p.runBody(body)
	if p.killed {
		return
	}
	s := p.sim
	p.state = stateDone
	p.finishedAt = s.now
	s.next = s.step()
}

// runBody executes the user function, then ends any run-ahead it returned
// in (a body that returns ahead of the queue finishes on time), capturing
// panics from either as the simulation's failure. A killSignal unwind (run
// teardown) is not a failure. A panic ends the run where it happened, ahead
// of the queue or not.
func (p *Proc) runBody(body func(*Proc)) {
	defer func() {
		if r := recover(); r != nil {
			if _, kill := r.(killSignal); !kill {
				p.sim.failure = &procPanic{proc: p.name, value: r, stack: debug.Stack()}
				p.sim.ahead = nil
			}
		}
	}()
	body(p)
	p.sim.catchUp()
}

// block reports the process blocked on w since from and suspends it, then
// reports its resume.
func (p *Proc) block(w Wait, from Time) {
	s := p.sim
	if s.probe != nil {
		s.probe.ProcBlocked(from, p.id, w)
	}
	p.suspend(w)
	if s.probe != nil {
		s.probe.ProcResumed(s.now, p.id)
	}
}

// suspend parks the process until it is resumed. The caller must have
// arranged a wake-up (an event or a Waiter delivery). The blocking process
// keeps the baton and drives the event loop itself: when its own wake-up is
// the next thing to run it simply continues — no switch at all — and
// otherwise it names the next process (nil when the run is over) and yields
// to Run, which resumes that one.
func (p *Proc) suspend(w Wait) {
	if p.state != stateRunning {
		panic(fmt.Sprintf("sim: block on non-running proc %s", p.name))
	}
	p.state = stateBlocked
	p.waitingFor = w
	s := p.sim
	if next := s.step(); next != p {
		if next != nil {
			s.handoffs++
		}
		s.next = next
		if !p.yield(struct{}{}) {
			// The run ended while we were suspended: killBlocked stopped us.
			p.killed = true
			panic(killSignal{})
		}
	}
	p.waitingFor = Wait{}
}

// Sleep advances the process by d: the processor is busy (computing) for d of
// simulated time. Handler work injected while sleeping extends the sleep.
//
// When the wake falls inside p's lookahead window (Simulator.window),
// nothing can act on p before it, so p keeps the baton instead of blocking:
// it runs ahead of the queue on a local clock, and each further sleep that
// stays inside the window is appended to its script. The queue replays the
// script in p's absence (Simulator.wake), and any other interaction — a
// schedule, Park, Spawn, the body returning — first syncs. Either way the
// probe sees the sleep block at its start and resume at its end.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if d == 0 {
		return
	}
	s := p.sim
	if s.ahead != p {
		limit := s.window(p)
		p.busyUntil = s.now + d
		p.wakeGen++
		s.schedule(event{at: p.busyUntil, kind: kindSleepWake, p: p, gen: p.wakeGen})
		if p.busyUntil >= limit {
			p.block(Wait{Kind: WaitSleep}, s.now)
			return
		}
		s.ahead, s.aheadFrom, s.limit = p, s.now, limit
	} else {
		p.script[p.scriptLen] = d
		p.scriptLen++
	}
	if s.now+d < s.limit && p.scriptLen < len(p.script) {
		if s.probe != nil {
			s.probe.ProcBlocked(s.now, p.id, Wait{Kind: WaitSleep})
			s.probe.ProcResumed(s.now+d, p.id)
		}
		s.now += d
		return
	}
	// The sleep leaves the window (or fills the script): it ends the
	// script, and p waits for the replay. Work injected past the window
	// may extend it, so its resume time is not asserted.
	from := s.now
	s.now, s.ahead = s.aheadFrom, nil
	p.block(Wait{Kind: WaitSleep}, from)
}

// sync ends p's run-ahead: p blocks as a sleep while the queue catches up
// and replays its script, and must resume exactly at the local clock it had
// reached — nothing could act on it inside the window; the probe saw it end.
func (p *Proc) sync() {
	s := p.sim
	local := s.now
	s.now, s.ahead = s.aheadFrom, nil
	p.suspend(Wait{Kind: WaitSleep})
	if s.now != local {
		panic(fmt.Sprintf("sim: %s ran ahead to %v but resumed at %v: an event acted on it inside the lookahead window",
			p.name, local, s.now))
	}
}

// AddInbound adjusts p's inbound tally by delta. A sender marks the
// destination (+1) from the moment it starts paying for a message until the
// message's timer is scheduled (-1), so the destination does not run ahead
// past an arrival the sender has not queued yet.
func (p *Proc) AddInbound(delta int) { p.inbound += delta }

// InjectWork charges d of CPU time to this process on behalf of an
// asynchronous message handler (the SIGIO handler in the paper's systems).
// If the process is currently computing, its wake-up is pushed back; if it is
// blocked waiting, the time is consumed before it can resume.
func (p *Proc) InjectWork(d Time) {
	if d <= 0 {
		return
	}
	s := p.sim
	if p.busyUntil < s.now {
		p.busyUntil = s.now
	}
	p.busyUntil += d
	// Any pending sleep-wake or unpark event will observe the moved horizon
	// via wake's busyUntil check and reschedule itself.
}

// Park blocks the process on w until some event unparks it via UnparkAt.
// Spurious wake-ups are possible; callers must re-check their condition in a
// loop.
func (p *Proc) Park(w Wait) {
	p.sim.catchUp()
	p.parked = true
	p.block(w, p.sim.now)
}

// UnparkAt schedules the process to resume at time at (respecting any
// busyUntil horizon). Must be called from scheduler context or from another
// running process. Unparking a process that is not parked is a no-op.
func (p *Proc) UnparkAt(at Time) {
	s := p.sim
	if at < s.now {
		at = s.now
	}
	s.schedule(event{at: at, kind: kindUnpark, p: p})
}

// Waiter is a one-shot rendezvous: a process Waits until a value is
// Delivered by a handler or another process.
type Waiter struct {
	p     *Proc
	ready bool
	val   any
}

// NewWaiter returns a Waiter owned by p.
func NewWaiter(p *Proc) *Waiter { return &Waiter{p: p} }

// NewWaiters returns k Waiters owned by p in one allocation, for a process
// that grows its set of concurrently outstanding requests.
func NewWaiters(p *Proc, k int) []Waiter {
	ws := make([]Waiter, k)
	for i := range ws {
		ws[i].p = p
	}
	return ws
}

// CallWaiter returns p's cached waiter for fully synchronous request/reply
// exchanges: the caller must Wait before issuing another synchronous call,
// which a blocked process trivially guarantees. Concurrent outstanding
// requests (parallel fetches) must use NewWaiter instead.
func (p *Proc) CallWaiter() *Waiter {
	if p.callWaiter == nil {
		p.callWaiter = NewWaiter(p)
	}
	return p.callWaiter
}

// Wait blocks the owner on what until Deliver has been called, then returns
// the delivered value and resets the Waiter for reuse.
func (w *Waiter) Wait(what Wait) any {
	for !w.ready {
		w.p.Park(what)
	}
	w.ready = false
	v := w.val
	w.val = nil
	return v
}

// Deliver stores the value and unparks the owner so it resumes at time at.
func (w *Waiter) Deliver(val any, at Time) {
	if w.ready {
		panic("sim: Waiter.Deliver called twice without Wait")
	}
	w.ready = true
	w.val = val
	w.p.UnparkAt(at)
}
