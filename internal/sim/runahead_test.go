package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

// raLookahead is the lookahead every generated program honours: its timers
// land at least this long after whatever schedules them, or — for a send —
// after the sender starts paying for it, with the destination marked
// inbound meanwhile, as the fabric's launch does.
const raLookahead = 353 * Microsecond

// Operations of a generated program.
const (
	raSleep = iota
	raPark
	raUnpark
	raTimer
	raSend
)

type raOp struct {
	kind int
	d    Time
	peer int
}

// raProgram is one random run-ahead case: up to 8 processes, each running a
// list of operations, optionally under a watchdog.
type raProgram struct {
	watchdog Time
	ops      [][]raOp
}

// decodeProgram builds a program from fuzz bytes; missing bytes read as 0,
// so every input decodes.
func decodeProgram(data []byte) raProgram {
	i := 0
	next := func() int {
		if i >= len(data) {
			return 0
		}
		i++
		return int(data[i-1])
	}
	nprocs := 1 + next()%8
	var prog raProgram
	if w := next(); w%4 == 0 {
		prog.watchdog = Time(w+1) * 100 * Microsecond
	}
	prog.ops = make([][]raOp, nprocs)
	for p := range prog.ops {
		for n := next() % 12; n > 0; n-- {
			o := raOp{kind: next() % 8, d: Time(next()+1) * 5 * Microsecond, peer: next() % nprocs}
			switch {
			case o.kind < 4:
				o.kind = raSleep
			case nprocs == 1 || o.peer == p:
				o.kind = raSleep
			default:
				o.kind -= 3 // raPark .. raSend
			}
			prog.ops[p] = append(prog.ops[p], o)
		}
	}
	return prog
}

type raFiring struct {
	at     Time
	target int
}

// raOutcome is everything a run of a program shows: it must not depend on
// the declared lookahead or on a probe being ordered.
type raOutcome struct {
	err    string
	finish []Time
	seen   [][]Time // each process's clock after each of its operations
	fired  []raFiring
	seq    uint64
	probed [][]probeMark // the probe's blocks and resumes, per process
}

// peerTimer injects work into its target and logs the firing; a send's timer
// then answers the sender, whose reply unparks it.
type peerTimer struct {
	s       *Simulator
	log     *[]raFiring
	target  *Proc
	work    Time
	replyTo *Proc
}

func (t *peerTimer) Fire(at Time) {
	*t.log = append(*t.log, raFiring{at, t.target.ID()})
	t.target.InjectWork(t.work)
	if t.replyTo != nil {
		t.s.ScheduleTimer(at+raLookahead+t.work, &peerTimer{s: t.s, log: t.log, target: t.replyTo, work: t.work / 2}, t.replyTo)
		return
	}
	t.target.UnparkAt(at + t.work)
}

// probeMark is one block (with what it waits for) or resume a probe saw.
type probeMark struct {
	at    Time
	block bool
	w     Wait
}

// recProbe records each process's blocks and resumes in the order it sees
// them. An ordered one turns run-ahead off, so it sees them as they happen.
type recProbe struct {
	ordered bool
	marks   [][]probeMark
}

func (r *recProbe) mark(proc int, m probeMark) {
	for len(r.marks) <= proc {
		r.marks = append(r.marks, nil)
	}
	r.marks[proc] = append(r.marks[proc], m)
}

func (r *recProbe) ProcBlocked(at Time, proc int, w Wait) { r.mark(proc, probeMark{at, true, w}) }
func (r *recProbe) ProcResumed(at Time, proc int)         { r.mark(proc, probeMark{at: at}) }
func (r *recProbe) EventDispatched(Time, uint8, int)      {}
func (r *recProbe) Ordered() bool                         { return r.ordered }

// run executes prog with the given declared lookahead and probe (nil for
// none).
func (prog raProgram) run(lookahead Time, probe *recProbe) (raOutcome, int64) {
	s := New()
	s.SetLookahead(lookahead)
	if probe != nil {
		s.SetProbe(probe)
	}
	s.SetWatchdog(prog.watchdog)
	n := len(prog.ops)
	out := raOutcome{finish: make([]Time, n), seen: make([][]Time, n)}
	procs := make([]*Proc, n)
	for i := range procs {
		i := i
		procs[i] = s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for _, o := range prog.ops[i] {
				switch o.kind {
				case raSleep:
					p.Sleep(o.d)
				case raPark:
					p.Park(Wait{})
				case raUnpark:
					procs[o.peer].UnparkAt(p.Now() + o.d)
				case raTimer:
					s.ScheduleTimer(p.Now()+raLookahead+o.d, &peerTimer{s: s, log: &out.fired, target: procs[o.peer], work: o.d}, procs[o.peer])
				case raSend:
					// The fabric's launch: mark the destination, pay the
					// programmed I/O, queue the flight, unmark.
					q := procs[o.peer]
					q.AddInbound(1)
					cost := o.d % raLookahead
					p.Sleep(cost)
					s.ScheduleTimer(p.Now()+raLookahead-cost, &peerTimer{s: s, log: &out.fired, target: q, work: o.d, replyTo: p}, q)
					q.AddInbound(-1)
				}
				out.seen[i] = append(out.seen[i], p.Now())
			}
		})
	}
	if err := s.Run(); err != nil {
		out.err = err.Error()
	}
	for i, p := range procs {
		out.finish[i] = p.FinishedAt()
	}
	out.seq = s.seq
	if probe != nil {
		out.probed = probe.marks
	}
	return out, s.Handoffs()
}

// checkRunAhead runs prog under an ordered probe (the path with no run-ahead
// at all), then with the lookahead and with none under a plain probe, and
// with the lookahead unprobed, and requires one outcome: the probes must see
// the same blocks and resumes per process. It returns the handoffs of the
// unprobed run and of the ordered one.
func checkRunAhead(t *testing.T, prog raProgram) (ahead, ordered int64) {
	t.Helper()
	want, ordered := prog.run(raLookahead, &recProbe{ordered: true})
	for _, l := range []Time{raLookahead, 0} {
		got, _ := prog.run(l, &recProbe{})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("lookahead %v diverged from the ordered run\n  got:  %+v\n  want: %+v\n  program: %+v", l, got, want, prog)
		}
	}
	got, ahead := prog.run(raLookahead, nil)
	want.probed = nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unprobed run diverged from the ordered run\n  got:  %+v\n  want: %+v\n  program: %+v", got, want, prog)
	}
	return ahead, ordered
}

// TestRunAheadSeededTable runs a seeded table of random programs through
// checkRunAhead and requires run-ahead to have saved handoffs somewhere.
func TestRunAheadSeededTable(t *testing.T) {
	var ahead, ordered int64
	for seed := int64(1); seed <= 300; seed++ {
		data := make([]byte, 200)
		rand.New(rand.NewSource(seed)).Read(data)
		a, o := checkRunAhead(t, decodeProgram(data))
		ahead += a
		ordered += o
	}
	if ahead >= ordered {
		t.Errorf("run-ahead took %d handoffs over the table, the ordered runs %d: it never ran ahead", ahead, ordered)
	}
}

// FuzzRunAhead checks that running ahead of the queue never changes a run:
// per-process clocks and finish times, the timer firing log, the final
// sequence number, the error and each process's probed blocks and resumes
// must match a run under an ordered probe.
func FuzzRunAhead(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 6, 0, 40, 0, 7, 30, 1, 0, 20, 0, 4, 0, 1, 5, 7, 90, 0})
	f.Add([]byte{3, 4, 9, 7, 60, 1, 0, 30, 0, 4, 9, 2, 2, 6, 50, 3, 5, 20, 0, 8, 7, 7, 1})
	// Three processes wake together at 10 µs; the first runs ahead through
	// three 100 µs sleeps while the other two wakes are still queued at that
	// instant, which bounds its window.
	f.Add([]byte{2, 1, 4, 0, 1, 0, 0, 19, 0, 0, 19, 0, 0, 19, 0, 1, 0, 1, 0, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRunAhead(t, decodeProgram(data))
	})
}

// checkSyncAssertion breaks the lookahead on purpose: an untargeted callback
// inside the window injects work into a process that ran past it, five
// 50 µs sleeps, and then ends its run-ahead with last. The sync must catch
// the violation and Run must return it.
func checkSyncAssertion(t *testing.T, last func(s *Simulator, p *Proc)) {
	t.Helper()
	s := New()
	s.SetLookahead(raLookahead)
	var p0 *Proc
	p0 = s.Spawn("victim", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(50 * Microsecond)
		}
		last(s, p)
	})
	s.Schedule(100*Microsecond, func() { p0.InjectWork(10 * Microsecond) })
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "ran ahead to 250.0µs but resumed at 260.0µs") {
		t.Fatalf("err = %v, want the sync assertion", err)
	}
}

// TestRunAheadSyncAssertion: an interaction after the sleeps syncs.
func TestRunAheadSyncAssertion(t *testing.T) {
	checkSyncAssertion(t, func(s *Simulator, p *Proc) { s.Schedule(p.Now(), func() {}) })
}

// TestRunAheadSyncAssertionAtReturn: the body returning syncs, and the
// violation found there is Run's error like any other, not a crash.
func TestRunAheadSyncAssertionAtReturn(t *testing.T) {
	checkSyncAssertion(t, func(*Simulator, *Proc) {})
}

// TestRunAheadPanic: a process that panics while ahead ends the run at its
// own clock, as without run-ahead, and leaks no goroutine.
func TestRunAheadPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	run := func(ordered bool) (string, Time) {
		s := New()
		s.SetLookahead(raLookahead)
		s.SetProbe(&recProbe{ordered: ordered})
		s.Spawn("bystander", func(p *Proc) { p.Sleep(Millisecond) })
		s.Spawn("ender", func(p *Proc) {
			p.Sleep(100 * Microsecond)
			p.Sleep(100 * Microsecond)
			if !ordered && s.ahead != p {
				t.Error("the process is not running ahead")
			}
			panic("kaput")
		})
		var msg string
		if err := s.Run(); err != nil {
			msg = strings.SplitN(err.Error(), "\n", 2)[0]
		}
		return msg, s.Now()
	}
	gotErr, gotAt := run(false)
	wantErr, wantAt := run(true)
	if gotErr != wantErr || gotAt != wantAt || gotAt != 200*Microsecond {
		t.Errorf("panic ahead: %q at %v, ordered: %q at %v (want 200µs)", gotErr, gotAt, wantErr, wantAt)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines alive after the run, started with %d", got, before)
	}
}

// TestRunAheadWatchdog: a watchdog horizon inside a run-ahead stops the run
// exactly where it stops without one.
func TestRunAheadWatchdog(t *testing.T) {
	run := func(ordered bool) string {
		s := New()
		s.SetLookahead(raLookahead)
		s.SetWatchdog(230 * Microsecond)
		s.SetProbe(&recProbe{ordered: ordered})
		s.Spawn("computer", func(p *Proc) {
			for {
				p.Sleep(30 * Microsecond)
			}
		})
		s.Spawn("parked", func(p *Proc) { p.Park(ForLock(5)) })
		err := s.Run()
		if _, ok := err.(*Stalled); !ok {
			t.Fatalf("err = %v, want *Stalled", err)
		}
		return err.Error()
	}
	got, want := run(false), run(true)
	if got != want || !strings.Contains(got, "stopped at 210.0µs") {
		t.Errorf("stall ahead: %q\nordered:     %q", got, want)
	}
}

// TestRunAheadAllocs: warm run-ahead episodes — run ahead through three
// sleeps, then sync on an interaction — allocate nothing: the script is
// reused, not regrown.
func TestRunAheadAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const warm, episodes = 8, 100
	s := New()
	s.SetLookahead(raLookahead)
	var got uint64
	s.Spawn("p", func(p *Proc) {
		var m0, m1 runtime.MemStats
		for k := 0; k < warm+episodes; k++ {
			if k == warm {
				runtime.ReadMemStats(&m0)
			}
			p.Sleep(100 * Microsecond)
			p.Sleep(100 * Microsecond)
			p.Sleep(100 * Microsecond)
			if s.ahead != p || p.scriptLen != 2 {
				t.Error("the episode did not run ahead")
				return
			}
			p.UnparkAt(p.Now()) // an interaction: sync
		}
		runtime.ReadMemStats(&m1)
		got = m1.Mallocs - m0.Mallocs
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("%d warm run-ahead episodes allocated %d objects, want 0", episodes, got)
	}
}
