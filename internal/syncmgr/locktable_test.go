package syncmgr

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"unsafe"

	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/sim"
)

// tableStats walks a table: the slots named in it and the host bytes it holds
// (allocated chunks plus the chunk directory).
func tableStats(t *lockTable) (named int, bytes uintptr) {
	bytes = uintptr(cap(t.chunks)) * unsafe.Sizeof(t.chunks[0])
	for _, ch := range t.chunks {
		if ch == nil {
			continue
		}
		bytes += unsafe.Sizeof(*ch)
		for i := range ch {
			if ch[i].flags != 0 {
				named++
			}
		}
	}
	return named, bytes
}

// tableOnly returns a manager with no processor or network behind it: enough
// for lock, Holding and the table.
func tableOnly(self, nprocs int) *LockMgr {
	return &LockMgr{self: self, nprocs: nprocs}
}

// randomLockID draws from the id shapes the applications produce: small dense
// ids, ids managed by self, strided families, and ids above 2^16.
func randomLockID(rng *rand.Rand, self, nprocs int) core.LockID {
	switch rng.Intn(5) {
	case 0:
		return core.LockID(rng.Intn(64))
	case 1:
		return core.LockID(self + nprocs*rng.Intn(4096)) // managed here
	case 2:
		return core.LockID(5001 + 64*rng.Intn(64) + rng.Intn(64)) // 3D-FFT's B family
	case 3:
		return core.LockID(1<<16 + rng.Intn(1<<17))
	default:
		return core.LockID(rng.Intn(1 << 14))
	}
}

// TestLockTableMatchesMapOracle drives the indexed table and the map it
// replaced with one random id stream. Every id must resolve to its own slot,
// initialised on first touch exactly as the map's records were, and a slot
// pointer must stay the live slot however many locks are named after it.
func TestLockTableMatchesMapOracle(t *testing.T) {
	type oracleState struct {
		owned              bool
		successor, lastReq int
	}
	for _, nprocs := range []int{1, 2, 3, 8, 64} {
		for _, self := range []int{0, nprocs / 2, nprocs - 1} {
			rng := rand.New(rand.NewSource(int64(1000*nprocs + self)))
			m := tableOnly(self, nprocs)
			oracle := map[core.LockID]*oracleState{}
			slots := map[core.LockID]*lockSlot{}
			owner := map[*lockSlot]core.LockID{}
			name := func(l core.LockID) {
				st, _ := m.lock(l)
				if prev, ok := slots[l]; ok {
					if st != prev {
						t.Fatalf("nprocs %d self %d: lock %d moved from %p to %p", nprocs, self, l, prev, st)
					}
					return
				}
				if other, ok := owner[st]; ok {
					t.Fatalf("nprocs %d self %d: locks %d and %d share a slot", nprocs, self, l, other)
				}
				slots[l], owner[st] = st, l
				want := &oracleState{owned: m.ManagerOf(l) == self, successor: -1, lastReq: m.ManagerOf(l)}
				oracle[l] = want
				got := oracleState{owned: st.has(slotOwned), successor: int(st.successor), lastReq: int(st.lastReq)}
				if got != *want || st.has(slotHeld|slotAcquiring) || st.q != nil {
					t.Fatalf("nprocs %d self %d: lock %d starts as %+v (flags %#x), want %+v", nprocs, self, l, got, st.flags, *want)
				}
				if held, _ := m.Holding(l); held {
					t.Fatalf("nprocs %d self %d: fresh lock %d reads as held", nprocs, self, l)
				}
			}

			// A slot taken early, marked, and checked after 10 000 more
			// insertions: Acquire holds exactly such a pointer across net.Call.
			early := core.LockID(self + 7*nprocs)
			name(early)
			pinned := slots[early]
			pinned.successor = 12345
			for i := 0; i < 10000; i++ {
				name(randomLockID(rng, self, nprocs))
			}
			if st, _ := m.lock(early); st != pinned || pinned.successor != 12345 {
				t.Errorf("nprocs %d self %d: the slot of lock %d did not survive later insertions", nprocs, self, early)
			}

			mn, _ := tableStats(&m.managed)
			fn, _ := tableStats(&m.foreign)
			if mn+fn != len(oracle) {
				t.Errorf("nprocs %d self %d: table names %d locks, the map oracle %d", nprocs, self, mn+fn, len(oracle))
			}
			managed := 0
			for l := range oracle {
				if m.ManagerOf(l) == self {
					managed++
				}
			}
			if mn != managed {
				t.Errorf("nprocs %d self %d: %d slots in the managed table, %d managed locks named", nprocs, self, mn, managed)
			}
			// Holding never names a lock.
			if held, _ := m.Holding(1 << 20); held {
				t.Error("an unnamed lock reads as held")
			}
			mn2, _ := tableStats(&m.managed)
			fn2, _ := tableStats(&m.foreign)
			if mn2+fn2 != mn+fn {
				t.Error("Holding named a lock")
			}
		}
	}
}

// TestLockTableStaysSparse pins the layout's point: host memory follows the
// locks a processor touches, not the id range. 64 processors run 3D-FFT's
// naming pattern — each reads one block of every writer (ids r + 64q, one per
// 64: the stride that made 64-slot chunks cost a chunk per lock), owns a run
// of consecutive ids, and manages every 64th id (self, self+nprocs, ...).
// Each node may hold at most 8x the bytes of the slots it named: a strided
// lock pays for its whole 8-slot chunk, which the dense runs and the managed
// half give back.
func TestLockTableStaysSparse(t *testing.T) {
	const nprocs, maxFactor = 64, 8
	for self := 0; self < nprocs; self++ {
		m := tableOnly(self, nprocs)
		for _, base := range []int{1, 5001} { // 3D-FFT's A and B families
			for q := 0; q < nprocs; q++ {
				m.lock(core.LockID(base + 64*q + self)) // reader self, writer q
				m.lock(core.LockID(base + 64*self + q)) // writer self, reader q
				m.lock(core.LockID(self + nprocs*(base/64+q)))
			}
		}
		mn, mb := tableStats(&m.managed)
		fn, fb := tableStats(&m.foreign)
		touched := uintptr(mn+fn) * unsafe.Sizeof(lockSlot{})
		if got := mb + fb; got > maxFactor*touched {
			t.Errorf("proc %d: %d slots named (%d B) hold %d B of table, over %dx", self, mn+fn, touched, got, maxFactor)
		}
		if dense := uintptr(mn) * unsafe.Sizeof(lockSlot{}); mb > 3*dense {
			t.Errorf("proc %d: the managed half holds %d B for %d B of slots: it must be dense", self, mb, dense)
		}
	}
}

func TestLockSlotIsCompact(t *testing.T) {
	if got := unsafe.Sizeof(lockSlot{}); got != 16 {
		t.Errorf("lockSlot is %d bytes, want 16 (DESIGN.md states the per-lock host cost)", got)
	}
}

// wantPanic runs f and checks it panics with a message containing every part.
func wantPanic(t *testing.T, f func(), parts ...string) {
	t.Helper()
	defer func() {
		t.Helper()
		msg := fmt.Sprint(recover())
		for _, part := range parts {
			if !strings.Contains(msg, part) {
				t.Errorf("panic %q does not mention %q", msg, part)
			}
		}
	}()
	f()
}

// TestLockTableRejectsBadIDs: an id the table cannot index and a machine its
// int16 processor fields cannot represent fail with a message naming the
// offender and the valid range, not with an index error or a truncated id.
func TestLockTableRejectsBadIDs(t *testing.T) {
	m := tableOnly(2, 4)
	wantPanic(t, func() { m.lock(-7) }, "proc 2", "lock -7", ">= 0")
	wantPanic(t, func() { m.Holding(-1) }, "proc 2", "lock -1", ">= 0")

	s := sim.New()
	p := s.Spawn("proc", func(*sim.Proc) {})
	net := fabric.New(s, fabric.DefaultCostModel(), 1)
	for _, nprocs := range []int{0, math.MaxInt16 + 1, 1 << 20} {
		wantPanic(t, func() { NewLockMgr(p, net, nprocs, nilHooks{}, &Counters{}) },
			fmt.Sprint(nprocs, " processors"), fmt.Sprint(math.MaxInt16))
	}
	if lm := NewLockMgr(p, net, math.MaxInt16, nilHooks{}, &Counters{}); lm.nprocs != math.MaxInt16 {
		t.Error("the largest representable machine was rejected")
	}
}

// lockScenario is one steady-state lock workload: nprocs processors each run
// turn(lm) repeatedly on lock 0 (managed and first owned by processor 0).
type lockScenario struct {
	name   string
	nprocs int
	turn   func(lm *LockMgr)
}

var lockScenarios = []lockScenario{
	// The owner reacquires its own lock: no message, no queue.
	{"local", 1, func(lm *LockMgr) {
		lm.Acquire(0, Exclusive)
		lm.Release(0)
	}},
	// Two processors alternate, spaced so the lock is free when requested:
	// every acquire is a remote request and a grant from the handler.
	{"ping-pong", 2, func(lm *LockMgr) {
		lm.Acquire(0, Exclusive)
		lm.Release(0)
		lm.p.Sleep(10 * sim.Millisecond)
	}},
	// Three processors hold the lock longer than a request takes to arrive,
	// so every release finds requests queued: it grants the head, forwards
	// the rest down the chain, and recycles the queue record.
	{"contended", 3, func(lm *LockMgr) {
		lm.Acquire(0, Exclusive)
		lm.p.Sleep(5 * sim.Millisecond)
		lm.Release(0)
	}},
}

// run drives the scenario for the given number of turns per processor;
// mark(k) runs on processor 0 before its k-th turn and, with k == turns,
// after its last. It returns the processors' lock managers.
func (sc lockScenario) run(tb testing.TB, turns int, mark func(k int)) []*LockMgr {
	tb.Helper()
	s := sim.New()
	net := fabric.New(s, fabric.DefaultCostModel(), sc.nprocs)
	lms := make([]*LockMgr, sc.nprocs)
	for i := range lms {
		i := i
		p := s.Spawn("proc", func(p *sim.Proc) {
			p.Sleep(sim.Time(i) * 5 * sim.Millisecond)
			for k := 0; k < turns; k++ {
				if i == 0 {
					mark(k)
				}
				sc.turn(lms[i])
			}
			if i == 0 {
				mark(turns)
			}
		})
		lms[i] = NewLockMgr(p, net, sc.nprocs, nilHooks{}, &Counters{})
		lm := lms[i]
		net.Attach(p, func(hc *fabric.HandlerCtx, m fabric.Msg) {
			if !lm.Handle(hc, m) {
				tb.Errorf("unhandled message kind %d", m.Kind)
			}
		})
	}
	if err := s.Run(); err != nil {
		tb.Fatal(err)
	}
	for i, lm := range lms {
		if st, _ := lm.lock(0); st.q != nil || st.has(slotHeld|slotAcquiring) {
			tb.Errorf("%s: proc %d ends with lock 0 busy (flags %#x, queue %v)", sc.name, i, st.flags, st.q)
		}
	}
	return lms
}

// TestLockPathSteadyStateAllocs pins the lock path at zero allocations per
// operation once warm: slots are initialised in place, and a contention
// episode takes its queue record from the manager's free list instead of
// growing two slices from nil. The count is process-wide, so the cell runs on
// one P and is taken over two windows, the quieter one judged (see
// ec.TestGrantSteadyStateAllocs).
func TestLockPathSteadyStateAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const warm, window = 8, 64
	for _, sc := range lockScenarios {
		t.Run(sc.name, func(t *testing.T) {
			var m [3]runtime.MemStats
			lms := sc.run(t, warm+2*window, func(k int) {
				if k >= warm && (k-warm)%window == 0 {
					runtime.ReadMemStats(&m[(k-warm)/window])
				}
			})
			if got := min(m[1].Mallocs-m[0].Mallocs, m[2].Mallocs-m[1].Mallocs); got != 0 {
				t.Errorf("%d warm turns on each of %d processors allocated %d objects, want 0", window, sc.nprocs, got)
			}
			// The scenario did what its name says.
			remote := int64(0)
			for _, lm := range lms {
				remote += lm.cnt.RemoteAcquires
			}
			if sc.nprocs == 1 && remote != 0 {
				t.Errorf("local reacquires sent %d requests", remote)
			}
			if sc.nprocs > 1 && remote < int64(sc.nprocs-1)*(warm+2*window) {
				t.Errorf("only %d remote acquires: the lock did not change hands every turn", remote)
			}
		})
	}
}

// TestContendedReleaseRecyclesQueue: the contended scenario really queues,
// and each processor serves all its contention episodes on lock 0 from one
// queue record, which ends on its free list, empty, with its capacity kept.
func TestContendedReleaseRecyclesQueue(t *testing.T) {
	used := 0
	for i, lm := range lockScenarios[2].run(t, 20, func(int) {}) {
		if len(lm.freeQ) > 1 {
			t.Errorf("proc %d allocated %d queue records for one lock", i, len(lm.freeQ))
		}
		for _, q := range lm.freeQ {
			used++
			if len(q.ex) != 0 || len(q.read) != 0 || cap(q.ex) == 0 {
				t.Errorf("proc %d: recycled queue has %d+%d messages, capacity %d", i, len(q.ex), len(q.read), cap(q.ex))
			}
		}
	}
	if used == 0 {
		t.Error("no request was ever queued: the scenario is not contended")
	}
}

// BenchmarkLockAcquire is the CI form of TestLockPathSteadyStateAllocs: every
// variant must report 0 allocs/op.
func BenchmarkLockAcquire(b *testing.B) {
	const warm = 8
	for _, sc := range lockScenarios {
		b.Run(sc.name, func(b *testing.B) {
			b.ReportAllocs()
			sc.run(b, warm+b.N, func(k int) {
				if k == warm {
					b.ResetTimer()
				}
			})
		})
	}
}
