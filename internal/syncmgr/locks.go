// Package syncmgr implements the location and synchronization machinery that
// the paper's EC and LRC implementations share (Section 6): statically
// managed distributed locks with manager forwarding, and centralized
// barriers. The consistency actions differ per model and are supplied as
// hooks, so "the various implementations share as much code as possible".
//
// Delivery contract: every handler in this package assumes exactly-once,
// in-order delivery per link. The fabric provides that natively when faults
// are off, and its reliable sublayer (fabric.FaultPlan) restores it under
// injected loss, duplication and reordering — duplicates are dropped and
// out-of-order frames buffered below the handler layer. Handlers are
// therefore NOT idempotent and must not be: a replayed KindLockReq would
// double-queue a requester and a replayed KindBarrierArrive would over-count
// st.arrived. Keeping the dedup in one place (the sublayer) is what lets the
// two protocol stacks stay oblivious to fault plans.
//
// Lock table: a LockMgr keeps one lockSlot per lock it has named, in two
// chunked tables (lockTable) — the locks it manages indexed by id / nprocs,
// every other lock by id — so no lock operation hashes. Chunks are allocated
// when a lock in them is first named and never move: Acquire keeps its slot
// pointer across its call, while handlers name new locks underneath it, so a
// slot's address must stay valid for the manager's lifetime. A slot owns at
// most one lockQueue, only while requests are queued on it; Release detaches
// the queue before the exclusive grant sleeps and returns it to the manager's
// free list once its messages are granted or forwarded, so nothing but the
// slot ever points at a live queue and a recycled one is always empty.
package syncmgr

import (
	"fmt"
	"math"

	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/sim"
	"ecvslrc/internal/trace"
)

// Message kinds used by the managers. Protocol-specific kinds must be >= 10.
const (
	KindLockReq = iota + 1
	KindLockGrant
	KindBarrierArrive
	KindBarrierDepart
)

// call sends a synchronous request from p, as Network.Call does, and parks p
// on what until the reply arrives.
func call(net *fabric.Network, p *sim.Proc, what sim.Wait, to, kind, size int, payload fabric.Payload) fabric.Msg {
	w := p.CallWaiter()
	net.CallAsync(p, w, to, kind, size, payload)
	return net.Await(w, what)
}

// Mode is the lock acquisition mode.
type Mode int

const (
	// Exclusive grants write access and transfers ownership.
	Exclusive Mode = iota
	// ReadOnly grants read access; ownership stays with the last writer.
	ReadOnly
)

// String names the mode for debug output.
func (m Mode) String() string {
	if m == Exclusive {
		return "excl"
	}
	return "ro"
}

// LockHooks supplies the model-specific consistency payloads attached to
// lock traffic. All payload sizes are in bytes (headers are added by fabric).
//
// Payloads are typed fabric.Payload unions. The lock manager owns the A
// (lock id), B (mode) and Flag2 (routed-via-manager) slots of every lock
// message, plus the Kind tag; hooks populate and read only the C, D, Flag,
// Vec and Body slots, so both halves compose into one value with no nesting
// and no boxing.
type LockHooks interface {
	// MakeLockRequest builds the consistency portion of an acquire request
	// (e.g. the requester's incarnation number or interval vector).
	MakeLockRequest(l core.LockID, mode Mode) (payload fabric.Payload, size int)
	// MakeLockGrant runs at the granting owner and builds the consistency
	// payload (updated data, diffs, or write notices) from the request's
	// hook slots. The returned work is CPU time spent collecting it, charged
	// to the granter.
	MakeLockGrant(l core.LockID, mode Mode, req fabric.Payload, requester int) (payload fabric.Payload, size int, work sim.Time)
	// ApplyLockGrant runs at the requester when the grant arrives and
	// returns the CPU time spent installing the payload.
	ApplyLockGrant(l core.LockID, mode Mode, payload fabric.Payload) sim.Time
	// LocalReacquire runs when the owner reacquires its own lock without
	// any communication.
	LocalReacquire(l core.LockID, mode Mode)
}

// Counters tallies synchronization events for core.Stats.
type Counters struct {
	LockAcquires     int64
	ReadLockAcquires int64
	RemoteAcquires   int64
	Barriers         int64
}

// Lock-message slot conventions (see LockHooks): A carries the lock id and B
// the mode; Flag2 is set once the manager has routed the request, so a second
// arrival at the manager (via successor forwarding) does not re-route it.

// Slot flag bits. A zero slot has never been named at this processor; lock
// initialises it in place on first touch.
const (
	slotNamed     uint8 = 1 << iota
	slotOwned           // this processor holds the lock token (is the data owner)
	slotAcquiring       // an acquire is in flight from this processor
	slotHeld
	slotHeldRead // held in ReadOnly mode (meaningful while slotHeld)
)

// lockSlot is one lock's state at one processor: 16 bytes.
type lockSlot struct {
	q         *lockQueue // requests queued here; nil when there are none
	successor int16      // processor we last granted exclusive ownership to, or -1
	// manager-only: the processor that most recently requested the lock
	// exclusively (Section 6's "last requested" pointer).
	lastReq int16
	flags   uint8
}

func (st *lockSlot) has(f uint8) bool { return st.flags&f != 0 }

// hold marks the slot held in the given mode.
func (st *lockSlot) hold(mode Mode) {
	st.flags = st.flags&^slotHeldRead | slotHeld
	if mode == ReadOnly {
		st.flags |= slotHeldRead
	}
}

// lockQueue holds the requests waiting on one busy lock. It exists only
// while something is queued and is recycled through LockMgr.freeQ with its
// slices' capacity, so a contention episode allocates nothing once warm.
type lockQueue struct {
	ex, read []fabric.Msg
}

// lockChunkSlots is the number of slots allocated together. Small on
// purpose: a processor names the locks it manages (every nprocs-th id) and
// scattered others (3D-FFT's ids stride by 64), and a chunk is paid for in
// full by its first slot.
const lockChunkSlots = 8

// lockTable is a growable index -> slot table whose slots never move.
type lockTable struct {
	chunks []*[lockChunkSlots]lockSlot
}

// find returns slot i, or nil if no slot of its chunk was ever named.
func (t *lockTable) find(i int) *lockSlot {
	if c := i / lockChunkSlots; c < len(t.chunks) {
		if ch := t.chunks[c]; ch != nil {
			return &ch[i%lockChunkSlots]
		}
	}
	return nil
}

// grow allocates slot i's chunk, which find did not find, and returns the slot.
func (t *lockTable) grow(i int) *lockSlot {
	c := i / lockChunkSlots
	if c >= len(t.chunks) {
		t.chunks = append(t.chunks, make([]*[lockChunkSlots]lockSlot, c+1-len(t.chunks))...)
	}
	t.chunks[c] = new([lockChunkSlots]lockSlot)
	return &t.chunks[c][i%lockChunkSlots]
}

// LockMgr implements distributed locks for one processor.
type LockMgr struct {
	self   int
	nprocs int
	p      *sim.Proc
	hc     *fabric.HandlerCtx // p's own execution context: grants made by the program
	net    *fabric.Network
	hooks  LockHooks
	// managed holds the locks this processor manages (id % nprocs == self),
	// indexed by id / nprocs; foreign holds every other lock it names, indexed
	// by id. Two index spaces keep both halves dense: indexed by id alone, the
	// managed locks would touch one slot in every nprocs ids — every chunk.
	managed, foreign lockTable
	freeQ            []*lockQueue // emptied queue records, for reuse
	cnt              *Counters
	// tr is the network's tracer when the manager was built (nil-safe,
	// observation-only): acquire requests, grants, completions and releases
	// are recorded with their modes and queue depths, the raw material of the
	// per-lock contention reports.
	tr *trace.Tracer
}

// MaxProcs is the largest processor count the lock table holds: it stores
// processor ids as int16.
const MaxProcs = math.MaxInt16

// NewLockMgr returns the lock manager endpoint for processor p; nprocs must
// be in 1..MaxProcs.
func NewLockMgr(p *sim.Proc, net *fabric.Network, nprocs int, hooks LockHooks, cnt *Counters) *LockMgr {
	if nprocs < 1 || nprocs > MaxProcs {
		panic(fmt.Sprintf("syncmgr: lock manager for %d processors: the lock table holds 1..%d", nprocs, MaxProcs))
	}
	return &LockMgr{
		self:   p.ID(),
		nprocs: nprocs,
		p:      p,
		hc:     net.Proc(p),
		net:    net,
		hooks:  hooks,
		cnt:    cnt,
		tr:     net.Tracer(),
	}
}

// ManagerOf returns the statically assigned manager (round-robin by id).
func (m *LockMgr) ManagerOf(l core.LockID) int { return int(l) % m.nprocs }

// index returns the table and index of lock l at this processor, and l's
// manager.
func (m *LockMgr) index(l core.LockID) (t *lockTable, i, mgr int) {
	if l < 0 {
		panic(badLockID{m.self, l})
	}
	if i, mgr = int(l)/m.nprocs, int(l)%m.nprocs; mgr == m.self {
		return &m.managed, i, mgr
	}
	return &m.foreign, int(l), mgr
}

// badLockID is index's panic value: an error formatted only if it is ever
// printed, so index stays small enough to inline into every lock operation.
type badLockID struct {
	proc int
	l    core.LockID
}

func (e badLockID) Error() string {
	return fmt.Sprintf("syncmgr: proc %d named lock %d: lock ids must be >= 0", e.proc, e.l)
}

// lock returns l's slot and manager, initialising the slot on first touch:
// the manager starts as owner and as its own last requester.
func (m *LockMgr) lock(l core.LockID) (st *lockSlot, mgr int) {
	t, i, mgr := m.index(l)
	if st = t.find(i); st == nil {
		st = t.grow(i)
	}
	if st.flags == 0 {
		st.flags, st.successor, st.lastReq = slotNamed, -1, int16(mgr)
		if mgr == m.self {
			st.flags |= slotOwned
		}
	}
	return st, mgr
}

// Holding reports whether the lock is currently held locally (and its mode).
func (m *LockMgr) Holding(l core.LockID) (bool, Mode) {
	t, i, _ := m.index(l)
	st := t.find(i)
	if st == nil || !st.has(slotHeld) {
		return false, Exclusive
	}
	if st.has(slotHeldRead) {
		return true, ReadOnly
	}
	return true, Exclusive
}

// enqueue appends msg to st's queue, taking a recycled queue if st has none.
func (m *LockMgr) enqueue(st *lockSlot, msg fabric.Msg, mode Mode) {
	q := st.q
	if q == nil {
		if n := len(m.freeQ); n > 0 {
			q, m.freeQ = m.freeQ[n-1], m.freeQ[:n-1]
		} else {
			q = new(lockQueue)
		}
		st.q = q
	}
	if mode == Exclusive {
		q.ex = append(q.ex, msg)
	} else {
		q.read = append(q.read, msg)
	}
}

// recycle empties a detached queue onto the free list. The cleared messages
// drop their payload references; the slices keep their capacity.
func (m *LockMgr) recycle(q *lockQueue) {
	clear(q.ex)
	clear(q.read)
	q.ex, q.read = q.ex[:0], q.read[:0]
	m.freeQ = append(m.freeQ, q)
}

// Acquire obtains lock l in the given mode, blocking until granted.
func (m *LockMgr) Acquire(l core.LockID, mode Mode) {
	if mode == Exclusive {
		m.cnt.LockAcquires++
	} else {
		m.cnt.ReadLockAcquires++
	}
	st, target := m.lock(l)
	if st.has(slotHeld) {
		panic(fmt.Sprintf("syncmgr: proc %d reacquiring held lock %d", m.self, l))
	}
	if st.has(slotOwned) {
		st.hold(mode)
		m.hooks.LocalReacquire(l, mode)
		m.tr.LockAcq(m.p.Now(), m.self, int(l), mode == ReadOnly, true)
		return
	}
	m.cnt.RemoteAcquires++
	m.tr.LockReq(m.p.Now(), m.self, int(l), mode == ReadOnly)
	req, size := m.hooks.MakeLockRequest(l, mode)
	req.Kind, req.A, req.B = fabric.PayloadLockReq, int32(l), int32(mode)

	if target == m.self {
		// We are the manager: route locally to the last requester.
		target = int(st.lastReq)
		if mode == Exclusive {
			st.lastReq = int16(m.self)
		}
		req.Flag2 = true // routed via the manager already
		if target == m.self {
			panic(fmt.Sprintf("syncmgr: manager %d believes it owns un-owned lock %d", m.self, l))
		}
	}
	st.flags |= slotAcquiring
	reply := call(m.net, m.p, sim.ForLock(int(l)), target, KindLockReq, size, req)
	// Commit the new state before the apply work sleeps: requests arriving
	// during the apply must see us as the holder and queue here.
	st.flags &^= slotAcquiring
	st.hold(mode)
	if mode == Exclusive {
		st.flags |= slotOwned
		st.successor = -1
	}
	work := m.hooks.ApplyLockGrant(l, mode, reply.Payload)
	m.tr.Work(m.p.Now(), m.self, trace.WorkTrapDiff, trace.ObjLock, int(l), work)
	m.p.Sleep(work)
	m.tr.LockAcq(m.p.Now(), m.self, int(l), mode == ReadOnly, false)
}

// Release releases lock l and grants any queued requests.
func (m *LockMgr) Release(l core.LockID) {
	st, _ := m.lock(l)
	if !st.has(slotHeld) {
		panic(fmt.Sprintf("syncmgr: proc %d releasing un-held lock %d", m.self, l))
	}
	q := st.q
	depth := 0
	if q != nil {
		depth = len(q.ex) + len(q.read)
	}
	m.tr.LockRel(m.p.Now(), m.self, int(l), depth)
	st.flags &^= slotHeld
	if st.has(slotHeldRead) {
		// Read-only releases are local: ownership was never transferred.
		// (Programs separate read and write epochs by barriers, as all the
		// paper's applications do, so no revocation protocol is needed.)
		return
	}
	if q == nil {
		return
	}
	// Serve queued readers first (they do not move ownership), then pass
	// ownership to the queued exclusive requester, forwarding any leftovers
	// down the chain. The queue stays attached through the read grants —
	// while an exclusive request waits in it, arrivals must keep queueing
	// behind that request, and a reader that queues while a grant sleeps is
	// served by this same loop, hence the index — and is detached before the
	// exclusive grant sleeps, when arrivals start chasing the new owner instead.
	for i := 0; i < len(q.read); i++ {
		m.grant(m.hc, st, q.read[i])
	}
	st.q = nil
	if len(q.ex) > 0 {
		m.grant(m.hc, st, q.ex[0])
		for _, req := range q.ex[1:] {
			m.hc.Forward(req, int(st.successor), 0)
		}
	}
	m.recycle(q)
}

// grant passes the lock to req's sender from context hc: the handler that
// received the request, or the releasing program (m.hc).
func (m *LockMgr) grant(hc *fabric.HandlerCtx, st *lockSlot, req fabric.Msg) {
	l, mode := core.LockID(req.Payload.A), Mode(req.Payload.B)
	// Transfer ownership before the collection work is charged (the program
	// sleeps through it): requests arriving mid-grant must chase the new
	// owner, not be granted again.
	if mode == Exclusive {
		st.flags &^= slotOwned
		st.successor = int16(req.From)
	}
	payload, size, work := m.hooks.MakeLockGrant(l, mode, req.Payload, req.From)
	payload.Kind, payload.A, payload.B = fabric.PayloadLockGrant, int32(l), int32(mode)
	m.tr.Work(hc.Now(), m.self, trace.WorkTrapDiff, trace.ObjLock, int(l), work)
	hc.Work(work)
	m.tr.LockGrant(hc.Now(), m.self, int(l), req.From, mode == ReadOnly, size)
	hc.Reply(req, KindLockGrant, size, payload)
}

// Handle processes a lock-protocol message; it returns false if the message
// is not a lock message. Relies on the package delivery contract: a
// duplicated KindLockReq would enqueue the requester twice and grant the
// lock to a stale chase, so dedup must happen below this layer.
func (m *LockMgr) Handle(hc *fabric.HandlerCtx, msg fabric.Msg) bool {
	if msg.Kind != KindLockReq {
		return false
	}
	l, mode := core.LockID(msg.Payload.A), Mode(msg.Payload.B)
	st, mgr := m.lock(l)

	if mgr == m.self && !msg.Payload.Flag2 {
		// Manager role: forward to the last exclusive requester unless that
		// is ourselves (then we are the owner and fall through).
		msg.Payload.Flag2 = true
		if int(st.lastReq) != m.self {
			target := int(st.lastReq)
			if mode == Exclusive {
				st.lastReq = int16(msg.From)
			}
			hc.Forward(msg, target, 0)
			return true
		}
		if mode == Exclusive {
			st.lastReq = int16(msg.From)
		}
	}

	// A read request can be granted while the owner itself holds the lock
	// read-only: read-only locks are shared (Midway semantics; IS phase 2
	// has every processor read-locking the same array concurrently).
	free := !st.has(slotHeld) || (st.has(slotHeldRead) && mode == ReadOnly)
	switch {
	case st.has(slotOwned) && free && (st.q == nil || len(st.q.ex) == 0):
		m.grant(hc, st, msg)
	case st.has(slotOwned | slotAcquiring):
		// Busy (or about to own): queue until release.
		m.enqueue(st, msg, mode)
	default:
		// Ownership has moved on; chase it down the successor chain.
		if st.successor < 0 {
			panic(fmt.Sprintf("syncmgr: proc %d got request for lock %d it never owned", m.self, l))
		}
		hc.Forward(msg, int(st.successor), 0)
	}
	return true
}
