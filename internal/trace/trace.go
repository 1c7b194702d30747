// Package trace is the simulator's observation layer: a compact fixed-width
// binary event trace recording what the protocol stacks, the messaging fabric
// and the scheduler did during one run, plus an analysis pass that turns the
// raw events into the attribution artifacts the paper's discussion relies on
// — per-page heat, per-lock contention, barrier imbalance, message-class
// breakdowns and a sharing-pattern classification of every shared page.
// Scheduler blocks arrive through sim.Probe labelled by the code that
// blocked with what it waits for (a sim.Wait: a sleep, or a page, lock or
// barrier); EvBlock records keep that label, and the virtual-time profiler
// classifies every blocked interval from it alone.
//
// Tracing is strictly observation-only: no emit call mutates simulation
// state, so a traced run produces bit-identical statistics to an untraced
// one. Every emit helper is safe on a nil *Tracer (it returns immediately),
// which is how the instrumented packages keep their disabled-path cost to a
// nil check and zero allocations.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"ecvslrc/internal/sim"
)

// Kind tags one trace record variant. The record slots A, B, C and Aux are
// interpreted per kind; see the constants. The set is append-only: binary
// traces embed these values.
type Kind uint8

const (
	// EvNone is an unused record (never emitted).
	EvNone Kind = iota
	// EvWake marks the scheduler resuming a process. Proc is the process.
	EvWake
	// EvDispatch marks one scheduler event dispatch: Aux = the scheduler's
	// internal event kind, A = the target process (-1 for callbacks and
	// timers, which have none). Only recorded when the tracer's scheduler
	// channel is enabled: these are by far the most frequent events.
	EvDispatch
	// EvSend is a message leaving Proc: A = destination, B = message kind,
	// C = bytes on the wire (header included).
	EvSend
	// EvDeliver is a message arriving at Proc: A = sender, B = message kind,
	// C = bytes on the wire.
	EvDeliver
	// EvLinkClaim is a contention-mode claim of the shared link by a message
	// from Proc: A = destination, C = bytes occupying the link.
	EvLinkClaim
	// EvLinkWait is the queueing delay a claim suffered behind the shared
	// link: C = wait in simulated nanoseconds.
	EvLinkWait
	// EvFault is a protection fault taken by Proc: A = page,
	// Aux bit 0 = write access.
	EvFault
	// EvMiss is an LRC access miss resolved by Proc: A = page, B = number of
	// writers fetched from, Aux bit 0 = write access.
	EvMiss
	// EvFetchServe is Proc serving a page fetch: A = page, B = requester,
	// C = reply bytes.
	EvFetchServe
	// EvTwin is a twin made by Proc: A = page (DomainPage) or lock
	// (DomainLock, an EC eager object copy); Aux bits 1.. = domain.
	EvTwin
	// EvCollect is a write-collection harvest by Proc: A = page or lock id
	// (domain in Aux), B = interval index or incarnation, C = words collected.
	EvCollect
	// EvApply is modification data installed at Proc: A = page or lock id
	// (domain in Aux), B = the writer the data came from (-1 if unknown),
	// C = words applied.
	EvApply
	// EvLockReq is Proc starting a remote lock acquire: A = lock,
	// Aux bit 0 = read-only mode.
	EvLockReq
	// EvLockAcq is Proc completing a lock acquire: A = lock,
	// Aux bit 0 = read-only mode, bit 1 = local reacquire (no messages).
	EvLockAcq
	// EvLockGrant is Proc granting a lock to another processor: A = lock,
	// B = requester, Aux bit 0 = read-only mode, C = grant payload bytes.
	EvLockGrant
	// EvLockRel is Proc releasing a lock: A = lock, B = requests queued
	// behind the release (the instantaneous contention depth).
	EvLockRel
	// EvBarArrive is Proc arriving at barrier A.
	EvBarArrive
	// EvBarDepart is Proc leaving barrier A (departure installed).
	EvBarDepart
	// EvBind is an EC lock/data binding: A = lock, B = range base address,
	// C = range length in bytes. Every processor emits identical bindings;
	// the analyzer deduplicates.
	EvBind
	// EvDrop is the fault injector losing a transmission attempt from Proc:
	// A = destination, B = message kind, Aux = attempt number.
	EvDrop
	// EvRetransmit is the reliable sublayer resending a frame from Proc:
	// A = destination, B = message kind, Aux = attempt number.
	EvRetransmit
	// EvAck is a reliable-delivery acknowledgement arriving back at Proc
	// (the data sender): A = the data receiver that generated it, B = the
	// acknowledged sequence number.
	EvAck
	// EvDupDrop is Proc (a receiver) discarding a duplicate frame:
	// A = sender, B = message kind.
	EvDupDrop
	// EvBlock marks Proc giving up the CPU: Aux = what it waits for (a
	// sim.WaitKind), A = the page, lock or barrier it waits on. Virtual time
	// only advances while every process is blocked, so the EvBlock/EvWake
	// pairs of one processor exactly tile its lifetime — the profiler's
	// per-proc time accounting rests on this.
	EvBlock
	// EvWork is classified protocol CPU charged to Proc: Aux = the work class
	// (Work* constants), A = the object the work is for (page, lock or
	// barrier id per B; -1 when unattributed), B = the object kind (Obj*
	// constants), C = duration in simulated nanoseconds. The time itself is
	// inside Proc's busy/blocked intervals; the record classifies it.
	EvWork
	// EvRecovery is reliable-sublayer fault-recovery time charged to Proc:
	// the late-delivery delay of a recovered frame at its receiver, or the
	// retransmission CPU injected at its sender. C = duration.
	EvRecovery
	// evLast bounds the valid kinds for ReadBinary validation; keep it last.
	evLast = EvRecovery
)

// String names the kind for report tables and test failures.
func (k Kind) String() string {
	switch k {
	case EvWake:
		return "wake"
	case EvDispatch:
		return "dispatch"
	case EvSend:
		return "send"
	case EvDeliver:
		return "deliver"
	case EvLinkClaim:
		return "link-claim"
	case EvLinkWait:
		return "link-wait"
	case EvFault:
		return "fault"
	case EvMiss:
		return "miss"
	case EvFetchServe:
		return "fetch-serve"
	case EvTwin:
		return "twin"
	case EvCollect:
		return "collect"
	case EvApply:
		return "apply"
	case EvLockReq:
		return "lock-req"
	case EvLockAcq:
		return "lock-acq"
	case EvLockGrant:
		return "lock-grant"
	case EvLockRel:
		return "lock-rel"
	case EvBarArrive:
		return "bar-arrive"
	case EvBarDepart:
		return "bar-depart"
	case EvBind:
		return "bind"
	case EvDrop:
		return "drop"
	case EvRetransmit:
		return "retransmit"
	case EvAck:
		return "ack"
	case EvDupDrop:
		return "dup-drop"
	case EvBlock:
		return "block"
	case EvWork:
		return "work"
	case EvRecovery:
		return "recovery"
	}
	return "?"
}

// Work classes carried in EvWork's Aux slot. Append-only.
const (
	// WorkTrapDiff is write-trap and diff machinery: protection-fault entry,
	// twin copies, mprotect calls, dirty-bit and twin-comparison scans, diff
	// construction, timestamp selection, and diff/grant installation.
	WorkTrapDiff uint16 = iota + 1
)

// Object kinds carried in EvWork's B slot, naming what A refers to.
const (
	// ObjNone marks unattributed work (A is -1).
	ObjNone int32 = iota
	// ObjPage keys the work to a shared page.
	ObjPage
	// ObjLock keys the work to a lock.
	ObjLock
	// ObjBarrier keys the work to a barrier.
	ObjBarrier
)

// Domain distinguishes page-keyed from lock-keyed attribution records: LRC
// collects and applies per page, EC per lock binding. Stored in the Aux bits
// above the access-mode bit.
type Domain uint16

const (
	// DomainPage keys the record by shared page number.
	DomainPage Domain = 0
	// DomainLock keys the record by lock id.
	DomainLock Domain = 1
)

// Aux bit layout, shared by the kinds that use it.
const (
	auxWrite = 1 << 0 // EvFault, EvMiss: write access; EvLock*: read-only mode
	auxLocal = 1 << 1 // EvLockAcq: local reacquire
	domShift = 1      // EvTwin, EvCollect, EvApply: domain in bits 1..
	auxRO    = 1 << 0
)

// Rec is one fixed-width trace record: 32 bytes in memory, 28 on the wire.
// Records are plain values; appending one to a warm per-processor buffer
// performs no allocation.
type Rec struct {
	// At is the simulated time the event was recorded.
	At sim.Time
	// Kind selects the record variant and the slot interpretation.
	Kind Kind
	// Proc is the processor the event is attributed to.
	Proc uint8
	// Aux carries small per-kind flags (access mode, domain).
	Aux uint16
	// A and B are the per-kind scalar slots (page, lock, peer processor).
	A, B int32
	// C is the per-kind wide slot (bytes, words, durations).
	C int64
}

// Write reports the access-mode bit of fault/miss records.
func (r Rec) Write() bool { return r.Aux&auxWrite != 0 }

// ReadOnlyMode reports the read-only-mode bit of lock records.
func (r Rec) ReadOnlyMode() bool { return r.Aux&auxRO != 0 }

// Local reports the local-reacquire bit of EvLockAcq records.
func (r Rec) Local() bool { return r.Aux&auxLocal != 0 }

// Domain returns the attribution domain of twin/collect/apply records.
func (r Rec) Domain() Domain { return Domain(r.Aux >> domShift) }

// MaxProcs bounds the processor count a buffered Tracer can record (Proc is
// one byte). A profiling tracer stores no Rec.Proc and has no such bound.
const MaxProcs = 255

// Tracer observes one run's event records. A buffered tracer (New) keeps
// them all in per-processor append buffers, for the reports that need the
// history: Merged, Analyze, WriteBinary, ExtractCriticalPath, the full
// BuildProfile. A profiling tracer (NewProfiling) keeps none: it folds them
// into the virtual-time profiler's per-processor state machines as the run
// goes, and BuildProfile is all it answers. It is owned by a single run (one
// simulator, one goroutine at a time), so no locking is needed. All emit
// methods are nil-safe: calling them on a nil *Tracer is the disabled fast
// path and does nothing.
type Tracer struct {
	// bufs holds every record of a buffered tracer. On a profiling tracer it
	// is only the queue between emit and fold: emit must stay the bare append
	// it is — a call in it would push the emit helpers over the inlining
	// budget and off the nil-check fast path — so records wait here until
	// their processor's next scheduling point.
	bufs [][]Rec
	// live, non-nil on a profiling tracer, is the profiler state. Behind a
	// pointer to keep the struct in its 48-byte size class: grown to 64, the
	// same emit instructions measured 1 ns (12 %) slower a record.
	live *liveProfile
	// sched enables the high-frequency scheduler channel (EvDispatch).
	sched bool
}

// liveProfile is what a profiling tracer folds its records into.
type liveProfile struct {
	// scans holds one accounting state machine per processor.
	scans []procScan
	// events counts scheduler dispatches, for the periodic full fold.
	events uint
}

// New returns an empty buffered tracer for nprocs processors (at most
// MaxProcs).
func New(nprocs int) *Tracer {
	if nprocs < 1 || nprocs > MaxProcs {
		panic(fmt.Sprintf("trace: bad processor count %d", nprocs))
	}
	return &Tracer{bufs: make([][]Rec, nprocs)}
}

// NewProfiling returns a tracer for nprocs processors that builds the
// virtual-time profile online and stores no history. Records wait in a short
// per-processor queue until that processor next blocks or resumes (and at
// most foldEvery scheduler events), so memory is O(nprocs + pending work
// records + one burst), independent of how many events the run emits, and
// any processor count is accepted. BuildProfile returns its totals;
// everything that needs the records (Merged and all that goes through it)
// panics.
func NewProfiling(nprocs int) *Tracer {
	if nprocs < 1 {
		panic(fmt.Sprintf("trace: bad processor count %d", nprocs))
	}
	scans := make([]procScan, nprocs)
	for proc := range scans {
		scans[proc] = newProcScan(proc, nil)
	}
	return &Tracer{bufs: make([][]Rec, nprocs), live: &liveProfile{scans: scans}}
}

// A profiling tracer's queues are folded at their processor's scheduling
// points; these two constants bound what can sit in them otherwise.
const (
	// foldEvery is the number of scheduler dispatches after which every
	// queue is folded, which bounds what handlers can pile up on a processor
	// that stays blocked.
	foldEvery = 4096
	// queueKeep is the largest queue capacity, in records, held on to
	// between folds. A queue only grows past it in a one-off burst (EC's
	// start-up bindings, thousands of records in one run slice); letting
	// that go keeps the resident queues at O(nprocs).
	queueKeep = 1024
)

// fold feeds proc's queued records to its state machine, in emission order,
// and empties the queue. It does nothing on a nil or buffered tracer.
func (t *Tracer) fold(proc int) {
	if t == nil || t.live == nil {
		return
	}
	q := t.bufs[proc]
	st := &t.live.scans[proc]
	for i := range q {
		st.feed(&q[i])
	}
	if cap(q) > queueKeep {
		q = nil
	}
	t.bufs[proc] = q[:0]
}

// EnableSched turns on the scheduler dispatch channel (EvDispatch records),
// which is off by default: one record per simulator event is the most
// voluminous thing the tracer can capture.
func (t *Tracer) EnableSched() { t.sched = true }

// Ordered reports whether the tracer records the dispatch stream, which
// needs global event order and so turns run-ahead off (sim.SetProbe).
func (t *Tracer) Ordered() bool { return t != nil && t.sched }

// NProcs returns the processor count the tracer was created for.
func (t *Tracer) NProcs() int { return len(t.bufs) }

// Len returns the number of records held across all processors: every record
// of a buffered tracer, only the not yet folded ones of a profiling tracer.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, b := range t.bufs {
		n += len(b)
	}
	return n
}

// Reserve pre-grows every per-processor buffer to capacity n, so a
// steady-state emit window performs no allocation at all (appends into warm
// buffers). Optional: without it, growth is amortized doubling.
func (t *Tracer) Reserve(n int) {
	if t == nil {
		return
	}
	for i, b := range t.bufs {
		if cap(b) < n {
			grown := make([]Rec, len(b), n)
			copy(grown, b)
			t.bufs[i] = grown
		}
	}
}

// emit appends r to proc's buffer. The bounds check doubles as the guard
// against events attributed to out-of-range processors.
func (t *Tracer) emit(proc int, r Rec) {
	r.Proc = uint8(proc)
	t.bufs[proc] = append(t.bufs[proc], r)
}

// Wake records the scheduler resuming proc (sim.Probe).
func (t *Tracer) Wake(at sim.Time, proc int) {
	if t == nil {
		return
	}
	t.emit(proc, Rec{At: at, Kind: EvWake})
}

// Dispatch records one scheduler event dispatch (sim.Probe). Dropped unless
// EnableSched was called. The target process travels in A (-1 for callback
// and timer events, which have no target); those records land in buffer 0
// but the Proc-less attribution is carried by A, not by the buffer.
func (t *Tracer) Dispatch(at sim.Time, evKind uint8, proc int) {
	if t == nil || !t.sched {
		return
	}
	target := proc
	if proc < 0 || proc >= len(t.bufs) {
		proc = 0
		target = -1
	}
	t.emit(proc, Rec{At: at, Kind: EvDispatch, Aux: uint16(evKind), A: int32(target)})
}

// Block records proc giving up the CPU to wait for w.
func (t *Tracer) Block(at sim.Time, proc int, w sim.Wait) {
	if t == nil {
		return
	}
	t.emit(proc, Rec{At: at, Kind: EvBlock, Aux: uint16(w.Kind), A: w.Obj})
}

// Work records d of classified protocol CPU charged to proc, attributed to
// the object (objKind, objID): (ObjPage, page), (ObjLock, lock),
// (ObjBarrier, barrier) or (ObjNone, -1). Zero and negative durations are
// dropped — charge sites pass hook results through unconditionally.
func (t *Tracer) Work(at sim.Time, proc int, class uint16, objKind int32, objID int, d sim.Time) {
	if t == nil || d <= 0 {
		return
	}
	t.emit(proc, Rec{At: at, Kind: EvWork, Aux: class, A: int32(objID), B: objKind, C: int64(d)})
}

// Recovery records d of fault-recovery time charged to proc: delivery delay
// of a recovered frame at its receiver, or retransmission CPU at its sender.
func (t *Tracer) Recovery(at sim.Time, proc int, d sim.Time) {
	if t == nil || d <= 0 {
		return
	}
	t.emit(proc, Rec{At: at, Kind: EvRecovery, C: int64(d)})
}

// ProcResumed implements sim.Probe: the scheduler resumed proc. A
// processor's scheduling points are where a profiling tracer folds its queue.
func (t *Tracer) ProcResumed(at sim.Time, proc int) {
	t.Wake(at, proc)
	t.fold(proc)
}

// ProcBlocked implements sim.Probe: proc gave up the CPU.
func (t *Tracer) ProcBlocked(at sim.Time, proc int, w sim.Wait) {
	t.Block(at, proc, w)
	t.fold(proc)
}

// EventDispatched implements sim.Probe: the scheduler dispatched one event.
func (t *Tracer) EventDispatched(at sim.Time, kind uint8, proc int) {
	t.Dispatch(at, kind, proc)
	if t != nil && t.live != nil {
		if t.live.events++; t.live.events%foldEvery == 0 {
			for p := range t.bufs {
				t.fold(p)
			}
		}
	}
}

// Send records a message leaving from.
func (t *Tracer) Send(at sim.Time, from, to, msgKind, bytes int) {
	if t == nil {
		return
	}
	t.emit(from, Rec{At: at, Kind: EvSend, A: int32(to), B: int32(msgKind), C: int64(bytes)})
}

// Deliver records a message arriving at to.
func (t *Tracer) Deliver(at sim.Time, from, to, msgKind, bytes int) {
	if t == nil {
		return
	}
	t.emit(to, Rec{At: at, Kind: EvDeliver, A: int32(from), B: int32(msgKind), C: int64(bytes)})
}

// LinkClaim records a contention-mode claim of the shared link.
func (t *Tracer) LinkClaim(at sim.Time, from, to, bytes int) {
	if t == nil {
		return
	}
	t.emit(from, Rec{At: at, Kind: EvLinkClaim, A: int32(to), C: int64(bytes)})
}

// LinkWait records the queueing delay a claim spent behind the shared link.
func (t *Tracer) LinkWait(at sim.Time, from int, wait sim.Time) {
	if t == nil {
		return
	}
	t.emit(from, Rec{At: at, Kind: EvLinkWait, C: int64(wait)})
}

// Fault records a protection fault.
func (t *Tracer) Fault(at sim.Time, proc, page int, write bool) {
	if t == nil {
		return
	}
	t.emit(proc, Rec{At: at, Kind: EvFault, A: int32(page), Aux: writeBit(write)})
}

// Miss records an LRC access miss and how many writers it fetched from.
func (t *Tracer) Miss(at sim.Time, proc, page, writers int, write bool) {
	if t == nil {
		return
	}
	t.emit(proc, Rec{At: at, Kind: EvMiss, A: int32(page), B: int32(writers), Aux: writeBit(write)})
}

// FetchServe records proc answering a page fetch from requester.
func (t *Tracer) FetchServe(at sim.Time, proc, page, requester, bytes int) {
	if t == nil {
		return
	}
	t.emit(proc, Rec{At: at, Kind: EvFetchServe, A: int32(page), B: int32(requester), C: int64(bytes)})
}

// Twin records a twin creation (a page twin, or an EC eager object copy when
// dom is DomainLock and id the lock).
func (t *Tracer) Twin(at sim.Time, proc int, dom Domain, id int) {
	if t == nil {
		return
	}
	t.emit(proc, Rec{At: at, Kind: EvTwin, A: int32(id), Aux: uint16(dom) << domShift})
}

// Collect records a write-collection harvest: words changed words attributed
// to page or lock id, from interval/incarnation tag.
func (t *Tracer) Collect(at sim.Time, proc int, dom Domain, id, tag, words int) {
	if t == nil {
		return
	}
	t.emit(proc, Rec{At: at, Kind: EvCollect, A: int32(id), B: int32(tag), Aux: uint16(dom) << domShift, C: int64(words)})
}

// Apply records modification data installed at proc: words applied to page
// or lock id, received from writer (-1 when the producer is not identified).
func (t *Tracer) Apply(at sim.Time, proc int, dom Domain, id, writer, words int) {
	if t == nil {
		return
	}
	t.emit(proc, Rec{At: at, Kind: EvApply, A: int32(id), B: int32(writer), Aux: uint16(dom) << domShift, C: int64(words)})
}

// LockReq records the start of a remote lock acquire.
func (t *Tracer) LockReq(at sim.Time, proc, lock int, ro bool) {
	if t == nil {
		return
	}
	t.emit(proc, Rec{At: at, Kind: EvLockReq, A: int32(lock), Aux: writeBit(ro)})
}

// LockAcq records a completed lock acquire (local = no messages were needed).
func (t *Tracer) LockAcq(at sim.Time, proc, lock int, ro, local bool) {
	if t == nil {
		return
	}
	aux := writeBit(ro)
	if local {
		aux |= auxLocal
	}
	t.emit(proc, Rec{At: at, Kind: EvLockAcq, A: int32(lock), Aux: aux})
}

// LockGrant records proc granting lock to requester with bytes of payload.
func (t *Tracer) LockGrant(at sim.Time, proc, lock, requester int, ro bool, bytes int) {
	if t == nil {
		return
	}
	t.emit(proc, Rec{At: at, Kind: EvLockGrant, A: int32(lock), B: int32(requester), Aux: writeBit(ro), C: int64(bytes)})
}

// LockRel records a lock release and the number of requests queued behind it.
func (t *Tracer) LockRel(at sim.Time, proc, lock, queued int) {
	if t == nil {
		return
	}
	t.emit(proc, Rec{At: at, Kind: EvLockRel, A: int32(lock), B: int32(queued)})
}

// BarArrive records proc arriving at barrier b.
func (t *Tracer) BarArrive(at sim.Time, proc, b int) {
	if t == nil {
		return
	}
	t.emit(proc, Rec{At: at, Kind: EvBarArrive, A: int32(b)})
}

// BarDepart records proc leaving barrier b.
func (t *Tracer) BarDepart(at sim.Time, proc, b int) {
	if t == nil {
		return
	}
	t.emit(proc, Rec{At: at, Kind: EvBarDepart, A: int32(b)})
}

// Drop records the fault injector losing an attempt of a frame from->to.
func (t *Tracer) Drop(at sim.Time, from, to, msgKind, attempt int) {
	if t == nil {
		return
	}
	t.emit(from, Rec{At: at, Kind: EvDrop, A: int32(to), B: int32(msgKind), Aux: uint16(attempt)})
}

// Retransmit records the reliable sublayer resending a frame from->to.
func (t *Tracer) Retransmit(at sim.Time, from, to, msgKind, attempt int) {
	if t == nil {
		return
	}
	t.emit(from, Rec{At: at, Kind: EvRetransmit, A: int32(to), B: int32(msgKind), Aux: uint16(attempt)})
}

// Ack records a reliable-delivery acknowledgement from receiver landing at
// sender, covering sequence number seq.
func (t *Tracer) Ack(at sim.Time, receiver, sender, seq int) {
	if t == nil {
		return
	}
	t.emit(sender, Rec{At: at, Kind: EvAck, A: int32(receiver), B: int32(seq)})
}

// DupDrop records receiver to discarding a duplicate frame from from.
func (t *Tracer) DupDrop(at sim.Time, from, to, msgKind int) {
	if t == nil {
		return
	}
	t.emit(to, Rec{At: at, Kind: EvDupDrop, A: int32(from), B: int32(msgKind)})
}

// Bind records an EC lock/data binding range.
func (t *Tracer) Bind(at sim.Time, proc, lock int, base, length int) {
	if t == nil {
		return
	}
	t.emit(proc, Rec{At: at, Kind: EvBind, A: int32(lock), B: int32(base), C: int64(length)})
}

func writeBit(b bool) uint16 {
	if b {
		return auxWrite
	}
	return 0
}

// Merged returns every record in the canonical global order: by time, ties
// broken by processor then per-processor emission order. The order is a pure
// function of the simulated run, so two traces of the same cell merge to
// identical sequences regardless of host parallelism.
//
// A profiling tracer has no records to merge, and an empty result would read
// as an eventless run: asking is a caller bug and panics.
func (t *Tracer) Merged() []Rec {
	if t == nil {
		return nil
	}
	if t.live != nil {
		panic("trace: Merged (or Analyze, WriteBinary, ExtractCriticalPath, a report) called on a profiling tracer, which keeps no records; trace with trace.New instead")
	}
	out := make([]Rec, 0, t.Len())
	for _, b := range t.bufs {
		out = append(out, b...)
	}
	// Each per-proc buffer is in emission order but handler-context
	// timestamps may run slightly ahead of process-context ones, so a full
	// stable sort (not a k-way merge of sorted runs) is required. The stable
	// sort preserves per-processor emission order on ties; cross-processor
	// ties fall back to processor id.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Proc < out[j].Proc
	})
	return out
}

// Records returns processor proc's records in emission order: the order its
// profile folds them in, which Merged's time order does not show. The slice
// is the tracer's own; do not modify it. A profiling tracer keeps no
// records, and asking panics, as it does for Merged.
func (t *Tracer) Records(proc int) []Rec {
	if t == nil {
		return nil
	}
	if t.live != nil {
		panic("trace: Records called on a profiling tracer, which keeps no records")
	}
	return t.bufs[proc]
}

// Binary trace format: a 16-byte header (magic, version, processor count,
// record count) followed by the merged records, 28 bytes each, little-endian.
const (
	binMagic   = "DSMTRC"
	binVersion = 1
	recWire    = 28
)

// WriteBinary writes the trace in the compact binary format, records in
// canonical merged order. The output is a pure function of the simulated
// run: determinism tests compare these bytes directly. Writes are buffered
// internally, so handing in a raw *os.File costs no per-record syscall.
func (t *Tracer) WriteBinary(w io.Writer) error {
	recs := t.Merged()
	bw := bufio.NewWriter(w)
	var hdr [16]byte
	copy(hdr[:6], binMagic)
	hdr[6] = binVersion
	hdr[7] = uint8(len(t.bufs))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(recs)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [recWire]byte
	for _, r := range recs {
		binary.LittleEndian.PutUint64(buf[0:], uint64(r.At))
		buf[8] = uint8(r.Kind)
		buf[9] = r.Proc
		binary.LittleEndian.PutUint16(buf[10:], r.Aux)
		binary.LittleEndian.PutUint32(buf[12:], uint32(r.A))
		binary.LittleEndian.PutUint32(buf[16:], uint32(r.B))
		binary.LittleEndian.PutUint64(buf[20:], uint64(r.C))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ErrCorrupt is wrapped by every ReadBinary failure caused by the input
// bytes — bad magic, impossible counts, truncation, out-of-range fields —
// as opposed to a genuine I/O error from the underlying reader. Callers
// (dsmtrace, fuzzers) classify with errors.Is.
var ErrCorrupt = errors.New("corrupt trace")

// ReadBinary parses a binary trace back into a Tracer whose records are all
// attributed to their original processors (buffer order is the canonical
// merged order filtered per processor). It never panics on hostile input:
// malformed bytes yield an error wrapping ErrCorrupt, and memory use is
// bounded by the input length (the declared record count is checked against
// the bytes actually present, never trusted for allocation).
func ReadBinary(r io.Reader) (*Tracer, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("trace: %w: truncated header", ErrCorrupt)
		}
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr[:6]) != binMagic || hdr[6] != binVersion {
		return nil, fmt.Errorf("trace: %w: bad magic or version", ErrCorrupt)
	}
	nprocs := int(hdr[7])
	if nprocs < 1 {
		return nil, fmt.Errorf("trace: %w: bad processor count %d", ErrCorrupt, nprocs)
	}
	n := binary.LittleEndian.Uint64(hdr[8:])
	t := New(nprocs)
	var buf [recWire]byte
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil, fmt.Errorf("trace: %w: header declares %d records, input ends at %d", ErrCorrupt, n, i)
			}
			return nil, fmt.Errorf("trace: reading record %d: %w", i, err)
		}
		rec := Rec{
			At:   sim.Time(binary.LittleEndian.Uint64(buf[0:])),
			Kind: Kind(buf[8]),
			Proc: buf[9],
			Aux:  binary.LittleEndian.Uint16(buf[10:]),
			A:    int32(binary.LittleEndian.Uint32(buf[12:])),
			B:    int32(binary.LittleEndian.Uint32(buf[16:])),
			C:    int64(binary.LittleEndian.Uint64(buf[20:])),
		}
		if rec.Kind == EvNone || rec.Kind > evLast {
			return nil, fmt.Errorf("trace: %w: record %d has unknown kind %d", ErrCorrupt, i, rec.Kind)
		}
		if rec.At < 0 {
			return nil, fmt.Errorf("trace: %w: record %d has negative time", ErrCorrupt, i)
		}
		if int(rec.Proc) >= nprocs {
			return nil, fmt.Errorf("trace: %w: record %d names processor %d of %d", ErrCorrupt, i, rec.Proc, nprocs)
		}
		t.bufs[rec.Proc] = append(t.bufs[rec.Proc], rec)
	}
	return t, nil
}

// MsgClasses lists the message-class column order of the interval breakdown:
// the fabric message kinds the protocols use, by their wire kind numbers.
var msgClasses = []struct {
	kind int
	name string
}{
	{1, "lock-req"},
	{2, "lock-grant"},
	{3, "bar-arrive"},
	{4, "bar-depart"},
	{10, "page-req"},
	{11, "page-reply"},
}

// MsgClassName names a fabric message kind for reports; unknown kinds render
// as "kind-N".
func MsgClassName(kind int) string {
	for _, c := range msgClasses {
		if c.kind == kind {
			return c.name
		}
	}
	return fmt.Sprintf("kind-%d", kind)
}

// MsgClassNames returns the report column order of the known message classes,
// plus "other" for anything else.
func MsgClassNames() []string {
	out := make([]string, 0, len(msgClasses)+1)
	for _, c := range msgClasses {
		out = append(out, c.name)
	}
	return append(out, "other")
}

// msgClassIndex maps a fabric kind to its MsgClassNames column.
func msgClassIndex(kind int) int {
	for i, c := range msgClasses {
		if c.kind == kind {
			return i
		}
	}
	return len(msgClasses) // "other"
}
