package trace

import (
	"fmt"
	"slices"
	"sort"

	"ecvslrc/internal/sim"
)

// The virtual-time profiler. Every simulated nanosecond of every processor is
// classified into one stall class, with an exact conservation invariant: the
// per-processor class totals sum to that processor's end time, to the
// nanosecond.
//
// The accounting rests on the scheduler's handoff discipline: virtual time
// never advances while a process runs, so each processor's lifetime is tiled
// exactly by its blocked intervals (EvBlock..EvWake pairs). Classifying a run
// therefore means classifying every blocked interval. An interval's base
// class and object come from what the block waits for, labelled where it
// blocks — a sleep is compute, a wait for page p is page-fetch stall on p, a
// wait for lock l lock wait on l, a wait for barrier b barrier wait on b, and
// an unlabelled wait (never parked by a real run) is compute.
// Three record streams then refine the base class from within:
//
//   - EvWork: classified protocol CPU (trap/twin/diff/scan/install machinery)
//     charged at its exact cost. Work emitted in process context is always
//     slept before the next blocking operation (the protocol stacks Flush
//     before every Acquire/Release/Barrier/fetch), and work injected by a
//     handler extends the blocked interval it lands in, so draining pending
//     work records against each closing interval attributes them exactly.
//   - EvRecovery: fault-recovery time (late deliveries, retransmission CPU).
//   - EvLinkWait: shared-link queueing delay, attributed to the frame sender.
//
// Each deduction is capped by the remaining interval length and any residue
// carries into the processor's next interval, so the invariant cannot be
// broken by attribution error — only reshuffled between classes.

// StallClass is one bucket of the virtual-time decomposition.
type StallClass uint8

const (
	// ClassCompute is application and unclassified protocol CPU.
	ClassCompute StallClass = iota
	// ClassTrapDiff is write-trap, twin, diff, scan and install CPU (EvWork).
	ClassTrapDiff
	// ClassPageFetch is stall waiting for remote page data.
	ClassPageFetch
	// ClassLockWait is stall between a lock request and its acquisition.
	ClassLockWait
	// ClassBarrierWait is stall inside a barrier episode.
	ClassBarrierWait
	// ClassLinkWait is shared-link contention queueing (EvLinkWait).
	ClassLinkWait
	// ClassRecovery is fault-recovery time (EvRecovery).
	ClassRecovery
	// NumStallClasses bounds the class arrays.
	NumStallClasses
)

// String names the class as the reports and folded stacks print it.
func (c StallClass) String() string {
	switch c {
	case ClassCompute:
		return "compute"
	case ClassTrapDiff:
		return "trap-diff"
	case ClassPageFetch:
		return "page-fetch"
	case ClassLockWait:
		return "lock-wait"
	case ClassBarrierWait:
		return "barrier-wait"
	case ClassLinkWait:
		return "link-wait"
	case ClassRecovery:
		return "fault-recovery"
	}
	return "?"
}

// StallClasses lists every class in report column order.
func StallClasses() []StallClass {
	out := make([]StallClass, NumStallClasses)
	for i := range out {
		out[i] = StallClass(i)
	}
	return out
}

// SegPart is one classified slice of a blocked interval.
type SegPart struct {
	Class   StallClass
	ObjKind int32
	ObjID   int32
	D       sim.Time
}

// Segment is one classified blocked interval [T0, T1) of a processor.
type Segment struct {
	T0, T1 sim.Time
	// Class/ObjKind/ObjID classify the interval remainder after deductions
	// (the base class of what the block waited for).
	Class   StallClass
	ObjKind int32
	ObjID   int32
	// Parts is the full decomposition when deductions split the interval
	// (link wait, recovery, drained work, then the base remainder); nil when
	// the whole interval is the base class.
	Parts []SegPart
}

// parts returns the interval's decomposition, synthesizing the single-part
// view for undivided segments.
func (s *Segment) parts() []SegPart {
	if s.Parts != nil {
		return s.Parts
	}
	return []SegPart{{Class: s.Class, ObjKind: s.ObjKind, ObjID: s.ObjID, D: s.T1 - s.T0}}
}

// ProcProfile is one processor's complete time decomposition.
type ProcProfile struct {
	Proc int
	// End is the processor's last event time; the Class entries sum to it.
	End   sim.Time
	Class [NumStallClasses]sim.Time
	// Segments is the classified interval list in time order (consumed by
	// the critical-path extractor); nil in a profiling tracer's profile.
	Segments []Segment
}

// StackEntry is one aggregated folded-stack frame: all time proc spent in
// class on the named object.
type StackEntry struct {
	Proc    int
	Class   StallClass
	ObjKind int32
	ObjID   int32
	Time    sim.Time
}

// Profile is the virtual-time decomposition of one traced run.
type Profile struct {
	Meta Meta
	// Procs holds one entry per processor, in processor order.
	Procs []ProcProfile
	// Total sums the per-processor class totals.
	Total [NumStallClasses]sim.Time
	// Span is the largest processor end time.
	Span sim.Time
	// Stacks is the folded-stack aggregation, sorted by (proc, class,
	// object) for deterministic output.
	Stacks []StackEntry
	// totalsOnly marks the profile of a profiling tracer: class totals, End
	// and Span only, Segments and Stacks nil.
	totalsOnly bool
}

// requireFull panics when p came from a profiling tracer and who needs the
// segments or stacks it never had: only a caller bug asks, and rendering the
// empty lists would hide it.
func (p *Profile) requireFull(who string) {
	if p.totalsOnly {
		panic("trace: " + who + " needs a full profile, got the totals-only profile of a profiling tracer (NewProfiling); trace with trace.New instead")
	}
}

// CheckConservation verifies the invariant the whole profiler is built on:
// every processor's class totals sum exactly to its end time.
func (p *Profile) CheckConservation() error {
	for i := range p.Procs {
		pp := &p.Procs[i]
		var sum sim.Time
		for _, d := range pp.Class {
			sum += d
		}
		if sum != pp.End {
			return fmt.Errorf("trace: profile conservation violated: proc %d classes sum to %v, end is %v",
				pp.Proc, sum, pp.End)
		}
	}
	return nil
}

// ObjName names a (kind, id) attribution object for reports and stacks.
func ObjName(kind int32, id int32, meta Meta) string {
	switch kind {
	case ObjPage:
		if rg := meta.RegionOf(int(id)); rg != "" {
			return fmt.Sprintf("pg%d(%s)", id, rg)
		}
		return fmt.Sprintf("pg%d", id)
	case ObjLock:
		return fmt.Sprintf("lock%d", id)
	case ObjBarrier:
		return fmt.Sprintf("barrier%d", id)
	}
	return "-"
}

// pendingWork is one queued EvWork charge awaiting interval drain.
type pendingWork struct {
	objKind int32
	objID   int32
	d       sim.Time
}

// procScan is the per-processor accounting state machine. It is a push-style
// fold: feed consumes the processor's records strictly forward, in emission
// order, with no look-ahead, and finish closes whatever is still open. Two
// drivers run it — scanProc loops it over a buffered trace, a profiling
// tracer (NewProfiling) feeds it while the run is still emitting — and since
// a processor's emission order is exactly the order of its buffer, both see
// the same input and produce the same totals.
//
// Every classified interval leaves through emitSeg, which is the sink: the
// class totals always, plus the segment list and the folded-stack aggregation
// when stacks is non-nil (the full sink of a buffered BuildProfile).
type procScan struct {
	proc int

	blockAt sim.Time
	waiting sim.Wait // what the open block waits for
	blocked bool
	cursor  sim.Time // time accounted so far
	end     sim.Time

	// Deduction pools.
	work     []pendingWork
	linkPool sim.Time
	recPool  sim.Time

	// parts is the decomposition of the interval being closed: scratch owned
	// by the scan, rebuilt from [:0] for every interval.
	parts []SegPart

	// Output. class is the totals sink; segs and stacks receive the full
	// decomposition when stacks is non-nil.
	class  [NumStallClasses]sim.Time
	segs   []Segment
	stacks map[[3]int32]*StackEntry
}

// newProcScan returns the initial state for proc, sinking totals only when
// stacks is nil.
func newProcScan(proc int, stacks map[[3]int32]*StackEntry) procScan {
	return procScan{proc: proc, stacks: stacks}
}

// BuildProfile runs the per-processor time-accounting state machine over the
// trace. The result is a pure function of the trace and meta; no map
// iteration order leaks into it.
//
// On a profiling tracer (NewProfiling) the state machines have already
// consumed every record, so BuildProfile only finalises a copy of each — the
// tracer stays live and a later call sees the records emitted in between —
// and the profile carries totals only: Procs[i].{Proc,End,Class}, Total and
// Span, with Segments and Stacks nil.
func BuildProfile(t *Tracer, meta Meta) *Profile {
	p := &Profile{Meta: meta}
	if t == nil {
		return p
	}
	p.Procs = make([]ProcProfile, t.NProcs())
	if t.live != nil {
		p.totalsOnly = true
		for proc := range t.bufs {
			t.fold(proc)
			st := t.live.scans[proc]
			// finish drains pending work in place; the scratch parts may stay
			// shared, every use rebuilds them from [:0].
			st.work = slices.Clone(st.work)
			st.finish()
			p.add(&st)
		}
		return p
	}
	stacks := make(map[[3]int32]*StackEntry)
	for proc, recs := range t.bufs {
		st := scanProc(proc, recs, stacks)
		p.add(&st)
	}
	for _, e := range stacks {
		p.Stacks = append(p.Stacks, *e)
	}
	sort.Slice(p.Stacks, func(i, j int) bool {
		a, b := p.Stacks[i], p.Stacks[j]
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.ObjKind != b.ObjKind {
			return a.ObjKind < b.ObjKind
		}
		return a.ObjID < b.ObjID
	})
	return p
}

// add installs one finished scan as its processor's profile.
func (p *Profile) add(st *procScan) {
	p.Procs[st.proc] = ProcProfile{Proc: st.proc, End: st.end, Class: st.class, Segments: st.segs}
	for c, d := range st.class {
		p.Total[c] += d
	}
	if st.end > p.Span {
		p.Span = st.end
	}
}

// scanProc classifies one processor's buffered record stream. The
// per-processor buffer is in emission order: EvBlock/EvWake pairs tile the
// lifetime, and work, recovery and link-wait records appear between the pair
// they belong to (or before it, for process-context work flushed ahead of a
// blocking call).
func scanProc(proc int, recs []Rec, stacks map[[3]int32]*StackEntry) procScan {
	st := newProcScan(proc, stacks)
	for i := range recs {
		st.feed(&recs[i])
	}
	st.finish()
	return st
}

// feed advances the state machine by one record of its processor.
func (st *procScan) feed(r *Rec) {
	// A dispatch record is the scheduler's, not the processor's: an
	// untargeted one lands in buffer 0 whenever it fires, after the last
	// process may be long done, and must not stretch that lifetime.
	if r.At > st.end && r.Kind != EvDispatch {
		st.end = r.At
	}
	switch r.Kind {
	case EvBlock:
		if st.blocked {
			// A second block without a wake cannot happen under the
			// handoff discipline; close the stale interval defensively.
			st.closeInterval(r.At)
		} else {
			st.closeGap(r.At)
		}
		st.blocked = true
		st.blockAt = r.At
		st.waiting = sim.Wait{Kind: sim.WaitKind(r.Aux), Obj: r.A}
	case EvWake:
		if st.blocked {
			st.closeInterval(r.At)
		} else {
			st.closeGap(r.At)
		}
		st.blocked = false
		st.cursor = r.At
	case EvWork:
		st.work = append(st.work, pendingWork{objKind: r.B, objID: r.A, d: sim.Time(r.C)})
	case EvRecovery:
		st.recPool += sim.Time(r.C)
	case EvLinkWait:
		st.linkPool += sim.Time(r.C)
	}
}

// finish closes the processor's lifetime at its last record.
func (st *procScan) finish() {
	if st.blocked && st.end > st.blockAt {
		// Trailing open interval (records landed after the final block):
		// close it at the processor's end so the tiling stays exact.
		st.closeInterval(st.end)
	} else {
		// Defensive: a gap the blocked tiling did not cover is compute.
		st.closeGap(st.end)
	}
}

// closeGap covers any time between the last wake and at that no blocked
// interval tiled. By the handoff discipline the gap is always zero (time
// cannot pass while the process runs); accounting it as compute keeps
// conservation exact even if a future scheduler change breaks the discipline.
func (st *procScan) closeGap(at sim.Time) {
	if at > st.cursor {
		st.parts = append(st.parts[:0], SegPart{Class: ClassCompute, ObjKind: ObjNone, ObjID: -1, D: at - st.cursor})
		st.emitSeg(st.cursor, at, ClassCompute, ObjNone, -1)
		st.cursor = at
	}
}

// take moves up to want of the interval's remainder into a part of the given
// class, returning the amount moved.
func (st *procScan) take(remain *sim.Time, class StallClass, objKind, objID int32, want sim.Time) sim.Time {
	if want <= 0 || *remain <= 0 {
		return 0
	}
	d := min(want, *remain)
	*remain -= d
	st.parts = append(st.parts, SegPart{Class: class, ObjKind: objKind, ObjID: objID, D: d})
	return d
}

// closeInterval classifies the blocked interval [st.blockAt, at): deduct
// link-contention wait, then fault recovery, then drain pending work records,
// then attribute the remainder to the base class of what the block waits for.
func (st *procScan) closeInterval(at sim.Time) {
	class, objKind, objID := st.baseClass()
	remain := at - st.blockAt
	st.parts = st.parts[:0]
	st.linkPool -= st.take(&remain, ClassLinkWait, ObjNone, -1, st.linkPool)
	st.recPool -= st.take(&remain, ClassRecovery, ObjNone, -1, st.recPool)
	drained := 0
	for i := range st.work {
		w := &st.work[i]
		w.d -= st.take(&remain, ClassTrapDiff, w.objKind, w.objID, w.d)
		if w.d > 0 {
			break
		}
		drained++
	}
	if drained > 0 {
		st.work = st.work[:copy(st.work, st.work[drained:])]
	}
	st.take(&remain, class, objKind, objID, remain)
	st.emitSeg(st.blockAt, at, class, objKind, objID)
	st.cursor = at
}

// baseClass maps what the open block waits for to the interval's remainder
// class and object.
func (st *procScan) baseClass() (StallClass, int32, int32) {
	switch w := st.waiting; w.Kind {
	case sim.WaitPage:
		return ClassPageFetch, ObjPage, w.Obj
	case sim.WaitLock:
		return ClassLockWait, ObjLock, w.Obj
	case sim.WaitBarrier:
		return ClassBarrierWait, ObjBarrier, w.Obj
	}
	return ClassCompute, ObjNone, -1
}

// emitSeg is the sink every classified interval [t0, t1) leaves through,
// decomposed in st.parts with base class (class, objKind, objID). The class
// totals are always folded; with the full sink the interval also becomes a
// Segment and lands in the stack aggregation.
func (st *procScan) emitSeg(t0, t1 sim.Time, class StallClass, objKind, objID int32) {
	if t1 <= t0 {
		return
	}
	for _, part := range st.parts {
		st.class[part.Class] += part.D
	}
	if st.stacks == nil {
		return
	}
	seg := Segment{T0: t0, T1: t1, Class: class, ObjKind: objKind, ObjID: objID}
	if len(st.parts) == 1 {
		seg.Class, seg.ObjKind, seg.ObjID = st.parts[0].Class, st.parts[0].ObjKind, st.parts[0].ObjID
	} else {
		seg.Parts = slices.Clone(st.parts)
	}
	st.segs = append(st.segs, seg)
	for _, part := range st.parts {
		key := [3]int32{int32(st.proc)<<8 | int32(part.Class), part.ObjKind, part.ObjID}
		e := st.stacks[key]
		if e == nil {
			e = &StackEntry{Proc: st.proc, Class: part.Class, ObjKind: part.ObjKind, ObjID: part.ObjID}
			st.stacks[key] = e
		}
		e.Time += part.D
	}
}
