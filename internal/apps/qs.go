package apps

import (
	"fmt"
	"slices"

	"ecvslrc/internal/core"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/run"
	"ecvslrc/internal/sim"
)

func init() {
	register("QS", func(s Scale) run.App { return newQS(s) })
}

// Per-operation CPU costs, calibrated against Table 3's 47.89 s sequential
// time for 262,144 integers with a 1024-element bubblesort cutoff.
const (
	qsSortOp   = 330 * sim.Nanosecond // one bubblesort compare/swap step
	qsPartElem = 300 * sim.Nanosecond // one partition step
	qsIdle     = 500 * sim.Microsecond
)

// qsSlots is the task-queue capacity (a stack of (offset, length) entries).
const qsSlots = 512

// QS sorts an integer array with a centralized task queue: processors pop a
// sub-array, partition it around a pivot, push the smaller part as a new
// task and continue with the larger, bubblesorting below the cutoff
// (Section 2). Under EC the queue is bound to a lock, and each queue slot
// has a task lock that is REBOUND to the task's sub-array at enqueue time —
// the rebinding scenario of Section 3.3.
type QS struct {
	n      int
	cutoff int
	arr    mem.Addr
	queue  mem.Addr // top(4), done(4), entries qsSlots x (off,len)
	nprocs int

	// finalized tracks, per processor, the sub-ranges it bubblesorted, for
	// the EC gather (exported by rebinding the per-processor gather lock).
	finalized map[int][]mem.Range
}

func newQS(s Scale) *QS {
	a := &QS{finalized: map[int][]mem.Range{}}
	switch s {
	case Test:
		a.n, a.cutoff = 4096, 256
	case Bench:
		a.n, a.cutoff = 1<<15, 1024
	case Large:
		// ~256 leaf tasks against the 512-slot queue (the Paper ratio); the
		// centralized queue lock is the scaling stress.
		a.n, a.cutoff = 1<<17, 512
	default: // Paper: 262,144 integers, cutoff 1024 (Table 2)
		a.n, a.cutoff = 1<<18, 1024
	}
	return a
}

// Name implements run.App.
func (a *QS) Name() string { return "QS" }

// Layout implements run.App.
func (a *QS) Layout(al *mem.Allocator) {
	a.arr = al.Alloc("array", a.n*4, 4)
	a.queue = al.Alloc("queue", 8+qsSlots*8, 4)
}

// Init implements run.App: deterministic pseudo-random keys; the initial
// task covering the whole array is pre-enqueued.
func (a *QS) Init(im *mem.Image) {
	rng := newLCG(42)
	for i := 0; i < a.n; i++ {
		im.WriteI32(a.arr+mem.Addr(4*i), int32(rng.intn(1<<30)))
	}
	im.WriteI32(a.qTop(), 1)
	im.WriteI32(a.qDone(), 0)
	im.WriteI32(a.qOff(0), 0)
	im.WriteI32(a.qLen(0), int32(a.n))
}

func (a *QS) qTop() mem.Addr      { return a.queue }
func (a *QS) qDone() mem.Addr     { return a.queue + 4 }
func (a *QS) qOff(s int) mem.Addr { return a.queue + 8 + mem.Addr(8*s) }
func (a *QS) qLen(s int) mem.Addr { return a.queue + 8 + mem.Addr(8*s) + 4 }

const (
	qsQueueLock  = core.LockID(1)
	qsEntryLock0 = core.LockID(10)           // + slot
	qsGatherL0   = core.LockID(10 + qsSlots) // + proc
)

func (a *QS) entryLock(slot int) core.LockID { return qsEntryLock0 + core.LockID(slot) }
func (a *QS) gatherLock(p int) core.LockID   { return qsGatherL0 + core.LockID(p) }

// Program implements run.App: the per-processor program.
func (a *QS) Program(d core.DSM) {
	ec := d.Model() == core.EC
	a.nprocs = d.NProcs()
	me := d.Proc()
	if ec {
		bind := bindOne(d)
		bind(qsQueueLock, mem.Range{Base: a.queue, Len: 8 + qsSlots*8})
		for s := 0; s < qsSlots; s++ {
			// Placeholder binding: rebound to the task's data at enqueue.
			bind(a.entryLock(s), mem.Range{Base: a.qOff(s), Len: 8})
		}
		for p := 0; p < d.NProcs(); p++ {
			bind(a.gatherLock(p), mem.Range{Base: a.qDone(), Len: 4})
		}
		// The pre-enqueued initial task: processor 0 rebinds slot 0's lock
		// to the whole array before anyone pops it.
		if me == 0 {
			d.AcquireForRebind(a.entryLock(0))
			d.Rebind(a.entryLock(0), mem.Range{Base: a.arr, Len: a.n * 4})
			d.Release(a.entryLock(0))
		}
	}
	d.Barrier(0)

	var myFinal []mem.Range
	total := 0

	// enqueue pushes a task while the caller holds the queue lock. Under EC
	// the slot's task lock is rebound to the sub-array first, so the next
	// popper's acquire transfers the task data (conservative full send).
	enqueue := func(off, length int) {
		slot := int(d.ReadI32(a.qTop()))
		if slot >= qsSlots {
			panic("QS: task queue overflow")
		}
		if ec {
			d.AcquireForRebind(a.entryLock(slot))
			d.Rebind(a.entryLock(slot), mem.Range{Base: a.arr + mem.Addr(4*off), Len: 4 * length})
			d.Release(a.entryLock(slot))
		}
		d.WriteI32(a.qOff(slot), int32(off))
		d.WriteI32(a.qLen(slot), int32(length))
		d.WriteI32(a.qTop(), int32(slot+1))
	}

	readRange := func(off, length int) []int32 {
		buf := make([]int32, length)
		for i := range buf {
			buf[i] = d.ReadI32(a.arr + mem.Addr(4*(off+i)))
		}
		return buf
	}
	writeRange := func(off int, buf []int32) {
		for i, v := range buf {
			d.WriteI32(a.arr+mem.Addr(4*(off+i)), v)
		}
	}

	for {
		d.Acquire(qsQueueLock)
		top := int(d.ReadI32(a.qTop()))
		if top == 0 {
			done := int(d.ReadI32(a.qDone()))
			d.Release(qsQueueLock)
			if done == a.n {
				break
			}
			d.Compute(qsIdle)
			continue
		}
		top--
		d.WriteI32(a.qTop(), int32(top))
		off := int(d.ReadI32(a.qOff(top)))
		length := int(d.ReadI32(a.qLen(top)))
		var buf []int32
		if ec {
			// The task lock's update-protocol grant carries the sub-array.
			d.Acquire(a.entryLock(top))
			buf = readRange(off, length)
			d.Release(a.entryLock(top))
		} else {
			buf = readRange(off, length)
		}
		d.Release(qsQueueLock)

		// Work on the task locally: partition until below the cutoff,
		// pushing the smaller side, then bubblesort.
		sorted := 0
		for {
			if length <= a.cutoff {
				steps := bubblesort(buf)
				d.Compute(sim.Time(steps) * qsSortOp)
				writeRange(off, buf)
				myFinal = append(myFinal, mem.Range{Base: a.arr + mem.Addr(4*off), Len: 4 * length})
				sorted += length
				break
			}
			p := partition(buf)
			d.Compute(sim.Time(length) * qsPartElem)
			writeRange(off, buf)
			if p == 0 {
				// Every element equal: the task is already sorted.
				myFinal = append(myFinal, mem.Range{Base: a.arr + mem.Addr(4*off), Len: 4 * length})
				sorted += length
				break
			}
			// Push the smaller partition; continue with the larger.
			loLen, hiLen := p, length-p
			d.Acquire(qsQueueLock)
			if loLen <= hiLen {
				enqueue(off, loLen)
				off, length, buf = off+p, hiLen, buf[p:]
			} else {
				enqueue(off+p, hiLen)
				length, buf = loLen, buf[:p]
			}
			d.Release(qsQueueLock)
		}
		total += sorted

		d.Acquire(qsQueueLock)
		d.WriteI32(a.qDone(), d.ReadI32(a.qDone())+int32(sorted))
		d.Release(qsQueueLock)
	}

	// Export the finalized fragments for the gather (EC: rebinding the
	// per-processor gather lock to the non-contiguous result ranges).
	a.finalized[me] = myFinal
	if ec && len(myFinal) > 0 {
		d.AcquireForRebind(a.gatherLock(me))
		d.Rebind(a.gatherLock(me), myFinal...)
		d.Release(a.gatherLock(me))
	}
	d.Barrier(1)
	d.StatsEnd()

	if me == 0 {
		for p := 0; p < d.NProcs(); p++ {
			if ec {
				if p != me {
					d.AcquireRead(a.gatherLock(p))
				}
			}
			for _, r := range a.finalized[p] {
				for addr := r.Base; addr < r.End(); addr += 4 {
					_ = d.ReadI32(addr)
				}
			}
			if ec && p != me {
				d.Release(a.gatherLock(p))
			}
		}
	}
}

// partition reorders buf into (< pivot)(== pivot)(> pivot) around a
// median-of-three pivot and returns the split index (elements [0,p) stay in
// the left task, [p,n) in the right; both parts non-empty), or 0 if every
// element is equal (the slice is already sorted).
func partition(buf []int32) int {
	n := len(buf)
	x, y, z := buf[0], buf[n/2], buf[n-1]
	pivot := max(min(x, y), min(max(x, y), z))
	// Count the classes, then place every element at its class's cursor in
	// one exactly-sized scratch: the stable lt‖eq‖gt order without growing
	// three slices by append.
	nlt, neq := 0, 0
	for _, v := range buf {
		switch {
		case v < pivot:
			nlt++
		case v == pivot:
			neq++
		}
	}
	out := make([]int32, n)
	lt, eq, gt := 0, nlt, nlt+neq
	for _, v := range buf {
		switch {
		case v < pivot:
			out[lt] = v
			lt++
		case v > pivot:
			out[gt] = v
			gt++
		default:
			out[eq] = v
			eq++
		}
	}
	copy(buf, out)
	if nlt+neq < n {
		return nlt + neq
	}
	// The pivot is the maximum. Split before the equal run unless every
	// element is equal (already sorted).
	return nlt
}

// bubblesort sorts buf in place and returns the number of compare/swap
// steps (the paper's local sort below the cutoff). The simulated DECstation
// pays the quadratic cost, but the simulator does not: the step count of the
// early-exit bubble sort is derived analytically. A pass moves an element at
// most one position left, so the number of swapping passes equals the
// largest leftward displacement L between initial and (stable) final
// position; one clean terminating pass follows, and pass k scans len-1-k
// pairs. bubblesortReference is the literal algorithm, kept as the oracle
// for the equivalence test.
func bubblesort(buf []int32) int {
	n := len(buf)
	if n == 0 {
		return 0
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	// Stable order: by value, original index on ties.
	slices.SortFunc(idx, func(i, j int32) int {
		if buf[i] != buf[j] {
			return int(buf[i]) - int(buf[j])
		}
		return int(i) - int(j)
	})
	maxDisp := 0
	for final, orig := range idx {
		if d := int(orig) - final; d > maxDisp {
			maxDisp = d
		}
	}
	passes := maxDisp + 1
	steps := passes*(n-1) - passes*(passes-1)/2
	slices.Sort(buf)
	return steps
}

// bubblesortReference is the verbatim quadratic bubble sort whose step count
// bubblesort reproduces.
func bubblesortReference(buf []int32) int {
	steps := 0
	n := len(buf)
	for {
		swapped := false
		for i := 1; i < n; i++ {
			steps++
			if buf[i-1] > buf[i] {
				buf[i-1], buf[i] = buf[i], buf[i-1]
				swapped = true
			}
		}
		n--
		if !swapped {
			break
		}
	}
	return steps
}

// Verify implements run.App.
func (a *QS) Verify(im *mem.Image) error {
	var prev int32 = -1 << 31
	var sum, sumRef int64
	rng := newLCG(42)
	for i := 0; i < a.n; i++ {
		v := im.ReadI32(a.arr + mem.Addr(4*i))
		if v < prev {
			return fmt.Errorf("QS: array[%d]=%d < array[%d]=%d", i, v, i-1, prev)
		}
		prev = v
		sum += int64(v)
		sumRef += int64(int32(rng.intn(1 << 30)))
	}
	if sum != sumRef {
		return fmt.Errorf("QS: element checksum mismatch: %d vs %d", sum, sumRef)
	}
	return nil
}
