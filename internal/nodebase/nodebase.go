// Package nodebase is the chassis of the EC and LRC nodes: the private
// memory image, the software MMU, typed shared-memory accessors with
// write-trapping hooks, the lock and barrier endpoints and the message
// dispatch that serves them, the trapping and collection objects the
// implementation selects (dirty bits, page twins, timestamps), the page-twin
// write fault, deferred CPU-cost accounting and its trace record, and
// statistics windows. Chunk carves node and cell state out of shared
// allocations. Mirroring Section 6 of the paper, everything that is not a
// consistency action is shared between the models.
package nodebase

import (
	"encoding/binary"
	"fmt"
	"math"

	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/sim"
	"ecvslrc/internal/syncmgr"
	"ecvslrc/internal/trace"
	"ecvslrc/internal/vm"
	"ecvslrc/internal/wcollect"
	"ecvslrc/internal/wtrap"
)

// flushThreshold bounds how much deferred CPU cost may accumulate before it
// is converted into simulated sleep. Charging every instrumented store
// individually would create one event per store; batching below this
// granularity preserves interleaving fidelity at simulation speed.
const flushThreshold = 100 * sim.Microsecond

// Base is embedded by both protocol nodes.
type Base struct {
	P    *sim.Proc
	Net  *fabric.Network
	CM   *fabric.CostModel
	Im   *mem.Image
	MMU  *vm.MMU
	Impl core.Impl

	// The trapping and collection objects Impl selects, nil where it does
	// not: DB under compiler instrumentation (every shared store marks it,
	// see writeSlow), Twins under twinning, Stamps under timestamps.
	DB     *wtrap.DirtyBits
	Twins  *wtrap.PageTwins
	Stamps *wcollect.Stamps

	nprocs int
	locks  *syncmgr.LockMgr
	bars   *syncmgr.BarrierMgr
	serve  Server // the model's own message kinds; nil if it has none

	// prot and data are the devirtualized access fast path: prot aliases the
	// MMU's protection table (SetProt mutates the shared backing array) and
	// data the image's backing store, so the in-window check plus the load or
	// store is flat slice indexing — no MMU or Image pointer chase, no
	// closure, no nested call. The fault and trap slow paths are out of line;
	// the integer accessors' fast paths inline, the float ones' do not
	// (DESIGN.md "Inlining contract").
	prot []vm.Prot
	data []byte

	// trapCost is what every instrumented store charges when DB is set: a
	// field pair on the slow path, not a per-store closure call.
	trapCost sim.Time

	// fastWriteProt is the protection level at which a store may skip the
	// slow path entirely: ReadWrite normally, an impossible sentinel when
	// instrumentation is on (every store must then trap — there is no
	// untrapped write under ci by construction). Folding the trap test into
	// the protection compare keeps the store fast path to a single branch.
	fastWriteProt vm.Prot

	// Tr is the event tracer — the network's, read when the node is built —
	// nil when tracing is off. Every emit method is nil-safe, so protocol code
	// records unconditionally.
	Tr *trace.Tracer

	Cnt syncmgr.Counters

	pending sim.Time // deferred CPU cost not yet slept
	// trapPend is the instrumented-store share of pending when tracing: one
	// EvWork per store would dwarf the trace, so trap charges accumulate here
	// and emit as a single record at the next Flush.
	trapPend sim.Time

	statsOpen  bool
	winStart   sim.Time
	hasWindow  bool
	netBase    fabric.Stats
	faultsBase int64
	cntBase    syncmgr.Counters
	extraBase  Extra
	window     WindowStats
	Extra      Extra
}

// Extra counts protocol-specific events for core.Stats.
type Extra struct {
	AccessMisses  int64
	DiffsCreated  int64
	TwinsMade     int64
	StampRunsSent int64
}

// InitWithImage fills the common fields around a caller-provided image: the
// node's private copy of the initial shared memory, a heap buffer or a
// copy-on-write mapping (mem.Image.Fork) alike. It makes the trapping and
// collection objects impl selects; the model then calls AttachSync.
func (b *Base) InitWithImage(p *sim.Proc, net *fabric.Network, al *mem.Allocator, impl core.Impl, nprocs int, im *mem.Image) {
	b.P = p
	b.Net = net
	b.CM = net.Cost()
	b.Im = im
	b.MMU = vm.New(al.Pages())
	b.prot = b.MMU.Table()
	b.data = im.Bytes()
	b.fastWriteProt = vm.ReadWrite
	b.nprocs = nprocs
	b.Impl = impl
	b.Tr = net.Tracer()

	if impl.Collect == core.Timestamps {
		b.Stamps = wcollect.NewStamps(al)
	}
	switch impl.Trap {
	case core.CompilerInstr:
		// LRC has no lock/data association, so hierarchical dirty bits let
		// page-level bits narrow its collection scan (Section 4.1); setting
		// both levels costs more than EC's flat scheme (Section 8.1).
		lrc := impl.Model == core.LRC
		b.DB = wtrap.NewDirtyBits(al, lrc)
		b.trapCost = b.CM.InstrStoreOpt
		if lrc {
			b.trapCost += b.CM.InstrStoreOpt / 2
		}
		b.fastWriteProt = neverProt
	case core.Twinning:
		b.Twins = wtrap.NewPageTwins(im)
	}
}

// Server serves a model's own message kinds, those beyond the lock and
// barrier endpoints': Serve reports whether m was one of them.
type Server interface {
	Serve(hc *fabric.HandlerCtx, m fabric.Msg) bool
}

// AttachSync builds the node's lock and barrier endpoints from the model's
// hooks and attaches the node's message handler: synchronization traffic
// goes to the endpoints, anything else to serve (nil if the model has no
// kinds of its own).
func (b *Base) AttachSync(lh syncmgr.LockHooks, bh syncmgr.BarrierHooks, serve Server) {
	b.locks = syncmgr.NewLockMgr(b.P, b.Net, b.nprocs, lh, &b.Cnt)
	b.bars = syncmgr.NewBarrierMgr(b.P, b.Net, b.nprocs, bh, &b.Cnt)
	b.serve = serve
	b.Net.Attach(b.P, b.handle)
}

// handle dispatches an incoming protocol message. Like syncmgr's handlers,
// the models' assume exactly-once in-order delivery (see the syncmgr package
// doc): under a fault plan the fabric's reliable sublayer restores that
// guarantee before anything reaches here.
func (b *Base) handle(hc *fabric.HandlerCtx, m fabric.Msg) {
	if b.locks.Handle(hc, m) || b.bars.Handle(hc, m) || b.serve != nil && b.serve.Serve(hc, m) {
		return
	}
	panic(fmt.Sprintf("nodebase: %v node: unhandled message kind %d", b.Impl.Model, m.Kind))
}

// NProcs implements core.DSM.
func (b *Base) NProcs() int { return b.nprocs }

// Model implements core.DSM.
func (b *Base) Model() core.Model { return b.Impl.Model }

// Lock flushes the deferred cost and acquires l in mode.
func (b *Base) Lock(l core.LockID, mode syncmgr.Mode) {
	b.Flush()
	b.locks.Acquire(l, mode)
}

// Holding reports whether this node holds l, and in which mode.
func (b *Base) Holding(l core.LockID) (bool, syncmgr.Mode) { return b.locks.Holding(l) }

// Release implements core.DSM. Under both models the consistency actions
// of a release, if any, run in the lock hooks when the next acquirer's
// request arrives.
func (b *Base) Release(l core.LockID) {
	b.Flush()
	b.locks.Release(l)
}

// Barrier implements core.DSM.
func (b *Base) Barrier(id core.BarrierID) {
	b.Flush()
	b.bars.Wait(id)
}

// SetBarrierFanIn arranges barrier episodes as a radix-r arrival/departure
// tree (see syncmgr.BarrierMgr.SetFanIn). r < 2 keeps the flat protocol;
// must be called before the simulation starts.
func (b *Base) SetBarrierFanIn(r int) { b.bars.SetFanIn(r) }

// Work charges d of write-trapping or collection CPU time, recording it
// against object kind and id (trace.ObjLock, ObjPage or ObjNone).
func (b *Base) Work(kind int32, id int, d sim.Time) {
	b.Tr.Work(b.P.Now(), b.P.ID(), trace.WorkTrapDiff, kind, id, d)
	b.Charge(d)
}

// TwinFault serves the first write to a write-protected page pg under
// twinning: it charges pre, the model's work owed before the twin, then the
// fault, the page copy and the unprotect, makes the twin and unprotects. The
// two charges stay separate: a flush may fall between them.
func (b *Base) TwinFault(pg int, pre sim.Time) {
	twin := b.CM.ProtFault + mem.PageWords*b.CM.WordCopy + b.CM.MProtect
	b.Tr.Work(b.P.Now(), b.P.ID(), trace.WorkTrapDiff, trace.ObjPage, pg, pre+twin)
	b.Charge(pre)
	b.Charge(twin)
	b.Twins.Make(pg)
	b.Tr.Twin(b.P.Now(), b.P.ID(), trace.DomainPage, pg)
	b.Extra.TwinsMade++
	b.MMU.SetProt(pg, vm.ReadWrite)
}

// neverProt is fastWriteProt's sentinel: no page ever reaches it, so every
// store misses the fast-path compare and takes writeSlow.
const neverProt vm.Prot = 0xFF

// Charge defers d of CPU cost, flushing when the accumulation grows large.
func (b *Base) Charge(d sim.Time) {
	b.pending += d
	if b.pending >= flushThreshold {
		b.Flush()
	}
}

// Flush converts deferred cost into simulated time. Must be called before
// any blocking or communicating operation.
func (b *Base) Flush() {
	if b.pending > 0 {
		if b.trapPend > 0 {
			b.Tr.Work(b.P.Now(), b.P.ID(), trace.WorkTrapDiff, trace.ObjNone, -1, b.trapPend)
			b.trapPend = 0
		}
		d := b.pending
		b.pending = 0
		b.P.Sleep(d)
	}
}

// Compute implements core.DSM: application CPU time.
func (b *Base) Compute(d sim.Time) { b.Charge(d) }

// Now implements core.DSM.
func (b *Base) Now() sim.Time { return b.P.Now() + b.pending }

// Proc implements core.DSM.
func (b *Base) Proc() int { return b.P.ID() }

// Typed accessors: every shared access consults the protection table (the
// page protection hardware) and fires the write trap on instrumented stores.
// The in-window, no-fault, no-trap path of each accessor is a flat check
// plus a direct load or store on Base-resident slices — no MMU or Image
// pointer chase, no closure, no virtual call. The integer accessors stay
// inside the compiler's inlining budget (cost 77–78 of 80); the float ones
// cost 81–82, one bit conversion more, and do not inline (go build
// -gcflags=-m=2). Called through core.DSM, none inlines. The fault and trap
// machinery lives in the out-of-line readFault/writeSlow* slow paths, which
// reproduce the pre-devirtualization behaviour exactly: resolve the fault
// first, then charge and record the instrumented store, then perform the
// access.

// ReadI32 implements core.DSM.
func (b *Base) ReadI32(a mem.Addr) int32 {
	if b.prot[a>>mem.PageShift] == vm.NoAccess {
		b.readFault(a)
	}
	return int32(binary.LittleEndian.Uint32(b.data[a:]))
}

// WriteI32 implements core.DSM.
func (b *Base) WriteI32(a mem.Addr, v int32) {
	if b.prot[a>>mem.PageShift] != b.fastWriteProt {
		b.writeSlow4(a)
	}
	binary.LittleEndian.PutUint32(b.data[a:], uint32(v))
}

// ReadF32 implements core.DSM.
func (b *Base) ReadF32(a mem.Addr) float32 {
	if b.prot[a>>mem.PageShift] == vm.NoAccess {
		b.readFault(a)
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(b.data[a:]))
}

// WriteF32 implements core.DSM.
func (b *Base) WriteF32(a mem.Addr, v float32) {
	if b.prot[a>>mem.PageShift] != b.fastWriteProt {
		b.writeSlow4(a)
	}
	binary.LittleEndian.PutUint32(b.data[a:], math.Float32bits(v))
}

// ReadF64 implements core.DSM.
func (b *Base) ReadF64(a mem.Addr) float64 {
	if b.prot[a>>mem.PageShift] == vm.NoAccess {
		b.readFault(a)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b.data[a:]))
}

// WriteF64 implements core.DSM.
func (b *Base) WriteF64(a mem.Addr, v float64) {
	if b.prot[a>>mem.PageShift] != b.fastWriteProt {
		b.writeSlow8(a)
	}
	binary.LittleEndian.PutUint64(b.data[a:], math.Float64bits(v))
}

// readFault is the read slow path: the page is invalid, record the fault
// and run the fault machinery. go:noinline keeps its cost out of the
// accessors' budgets — it is taken once per access miss, never on the
// in-window path.
//
//go:noinline
func (b *Base) readFault(a mem.Addr) {
	b.Tr.Fault(b.P.Now(), b.P.ID(), mem.PageOf(a), false)
	b.MMU.FaultRead(a)
}

// writeSlow handles everything a store may owe beyond the raw write: a
// protection fault (resolved before trapping, as the hardware would), then
// the compiler-instrumentation charge and dirty-bit update. For the ci
// configurations every store lands here by construction — instrumentation
// is per-store work, there is no untrapped write path to speed up.
func (b *Base) writeSlow(a mem.Addr, size int) {
	if b.prot[a>>mem.PageShift] != vm.ReadWrite {
		b.Tr.Fault(b.P.Now(), b.P.ID(), mem.PageOf(a), true)
		b.MMU.FaultWrite(a)
	}
	if b.DB != nil {
		if b.Tr != nil {
			b.trapPend += b.trapCost
		}
		b.Charge(b.trapCost)
		b.DB.NoteWrite(a, size)
	}
}

//go:noinline
func (b *Base) writeSlow4(a mem.Addr) { b.writeSlow(a, 4) }

//go:noinline
func (b *Base) writeSlow8(a mem.Addr) { b.writeSlow(a, 8) }

// WindowStats is the per-processor measurement extracted by the runner.
type WindowStats struct {
	Start, End sim.Time
	Net        fabric.Stats
	Faults     int64
	Cnt        syncmgr.Counters
	Extra      Extra
}

// StatsBegin implements core.DSM: opens this processor's window.
func (b *Base) StatsBegin() {
	b.Flush()
	b.statsOpen = true
	b.winStart = b.P.Now()
	b.netBase = b.Net.ProcStats(b.P.ID())
	b.faultsBase = b.MMU.Faults()
	b.cntBase = b.Cnt
	b.extraBase = b.Extra
}

// StatsEnd implements core.DSM: closes the window.
func (b *Base) StatsEnd() {
	if !b.statsOpen {
		panic("nodebase: StatsEnd without StatsBegin")
	}
	b.Flush()
	b.statsOpen = false
	b.hasWindow = true
	b.window = WindowStats{
		Start:  b.winStart,
		End:    b.P.Now(),
		Net:    b.Net.ProcStats(b.P.ID()).Sub(b.netBase),
		Faults: b.MMU.Faults() - b.faultsBase,
		Cnt: syncmgr.Counters{
			LockAcquires:     b.Cnt.LockAcquires - b.cntBase.LockAcquires,
			ReadLockAcquires: b.Cnt.ReadLockAcquires - b.cntBase.ReadLockAcquires,
			RemoteAcquires:   b.Cnt.RemoteAcquires - b.cntBase.RemoteAcquires,
			Barriers:         b.Cnt.Barriers - b.cntBase.Barriers,
		},
		Extra: Extra{
			AccessMisses:  b.Extra.AccessMisses - b.extraBase.AccessMisses,
			DiffsCreated:  b.Extra.DiffsCreated - b.extraBase.DiffsCreated,
			TwinsMade:     b.Extra.TwinsMade - b.extraBase.TwinsMade,
			StampRunsSent: b.Extra.StampRunsSent - b.extraBase.StampRunsSent,
		},
	}
}

// Window returns the measurement window, valid after StatsEnd.
func (b *Base) Window() (WindowStats, bool) { return b.window, b.hasWindow }
