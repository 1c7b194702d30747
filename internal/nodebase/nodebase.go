// Package nodebase carries the machinery common to the EC and LRC nodes:
// the private memory image, the software MMU, typed shared-memory accessors
// with write-trapping hooks, deferred CPU-cost accounting, and statistics
// windows. Mirroring Section 6 of the paper, everything that is not a
// consistency action is shared between the models.
package nodebase

import (
	"encoding/binary"
	"math"

	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/sim"
	"ecvslrc/internal/syncmgr"
	"ecvslrc/internal/trace"
	"ecvslrc/internal/vm"
	"ecvslrc/internal/wtrap"
)

// flushThreshold bounds how much deferred CPU cost may accumulate before it
// is converted into simulated sleep. Charging every instrumented store
// individually would create one event per store; batching below this
// granularity preserves interleaving fidelity at simulation speed.
const flushThreshold = 100 * sim.Microsecond

// Base is embedded by both protocol nodes.
type Base struct {
	P      *sim.Proc
	Net    *fabric.Network
	CM     *fabric.CostModel
	Al     *mem.Allocator
	Im     *mem.Image
	MMU    *vm.MMU
	NProcs int
	Model  core.Model

	// prot and data are the devirtualized access fast path: prot aliases the
	// MMU's protection table (SetProt mutates the shared backing array) and
	// data the image's backing store, so the in-window check plus the load or
	// store is flat slice indexing — no MMU or Image pointer chase, no
	// closure, no nested call. Every accessor below keeps its fast path small
	// enough to inline, with the fault and trap slow paths out of line.
	prot []vm.Prot
	data []byte

	// trapDB and trapCost are the compiler-instrumentation write trap (nil
	// when twinning handles trapping via protection faults): every shared
	// store charges trapCost and marks the dirty bits. A direct field pair
	// replaces the previous per-store closure call.
	trapDB   *wtrap.DirtyBits
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
	winEnd     sim.Time
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

// InitWithImage fills the common fields around a caller-provided image
// (typically recycled, contents unspecified): the runner overwrites it in
// full before the simulation starts.
func (b *Base) InitWithImage(p *sim.Proc, net *fabric.Network, al *mem.Allocator, model core.Model, nprocs int, im *mem.Image) {
	b.P = p
	b.Net = net
	b.CM = net.Cost()
	b.Al = al
	b.Im = im
	b.MMU = vm.New(al.Pages())
	b.prot = b.MMU.Table()
	b.data = im.Bytes()
	b.fastWriteProt = vm.ReadWrite
	b.NProcs = nprocs
	b.Model = model
	b.Tr = net.Tracer()
}

// neverProt is fastWriteProt's sentinel: no page ever reaches it, so every
// store misses the fast-path compare and takes writeSlow.
const neverProt vm.Prot = 0xFF

// SetTrap installs the compiler-instrumentation write trap: every shared
// store charges cost and records its block in db. Pass nil to clear (the
// twinning configurations trap via protection faults instead).
func (b *Base) SetTrap(db *wtrap.DirtyBits, cost sim.Time) {
	b.trapDB = db
	b.trapCost = cost
	if db != nil {
		b.fastWriteProt = neverProt
	} else {
		b.fastWriteProt = vm.ReadWrite
	}
}

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
// pointer chase, no closure, no virtual call — and stays inside the
// compiler's inlining budget. The fault and trap machinery lives in the
// out-of-line readFault/writeSlow* slow paths, which reproduce the
// pre-devirtualization behaviour exactly: resolve the fault first, then
// charge and record the instrumented store, then perform the access.

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
	if b.trapDB != nil {
		if b.Tr != nil {
			b.trapPend += b.trapCost
		}
		b.Charge(b.trapCost)
		b.trapDB.NoteWrite(a, size)
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
