// Package ec implements entry consistency (Section 3.1), the model used by
// Midway: all shared data is bound to a synchronization object, and an
// update protocol makes exactly the bound data consistent at acquire time.
// Write trapping is by compiler instrumentation or twinning (with the
// paper's improvement of eager copies for small objects), write collection
// by per-lock incarnation-number timestamps or by diffs.
package ec

import (
	"cmp"
	"fmt"
	"slices"

	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/nodebase"
	"ecvslrc/internal/sim"
	"ecvslrc/internal/syncmgr"
	"ecvslrc/internal/trace"
	"ecvslrc/internal/vm"
	"ecvslrc/internal/wcollect"
	"ecvslrc/internal/wtrap"
)

// binding records the data associated with a lock; it lives by value in the
// cell's Bindings (version 1) and in each lock state slot. Version counts
// rebinds so that a grant after a Rebind conservatively carries the full
// bound data (Section 7.1, "Rebinding"); version 0 is "never bound". The
// ranges are immutable once set (Bind and Rebind copy them into the cell's
// range slab, a grant hands over the owner's), so nodes, twins and grant
// bodies may alias them freely.
type binding struct {
	ranges  []mem.Range
	pages   []int32 // sorted pages of a large object; built on first use
	words   int
	version int32
	small   bool // below a page: twin eagerly instead of write-protecting
}

// setRanges installs rs as the bound data.
func (b *binding) setRanges(rs []mem.Range) {
	b.ranges, b.pages, b.words = rs, b.pages[:0], 0
	bytes := 0
	for _, r := range rs {
		b.words += r.Words()
		bytes += r.Len
	}
	b.small = bytes < mem.PageSize
}

// pageList returns the pages the ranges touch, ascending and once each even
// when several ranges share a page (non-contiguous bindings like the
// transpose blocks or per-owner position chunks). Only processors that write
// a large object under twinning ever ask, so it is computed on first use.
func (b *binding) pageList() []int32 {
	if len(b.pages) == 0 {
		for _, r := range b.ranges {
			for pg, last := r.PageSpan(); pg <= last; pg++ {
				b.pages = append(b.pages, int32(pg))
			}
		}
		slices.Sort(b.pages)
		b.pages = slices.Compact(b.pages)
	}
	return b.pages
}

type taggedDiff struct {
	Tag  int32
	Diff wcollect.Diff
}

func cmpTag(a, b taggedDiff) int { return cmp.Compare(a.Tag, b.Tag) }

// EC lock-request slot conventions (the hook-owned half of a PayloadLockReq):
// C is the requester's incarnation number, D its known binding version, and
// Flag marks an acquire-for-rebind — the requester will immediately rebind
// the lock, so the grant must carry no update-protocol data (installing the
// old binding's contents could clobber memory the requester holds newer
// values for under other locks). Grants put the owner's incarnation in C and
// the binding version in D, with the bulk data in a *grantBody.

const acqPayloadBytes = 8

// grantBody carries the update-protocol data of a lock grant, as the typed
// payload Body of a PayloadLockGrant message. Bodies are recycled: the
// granting node takes one from its free list, the requester hands it back
// (release) once ApplyLockGrant has installed the contents. The body owns
// its slices and arena and keeps their capacity between grants.
type grantBody struct {
	owner *Node

	Ranges []mem.Range // non-nil when the requester's binding is stale; the owner's binding

	Stamped wcollect.StampedData // Timestamps collection
	Diffs   []taggedDiff         // Diffs collection: applied at the requester
	// Carried diffs are older than the requester's incarnation (already
	// reflected in its memory) but travel with ownership so the new owner
	// can serve future requesters with even older incarnations.
	Carried  []taggedDiff
	KnownInc []int32            // incarnation gossip for diff pruning, per processor
	Full     []wcollect.DataRun // conservative full transfer after rebind,
	full     bool               // when set (Full may be empty)

	arena wcollect.Arena // backs Stamped.Data or Full
}

// BodyKind implements fabric.Body.
func (*grantBody) BodyKind() fabric.PayloadKind { return fabric.PayloadLockGrant }

// newGrant takes a grant body from this node's free list, or grows it.
func (n *Node) newGrant() *grantBody {
	if k := len(n.freeGrants); k > 0 {
		g := n.freeGrants[k-1]
		n.freeGrants = n.freeGrants[:k-1]
		return g
	}
	return &grantBody{owner: n}
}

// release returns an installed grant body to the free list of the node that
// built it. The retained diffs it named must not stay pinned, and a bulk
// arena is dropped (wcollect.Arena.Release).
func (g *grantBody) release() {
	g.Stamped.Reset()
	clear(g.Diffs)
	clear(g.Carried)
	clear(g.Full)
	g.Ranges, g.full = nil, false
	g.Diffs, g.Carried, g.KnownInc, g.Full = g.Diffs[:0], g.Carried[:0], g.KnownInc[:0], g.Full[:0]
	g.arena.Release()
	g.owner.freeGrants = append(g.owner.freeGrants, g)
}

// lockState is the per-lock protocol state, one slot of the node's lock
// table: lock operations are the protocol's hottest control path.
type lockState struct {
	b       binding
	inc     int32
	dirty   bool // write epoch open and not yet harvested
	diffs   []taggedDiff
	objTwin *wtrap.ObjectTwin
	// knownInc tracks the last incarnation number each processor was seen to
	// hold (-1: never heard from). It travels with exclusive grants and lets
	// the owner prune diffs no live requester can still need, giving the
	// steady-state "n-1 diffs per transfer" behaviour of Section 5.3 without
	// losing correctness for processors that have never acquired the lock.
	// Nil until the lock's first diff grant at this node.
	knownInc []int32
}

// lockChunk is the number of lock slots, consecutive by id, that a node
// makes together; lockSlab is the number of chunks one allocation holds.
const (
	lockChunk = 8
	lockSlab  = 8
)

// rangeSlabLen is the number of bound ranges one slab block holds.
const rangeSlabLen = 256

// Bindings is one cell's table of initial (version-1) bindings, shared by
// all of its EC nodes. Bind is a static declaration issued identically on
// every processor, so the first node to bind a lock records its ranges and
// every later Bind of the lock only checks that it names the same ones. The
// protocol never writes the table: a node copies a binding's header into
// its own lock slot on first use, and Rebind and stale-binding grants change
// only that slot. The nodes of a cell run one at a time, so the table needs
// no lock. The zero value is an empty table.
type Bindings struct {
	b []binding // by lock id; version 0: not bound

	// ranges is what bound ranges are copied into: one allocation per block
	// of rangeSlabLen instead of one per lock.
	ranges nodebase.Chunk[mem.Range]
}

// bind records rs as lock l's initial binding, or checks that it is the one
// already recorded; proc is the binding processor, for the panic message.
func (t *Bindings) bind(l core.LockID, rs []mem.Range, proc int) {
	if int(l) >= len(t.b) {
		if int(l) >= cap(t.b) {
			// Double: the cell's first Bind of each lock grows the table by
			// one id. The ids past len are zero (never written), unbound.
			t.b = append(make([]binding, 0, max(int(l)+1, 2*cap(t.b))), t.b...)
		}
		t.b = t.b[:int(l)+1]
	}
	b := &t.b[l]
	if b.version == 0 {
		b.version = 1
		b.setRanges(t.own(rs))
		return
	}
	if !slices.Equal(b.ranges, rs) {
		panic(fmt.Sprintf("ec: processor %d binds lock %d to %v, but it is bound to %v elsewhere (Bind must be issued identically on every processor)",
			proc, l, rs, b.ranges))
	}
}

// own copies rs into the table's slab, so a binding retains nothing of the
// caller and its ranges never change under the twins and grant bodies that
// alias them.
func (t *Bindings) own(rs []mem.Range) []mem.Range {
	if len(rs) == 0 {
		return nil
	}
	t.ranges.Size = rangeSlabLen // set here: the zero Bindings is a table
	own := t.ranges.Carve(len(rs))
	copy(own, rs)
	return own
}

// Node is one processor's EC engine. It implements core.DSM.
type Node struct {
	nodebase.Base

	// binds is the cell's table of initial bindings; bit l of bound is set
	// once this node has issued Bind(l).
	binds *Bindings
	bound []uint64

	// lockSt is the lock table: lock l's state is slot l%lockChunk of
	// chunk l/lockChunk, live once its binding version is non-zero. A chunk
	// is carved from slab, lockSlab chunks per allocation, when the node
	// first requests, grants or applies a lock in it (touch), and slabs
	// never move, so a slot pointer stays valid while other slots are made.
	// The table costs a chunk per group of lockChunk ids the node uses and
	// one pointer per group of ids the cell binds — a node uses a small
	// fraction of the locks.
	lockSt []*[lockChunk]lockState
	slab   nodebase.Chunk[[lockChunk]lockState]

	freeGrants []*grantBody        // grant bodies this node built, returned for reuse
	freeTwins  []*wtrap.ObjectTwin // harvested small-object twins

	openEpochs [][]core.LockID // twinning: page -> locks with open large-object epochs

	nextNoData bool // the next acquire is an AcquireForRebind

	changed []mem.Range // reused harvest buffer: the changed runs it backs
	// are consumed (stamped or diffed) before the next harvest
}

// ls returns the state slot of lock l, making it on this node's first use.
func (n *Node) ls(l core.LockID) *lockState {
	if c := uint(l) / lockChunk; c < uint(len(n.lockSt)) {
		if ch := n.lockSt[c]; ch != nil {
			if st := &ch[uint(l)%lockChunk]; st.b.version != 0 {
				return st
			}
		}
	}
	return n.touch(l)
}

// touch makes lock l's slot on this node's first use of l, from the cell's
// initial binding: the slot copies the binding header and shares its
// ranges, which is safe because bound ranges are immutable. The lock must be
// bound, by this node or another.
func (n *Node) touch(l core.LockID) *lockState {
	if uint(l) >= uint(len(n.binds.b)) || n.binds.b[l].version == 0 {
		panic(fmt.Sprintf("ec: lock %d has no bound data", l))
	}
	c := int(l) / lockChunk
	if c >= len(n.lockSt) {
		// Cover every id bound so far, so a program that binds before it
		// synchronises sizes the table once.
		n.lockSt = append(n.lockSt, make([]*[lockChunk]lockState, (len(n.binds.b)+lockChunk-1)/lockChunk-len(n.lockSt))...)
	}
	ch := n.lockSt[c]
	if ch == nil {
		ch = &n.slab.Carve(1)[0]
		n.lockSt[c] = ch
	}
	st := &ch[int(l)%lockChunk]
	st.b = n.binds.b[l]
	return st
}

// New builds the EC node for processor p with a zeroed private image and a
// binding table of its own. impl.Model must be core.EC.
func New(p *sim.Proc, net *fabric.Network, al *mem.Allocator, nprocs int, impl core.Impl) *Node {
	return NewWithImage(p, net, al, nprocs, impl, mem.NewImage(al.Size()), new(Bindings))
}

// NewWithImage is New with a caller-provided private image, holding the
// initial shared memory before the simulation starts, and the
// cell's binding table, which every EC node of the cell shares.
func NewWithImage(p *sim.Proc, net *fabric.Network, al *mem.Allocator, nprocs int, impl core.Impl, im *mem.Image, binds *Bindings) *Node {
	if impl.Model != core.EC || !impl.Valid() {
		panic(fmt.Sprintf("ec: bad implementation %v", impl))
	}
	n := &Node{binds: binds, slab: nodebase.Chunk[[lockChunk]lockState]{Size: lockSlab}}
	n.InitWithImage(p, net, al, impl, nprocs, im)
	// All EC traffic rides the shared lock and barrier kinds.
	n.AttachSync((*lockHooks)(n), nilBarrierHooks{}, nil)
	if impl.Trap == core.Twinning {
		n.openEpochs = make([][]core.LockID, al.Pages())
		n.MMU.SetHandler(n.onFault)
	}
	return n
}

// Bind implements core.DSM: associates ranges with l. Must be issued
// identically on every processor; the first Bind of l in the cell records
// the ranges (copied: rs is the caller's to reuse) and every later one
// panics unless it names the same ranges. Bind creates no lock slot: a node
// that uses l before its own Bind starts from the recorded binding.
func (n *Node) Bind(l core.LockID, rs ...mem.Range) {
	w, bit := int(l)/64, uint64(1)<<(uint(l)%64)
	if w >= len(n.bound) {
		// Cover every id the cell has bound, as touch does for the table.
		n.bound = append(n.bound, make([]uint64, max(w+1, (len(n.binds.b)+63)/64)-len(n.bound))...)
	}
	if n.bound[w]&bit != 0 {
		panic(fmt.Sprintf("ec: lock %d already bound (use Rebind)", l))
	}
	n.bound[w] |= bit
	n.binds.bind(l, rs, n.P.ID())
	for _, r := range rs {
		n.Tr.Bind(n.P.Now(), n.P.ID(), int(l), int(r.Base), r.Len)
	}
}

// bindRanges makes rs (immutable from here on) the data bound to l.
func (n *Node) bindRanges(l core.LockID, b *binding, rs []mem.Range) {
	b.setRanges(rs)
	for _, r := range rs {
		n.Tr.Bind(n.P.Now(), n.P.ID(), int(l), int(r.Base), r.Len)
	}
}

// Rebind implements core.DSM: rebinds l to new ranges (copied, like Bind's).
// The caller must hold l exclusively; the next transfer sends all bound data
// conservatively.
func (n *Node) Rebind(l core.LockID, rs ...mem.Range) {
	held, mode := n.Holding(l)
	if !held || mode != syncmgr.Exclusive {
		panic(fmt.Sprintf("ec: Rebind(%d) without holding the lock exclusively", l))
	}
	st := n.ls(l)
	// Harvest the open epoch against the OLD binding first, so pending
	// changes are not mis-scanned against the new ranges.
	n.Work(trace.ObjLock, int(l), n.harvest(l, st))
	// Every post-rebind transfer is a conservative full send, so diffs
	// against the old binding can never be needed again.
	n.dropDiffs(st)
	st.b.version++
	n.bindRanges(l, &st.b, n.binds.own(rs))
	// Re-open the epoch for the new ranges: the holder may write them.
	n.openEpoch(l, st)
}

// dropDiffs empties st's diff list, keeping its capacity but not the diffs.
func (n *Node) dropDiffs(st *lockState) {
	clear(st.diffs)
	st.diffs = st.diffs[:0]
}

// Acquire implements core.DSM.
func (n *Node) Acquire(l core.LockID) { n.Lock(l, syncmgr.Exclusive) }

// AcquireForRebind implements core.DSM: an exclusive acquire whose grant
// carries no data, used just before a Rebind.
func (n *Node) AcquireForRebind(l core.LockID) {
	n.nextNoData = true
	n.Lock(l, syncmgr.Exclusive)
	n.nextNoData = false
}

// AcquireRead implements core.DSM.
func (n *Node) AcquireRead(l core.LockID) { n.Lock(l, syncmgr.ReadOnly) }

// onFault is the SIGSEGV handler for twinning mode: first write to a
// write-protected large-object page makes the twin and unprotects.
func (n *Node) onFault(a mem.Addr, write bool) {
	if !write {
		panic(fmt.Sprintf("ec: read fault at %d (EC pages are never read-protected)", a))
	}
	n.TwinFault(mem.PageOf(a), 0)
}

// openEpoch prepares write trapping for a newly acquired exclusive lock l
// with state slot st.
func (n *Node) openEpoch(l core.LockID, st *lockState) {
	b := &st.b
	st.dirty = true
	if n.Impl.Trap != core.Twinning {
		return
	}
	if b.small {
		// Eager copy: no protection faults for small objects (Section 4.2).
		if k := len(n.freeTwins); k > 0 {
			st.objTwin, n.freeTwins = n.freeTwins[k-1], n.freeTwins[:k-1]
		} else {
			st.objTwin = new(wtrap.ObjectTwin)
		}
		st.objTwin.Remake(n.Im, b.ranges)
		n.Tr.Twin(n.P.Now(), n.P.ID(), trace.DomainLock, int(l))
		n.Work(trace.ObjLock, int(l), sim.Time(b.words)*n.CM.WordCopy)
		return
	}
	for _, r := range b.ranges {
		protected := false
		for pg, last := r.PageSpan(); pg <= last; pg++ {
			// Register this epoch on every page it may write, so a twin
			// shared with an overlapping lock's epoch survives until both
			// have harvested.
			if !slices.Contains(n.openEpochs[pg], l) {
				n.openEpochs[pg] = append(n.openEpochs[pg], l)
			}
			if n.Twins.Has(pg) {
				// Already twinned by an overlapping open epoch: writes are
				// already trapped; the harvest intersects with our ranges.
				continue
			}
			if n.MMU.Prot(pg) == vm.ReadWrite {
				n.MMU.SetProt(pg, vm.ReadOnly)
				protected = true
			}
		}
		if protected {
			n.Work(trace.ObjLock, int(l), n.CM.MProtect) // one mprotect call per contiguous range
		}
	}
}

// harvest closes the open write epoch of l, whose state slot is st: it
// discovers the changed words via the trapping mechanism and records them
// for collection (stamping them or building a diff). Returns the CPU cost.
func (n *Node) harvest(l core.LockID, st *lockState) sim.Time {
	if !st.dirty {
		return 0
	}
	st.dirty = false
	b := &st.b
	changed := n.changed[:0]
	var work sim.Time

	switch n.Impl.Trap {
	case core.CompilerInstr:
		var scanned int
		changed, scanned = n.DB.CollectAppend(changed, b.ranges)
		n.DB.Reset(b.ranges)
		work += sim.Time(scanned) * n.CM.WordScan
	case core.Twinning:
		if ot := st.objTwin; ot != nil {
			var compared int
			changed, compared = ot.CompareAppend(changed)
			n.freeTwins = append(n.freeTwins, ot)
			st.objTwin = nil
			work += sim.Time(compared) * n.CM.WordCompare
		} else {
			changed, work = n.harvestLargeObject(l, b, changed)
		}
	}
	n.changed = changed[:0]

	switch n.Impl.Collect {
	case core.Timestamps:
		n.Stamps.Set(changed, wcollect.ECStamp(st.inc))
	case core.Diffs:
		if len(changed) > 0 {
			d := wcollect.BuildDiff(n.Im, changed)
			st.diffs = append(st.diffs, taggedDiff{Tag: st.inc, Diff: d})
			n.Tally.DiffsCreated++
			work += sim.Time(d.Words()) * n.CM.WordCopy
		}
	}
	if n.Tr != nil && len(changed) > 0 {
		n.Tr.Collect(n.P.Now(), n.P.ID(), trace.DomainLock, int(l), int(st.inc), mem.Words(changed))
	}
	return work
}

// known returns the incarnation gossip of st, one entry per processor.
func (n *Node) known(st *lockState) []int32 {
	if st.knownInc == nil {
		st.knownInc = make([]int32, n.NProcs())
		for p := range st.knownInc {
			st.knownInc[p] = -1
		}
	}
	return st.knownInc
}

// pruneDiffs discards diffs every processor has provably incorporated: those
// tagged at or below the minimum incarnation seen across all processors.
func (n *Node) pruneDiffs(st *lockState) {
	minInc := int32(1<<31 - 1)
	for _, v := range n.known(st) {
		if v < 0 {
			return // some processor has never been heard from; assume inc 0
		}
		minInc = min(minInc, v)
	}
	keep := st.diffs[:0]
	for _, td := range st.diffs {
		if td.Tag > minInc {
			keep = append(keep, td)
		}
	}
	clear(st.diffs[len(keep):])
	st.diffs = keep
}

// harvestLargeObject compares the twinned pages overlapping l's ranges,
// keeps the twins alive for other open epochs sharing a page, and refreshes
// the twin contents within l's ranges so nothing is collected twice. The
// changed runs are appended to changed.
func (n *Node) harvestLargeObject(l core.LockID, b *binding, changed []mem.Range) ([]mem.Range, sim.Time) {
	var work sim.Time
	for _, pg32 := range b.pageList() {
		pg := int(pg32)
		if !n.Twins.Has(pg) {
			continue // never written
		}
		runs, compared := n.Twins.Compare(pg)
		work += sim.Time(compared) * n.CM.WordCompare
		for _, run := range runs {
			for _, r := range b.ranges {
				if x, ok := intersect(run, r); ok {
					changed = append(changed, x)
				}
			}
		}
		eps := n.openEpochs[pg]
		if i := slices.Index(eps, l); i >= 0 {
			eps[i] = eps[len(eps)-1] // only emptiness is ever asked of the set
			eps = eps[:len(eps)-1]
			n.openEpochs[pg] = eps
		}
		if len(eps) == 0 {
			n.Twins.Drop(pg)
		} else {
			// Refresh the twin within our spans so a later harvest of an
			// overlapping lock does not re-collect our changes; dropping and
			// re-making it would lose the other locks' deltas.
			for _, r := range b.ranges {
				lo := max(int(r.Base), int(mem.PageBase(pg)))
				hi := min(int(r.End()), int(mem.PageBase(pg+1)))
				if lo < hi {
					n.Twins.Refresh(n.Im, pg, lo, hi)
				}
			}
		}
	}
	return changed, work
}

func intersect(a, b mem.Range) (mem.Range, bool) {
	lo := max(int(a.Base), int(b.Base))
	hi := min(int(a.End()), int(b.End()))
	if lo >= hi {
		return mem.Range{}, false
	}
	return mem.Range{Base: mem.Addr(lo), Len: hi - lo}, true
}

// --- syncmgr lock hooks -------------------------------------------------

// lockHooks adapts Node to syncmgr.LockHooks. Defined as a separate type so
// the hook methods do not pollute the core.DSM surface of Node.
type lockHooks Node

func (h *lockHooks) node() *Node { return (*Node)(h) }

// MakeLockRequest sends our incarnation number and binding version.
func (h *lockHooks) MakeLockRequest(l core.LockID, mode syncmgr.Mode) (fabric.Payload, int) {
	n := h.node()
	st := n.ls(l)
	p := fabric.Payload{C: st.inc, D: st.b.version, Flag: n.nextNoData}
	return p, acqPayloadBytes
}

// MakeLockGrant runs at the owner: harvest pending changes, then collect
// everything newer than the requester's incarnation into a recycled body.
func (h *lockHooks) MakeLockGrant(l core.LockID, mode syncmgr.Mode, req fabric.Payload, requester int) (fabric.Payload, int, sim.Time) {
	n := h.node()
	reqInc, reqBind, noData := req.C, req.D, req.Flag
	st := n.ls(l)
	b := &st.b
	work := n.harvest(l, st)

	g := n.newGrant()
	grant := fabric.Payload{C: st.inc, D: b.version, Body: g}
	size := 8 // incarnation + binding version

	if noData {
		// Acquire-for-rebind: transfer ownership and the current binding,
		// but no data. The requester rebinds immediately, after which every
		// transfer is a conservative full send of the new binding.
		g.Ranges = b.ranges
		size += 8 * len(b.ranges)
		if n.Impl.Collect == core.Diffs && mode == syncmgr.Exclusive {
			// Old-binding diffs are useless to the rebinder and to everyone
			// after it (post-rebind transfers are full sends).
			n.dropDiffs(st)
		}
		return grant, size, work
	}

	if reqBind != b.version {
		// Rebound since the requester last saw it: conservatively send all
		// bound data (the releaser cannot know what is already consistent).
		g.Ranges = b.ranges
		size += 8 * len(b.ranges)
		var wire int
		g.Full, wire = g.arena.ExtractRuns(g.Full, n.Im, b.ranges)
		g.full = true
		size += wire
		work += sim.Time(b.words) * n.CM.WordCopy
	} else {
		switch n.Impl.Collect {
		case core.Timestamps:
			var scanned int
			g.Stamped.Runs, scanned = wcollect.AppendSelect(g.Stamped.Runs, n.Stamps, b.ranges, wcollect.NewerThan{Min: wcollect.ECStamp(reqInc)})
			work += sim.Time(scanned) * n.CM.WordScan
			g.Stamped.Extract(n.Im, &g.arena)
			size += g.Stamped.WireSize(wcollect.ECStampBytes)
			n.Tally.StampRunsSent += int64(len(g.Stamped.Runs))
		case core.Diffs:
			ki := n.known(st)
			ki[requester] = reqInc
			ki[n.P.ID()] = st.inc
			n.pruneDiffs(st)
			for _, td := range st.diffs {
				if td.Tag > reqInc {
					g.Diffs = append(g.Diffs, td)
					size += td.Diff.WireSize()
				} else if mode == syncmgr.Exclusive {
					g.Carried = append(g.Carried, td)
					size += td.Diff.WireSize()
				}
			}
			if mode == syncmgr.Exclusive {
				// Ownership moves: the diffs travel with it (Section 5.2),
				// along with the incarnation gossip that bounds the list.
				g.KnownInc = append(g.KnownInc, ki...)
				n.dropDiffs(st)
			}
		}
	}
	return grant, size, work
}

// ApplyLockGrant runs at the requester: install the update-protocol data,
// then hand the body back to the granter. Nothing of the body is kept: data
// and stamps are copied into this node's image and stamp array, retained
// diffs are shared by value (they are immutable), and a handed-over
// binding aliases the owner's immutable ranges, not the body.
func (h *lockHooks) ApplyLockGrant(l core.LockID, mode syncmgr.Mode, payload fabric.Payload) sim.Time {
	n := h.node()
	ownerInc, bindVersion := payload.C, payload.D
	g := payload.Body.(*grantBody)
	st := n.ls(l)
	b := &st.b
	var work sim.Time

	if g.Ranges != nil {
		b.version = bindVersion
		n.bindRanges(l, b, g.Ranges)
	}
	appliedWords := 0
	switch {
	case g.full:
		words := wcollect.ApplyRuns(n.Im, g.Full)
		appliedWords += words
		work += sim.Time(words) * n.CM.WordApply
		if n.Impl.Collect == core.Timestamps {
			// The full content is current as of the owner's incarnation.
			for _, r := range g.Full {
				n.Stamps.Set([]mem.Range{{Base: r.Base, Len: len(r.Data)}}, wcollect.ECStamp(ownerInc))
			}
		} else {
			n.dropDiffs(st)
		}
	case n.Impl.Collect == core.Timestamps:
		words := g.Stamped.Apply(n.Im, n.Stamps)
		appliedWords += words
		work += sim.Time(words) * n.CM.WordApply
	default:
		slices.SortFunc(g.Diffs, cmpTag)
		for _, td := range g.Diffs {
			words := td.Diff.Apply(n.Im)
			appliedWords += words
			work += sim.Time(words) * n.CM.WordApply
		}
		if mode == syncmgr.Exclusive {
			// Save everything (applied and carried) for future transmission.
			st.diffs = append(st.diffs, g.Carried...)
			st.diffs = append(st.diffs, g.Diffs...)
			slices.SortFunc(st.diffs, cmpTag)
			ki := n.known(st)
			for p, v := range g.KnownInc {
				// An incarnation of 0 is what never having been heard from
				// already means, so it does not count as hearing.
				if v > 0 && v > ki[p] {
					ki[p] = v
				}
			}
		}
	}
	g.release()

	if appliedWords > 0 {
		n.Tr.Apply(n.P.Now(), n.P.ID(), trace.DomainLock, int(l), -1, appliedWords)
	}
	if mode == syncmgr.Exclusive {
		st.inc = ownerInc + 1
		if !n.nextNoData {
			// An acquire-for-rebind skips the epoch on the old binding;
			// Rebind opens one on the new ranges.
			n.openEpoch(l, st)
		} else {
			st.dirty = false
		}
	} else {
		st.inc = ownerInc
	}
	return work
}

// LocalReacquire: the owner re-enters its own lock; a write acquire opens a
// new epoch with a fresh incarnation so later requesters can tell the new
// writes apart.
func (h *lockHooks) LocalReacquire(l core.LockID, mode syncmgr.Mode) {
	n := h.node()
	if mode != syncmgr.Exclusive {
		return
	}
	st := n.ls(l)
	n.Work(trace.ObjLock, int(l), n.harvest(l, st)) // close any previous un-harvested epoch
	st.inc++
	if !n.nextNoData {
		n.openEpoch(l, st)
	}
}

// nilBarrierHooks: EC barriers are pure synchronization — following Midway,
// shared data is associated with locks, not barriers — so arrival and
// departure payloads stay empty (PayloadNone body slots), and a tree fan-in
// changes only the message pattern.
type nilBarrierHooks struct{}

func (nilBarrierHooks) MakeArrival(core.BarrierID) (fabric.Payload, int, sim.Time) {
	return fabric.Payload{}, 0, 0
}
func (nilBarrierHooks) AbsorbArrival(core.BarrierID, int, fabric.Payload) sim.Time { return 0 }
func (nilBarrierHooks) PrepareDepartures(core.BarrierID) sim.Time                  { return 0 }
func (nilBarrierHooks) MakeDeparture(core.BarrierID, int) (fabric.Payload, int, sim.Time) {
	return fabric.Payload{}, 0, 0
}
func (nilBarrierHooks) ApplyDeparture(core.BarrierID, fabric.Payload) sim.Time { return 0 }

var _ core.DSM = (*Node)(nil)
var _ syncmgr.LockHooks = (*lockHooks)(nil)
