// Package lrc implements lazy release consistency (Section 3.2), the model
// used by TreadMarks: execution is divided into intervals, modifications are
// summarized as per-page write notices ordered by interval vectors, and an
// invalidate protocol propagates data lazily — a page access miss fetches
// diffs (or timestamp-selected words) from the writers. Multiple concurrent
// writers per page are supported, so there is no ping-pong effect under
// false sharing (Section 7.1).
package lrc

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/nodebase"
	"ecvslrc/internal/sim"
	"ecvslrc/internal/syncmgr"
	"ecvslrc/internal/trace"
	"ecvslrc/internal/vm"
	"ecvslrc/internal/wcollect"
)

// Message kinds beyond the shared synchronization managers'.
const (
	kindFetchReq = 10 + iota
	kindFetchReply
)

// interval is a closed execution interval of one processor: the unit the
// write notices name. A record keeps its key and its cost, not the vector
// its writer held at close: nothing after the close reads the vector itself.
type interval struct {
	proc  int
	idx   int32
	pages []int
	// wire is the cost of shipping this interval's write notices: interval
	// identity, its vector, and one notice per page. A record is immutable,
	// so newInterval computes it once for every later grant and departure.
	wire int
	// sum is Σ vec, an access miss's ordering key: it strictly increases
	// along happens-before (see orderUnits).
	sum int64
}

// newInterval makes writer proc's record idx from vec, the writer's vector
// at the close, which it reads and does not keep.
func newInterval(proc int, idx int32, vec []int32, pages []int) *interval {
	var sum int64
	for _, v := range vec {
		sum += int64(v)
	}
	return &interval{proc: proc, idx: idx, pages: pages, wire: 8 + 4*len(vec) + 4*len(pages), sum: sum}
}

// cmpInterval orders records by (proc, idx), the order absorb applies them in.
func cmpInterval(a, b *interval) int {
	return cmp.Or(cmp.Compare(a.proc, b.proc), cmp.Compare(a.idx, b.idx))
}

// writerWindow is one remote writer's notice state on a page: noticed is the
// highest interval index of that writer named by a write notice here, applied
// the highest whose modifications are installed locally. The page's pending
// fetch window is (applied, noticed].
type writerWindow struct {
	proc    int32
	noticed int32
	applied int32
}

// pageMeta is the per-page protocol state of one processor. The writer
// windows are a sparse slice sorted by processor: a page has a window only
// for processors that actually sent a write notice naming it, so per-page
// state is O(writers of that page), not O(procs) — at 1024 processors a
// dense per-page array would multiply out to gigabytes across the machine
// (pages x procs x nodes), while real pages have a handful of writers.
// pageMetas and their first window slices are carved from the run's chunks
// (History): page state lives as long as the run.
type pageMeta struct {
	writers []writerWindow // sorted by proc
	// diffs are this processor's own harvested diffs of the page, in
	// interval order (Diffs collection).
	diffs []ivalDiff
	// closedIval is this processor's own closed-but-unharvested interval
	// that modified the page (-1 if none); the twin is kept for lazy diff
	// creation until someone asks or a conflicting event forces it.
	closedIval int32
}

func cmpWindowProc(w writerWindow, proc int32) int { return cmp.Compare(w.proc, proc) }

// window returns the writer window for proc, inserting a zero window in
// sorted position if the page has none yet. A page's first window is carved
// from room. Later ones grow the slice by append: the collector reclaims an
// outgrown array, while an outgrown carved one would stay in its chunk for
// the rest of the run.
func (pm *pageMeta) window(proc int32, room *nodebase.Chunk[writerWindow]) *writerWindow {
	i, ok := slices.BinarySearchFunc(pm.writers, proc, cmpWindowProc)
	if !ok {
		ws := pm.writers
		if cap(ws) == 0 {
			ws = room.Carve(1)[:0]
		}
		pm.writers = slices.Insert(ws, i, writerWindow{proc: proc})
	}
	return &pm.writers[i]
}

// find returns the window for proc, or nil if the page has none.
func (pm *pageMeta) find(proc int32) *writerWindow {
	if i, ok := slices.BinarySearchFunc(pm.writers, proc, cmpWindowProc); ok {
		return &pm.writers[i]
	}
	return nil
}

// ivalDiff is one stored diff of a page: the writer's interval and its
// modifications. cover is the later interval whose diff superseded this one
// (supersede), 0 while it keeps its bytes; it fills the padding after Ival.
type ivalDiff struct {
	Ival  int32
	cover int32
	Diff  wcollect.Diff
}

// coverReach is how many of a page's latest stored diffs a new diff is
// checked against for cover, which bounds the check's cost on pages with
// long histories. A writer that alternates word sets on a page (SOR's red
// and black halves of one row) covers the diff two back; a diff whose words
// stop changing leaves the older diffs that carried them to a later one.
// Paper-scale SOR+ on 8 processors ends its run storing 186 MiB of diffs
// (wire size) with none dropped, 40 MiB with a reach of 4, 33 with 8, and 27
// when every stored diff is checked.
const coverReach = 8

// supersede drops the bytes of each of ds's last coverReach diffs that d, the
// writer's newly harvested diff of interval ival, covers. The caller checks
// that ival is at or below the node's watermark: every fetch still to come
// is keyed to a vector that holds ival's write notice, so a window that
// holds a dropped diff reaches its cover too, and the miss installs the
// cover after it (DESIGN.md "Twins and diffs").
func supersede(ds []ivalDiff, ival int32, d wcollect.Diff) {
	for i := len(ds) - 1; i >= max(len(ds)-coverReach, 0); i-- {
		if ds[i].cover == 0 && d.Covers(ds[i].Diff) {
			ds[i].Diff, ds[i].cover = ds[i].Diff.Drop(), ival
		}
	}
}

func cmpDiffInterval(d ivalDiff, ival int32) int { return cmp.Compare(d.Ival, ival) }

// Fetch-request slot conventions (PayloadPageReq): A is the page, B the
// highest interval of the responder already applied locally, and C bounds
// the reply to intervals the requester holds write notices for —
// modifications from the responder's later intervals have not been
// "released" to the requester yet and must not travel early.

// pageReply is the typed Body of a kindFetchReply message. Bodies are
// recycled: the requester hands each one back to the node that served it
// (release) once it has applied the contents. The body owns the Stamped
// slices and their arena and keeps their capacity between replies.
type pageReply struct {
	owner *Node
	// Diffs (Diffs collection) aliases the window of the page's diffs at
	// the server the request named. While a reply is outstanding they are
	// only appended to, or lose the bytes of a diff whose cover lies in the
	// same window (supersede); the collector compacts them at barrier
	// quiescence, when no processor is inside an access miss.
	Diffs   []ivalDiff
	Stamped wcollect.StampedData // Timestamps collection
	arena   wcollect.Arena       // backs Stamped.Data
}

// BodyKind implements fabric.Body.
func (*pageReply) BodyKind() fabric.PayloadKind { return fabric.PayloadPageReply }

// newReply takes a reply body from this node's free list, or grows it.
func (n *Node) newReply() *pageReply {
	if k := len(n.freeReplies); k > 0 {
		r := n.freeReplies[k-1]
		n.freeReplies = n.freeReplies[:k-1]
		return r
	}
	return &pageReply{owner: n}
}

// release returns a consumed reply body to its server's free list.
func (r *pageReply) release() {
	r.Diffs = nil
	r.Stamped.Reset()
	r.arena.Release()
	r.owner.freeReplies = append(r.owner.freeReplies, r)
}

// noticeBody is the write-notice set riding with lock grants, barrier
// arrivals and barrier departures: the interval records the receiver's
// vector does not cover. The sender's vector travels in the payload's Vec
// slot alongside it. Bodies are recycled like fetch replies: the receiver
// hands each one back to the node that built it once it has taken the
// contents.
type noticeBody struct {
	owner   *Node
	records []*interval
	// minVec rides only on tree fan-in subtree arrivals: the elementwise
	// minimum vector over the subtree's members. The parent keys each
	// member-covering departure to it, while the payload Vec slot carries
	// the elementwise maximum for vector merging.
	minVec []int32
}

// BodyKind implements fabric.Body.
func (*noticeBody) BodyKind() fabric.PayloadKind { return fabric.PayloadNoticeSet }

// newNotices takes a notice body for records from this node's free list, or
// grows it.
func (n *Node) newNotices(records []*interval) *noticeBody {
	if k := len(n.freeNotices); k > 0 {
		b := n.freeNotices[k-1]
		n.freeNotices = n.freeNotices[:k-1]
		b.records = records
		return b
	}
	return &noticeBody{owner: n, records: records}
}

// release returns a consumed notice body to its sender's free list. It
// drops its slices first, so a recycled body pins no record the collector
// prunes later.
func (b *noticeBody) release() {
	b.records, b.minVec = nil, nil
	b.owner.freeNotices = append(b.owner.freeNotices, b)
}

// pendingWriter is one processor with unfetched write notices for a page.
type pendingWriter struct {
	proc  int
	since int32
	upTo  int32
	reply *pageReply // backs this writer's timestamp units until they are applied
}

// applyUnit is one writer interval's modifications, the happens-before
// ordering unit of an access miss: a diff, or stamped runs and their data.
type applyUnit struct {
	proc int
	ival int32
	diff wcollect.Diff
	dr   []wcollect.DataRun
	sr   []wcollect.StampRun
}

// unitKey is the sort key of units[i] in an access miss (see orderUnits).
// The units arrive in (proc, ival) order, so i stands for that tie-break,
// and sorting these keys instead of the units moves 16 bytes per swap.
type unitKey struct {
	sum int64
	i   int
}

func cmpUnitKey(a, b unitKey) int { return cmp.Or(cmp.Compare(a.sum, b.sum), cmp.Compare(a.i, b.i)) }

// Node is one processor's LRC engine. It implements core.DSM.
type Node struct {
	nodebase.Base

	cur int32 // index of the currently open interval
	vec []int32

	// The interval records this node holds are (floor[q], held[q]] of writer
	// q's log in hist. held[q] equals vec[q] once a batch of notices is in;
	// floor[q] is 0 until the collector prunes (gc.go).
	hist        *History
	floor, held []int32
	noticeBytes int64 // wire size of the held records and of this node's stored diffs

	meta      []*pageMeta // indexed by page, nil until first touched
	openPages []int       // pages modified in the open interval (twinning), in fault order

	pack wcollect.LRCPacking // Timestamps: (processor, interval) → stamp for this cell

	// barrier bookkeeping
	lastBarrierSent int32 // own interval records up to this index were pushed at a barrier
	// watermark is lastBarrierSent as of this node's last barrier departure:
	// every fetch still to come is keyed to a vector that covers the node's
	// records up to it.
	watermark   int32
	arrivalVecs map[int][]int32     // manager: vector received from each arriver
	arrivalRecs map[int][]*interval // manager: buffered records, absorbed at departure
	arrivalMins map[int][]int32     // tree fan-in: subtree min vector per child arrival

	// accessMiss scratch, reused across misses (a node has one miss
	// outstanding at a time): the pending writers, the fetched units, their
	// application order, and one reply rendezvous per parallel fetch.
	missWriters  []pendingWriter
	missUnits    []applyUnit
	missOrder    []unitKey
	fetchWaiters []*sim.Waiter

	freeReplies []*pageReply  // fetch-reply bodies this node served, returned for reuse
	freeNotices []*noticeBody // notice bodies this node sent, returned for reuse

	gc        *GC           // shared notice-history collector, nil when GC is off
	diffFloor map[int]int32 // per-page diff kill floor at this writer (GC only)
}

// New builds the LRC node for processor p with a zeroed private image and a
// private interval-record log. impl.Model must be core.LRC.
func New(p *sim.Proc, net *fabric.Network, al *mem.Allocator, nprocs int, impl core.Impl) *Node {
	return NewWithImage(p, net, al, nprocs, impl, mem.NewImage(al.Size()), NewHistory(nprocs))
}

// NewWithImage is New with a caller-provided private image, holding the
// initial shared memory before the simulation starts, and the
// run's interval-record log: every node of a run should share one, made by
// NewHistory(nprocs).
func NewWithImage(p *sim.Proc, net *fabric.Network, al *mem.Allocator, nprocs int, impl core.Impl, im *mem.Image, hist *History) *Node {
	if impl.Model != core.LRC || !impl.Valid() {
		panic(fmt.Sprintf("lrc: bad implementation %v", impl))
	}
	n := &Node{
		cur:         1,
		vec:         make([]int32, nprocs),
		hist:        hist,
		meta:        make([]*pageMeta, al.Pages()),
		arrivalVecs: make(map[int][]int32),
		arrivalRecs: make(map[int][]*interval),
	}
	n.setWriters(nprocs)
	// vec[q] is the highest CLOSED interval of q whose write notices this
	// node holds; the open interval (index cur) is not covered until it
	// closes. Initially nothing is closed anywhere.
	n.InitWithImage(p, net, al, impl, nprocs, im)
	n.AttachSync((*lockHooks)(n), (*barrierHooks)(n), (*fetchServer)(n))
	if impl.Collect == core.Timestamps {
		n.pack = wcollect.NewLRCPacking(nprocs)
	}
	if impl.Trap == core.Twinning {
		// All shared pages start write-protected so first writes twin.
		for pg := 0; pg < al.Pages(); pg++ {
			n.MMU.SetProt(pg, vm.ReadOnly)
		}
	}
	n.MMU.SetHandler(n.onFault)
	return n
}

// Bind implements core.DSM: LRC has no lock/data association; no-op.
func (n *Node) Bind(l core.LockID, rs ...mem.Range) {}

// Rebind implements core.DSM: no-op under LRC.
func (n *Node) Rebind(l core.LockID, rs ...mem.Range) {}

// Acquire implements core.DSM.
func (n *Node) Acquire(l core.LockID) {
	n.Flush()
	// An acquire begins a new interval (Section 5.1).
	n.Work(trace.ObjNone, -1, n.closeInterval())
	n.Lock(l, syncmgr.Exclusive)
}

// AcquireRead implements core.DSM: LRC provides exclusive locks only; the
// paper's LRC programs never need read-only locks (Section 3.2).
func (n *Node) AcquireRead(l core.LockID) { n.Acquire(l) }

// AcquireForRebind implements core.DSM: LRC has no lock/data association,
// so this is an ordinary acquire.
func (n *Node) AcquireForRebind(l core.LockID) { n.Acquire(l) }

// fetchServer serves LRC's own message kind, the page fetch, for the
// node's message handler (nodebase.Server). handleFetch is not idempotent:
// a replayed fetch request would charge the owner's CPU and the link twice
// for the same page, so like the lock and barrier endpoints it relies on
// exactly-once in-order delivery.
type fetchServer Node

// Serve implements nodebase.Server.
func (f *fetchServer) Serve(hc *fabric.HandlerCtx, m fabric.Msg) bool {
	if m.Kind != kindFetchReq {
		return false
	}
	(*Node)(f).handleFetch(hc, m)
	return true
}

func (n *Node) pageMeta(pg int) *pageMeta {
	pm := n.meta[pg]
	if pm == nil {
		pm = &n.hist.metas.Carve(1)[0]
		pm.closedIval = -1
		n.meta[pg] = pm
	}
	return pm
}

// sentVec returns a copy of the node's vector for a message to carry. The
// copy comes from the run's vector chunk: its receiver reads it on delivery,
// or holds it until it grants the queued lock request or the barrier's next
// episode replaces the arrival.
func (n *Node) sentVec() []int32 {
	v := n.hist.vecs.Carve(len(n.vec))
	copy(v, n.vec)
	return v
}

// --- interval management -------------------------------------------------

// closeInterval ends the open interval if it modified anything: it records
// the write notices and prepares the modified pages for collection. Returns
// the CPU cost.
func (n *Node) closeInterval() sim.Time {
	var pages []int
	var work sim.Time
	self := n.P.ID()

	switch n.Impl.Trap {
	case core.CompilerInstr:
		pages = n.DB.DirtyPages()
		for _, pg := range pages {
			// Hierarchical collection: scan word bits of dirty pages only,
			// stamping the modified blocks now (ci implies timestamps).
			runs, scanned := n.DB.CollectPage(pg)
			work += sim.Time(scanned) * n.CM.WordScan
			n.Stamps.Set(runs, n.pack.Stamp(self, int(n.cur)))
			if n.Tr != nil {
				n.Tr.Collect(n.P.Now(), self, trace.DomainPage, pg, int(n.cur), mem.Words(runs))
			}
			n.DB.ResetPage(pg)
		}
	case core.Twinning:
		// openPages holds each page once (a page write-faults at most once
		// per interval); ownership of the slice moves to the interval record.
		pages = n.openPages
		n.openPages = nil
		sort.Ints(pages)
		for _, pg := range pages {
			pm := n.pageMeta(pg)
			if pm.closedIval >= 0 {
				panic("lrc: open and closed twin on one page")
			}
			pm.closedIval = n.cur
			// Re-protect so the next write starts a fresh epoch; the twin
			// stays for lazy diff creation.
			n.MMU.SetProt(pg, vm.ReadOnly)
			work += n.CM.MProtect
		}
	}

	if len(pages) == 0 {
		return work
	}
	rec := newInterval(self, n.cur, n.vec, pages)
	n.hist.add(rec)
	n.held[self] = n.cur
	n.noticeBytes += int64(rec.wire)
	n.vec[self] = n.cur
	n.cur++
	return work
}

// harvestPage forces collection of this processor's closed-but-unharvested
// modifications to page pg (lazy diffing's deferred work). Returns CPU cost.
func (n *Node) harvestPage(pg int) sim.Time {
	pm := n.pageMeta(pg)
	if pm.closedIval < 0 {
		return 0
	}
	ival := pm.closedIval
	pm.closedIval = -1
	if n.Impl.Trap != core.Twinning {
		return 0 // compiler instrumentation stamps at interval close
	}
	runs, cmp := n.Twins.Compare(pg)
	n.Twins.Drop(pg)
	work := sim.Time(cmp) * n.CM.WordCompare
	switch n.Impl.Collect {
	case core.Timestamps:
		n.Stamps.Set(runs, n.pack.Stamp(n.P.ID(), int(ival)))
	case core.Diffs:
		d := wcollect.BuildDiff(n.Im, runs)
		if ival <= n.watermark {
			supersede(pm.diffs, ival, d)
		}
		pm.diffs = append(pm.diffs, ivalDiff{Ival: ival, Diff: d})
		n.noticeBytes += int64(d.WireSize())
		n.Tally.DiffsCreated++
		work += sim.Time(d.Words()) * n.CM.WordCopy
	}
	if n.Tr != nil {
		n.Tr.Collect(n.P.Now(), n.P.ID(), trace.DomainPage, pg, int(ival), mem.Words(runs))
	}
	return work
}

// --- write notice application --------------------------------------------

// absorb installs a batch of interval records received with a grant or a
// barrier departure: it takes them into the node's held range, invalidates
// the named pages, and merges the sender's vector. Every batch arrives in
// (proc, idx) order, so each writer's held range grows by one record at a
// time: collectNotices, MakeArrival and MergeSubtreeArrival all build it so.
// Records for intervals already held are skipped; a record past the next one
// a writer's held range can take is a gap in the history, which the protocol
// never sends.
func (n *Node) absorb(records []*interval, senderVec []int32) sim.Time {
	var work sim.Time
	self := n.P.ID()
	for _, rec := range records {
		q, idx := rec.proc, rec.idx
		if q == self || idx > n.floor[q] && idx <= n.held[q] {
			continue
		}
		if idx <= n.floor[q] {
			// A collected interval must never come back: its diffs are gone.
			// The floor proof says this cannot happen; count it if it does.
			n.gc.report.Violations++
			continue
		}
		if idx != n.held[q]+1 {
			panic(fmt.Sprintf("lrc: proc %d: gap in writer %d's records: holds up to %d, received %d", self, q, n.held[q], idx))
		}
		if idx > n.hist.top(q) {
			n.hist.add(rec) // a private log learns the record here
		} else if n.hist.at(q, idx) != rec {
			panic(fmt.Sprintf("lrc: proc %d: record (%d,%d) differs from the log's", self, q, idx))
		}
		n.held[q] = idx
		n.noticeBytes += int64(rec.wire)
		for _, pg := range rec.pages {
			pm := n.pageMeta(pg)
			if w := pm.window(int32(rec.proc), &n.hist.windows); w.noticed < rec.idx {
				w.noticed = rec.idx
			}
			// A write notice for a page we have pending modifications on
			// forces the diff/stamps out of the twin first, so the twin
			// comparison never sees the other writers' data.
			work += n.harvestPage(pg)
			if n.MMU.Prot(pg) != vm.NoAccess {
				n.MMU.SetProt(pg, vm.NoAccess)
				work += n.CM.MProtect
			}
		}
	}
	if senderVec != nil {
		for q := range n.vec {
			if q != self && senderVec[q] > n.vec[q] {
				n.vec[q] = senderVec[q]
			}
		}
	}
	return work
}

// setWriters sizes the node's per-writer record indices for nprocs writers.
func (n *Node) setWriters(nprocs int) {
	idx := make([]int32, 2*nprocs)
	n.floor, n.held = idx[:nprocs:nprocs], idx[nprocs:]
}

// record returns processor proc's interval record idx, or nil if this node
// does not hold it.
func (n *Node) record(proc int, idx int32) *interval {
	if idx <= n.floor[proc] || idx > n.held[proc] {
		return nil
	}
	return n.hist.at(proc, idx)
}

// recordsAfter returns the records of q this node holds with index beyond
// bound.
func (n *Node) recordsAfter(q int, bound int32) []*interval {
	lo, hi := max(bound, n.floor[q]), n.held[q]
	if lo >= hi {
		return nil
	}
	return n.hist.span(q, lo, hi)
}

// collectNotices gathers every record this node knows that the peer's
// vector does not cover, in (proc, idx) order. A node's own vector covers
// every record it holds (absorb merges the sender's vector with each batch),
// so processors the peer is level with are skipped on the vectors alone.
// The result is sized in a first pass: grown by append, grant-time garbage
// was a fifth of a large cell's allocations.
func (n *Node) collectNotices(peerVec []int32) (out []*interval, size int) {
	total := 0
	for q, bound := range peerVec {
		if bound < n.vec[q] {
			total += len(n.recordsAfter(q, bound))
		}
	}
	if total == 0 {
		return nil, 0
	}
	out = make([]*interval, 0, total)
	for q, bound := range peerVec {
		if bound < n.vec[q] {
			for _, rec := range n.recordsAfter(q, bound) {
				out = append(out, rec)
				size += rec.wire
			}
		}
	}
	return out, size
}

// --- fault handling and data fetch ----------------------------------------

func (n *Node) onFault(a mem.Addr, write bool) {
	pg := mem.PageOf(a)
	switch n.MMU.Prot(pg) {
	case vm.NoAccess:
		n.accessMiss(pg, write)
	case vm.ReadOnly:
		if !write {
			panic("lrc: read fault on readable page")
		}
		n.writeTwinFault(pg)
	default:
		panic("lrc: fault on accessible page")
	}
}

// writeTwinFault handles the first write to a clean page under twinning. If
// a closed interval's twin is still pending for the page, its diff must be
// extracted before re-twinning for the new interval.
func (n *Node) writeTwinFault(pg int) {
	n.TwinFault(pg, n.harvestPage(pg))
	n.openPages = append(n.openPages, pg)
}

// accessMiss resolves an invalid page: fetch the missing modifications from
// every writer with outstanding write notices, apply them in happens-before
// order, and re-validate the page.
func (n *Node) accessMiss(pg int, write bool) {
	n.Tally.AccessMisses++
	n.Work(trace.ObjPage, pg, n.CM.ProtFault)
	n.Flush()
	pm := n.pageMeta(pg)

	writers := n.missWriters[:0]
	for _, w := range pm.writers { // ascending proc order: the slice is sorted
		if w.noticed > w.applied {
			writers = append(writers, pendingWriter{proc: int(w.proc), since: w.applied, upTo: w.noticed})
		}
	}
	n.missWriters = writers[:0]
	if len(writers) == 0 {
		panic(fmt.Sprintf("lrc: proc %d: invalid page %d with no pending notices", n.P.ID(), pg))
	}
	n.Tr.Miss(n.P.Now(), n.P.ID(), pg, len(writers), write)

	// Parallel requests, as TreadMarks issues its diff requests.
	if grow := len(writers) - len(n.fetchWaiters); grow > 0 {
		ws := sim.NewWaiters(n.P, grow)
		for i := range ws {
			n.fetchWaiters = append(n.fetchWaiters, &ws[i])
		}
	}
	for i, w := range writers {
		req := fabric.Payload{Kind: fabric.PayloadPageReq, A: int32(pg), B: w.since, C: w.upTo}
		n.Net.CallAsync(n.P, n.fetchWaiters[i], w.proc, kindFetchReq, 12, req)
	}
	// Each reply becomes one run of units, ascending by interval.
	units := n.missUnits[:0]
	for i := range writers {
		w := &writers[i]
		reply := n.Net.Await(n.fetchWaiters[i], sim.ForPage(pg))
		fr := reply.Payload.Body.(*pageReply)
		switch n.Impl.Collect {
		case core.Diffs:
			for _, idf := range fr.Diffs { // the server's diffs are in interval order
				if idf.cover > w.upTo {
					panic(fmt.Sprintf("lrc: proc %d: page %d: writer %d's diff %d was dropped for its cover %d, past the fetch window (%d, %d]",
						n.P.ID(), pg, w.proc, idf.Ival, idf.cover, w.since, w.upTo))
				}
				units = append(units, applyUnit{proc: w.proc, ival: idf.Ival, diff: idf.Diff})
			}
		case core.Timestamps:
			units = splitStamped(units, n.pack, w.proc, &fr.Stamped)
		}
		w.reply = fr
	}
	n.missUnits = units[:0]

	n.missOrder = n.orderUnits(n.missOrder, units)
	words := 0
	for _, k := range n.missOrder {
		u := &units[k.i]
		var w int
		if n.Stamps != nil {
			w = wcollect.ApplyRuns(n.Im, u.dr)
			n.Stamps.ApplyStamps(u.sr)
		} else {
			w = u.diff.Apply(n.Im)
		}
		n.Tr.Apply(n.P.Now(), n.P.ID(), trace.DomainPage, pg, u.proc, w)
		words += w
	}
	n.Work(trace.ObjPage, pg, sim.Time(words)*n.CM.WordApply)

	for _, w := range writers {
		w.reply.release()
		// Record exactly what was fetched: notices that arrived after the
		// requests went out remain pending.
		if win := pm.find(int32(w.proc)); win != nil && w.upTo > win.applied {
			win.applied = w.upTo
		}
	}
	// The scratch must not pin diffs and records the collector prunes later.
	clear(units)
	clear(writers)
	// Re-validate. Under twinning the page stays write-protected so the
	// next write twins it; a write miss twins immediately.
	prot := vm.ReadWrite
	if n.Impl.Trap == core.Twinning {
		prot = vm.ReadOnly
	}
	n.MMU.SetProt(pg, prot) // re-validate before the charge may flush
	n.Work(trace.ObjPage, pg, n.CM.MProtect)
	if prot == vm.ReadOnly && write {
		n.writeTwinFault(pg)
	}
}

// orderUnits returns, in order[:0], the happens-before application order of
// an access miss's units, which arrive as one ascending run per writer in
// ascending processor order. Unit a must precede b when the vector b closed
// with covers a's interval. That vector then covers a's and exceeds it in
// a's own entry, so Σ vec strictly increases along happens-before, and one
// sort on (sum, proc, ival) is a linear extension with no cycle to detect.
// A unit whose record this node does not hold takes its writer's previous
// key in this miss, or 0, which keeps the writer's order and gives it no
// cross-writer predecessors. Concurrent units touch disjoint words (they
// arise only from multi-writer false sharing), so their relative order
// matters only for determinism.
func (n *Node) orderUnits(order []unitKey, units []applyUnit) []unitKey {
	order = slices.Grow(order[:0], len(units))
	var key int64
	for i := range units {
		u := &units[i]
		if i > 0 && units[i-1].proc != u.proc {
			key = 0
		}
		if rec := n.record(u.proc, u.ival); rec != nil {
			key = rec.sum
		}
		order = append(order, unitKey{sum: key, i: i})
	}
	slices.SortFunc(order, cmpUnitKey)
	return order
}

// stampedByInterval sorts a timestamp reply's parallel run arrays by stamp,
// in lock step. All stamps of one reply name the same processor, which takes
// a stamp's high bits, so stamp order is interval order.
type stampedByInterval wcollect.StampedData

func (s *stampedByInterval) Len() int           { return len(s.Runs) }
func (s *stampedByInterval) Less(i, j int) bool { return s.Runs[i].Stamp < s.Runs[j].Stamp }
func (s *stampedByInterval) Swap(i, j int) {
	s.Runs[i], s.Runs[j] = s.Runs[j], s.Runs[i]
	s.Data[i], s.Data[j] = s.Data[j], s.Data[i]
}

// splitStamped appends one unit per interval of writer proc's timestamp
// reply, ascending by interval. The reply arrives in address order with
// Data[k] carrying the bytes of Runs[k]; a stable sort by interval (the
// requester owns the reply's arrays) makes each interval's runs contiguous
// and keeps them in address order, so a unit is a pair of subslices.
func splitStamped(units []applyUnit, pk wcollect.LRCPacking, proc int, sd *wcollect.StampedData) []applyUnit {
	sort.Stable((*stampedByInterval)(sd))
	for k := 0; k < len(sd.Runs); {
		p, iv := pk.Unpack(sd.Runs[k].Stamp)
		if p != proc {
			panic("lrc: responder sent foreign stamps")
		}
		end := k + 1
		for end < len(sd.Runs) && sd.Runs[end].Stamp == sd.Runs[k].Stamp {
			end++
		}
		units = append(units, applyUnit{proc: p, ival: int32(iv), sr: sd.Runs[k:end], dr: sd.Data[k:end]})
		k = end
	}
	return units
}

// handleFetch serves a data request for one page. With diffs, the diff is
// created once (lazily, now if necessary) and returned immediately on later
// requests; with timestamps, every request pays a fresh scan of the page's
// timestamps (the computation-overhead asymmetry of Section 5.3).
func (n *Node) handleFetch(hc *fabric.HandlerCtx, m fabric.Msg) {
	pg, since, upTo := int(m.Payload.A), m.Payload.B, m.Payload.C
	if n.diffFloor != nil && since < n.diffFloor[pg] {
		// The requester's window reaches below the kill floor: it would need
		// diffs the collector already discarded. Must be unreachable.
		n.gc.report.Violations++
	}
	fwork := n.harvestPage(pg) // lazy collection happens at first request
	n.Tr.Work(hc.Now(), n.P.ID(), trace.WorkTrapDiff, trace.ObjPage, pg, fwork)
	hc.Work(fwork)

	reply := n.newReply()
	size := 0
	switch n.Impl.Collect {
	case core.Diffs:
		ds := n.pageMeta(pg).diffs // in interval order: the window is one subslice
		lo, _ := slices.BinarySearchFunc(ds, since+1, cmpDiffInterval)
		cnt, _ := slices.BinarySearchFunc(ds[lo:], upTo+1, cmpDiffInterval)
		reply.Diffs = ds[lo : lo+cnt]
		for _, idf := range reply.Diffs {
			size += idf.Diff.WireSize()
		}
	case core.Timestamps:
		pageRange := []mem.Range{{Base: mem.PageBase(pg), Len: mem.PageSize}}
		var scanned int
		reply.Stamped.Runs, scanned = wcollect.AppendSelect(reply.Stamped.Runs, n.Stamps, pageRange,
			n.pack.Window(n.P.ID(), since, upTo))
		n.Tr.Work(hc.Now(), n.P.ID(), trace.WorkTrapDiff, trace.ObjPage, pg, sim.Time(scanned)*n.CM.WordScan)
		hc.Work(sim.Time(scanned) * n.CM.WordScan)
		reply.Stamped.Extract(n.Im, &reply.arena)
		size = reply.Stamped.WireSize(wcollect.LRCStampBytes)
		n.Tally.StampRunsSent += int64(len(reply.Stamped.Runs))
	}
	n.Tr.FetchServe(hc.Now(), n.P.ID(), pg, m.From, size)
	hc.Reply(m, kindFetchReply, size, fabric.Payload{Kind: fabric.PayloadPageReply, Body: reply})
}

// --- syncmgr lock hooks ----------------------------------------------------

type lockHooks Node

func (h *lockHooks) node() *Node { return (*Node)(h) }

// MakeLockRequest attaches the requester's interval vector.
func (h *lockHooks) MakeLockRequest(l core.LockID, mode syncmgr.Mode) (fabric.Payload, int) {
	n := h.node()
	v := n.sentVec()
	return fabric.Payload{Vec: v}, 4 * len(v)
}

// MakeLockGrant closes the granter's interval and piggybacks the write
// notices the requester's vector does not cover.
func (h *lockHooks) MakeLockGrant(l core.LockID, mode syncmgr.Mode, req fabric.Payload, requester int) (fabric.Payload, int, sim.Time) {
	n := h.node()
	work := n.closeInterval()
	records, size := n.collectNotices(req.Vec)
	v := n.sentVec()
	return fabric.Payload{Vec: v, Body: n.newNotices(records)}, size + 4*len(v), work
}

// ApplyLockGrant installs the piggybacked write notices and invalidates.
func (h *lockHooks) ApplyLockGrant(l core.LockID, mode syncmgr.Mode, payload fabric.Payload) sim.Time {
	return h.node().absorbBody(payload)
}

// LocalReacquire begins a new interval even without communication, so local
// write epochs remain distinguishable.
func (h *lockHooks) LocalReacquire(l core.LockID, mode syncmgr.Mode) {
	// The interval was already closed by Node.Acquire before the lock
	// manager ran; nothing further is needed.
}

// --- syncmgr barrier hooks --------------------------------------------------

type barrierHooks Node

func (h *barrierHooks) node() *Node { return (*Node)(h) }

// MakeArrival closes the interval and sends the manager this processor's
// vector (the payload Vec slot) plus its own interval records created since
// the last barrier (a noticeBody).
func (h *barrierHooks) MakeArrival(b core.BarrierID) (fabric.Payload, int, sim.Time) {
	n := h.node()
	work := n.closeInterval()
	self := n.P.ID()
	recs := n.recordsAfter(self, n.lastBarrierSent)
	size := 4 * len(n.vec)
	for _, r := range recs {
		size += r.wire
	}
	n.lastBarrierSent = n.cur - 1
	v := n.sentVec()
	return fabric.Payload{Vec: v, Body: n.newNotices(recs)}, size, work
}

// AbsorbArrival buffers one arrival at the manager. The records are merged
// into the manager's consistency state only at PrepareDepartures: until then
// the manager may still be computing, and applying write notices mid-
// interval would invalidate pages under its feet.
func (h *barrierHooks) AbsorbArrival(b core.BarrierID, from int, payload fabric.Payload) sim.Time {
	n := h.node()
	n.arrivalVecs[from] = payload.Vec
	body := payload.Body.(*noticeBody)
	if from != n.P.ID() {
		n.arrivalRecs[from] = body.records
		if body.minVec != nil {
			if n.arrivalMins == nil {
				n.arrivalMins = make(map[int][]int32)
			}
			n.arrivalMins[from] = body.minVec
		} else if n.arrivalMins != nil {
			delete(n.arrivalMins, from)
		}
	}
	body.release()
	return 0
}

// MergeSubtreeArrival implements syncmgr.TreeBarrierHooks: fold the child
// subtree arrivals buffered by AbsorbArrival into this node's own arrival.
// The merged record set is the union (each processor's records travel up
// exactly one tree path, so the sets are disjoint by writer); the payload
// Vec becomes the subtree's elementwise-max vector (what absorbing merges)
// and the body's minVec its elementwise-min (what departures must cover).
// Children are folded in ascending processor order to keep runs replayable.
func (h *barrierHooks) MergeSubtreeArrival(b core.BarrierID, own fabric.Payload) (fabric.Payload, int, sim.Time) {
	n := h.node()
	maxVec := own.Vec // MakeArrival already returns a private copy
	minVec := n.hist.vecs.Carve(len(maxVec))
	copy(minVec, maxVec)
	// Own records alias the log; the union must not append in place.
	ownBody := own.Body.(*noticeBody)
	records := append([]*interval(nil), ownBody.records...)
	ownBody.release()
	for from := 0; from < n.NProcs(); from++ {
		recs, ok := n.arrivalRecs[from]
		if !ok {
			continue
		}
		records = append(records, recs...)
		delete(n.arrivalRecs, from)
		cv := n.arrivalVecs[from]
		mv := n.arrivalMins[from]
		if mv == nil {
			mv = cv // leaf child: its own vector is its subtree min
		}
		for q := range minVec {
			if mv[q] < minVec[q] {
				minVec[q] = mv[q]
			}
			if cv[q] > maxVec[q] {
				maxVec[q] = cv[q]
			}
		}
	}
	// The children's subtrees interleave with each other and with this
	// node's own records: put the union in the (proc, idx) order absorb takes.
	slices.SortFunc(records, cmpInterval)
	size := 8 * len(maxVec) // max and min vectors
	for _, r := range records {
		size += r.wire
	}
	body := n.newNotices(records)
	body.minVec = minVec
	return fabric.Payload{Vec: maxVec, Body: body}, size, 0
}

// PrepareDepartures runs at the manager once everyone (itself included) has
// arrived: the buffered records are merged and the pages they name are
// invalidated locally.
func (h *barrierHooks) PrepareDepartures(b core.BarrierID) sim.Time {
	n := h.node()
	var work sim.Time
	for from := 0; from < n.NProcs(); from++ {
		recs, ok := n.arrivalRecs[from]
		if !ok {
			continue
		}
		work += n.absorb(recs, n.arrivalVecs[from])
		delete(n.arrivalRecs, from)
	}
	// The barrier is the machine's quiescent point: every processor is
	// blocked here and nothing carrying records is in flight, so this is
	// where collected intervals are provably dead (see gc.go).
	if n.gc != nil {
		n.gc.collect()
	}
	n.watermark = n.lastBarrierSent // the manager departs here
	return work
}

// MakeDeparture sends processor q every record it lacks.
func (h *barrierHooks) MakeDeparture(b core.BarrierID, to int) (fabric.Payload, int, sim.Time) {
	n := h.node()
	av := n.arrivalVecs[to]
	if mv, ok := n.arrivalMins[to]; ok {
		// Tree fan-in: the departure must cover everything ANY member of the
		// child's subtree lacks, so it is keyed to the subtree min vector.
		av = mv
	}
	records, size := n.collectNotices(av)
	v := n.sentVec()
	return fabric.Payload{Vec: v, Body: n.newNotices(records)}, size + 4*len(v), 0
}

// ApplyDeparture installs the departure's notices at a client.
func (h *barrierHooks) ApplyDeparture(b core.BarrierID, payload fabric.Payload) sim.Time {
	n := h.node()
	n.watermark = n.lastBarrierSent
	return n.absorbBody(payload)
}

// absorbBody absorbs the notices of a lock grant or barrier departure and
// hands the body back to its sender.
func (n *Node) absorbBody(payload fabric.Payload) sim.Time {
	body := payload.Body.(*noticeBody)
	work := n.absorb(body.records, payload.Vec)
	body.release()
	return work
}

var _ core.DSM = (*Node)(nil)
var _ syncmgr.LockHooks = (*lockHooks)(nil)
var _ syncmgr.BarrierHooks = (*barrierHooks)(nil)
var _ syncmgr.TreeBarrierHooks = (*barrierHooks)(nil)
var _ nodebase.Server = (*fetchServer)(nil)
