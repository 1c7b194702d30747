package trace

import (
	"sort"

	"ecvslrc/internal/mem"
	"ecvslrc/internal/sim"
)

// Meta carries the run identity and layout context the analyzer needs to
// attribute events: region names label pages, and the page count bounds the
// per-page tables.
type Meta struct {
	// App, Impl and Scale identify the run in report headers.
	App   string
	Impl  string
	Scale string
	// NProcs is the processor count of the traced run.
	NProcs int
	// Regions is the shared-memory layout (mem.Allocator.Regions), used to
	// name pages in the reports.
	Regions []mem.Region
	// Pages is the number of shared pages laid out.
	Pages int
}

// RegionOf names the region covering page pg, or "" when unallocated.
func (m Meta) RegionOf(pg int) string {
	a := mem.PageBase(pg)
	for _, r := range m.Regions {
		if a >= r.Base && a < r.Base+mem.Addr(r.Size) {
			return r.Name
		}
	}
	return ""
}

// Pattern is the sharing-pattern classification of one shared page, derived
// from its access-and-transfer history (see Classify for the rules).
type Pattern uint8

const (
	// PatternPrivate marks a page that never moved between processors.
	PatternPrivate Pattern = iota
	// PatternReadMostly marks a page written by at most one processor and
	// fetched predominantly for reading.
	PatternReadMostly
	// PatternMigratory marks a page whose multiple writers fetch it mostly
	// to write: ownership of the data migrates around the ring.
	PatternMigratory
	// PatternProducerConsumer marks a page with a stable writer set feeding
	// processors that fetch it to read.
	PatternProducerConsumer
	// PatternFalseSharing marks a page where concurrent writers modify
	// disjoint words: some access miss fetched modifications from two or
	// more writers at once (only the multi-writer LRC protocol exhibits it;
	// EC binds disjoint objects to distinct locks instead — Section 7.1).
	PatternFalseSharing
)

// String names the pattern as the reports print it.
func (p Pattern) String() string {
	switch p {
	case PatternPrivate:
		return "private"
	case PatternReadMostly:
		return "read-mostly"
	case PatternMigratory:
		return "migratory"
	case PatternProducerConsumer:
		return "producer-consumer"
	case PatternFalseSharing:
		return "false-sharing"
	}
	return "?"
}

// PageReport is the heat-and-history record of one shared page.
type PageReport struct {
	// Page is the page number; Region the covering allocation's name.
	Page   int
	Region string
	// Faults counts protection faults on the page; Misses the LRC access
	// misses among them (WriteMisses the write-access subset).
	Faults      int64
	Misses      int64
	WriteMisses int64
	// MultiWriterMisses counts misses that fetched from two or more writers
	// at once — the false-sharing signal.
	MultiWriterMisses int64
	// Twins counts twin creations; Collects harvests (diffs built or blocks
	// stamped); Applies installations of remote modifications.
	Twins    int64
	Collects int64
	Applies  int64
	// WordsCollected and WordsApplied total the harvested and installed
	// words attributed to the page.
	WordsCollected int64
	WordsApplied   int64
	// BytesMoved totals the wire bytes of data transfers attributed to the
	// page (fetch replies; EC grant payloads split over the bound pages).
	BytesMoved int64
	// Writers and Readers are the distinct processors that modified /
	// consumed the page; OwnerMoves counts writer-to-writer transitions in
	// time order (the migration count).
	Writers    int
	Readers    int
	OwnerMoves int64
	// Pattern is the sharing classification.
	Pattern Pattern
}

// LockReport aggregates one lock's contention history.
type LockReport struct {
	Lock int
	// Acquires counts completed acquisitions (ReadOnly the read subset,
	// Local the no-message reacquires, Remote the message-bearing ones).
	Acquires int64
	ReadOnly int64
	Local    int64
	Remote   int64
	// Grants counts grants served by any holder; BytesMoved their payload.
	Grants     int64
	BytesMoved int64
	// WaitTotal/WaitMax is request-to-acquire latency over remote acquires;
	// HandoffTotal/HandoffMax the grant-to-acquire (transfer install) slice
	// of it.
	WaitTotal    sim.Time
	WaitMax      sim.Time
	HandoffTotal sim.Time
	HandoffMax   sim.Time
	// MaxQueue is the deepest request queue observed at any release — the
	// instantaneous serialization depth.
	MaxQueue int
	// Holders is the number of distinct processors that acquired the lock.
	Holders int
	// Pages are the pages of the lock's bound ranges (EC only).
	Pages []int
}

// BarrierReport aggregates one barrier's episode history.
type BarrierReport struct {
	Barrier  int
	Episodes int64
	// ImbalanceTotal/ImbalanceMax is the spread between the first and last
	// arrival of each episode, the paper's load-imbalance signal.
	ImbalanceTotal sim.Time
	ImbalanceMax   sim.Time
	// LastProc is the processor that most often arrived last.
	LastProc int
}

// IntervalRow is one bucket of the message-class timeline: the run is split
// into equal time slices and traffic is tallied per class (MsgClassNames
// column order).
type IntervalRow struct {
	Start, End sim.Time
	Msgs       []int64
	Bytes      []int64
}

// LinkReport aggregates one directed link's fault-and-recovery history: the
// injector's losses and the reliable sublayer's responses, attributed to the
// data direction (acks travel the reverse path but count against the link
// whose data they acknowledge). Only traced runs under a fault plan produce
// these events.
type LinkReport struct {
	From, To    int
	Drops       int64
	Retransmits int64
	Acks        int64
	DupDrops    int64
}

// Analysis is the attribution summary of one traced run.
type Analysis struct {
	Meta Meta
	// Span is the last record's timestamp (the analyzed horizon), not
	// counting scheduler dispatch records.
	Span sim.Time
	// TotalMsgs/TotalBytes tally every send in the trace.
	TotalMsgs  int64
	TotalBytes int64
	// LinkWait totals contention-mode queueing delay (zero without
	// contention).
	LinkWait sim.Time
	// Pages holds one report per shared page, in page order.
	Pages []PageReport
	// Locks holds one report per lock, in lock order.
	Locks []LockReport
	// Barriers holds one report per barrier id, in id order.
	Barriers []BarrierReport
	// Intervals is the message-class timeline; Classes its column names.
	Intervals []IntervalRow
	Classes   []string
	// Links holds one report per directed link with fault activity, ordered
	// by (From, To); empty for fault-free runs.
	Links []LinkReport
}

// PatternCounts tallies the page classifications.
func (a *Analysis) PatternCounts() map[Pattern]int {
	out := make(map[Pattern]int)
	for _, p := range a.Pages {
		out[p.Pattern]++
	}
	return out
}

// DefaultIntervals is the bucket count of the message-class timeline.
const DefaultIntervals = 16

// procSet is a small distinct-processor set (at most MaxProcs members).
type procSet [4]uint64

func (s *procSet) add(p int)      { s[p>>6] |= 1 << (uint(p) & 63) }
func (s *procSet) has(p int) bool { return s[p>>6]&(1<<(uint(p)&63)) != 0 }
func (s *procSet) count() int {
	n := 0
	for _, w := range s {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// pageTally is the per-page accumulation state during the analysis pass.
type pageTally struct {
	rep        PageReport
	writers    procSet
	readers    procSet
	lastWriter int
	// readFetches/writeFetches count remote fetches of the page by access
	// mode (LRC misses; EC remote acquires of covering locks by mode).
	readFetches  int64
	writeFetches int64
}

// lockTally is the per-lock accumulation state.
type lockTally struct {
	rep     LockReport
	holders procSet
	// reqAt/grantAt hold the open request/grant timestamps per requester.
	reqAt   map[int]sim.Time
	grantAt map[int]sim.Time
	// readers/writers are the processors that acquired read-only vs
	// exclusively-with-harvest (used for the EC page projection); remoteRO
	// counts the remote read-only acquires among rep.Remote, exclGrants the
	// exclusive grants among rep.Grants (each one moves ownership).
	readers    procSet
	writers    procSet
	remoteRO   int64
	exclGrants int64
	// ranges are the deduplicated bound ranges (EC).
	ranges []mem.Range
}

// barTally is the per-barrier accumulation state.
type barTally struct {
	rep BarrierReport
	// open is the current episode: arrival times in arrival order.
	firstAt, lastAt sim.Time
	arrived         int
	lastProc        int
	lastCounts      map[int]int64
}

// Analyze runs the attribution pass over the trace: one linear scan of the
// canonical merged record order feeds the per-page, per-lock and per-barrier
// tallies, then the classifier labels every page. The result is a pure
// function of the trace and meta.
func Analyze(t *Tracer, meta Meta) *Analysis {
	recs := t.Merged()
	a := &Analysis{Meta: meta, Classes: MsgClassNames()}
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Kind != EvDispatch {
			a.Span = recs[i].At
			break
		}
	}

	pages := make(map[int]*pageTally)
	locks := make(map[int]*lockTally)
	bars := make(map[int]*barTally)
	links := make(map[int]*LinkReport)
	link := func(from, to int) *LinkReport {
		k := from<<16 | to
		lr := links[k]
		if lr == nil {
			lr = &LinkReport{From: from, To: to}
			links[k] = lr
		}
		return lr
	}
	page := func(pg int) *pageTally {
		pt := pages[pg]
		if pt == nil {
			pt = &pageTally{lastWriter: -1}
			pt.rep.Page = pg
			pages[pg] = pt
		}
		return pt
	}
	lock := func(l int) *lockTally {
		lt := locks[l]
		if lt == nil {
			lt = &lockTally{reqAt: make(map[int]sim.Time), grantAt: make(map[int]sim.Time)}
			lt.rep.Lock = l
			locks[l] = lt
		}
		return lt
	}
	bar := func(b int) *barTally {
		bt := bars[b]
		if bt == nil {
			bt = &barTally{lastCounts: make(map[int]int64), lastProc: -1}
			bt.rep.Barrier = b
			bars[b] = bt
		}
		return bt
	}

	for _, r := range recs {
		proc := int(r.Proc)
		switch r.Kind {
		case EvSend:
			a.TotalMsgs++
			a.TotalBytes += r.C
		case EvLinkWait:
			a.LinkWait += sim.Time(r.C)
		case EvDrop:
			link(proc, int(r.A)).Drops++
		case EvRetransmit:
			link(proc, int(r.A)).Retransmits++
		case EvAck:
			// Proc is the data sender hearing the ack; A the receiver that
			// generated it. Attribute to the data direction Proc -> A.
			link(proc, int(r.A)).Acks++
		case EvDupDrop:
			// Proc is the receiver discarding; A the sender. Data direction
			// is A -> Proc.
			link(int(r.A), proc).DupDrops++
		case EvFault:
			page(int(r.A)).rep.Faults++
		case EvMiss:
			pt := page(int(r.A))
			pt.rep.Misses++
			pt.readers.add(proc)
			if r.Write() {
				pt.rep.WriteMisses++
				pt.writeFetches++
			} else {
				pt.readFetches++
			}
			if r.B >= 2 {
				pt.rep.MultiWriterMisses++
			}
		case EvFetchServe:
			page(int(r.A)).rep.BytesMoved += r.C
		case EvTwin:
			if r.Domain() == DomainPage {
				page(int(r.A)).rep.Twins++
			}
		case EvCollect:
			if r.Domain() == DomainPage {
				pt := page(int(r.A))
				pt.rep.Collects++
				pt.rep.WordsCollected += r.C
				pt.noteWriter(proc)
			} else {
				lt := lock(int(r.A))
				lt.writers.add(proc)
			}
		case EvApply:
			if r.Domain() == DomainPage {
				pt := page(int(r.A))
				pt.rep.Applies++
				pt.rep.WordsApplied += r.C
			}
		case EvLockReq:
			lock(int(r.A)).reqAt[proc] = r.At
		case EvLockGrant:
			lt := lock(int(r.A))
			lt.rep.Grants++
			lt.rep.BytesMoved += r.C
			if !r.ReadOnlyMode() {
				lt.exclGrants++
			}
			lt.grantAt[int(r.B)] = r.At
		case EvLockAcq:
			lt := lock(int(r.A))
			lt.rep.Acquires++
			lt.holders.add(proc)
			ro := r.ReadOnlyMode()
			if ro {
				lt.rep.ReadOnly++
				lt.readers.add(proc)
			}
			if r.Local() {
				lt.rep.Local++
				break
			}
			lt.rep.Remote++
			if ro {
				lt.remoteRO++
			}
			if at, ok := lt.reqAt[proc]; ok {
				wait := r.At - at
				lt.rep.WaitTotal += wait
				if wait > lt.rep.WaitMax {
					lt.rep.WaitMax = wait
				}
				delete(lt.reqAt, proc)
			}
			if at, ok := lt.grantAt[proc]; ok {
				hand := r.At - at
				lt.rep.HandoffTotal += hand
				if hand > lt.rep.HandoffMax {
					lt.rep.HandoffMax = hand
				}
				delete(lt.grantAt, proc)
			}
		case EvLockRel:
			lt := lock(int(r.A))
			if q := int(r.B); q > lt.rep.MaxQueue {
				lt.rep.MaxQueue = q
			}
		case EvBarArrive:
			bt := bar(int(r.A))
			if bt.arrived == 0 {
				bt.firstAt = r.At
			}
			bt.arrived++
			bt.lastAt, bt.lastProc = r.At, proc
			if bt.arrived == meta.NProcs {
				bt.rep.Episodes++
				imb := bt.lastAt - bt.firstAt
				bt.rep.ImbalanceTotal += imb
				if imb > bt.rep.ImbalanceMax {
					bt.rep.ImbalanceMax = imb
				}
				bt.lastCounts[bt.lastProc]++
				bt.arrived = 0
			}
		case EvBind:
			lt := lock(int(r.A))
			r2 := mem.Range{Base: mem.Addr(r.B), Len: int(r.C)}
			dup := false
			for _, have := range lt.ranges {
				if have == r2 {
					dup = true
					break
				}
			}
			if !dup {
				lt.ranges = append(lt.ranges, r2)
			}
		}
	}

	a.buildIntervals(recs)

	// Project the EC lock-keyed history onto the pages of each lock's bound
	// ranges: grants that carried data are the page's transfers, exclusive
	// acquirers its writers, read-only acquirers its readers.
	lockIDs := sortedKeys(locks)
	for _, l := range lockIDs {
		lt := locks[l]
		var pgs []int
		seen := make(map[int]bool)
		for _, r := range lt.ranges {
			for _, pg := range r.Pages() {
				if !seen[pg] {
					seen[pg] = true
					pgs = append(pgs, pg)
				}
			}
		}
		sort.Ints(pgs)
		lt.rep.Pages = pgs
		if len(pgs) == 0 {
			continue
		}
		perPage := lt.rep.BytesMoved / int64(len(pgs))
		exclRemote := lt.rep.Remote - lt.remoteRO
		for _, pg := range pgs {
			pt := page(pg)
			pt.rep.BytesMoved += perPage
			for p := 0; p < meta.NProcs; p++ {
				if lt.writers.has(p) {
					pt.noteWriter(p)
				}
				if lt.readers.has(p) {
					pt.readers.add(p)
				}
			}
			pt.readFetches += lt.remoteRO
			pt.writeFetches += exclRemote
			pt.rep.OwnerMoves += lt.exclGrants
		}
	}

	// Every laid-out page gets a report (and so a classification), even the
	// untouched ones: "no transfer activity" is itself the private label.
	pageIDs := sortedKeys(pages)
	if meta.Pages > 0 {
		pageIDs = pageIDs[:0]
		for pg := 0; pg < meta.Pages; pg++ {
			pageIDs = append(pageIDs, pg)
		}
	}
	for _, pg := range pageIDs {
		pt := pages[pg]
		if pt == nil {
			pt = &pageTally{lastWriter: -1}
			pt.rep.Page = pg
		}
		pt.rep.Region = meta.RegionOf(pg)
		pt.rep.Writers = pt.writers.count()
		pt.rep.Readers = pt.readers.count()
		pt.rep.Pattern = classify(pt)
		a.Pages = append(a.Pages, pt.rep)
	}
	for _, l := range lockIDs {
		lt := locks[l]
		lt.rep.Holders = lt.holders.count()
		a.Locks = append(a.Locks, lt.rep)
	}
	for _, k := range sortedKeys(links) {
		a.Links = append(a.Links, *links[k])
	}
	for _, b := range sortedKeys(bars) {
		bt := bars[b]
		best, bestN := -1, int64(0)
		for p, n := range bt.lastCounts {
			if n > bestN || (n == bestN && (best < 0 || p < best)) {
				best, bestN = p, n
			}
		}
		bt.rep.LastProc = best
		a.Barriers = append(a.Barriers, bt.rep)
	}
	return a
}

// noteWriter records proc as a writer of the page and counts owner moves
// (writer-to-writer transitions in time order).
func (pt *pageTally) noteWriter(proc int) {
	pt.writers.add(proc)
	if pt.lastWriter >= 0 && pt.lastWriter != proc {
		pt.rep.OwnerMoves++
	}
	pt.lastWriter = proc
}

// classify labels one page from its tally. The rules, in order:
//
//  1. No remote transfer activity at all -> private.
//  2. Any multi-writer miss (one fetch installing two or more writers'
//     concurrent modifications) -> false-sharing.
//  3. At most one writer -> read-mostly when read fetches dominate write
//     fetches, producer-consumer otherwise (a single producer feeding
//     writers-to-be is still producer-consumer traffic).
//  4. Two or more writers -> migratory when at least half the fetches are
//     write fetches (the data moves to be written next), producer-consumer
//     otherwise.
func classify(pt *pageTally) Pattern {
	transfers := pt.rep.Misses + pt.readFetches + pt.writeFetches + pt.rep.BytesMoved
	if transfers == 0 {
		return PatternPrivate
	}
	if pt.rep.MultiWriterMisses > 0 {
		return PatternFalseSharing
	}
	if pt.writers.count() <= 1 {
		if pt.readFetches >= pt.writeFetches {
			return PatternReadMostly
		}
		return PatternProducerConsumer
	}
	if 2*pt.writeFetches >= pt.readFetches+pt.writeFetches {
		return PatternMigratory
	}
	return PatternProducerConsumer
}

// buildIntervals fills the message-class timeline from the send records.
func (a *Analysis) buildIntervals(recs []Rec) {
	n := DefaultIntervals
	if a.Span == 0 {
		return
	}
	width := (a.Span + sim.Time(n) - 1) / sim.Time(n)
	if width == 0 {
		width = 1
	}
	classes := len(a.Classes)
	rows := make([]IntervalRow, n)
	for i := range rows {
		rows[i] = IntervalRow{
			Start: sim.Time(i) * width,
			End:   sim.Time(i+1) * width,
			Msgs:  make([]int64, classes),
			Bytes: make([]int64, classes),
		}
	}
	for _, r := range recs {
		if r.Kind != EvSend {
			continue
		}
		i := int(r.At / width)
		if i >= n {
			i = n - 1
		}
		c := msgClassIndex(int(r.B))
		rows[i].Msgs[c]++
		rows[i].Bytes[c] += r.C
	}
	a.Intervals = rows
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
