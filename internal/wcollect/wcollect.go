// Package wcollect implements the paper's two write-collection mechanisms:
// timestamping (per-block logical timestamps; EC uses lock incarnation
// numbers, LRC uses (processor, interval) pairs — Section 5.1) and diffing
// (run-length-encoded records of changes — Section 5.2). It also defines the
// wire-size accounting for transmitted runs.
package wcollect

import (
	"fmt"

	"ecvslrc/internal/mem"
)

// Wire-format overheads, in bytes. A run header carries (address, length);
// an EC timestamp is one incarnation number per run; an LRC timestamp is a
// (processor, interval) pair per run; a diff carries one tag for the whole
// diff.
const (
	RunHeaderBytes  = 8
	ECStampBytes    = 4
	LRCStampBytes   = 8
	DiffHeaderBytes = 16
)

// DataRun is a contiguous span of shared data in transit: the run-length
// encoding unit of both diffs and timestamp responses.
type DataRun struct {
	Base mem.Addr
	Data []byte
}

// ExtractRuns copies the bytes of each changed range out of im. All runs
// share one backing array (a per-call arena): the extraction allocates twice
// regardless of run count, instead of once per run. Run lifetimes are
// unbounded (diffs are retained for later requesters), so the arena is owned
// by the result and never recycled.
func ExtractRuns(im *mem.Image, changed []mem.Range) []DataRun {
	runs, _ := extractRuns(im, changed)
	return runs
}

// extractRuns is ExtractRuns that also returns the runs' wire size: one run
// header per run plus the data.
func extractRuns(im *mem.Image, changed []mem.Range) (runs []DataRun, wire int) {
	runs = make([]DataRun, len(changed))
	if len(changed) == 0 {
		return runs, 0
	}
	total := 0
	for _, r := range changed {
		total += r.Len
	}
	backing := make([]byte, total)
	off := 0
	for i, r := range changed {
		b := backing[off : off+r.Len : off+r.Len]
		copy(b, im.Bytes()[r.Base:r.End()])
		runs[i] = DataRun{Base: r.Base, Data: b}
		off += r.Len
	}
	return runs, RunHeaderBytes*len(runs) + total
}

// ApplyRuns writes each run's bytes into im and returns the number of words
// applied (the apply cost basis).
func ApplyRuns(im *mem.Image, runs []DataRun) int {
	words := 0
	for _, r := range runs {
		copy(im.Bytes()[r.Base:int(r.Base)+len(r.Data)], r.Data)
		words += (len(r.Data) + mem.WordSize - 1) / mem.WordSize
	}
	return words
}

// Diff is a run-length encoding of the changes to an object (EC) or a page
// (LRC) during one execution interval.
type Diff struct {
	Runs []DataRun
	wire int // WireSize, fixed at creation: a diff is served many times
}

// BuildDiff captures the contents of the changed ranges from im.
func BuildDiff(im *mem.Image, changed []mem.Range) *Diff {
	runs, wire := extractRuns(im, changed)
	return &Diff{Runs: runs, wire: DiffHeaderBytes + wire}
}

// Apply copies the diff's runs into im, returning words applied.
func (d *Diff) Apply(im *mem.Image) int { return ApplyRuns(im, d.Runs) }

// Words returns the total data words carried.
func (d *Diff) Words() int {
	n := 0
	for _, r := range d.Runs {
		n += (len(r.Data) + mem.WordSize - 1) / mem.WordSize
	}
	return n
}

// WireSize returns the transmission size in bytes: a diff header plus one
// run header per run plus the data.
func (d *Diff) WireSize() int { return d.wire }

// Empty reports whether the diff carries no changes.
func (d *Diff) Empty() bool { return len(d.Runs) == 0 }

// Stamp is a per-block logical timestamp. For EC it holds the lock
// incarnation number; for LRC it packs (processor, interval).
type Stamp int64

// LRCStamp packs a processor id and an interval index.
func LRCStamp(proc, interval int) Stamp {
	return Stamp(int64(proc)<<40 | int64(interval)&0xffffffffff)
}

// ProcInterval unpacks an LRC stamp.
func (s Stamp) ProcInterval() (proc, interval int) {
	return int(int64(s) >> 40), int(int64(s) & 0xffffffffff)
}

// StampRun is a maximal sequence of adjacent blocks sharing one timestamp —
// the transmission unit of the timestamping scheme ("only one value is sent
// for each run", Section 5.1).
type StampRun struct {
	Base  mem.Addr
	Len   int
	Stamp Stamp
}

// Range returns the run's extent.
func (sr StampRun) Range() mem.Range { return mem.Range{Base: sr.Base, Len: sr.Len} }

// StampRunsWireSize returns the transmission size of runs carrying their
// data: per run, a header, one stamp of stampBytes, and the data bytes.
func StampRunsWireSize(runs []StampRun, stampBytes int) int {
	n := 0
	for _, r := range runs {
		n += RunHeaderBytes + stampBytes + r.Len
	}
	return n
}

// Stamps is the per-processor timestamp array: one Stamp per block of the
// shared space, allocated lazily per page and indexed by a flat page-number
// slice sized from the allocator. Block granularity follows the allocator's
// region configuration (word or double-word for compiler instrumentation;
// always a word with twinning).
type Stamps struct {
	al    *mem.Allocator
	pages [][]Stamp // indexed by page; nil until first stamped
}

// NewStamps returns an empty timestamp array over al's address space.
func NewStamps(al *mem.Allocator) *Stamps {
	return &Stamps{al: al, pages: make([][]Stamp, al.Pages())}
}

func (st *Stamps) page(pg int) []Stamp {
	p := st.pages[pg]
	if p == nil {
		p = make([]Stamp, mem.PageWords)
		st.pages[pg] = p
	}
	return p
}

func (st *Stamps) blockAt(a mem.Addr) int { return st.al.BlockAt(a) }

// Set stamps every block overlapping the changed ranges with s. The span is
// walked page by page so the page lookup happens once per page, not once per
// block.
func (st *Stamps) Set(changed []mem.Range, s Stamp) {
	for _, r := range changed {
		if r.Len <= 0 {
			continue
		}
		block := st.blockAt(r.Base)
		start := int(r.Base) &^ (block - 1) // block is a power of two
		end := int(r.End())
		for off := start; off < end; {
			pg := off >> mem.PageShift
			stop := (pg + 1) << mem.PageShift
			if stop > end {
				stop = end
			}
			p := st.page(pg)
			for ; off < stop; off += block {
				p[(off&(mem.PageSize-1))/mem.WordSize] = s
			}
		}
	}
}

// Get returns the stamp of the block containing a.
func (st *Stamps) Get(a mem.Addr) Stamp {
	block := st.blockAt(a)
	off := int(a) &^ (block - 1) // block is a power of two
	if p := st.pages[off>>mem.PageShift]; p != nil {
		return p[(off&(mem.PageSize-1))/mem.WordSize]
	}
	return 0
}

// stampPred is a statically-dispatched stamp predicate: the scan loop is
// instantiated per concrete predicate type, so the per-block test inlines
// and the call sites allocate no closures.
type stampPred interface {
	newer(Stamp) bool
}

// NewerThan selects stamps strictly above Min (EC: blocks written since the
// requester's incarnation).
type NewerThan struct{ Min Stamp }

func (p NewerThan) newer(s Stamp) bool { return s > p.Min }

// ProcWindow selects stamps by processor Proc with interval in (Since, UpTo]
// (LRC: one writer's unfetched intervals).
type ProcWindow struct {
	Proc        int
	Since, UpTo int32
}

func (p ProcWindow) newer(s Stamp) bool {
	q, iv := s.ProcInterval()
	return q == p.Proc && int32(iv) > p.Since && int32(iv) <= p.UpTo
}

type funcPred struct{ f func(Stamp) bool }

func (p funcPred) newer(s Stamp) bool { return p.f(s) }

// Select scans the blocks of ranges and returns maximal runs of adjacent
// blocks whose stamp satisfies newer, plus the number of blocks scanned (the
// responder-side scan cost charged on every request — the computation
// overhead Section 5.3 attributes to timestamping). Protocol hot paths use
// SelectPred with a concrete predicate instead.
func (st *Stamps) Select(ranges []mem.Range, newer func(Stamp) bool) (runs []StampRun, scanned int) {
	return SelectPred(st, ranges, funcPred{newer})
}

// SelectPred is Select with a statically-typed predicate.
func SelectPred[P stampPred](st *Stamps, ranges []mem.Range, pred P) (runs []StampRun, scanned int) {
	zeroNewer := pred.newer(0) // the predicate is pure: hoist the never-stamped case
	var cur *StampRun
	emit := func(off, block int, s Stamp) {
		if cur != nil && cur.Stamp == s && cur.Base+mem.Addr(cur.Len) == mem.Addr(off) {
			cur.Len += block
		} else {
			runs = append(runs, StampRun{Base: mem.Addr(off), Len: block, Stamp: s})
			cur = &runs[len(runs)-1]
		}
	}
	for _, r := range ranges {
		if r.Len <= 0 {
			continue
		}
		block := st.blockAt(r.Base)
		start := int(r.Base) &^ (block - 1) // block is a power of two
		end := int(r.End())
		cur = nil
		for off := start; off < end; {
			pg := off >> mem.PageShift
			stop := (pg + 1) << mem.PageShift
			if stop > end {
				stop = end
			}
			p := st.pages[pg]
			if p == nil {
				// Whole page unstamped: every block reads stamp 0.
				blocks := (stop - off + block - 1) / block
				scanned += blocks
				if zeroNewer {
					for ; off < stop; off += block {
						emit(off, block, 0)
					}
				} else {
					cur = nil
					off = stop
				}
				continue
			}
			for ; off < stop; off += block {
				scanned++
				s := p[(off&(mem.PageSize-1))/mem.WordSize]
				if pred.newer(s) {
					emit(off, block, s)
				} else {
					cur = nil
				}
			}
		}
	}
	return runs, scanned
}

// slot returns the stamp slot index (word index within page of the block
// start) for address a given block size.
func slot(a mem.Addr, block int) (pg, idx int) {
	off := int(a) &^ (block - 1) // block is a power of two
	return mem.PageOf(mem.Addr(off)), (off % mem.PageSize) / mem.WordSize
}

// ApplyStamps records the stamps of received runs locally, so this processor
// can in turn serve later requests. Run bases are aligned down per block (a
// run base inside a block stamps that whole block).
func (st *Stamps) ApplyStamps(runs []StampRun) {
	for _, sr := range runs {
		block := st.blockAt(sr.Base)
		if block <= 0 {
			panic(fmt.Sprintf("wcollect: bad block at %d", sr.Base))
		}
		for off := int(sr.Base); off < int(sr.Base)+sr.Len; off += block {
			pg, idx := slot(mem.Addr(off), block)
			st.page(pg)[idx] = sr.Stamp
		}
	}
}

// StampedData pairs stamp runs with the data bytes extracted from im, for
// transmission.
type StampedData struct {
	Runs []StampRun
	Data []DataRun
}

// ExtractStamped builds the response payload for a timestamp-based request.
func ExtractStamped(im *mem.Image, runs []StampRun) StampedData {
	ranges := make([]mem.Range, len(runs))
	for i, r := range runs {
		ranges[i] = r.Range()
	}
	return StampedData{Runs: runs, Data: ExtractRuns(im, ranges)}
}

// Apply installs the received data and stamps, returning words applied.
func (sd StampedData) Apply(im *mem.Image, st *Stamps) int {
	st.ApplyStamps(sd.Runs)
	return ApplyRuns(im, sd.Data)
}

// WireSize returns the transmission size given the per-run stamp width.
func (sd StampedData) WireSize(stampBytes int) int {
	return StampRunsWireSize(sd.Runs, stampBytes)
}
