// Package wcollect implements the paper's two write-collection mechanisms:
// timestamping (per-block logical timestamps; EC uses lock incarnation
// numbers, LRC uses (processor, interval) pairs — Section 5.1) and diffing
// (run-length-encoded records of changes — Section 5.2). It also defines the
// wire-size accounting for transmitted runs.
package wcollect

import (
	"encoding/binary"
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

// maxRetainedArena bounds the capacity an Arena keeps across Release: grant
// and reply bodies are recycled, and a body that once carried a bulk transfer
// (a post-rebind full send of a whole array) must not hold that buffer idle
// for the rest of the run. Ordinary updates — a lock's bound object, one
// page's modified words — stay far below it.
const maxRetainedArena = 16 * mem.PageSize

// Arena is the byte store the DataRuns of one extraction are carved from, so
// an extraction allocates at most twice (runs, bytes) however many runs it
// has, and not at all once a recycled message body's arena and run slice
// have grown to its working size. Every Extract call replaces the arena's
// contents: the runs of the previous call are dead. The zero value is ready.
type Arena struct{ buf []byte }

// sized returns dst resized to n runs and the arena resized to total bytes,
// reusing capacity where there is enough.
func (a *Arena) sized(dst []DataRun, n, total int) []DataRun {
	if cap(dst) < n {
		dst = make([]DataRun, n)
	}
	if cap(a.buf) < total {
		a.buf = make([]byte, total)
	}
	a.buf = a.buf[:total]
	return dst[:n]
}

// carve copies im[base, base+n) to offset off of the arena and returns the
// run over the copy.
func (a *Arena) carve(im *mem.Image, base mem.Addr, n, off int) DataRun {
	b := a.buf[off : off+n : off+n]
	copy(b, im.Bytes()[base:int(base)+n])
	return DataRun{Base: base, Data: b}
}

// ExtractRuns copies the bytes of each changed range out of im into runs that
// overwrite dst (whose capacity is reused), and returns them with their wire
// size: one run header per run plus the data.
func (a *Arena) ExtractRuns(dst []DataRun, im *mem.Image, changed []mem.Range) (runs []DataRun, wire int) {
	total := 0
	for _, r := range changed {
		total += r.Len
	}
	runs = a.sized(dst, len(changed), total)
	off := 0
	for i, r := range changed {
		runs[i] = a.carve(im, r.Base, r.Len, off)
		off += r.Len
	}
	return runs, RunHeaderBytes*len(runs) + total
}

// Release ends the use of the arena's contents, keeping the buffer for the
// next extraction unless it has grown past maxRetainedArena.
func (a *Arena) Release() {
	if cap(a.buf) > maxRetainedArena {
		a.buf = nil
	}
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
// (LRC) during one execution interval. It is one exact-size, pointer-free
// allocation holding the runs back to back in their wire format: per run a
// RunHeaderBytes header, the run's base address and byte length as two
// little-endian uint32s, then its bytes. A diff is immutable once built, so
// nodes hold and hand it on by value; the zero Diff is the empty one.
type Diff struct{ enc []byte }

// BuildDiff captures the contents of the changed ranges from im. An empty
// diff allocates nothing.
func BuildDiff(im *mem.Image, changed []mem.Range) Diff {
	size := 0
	for _, r := range changed {
		size += RunHeaderBytes + r.Len
	}
	if size == 0 {
		return Diff{}
	}
	enc := make([]byte, size)
	off := 0
	for _, r := range changed {
		binary.LittleEndian.PutUint32(enc[off:], uint32(r.Base))
		binary.LittleEndian.PutUint32(enc[off+4:], uint32(r.Len))
		off += RunHeaderBytes
		off += copy(enc[off:off+r.Len], im.Bytes()[r.Base:r.End()])
	}
	return Diff{enc: enc}
}

// Apply copies the diff's runs into im, returning words applied.
func (d Diff) Apply(im *mem.Image) int { return d.walk(im) }

// Words returns the total data words carried.
func (d Diff) Words() int { return d.walk(nil) }

// walk decodes the runs in order, copying each into im unless im is nil, and
// returns their words.
func (d Diff) walk(im *mem.Image) int {
	var dst []byte
	if im != nil {
		dst = im.Bytes()
	}
	words := 0
	for enc := d.enc; len(enc) > RunHeaderBytes; {
		base := int(binary.LittleEndian.Uint32(enc))
		end := RunHeaderBytes + int(binary.LittleEndian.Uint32(enc[4:]))
		if dst != nil {
			copy(dst[base:], enc[RunHeaderBytes:end])
		}
		words += (end - RunHeaderBytes + mem.WordSize - 1) / mem.WordSize
		enc = enc[end:]
	}
	return words
}

// WireSize returns the transmission size in bytes: a diff header plus one
// run header per run plus the data.
func (d Diff) WireSize() int { return DiffHeaderBytes + len(d.enc) }

// Empty reports whether the diff carries no changes.
func (d Diff) Empty() bool { return len(d.enc) == 0 }

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
// AppendSelect with a concrete predicate and a reused destination instead.
func (st *Stamps) Select(ranges []mem.Range, newer func(Stamp) bool) (runs []StampRun, scanned int) {
	return AppendSelect(nil, st, ranges, funcPred{newer})
}

// AppendSelect is Select with a statically-typed predicate, appending the
// selected runs to dst. Runs never merge across ranges, nor with what dst
// already held.
func AppendSelect[P stampPred](dst []StampRun, st *Stamps, ranges []mem.Range, pred P) (runs []StampRun, scanned int) {
	runs = dst
	zeroNewer := pred.newer(0) // the predicate is pure: hoist the never-stamped case
	for _, r := range ranges {
		if r.Len <= 0 {
			continue
		}
		block := st.blockAt(r.Base)
		start := int(r.Base) &^ (block - 1) // block is a power of two
		end := int(r.End())
		open := false // runs[len(runs)-1] ends at off and may still grow
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
						runs = appendBlock(runs, open, off, block, 0)
						open = true
					}
				} else {
					open = false
					off = stop
				}
				continue
			}
			for ; off < stop; off += block {
				scanned++
				s := p[(off&(mem.PageSize-1))/mem.WordSize]
				if pred.newer(s) {
					runs = appendBlock(runs, open, off, block, s)
					open = true
				} else {
					open = false
				}
			}
		}
	}
	return runs, scanned
}

// appendBlock adds the selected block at off to runs: it extends the last run
// when that run is open (it ends at off) and carries the same stamp.
func appendBlock(runs []StampRun, open bool, off, block int, s Stamp) []StampRun {
	if open && runs[len(runs)-1].Stamp == s {
		runs[len(runs)-1].Len += block
		return runs
	}
	return append(runs, StampRun{Base: mem.Addr(off), Len: block, Stamp: s})
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

// Extract fills Data with the bytes of Runs copied out of im and carved from
// a — the response payload of a timestamp-based request. Data's capacity is
// reused.
func (sd *StampedData) Extract(im *mem.Image, a *Arena) {
	total := 0
	for _, r := range sd.Runs {
		total += r.Len
	}
	sd.Data = a.sized(sd.Data, len(sd.Runs), total)
	off := 0
	for i, r := range sd.Runs {
		sd.Data[i] = a.carve(im, r.Base, r.Len, off)
		off += r.Len
	}
}

// Reset empties sd for reuse in a recycled message body, keeping the
// capacity of both slices and no reference into the arena.
func (sd *StampedData) Reset() {
	clear(sd.Data)
	sd.Runs, sd.Data = sd.Runs[:0], sd.Data[:0]
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
