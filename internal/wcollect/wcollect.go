// Package wcollect implements the paper's two write-collection mechanisms:
// timestamping (per-block logical timestamps; EC uses lock incarnation
// numbers, LRC uses (processor, interval) pairs — Section 5.1) and diffing
// (run-length-encoded records of changes — Section 5.2). It also defines the
// wire-size accounting for transmitted runs.
package wcollect

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"unsafe"

	"ecvslrc/internal/mem"
)

// Wire-format overheads, in bytes. A run header carries (address, length);
// an EC timestamp is one incarnation number per run; an LRC timestamp is a
// (processor, interval) pair per run; a diff carries one tag for the whole
// diff. These are the modeled wire widths: they do not depend on how the host
// represents a Stamp.
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
// (LRC) during one execution interval. Its encoding is one exact-size,
// pointer-free allocation holding the runs back to back in their wire format:
// per run a RunHeaderBytes header, the run's base address and byte length as
// two little-endian uint32s, then its bytes. A diff is immutable once built,
// so nodes hold and hand it on by value; the zero Diff is the empty one.
//
// The encoding is held as a string, a pointer and a length, so the diff's
// byte length and word count fit beside it in the three words a byte slice
// would take. They outlive the encoding: Drop discards the bytes of a diff no
// reader can still need and keeps what its transfer and application cost.
type Diff struct {
	enc   string // the runs in wire format; "" when empty or dropped
	size  int32  // len(enc) as built
	words int32  // data words carried
}

// BuildDiff captures the contents of the changed ranges from im. An empty
// diff allocates nothing.
func BuildDiff(im *mem.Image, changed []mem.Range) Diff {
	size, words := 0, 0
	for _, r := range changed {
		size += RunHeaderBytes + r.Len
		words += r.Words()
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
	// Nothing writes enc again, so the string may share its bytes, as
	// strings.Builder's does.
	return Diff{enc: unsafe.String(&enc[0], size), size: int32(size), words: int32(words)}
}

// Apply copies the diff's runs into im, returning words applied. A dropped
// diff copies nothing and still returns its words: its bytes are overwritten
// by a later diff the same application installs (see Drop).
func (d Diff) Apply(im *mem.Image) int {
	dst := im.Bytes()
	for enc := d.enc; len(enc) > RunHeaderBytes; {
		base, n := run(enc)
		copy(dst[base:], enc[RunHeaderBytes:RunHeaderBytes+n])
		enc = enc[RunHeaderBytes+n:]
	}
	return int(d.words)
}

// run decodes the header at the front of enc: the run's base and byte length.
func run(enc string) (base, n int) {
	return int(le32(enc)), int(le32(enc[4:]))
}

// le32 decodes a little-endian uint32 from the front of s.
func le32(s string) uint32 {
	_ = s[3]
	return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24
}

// Words returns the total data words carried.
func (d Diff) Words() int { return int(d.words) }

// WireSize returns the transmission size in bytes: a diff header plus one
// run header per run plus the data. Drop keeps it.
func (d Diff) WireSize() int { return DiffHeaderBytes + int(d.size) }

// Drop returns d without its bytes: the same wire size and words, nothing to
// copy. Only a diff whose every reader also applies, later in the same
// application, a diff that covers it (Covers) may be dropped.
func (d Diff) Drop() Diff { return Diff{size: d.size, words: d.words} }

// Dropped reports whether d has lost its bytes to Drop.
func (d Diff) Dropped() bool { return d.enc == "" && d.size > 0 }

// Covers reports whether d carries every byte e carries, so installing e and
// then d leaves what installing d alone does. Both must hold their bytes (a
// dropped diff covers nothing and is covered by nothing) and list their runs
// in ascending address order, as diffs of a twin comparison do; e's runs must
// not overlap.
func (d Diff) Covers(e Diff) bool {
	if d.Dropped() || e.Dropped() {
		return false
	}
	ds := d.enc
	lo, hi := 0, 0 // the span of d's runs read so far that ends furthest up
	for es := e.enc; len(es) > RunHeaderBytes; {
		base, n := run(es)
		es = es[RunHeaderBytes+n:]
		if n == 0 {
			continue
		}
		for hi < base+n {
			if len(ds) <= RunHeaderBytes {
				return false
			}
			db, dn := run(ds)
			ds = ds[RunHeaderBytes+dn:]
			if db > hi {
				lo = db // a gap: a new span starts
			}
			hi = max(hi, db+dn)
		}
		if lo > base {
			return false
		}
	}
	return true
}

// Stamp is a per-block logical timestamp, 32 bits wide in host memory. For EC
// it holds a lock incarnation number (ECStamp); for LRC it packs a
// (processor, interval) pair under the cell's LRCPacking. Stamp 0 means
// "never stamped".
type Stamp uint32

// ECStamp converts a lock incarnation number to a stamp. Incarnations start
// at 0 and only grow, so a negative one is a protocol bug.
func ECStamp(inc int32) Stamp {
	if inc < 0 {
		panic(fmt.Sprintf("wcollect: negative lock incarnation %d", inc))
	}
	return Stamp(inc)
}

// LRCPacking packs the (processor, interval) pairs of one cell into stamps:
// the processor id takes the high bits.Len(nprocs-1) bits and the interval
// index the rest, so one processor's stamps are a contiguous range ordered by
// interval and (0, 0) packs to stamp 0. The interval field is at least 22 bits
// wide up to 1024 processors and 17 bits at 32 767.
type LRCPacking struct {
	nprocs int
	shift  uint  // width of the interval field
	mask   Stamp // the interval field
}

// NewLRCPacking returns the packing of a cell of nprocs processors.
func NewLRCPacking(nprocs int) LRCPacking {
	procBits := bits.Len(uint(nprocs - 1))
	if nprocs < 1 || procBits > 31 {
		panic(fmt.Sprintf("wcollect: no LRC stamp packing for %d processors", nprocs))
	}
	shift := uint(32 - procBits)
	return LRCPacking{nprocs: nprocs, shift: shift, mask: Stamp(uint64(1)<<shift - 1)}
}

// MaxInterval returns the largest interval index a stamp can carry.
func (k LRCPacking) MaxInterval() int { return int(k.mask) }

// Stamp packs processor proc's interval. An interval past the field's limit
// panics: the stamp would alias another processor's.
func (k LRCPacking) Stamp(proc, interval int) Stamp {
	if proc < 0 || proc >= k.nprocs {
		panic(fmt.Sprintf("wcollect: LRC stamp for processor %d of a %d-processor cell", proc, k.nprocs))
	}
	if interval < 0 || interval > k.MaxInterval() {
		panic(fmt.Sprintf("wcollect: LRC stamp for interval %d of processor %d: a %d-processor cell's stamps hold intervals 0..%d",
			interval, proc, k.nprocs, k.MaxInterval()))
	}
	return Stamp(proc)<<k.shift | Stamp(interval)
}

// Unpack returns the processor and interval an LRC stamp carries.
func (k LRCPacking) Unpack(s Stamp) (proc, interval int) {
	return int(s >> k.shift), int(s & k.mask)
}

// Window returns the predicate that selects processor proc's stamps with
// interval in (since, upTo] (LRC: one writer's unfetched intervals).
func (k LRCPacking) Window(proc int, since, upTo int32) ProcWindow {
	first := k.Stamp(proc, 0)
	lo, hi := max(int(since), -1), min(int(upTo), k.MaxInterval())
	if hi <= lo {
		return ProcWindow{}
	}
	return ProcWindow{lo: first + Stamp(lo+1), n: uint32(hi - lo)}
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

// Stamps is the per-processor timestamp array: one Stamp per trapping block
// of the shared space, allocated lazily per page and indexed by a flat
// page-number slice sized from the allocator. The block is the region's
// granularity from the allocator's per-page table (word or double-word)
// under every trapping method — Water's EC-time cell, which twins, stamps
// double-words — so a page's slice holds PageSize/block stamps: 4 KiB for a
// word page, 2 KiB for a double-word page. A range takes the block of its
// first address; one that runs into a page of another block size panics.
type Stamps struct {
	al    *mem.Allocator
	pages [][]Stamp // indexed by page; nil until first stamped
}

// NewStamps returns an empty timestamp array over al's address space.
func NewStamps(al *mem.Allocator) *Stamps {
	return &Stamps{al: al, pages: make([][]Stamp, al.Pages())}
}

// page returns page pg's stamps, allocating them for blocks of 1<<shift bytes.
func (st *Stamps) page(pg int, shift uint) []Stamp {
	p := st.pages[pg]
	if p == nil {
		p = make([]Stamp, mem.PageSize>>shift)
		st.pages[pg] = p
	}
	return p
}

// geometry returns the block of r's first address, its log2, and r's base
// aligned down to it.
func (st *Stamps) geometry(r mem.Range) (block int, shift uint, start int) {
	block = st.al.BlockAt(r.Base)
	return block, uint(bits.TrailingZeros(uint(block))), int(r.Base) &^ (block - 1)
}

// pageSlots returns the stamp slots [lo, hi) of page pg that the blocks of
// [off, stop) occupy, off being block-aligned and both inside pg. It panics if
// pg's block is not the range's: the slots would not line up.
func (st *Stamps) pageSlots(pg, off, stop, block int, shift uint) (lo, hi int) {
	if b := st.al.BlockAt(mem.PageBase(pg)); b != block {
		panic(blockMismatch{block, pg, b})
	}
	return (off & (mem.PageSize - 1)) >> shift, ((stop-1)&(mem.PageSize-1))>>shift + 1
}

// blockMismatch is pageSlots' panic value; it formats only when printed, so
// pageSlots stays cheap enough to inline.
type blockMismatch struct{ block, pg, pageBlock int }

func (e blockMismatch) Error() string {
	return fmt.Sprintf("wcollect: a range of %d-byte blocks runs into page %d, whose blocks are %d bytes", e.block, e.pg, e.pageBlock)
}

// Set stamps every block overlapping the changed ranges with s, filling each
// page's slots as one slice.
func (st *Stamps) Set(changed []mem.Range, s Stamp) {
	for _, r := range changed {
		if r.Len <= 0 {
			continue
		}
		block, shift, off := st.geometry(r)
		end := int(r.End())
		for off < end {
			pg := off >> mem.PageShift
			stop := min((pg+1)<<mem.PageShift, end)
			lo, hi := st.pageSlots(pg, off, stop, block, shift)
			slots := st.page(pg, shift)[lo:hi]
			for i := range slots {
				slots[i] = s
			}
			off = stop
		}
	}
}

// Get returns the stamp of the block containing a.
func (st *Stamps) Get(a mem.Addr) Stamp {
	if p := st.pages[int(a)>>mem.PageShift]; p != nil {
		return p[(int(a)&(mem.PageSize-1))>>bits.TrailingZeros(uint(st.al.BlockAt(a)))]
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

// ProcWindow selects the n stamps from lo up: one processor's intervals in a
// window (LRCPacking.Window). The zero ProcWindow selects nothing.
type ProcWindow struct {
	lo Stamp
	n  uint32
}

func (p ProcWindow) newer(s Stamp) bool { return uint32(s-p.lo) < p.n }

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
		block, shift, off := st.geometry(r)
		end := int(r.End())
		open := false // runs[len(runs)-1] ends at off and may still grow
		for off < end {
			pg := off >> mem.PageShift
			stop := min((pg+1)<<mem.PageShift, end)
			lo, hi := st.pageSlots(pg, off, stop, block, shift)
			scanned += hi - lo
			p := st.pages[pg]
			if p == nil {
				// Whole page unstamped: every block reads stamp 0.
				if !zeroNewer {
					open = false
					off = stop
					continue
				}
				for range hi - lo {
					runs = appendBlock(runs, open, off, block, 0)
					open = true
					off += block
				}
				continue
			}
			for _, s := range p[lo:hi] {
				if pred.newer(s) {
					runs = appendBlock(runs, open, off, block, s)
					open = true
				} else {
					open = false
				}
				off += block
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

// ApplyStamps records the stamps of received runs locally, so this processor
// can in turn serve later requests: each run stamps every block it overlaps,
// as Set does.
func (st *Stamps) ApplyStamps(runs []StampRun) {
	for _, sr := range runs {
		st.Set([]mem.Range{{Base: sr.Base, Len: sr.Len}}, sr.Stamp)
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
