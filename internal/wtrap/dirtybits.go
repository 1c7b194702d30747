// Package wtrap implements the paper's two write-trapping mechanisms:
// compiler instrumentation (software dirty bits set on every shared store,
// Section 4.1) and twinning (unmodified copies compared word-by-word,
// Section 4.2). Trapping detects WHICH shared data changed during an
// execution interval; write collection (package wcollect) decides WHAT to
// send.
package wtrap

import (
	"ecvslrc/internal/mem"
)

// DirtyBits is the compiler-instrumentation tracker: one software dirty bit
// per block (word or double-word, per region), plus optional page-level
// dirty bits for the hierarchical scheme used with LRC (Section 4.1,
// "Differences between EC and LRC").
type DirtyBits struct {
	al *mem.Allocator
	// words and pageDirty are indexed by page number (flat, sized from the
	// allocator's extent): the per-page bit arrays allocate lazily and are
	// zeroed in place on reset so steady-state runs reuse their memory.
	words        []*pageBits
	pageDirty    []bool
	dirtyCount   int
	hierarchical bool
	stores       int64
}

type pageBits [mem.PageWords / 64]uint64

func (pb *pageBits) set(w int)      { pb[w>>6] |= 1 << (uint(w) & 63) }
func (pb *pageBits) get(w int) bool { return pb[w>>6]&(1<<(uint(w)&63)) != 0 }

// NewDirtyBits returns a tracker over the allocator's address space.
// hierarchical additionally maintains page-level dirty bits so collection
// can skip clean pages (required for LRC, where there is no lock/data
// association to narrow the scan).
func NewDirtyBits(al *mem.Allocator, hierarchical bool) *DirtyBits {
	return &DirtyBits{
		al:           al,
		words:        make([]*pageBits, al.Pages()),
		pageDirty:    make([]bool, al.Pages()),
		hierarchical: hierarchical,
	}
}

// Stores returns the number of instrumented stores recorded (each one paid
// the instrumentation cost).
func (db *DirtyBits) Stores() int64 { return db.stores }

// pageBitsFor returns page pg's bit array, allocating it on first touch.
func (db *DirtyBits) pageBitsFor(pg int) *pageBits {
	pb := db.words[pg]
	if pb == nil {
		pb = new(pageBits)
		db.words[pg] = pb
	}
	return pb
}

// NoteWrite records a store of size bytes at a: the compiler-emitted code
// vectors to the region's template and sets the dirty bit(s) of the block(s)
// covering the store.
func (db *DirtyBits) NoteWrite(a mem.Addr, size int) {
	db.stores++
	block := db.al.BlockAt(a)
	first := int(a) &^ (block - 1) // block is a power of two
	for off := first; off < int(a)+size; off += block {
		pg := off >> mem.PageShift
		db.pageBitsFor(pg).set((off & (mem.PageSize - 1)) / mem.WordSize)
		if db.hierarchical && !db.pageDirty[pg] {
			db.pageDirty[pg] = true
			db.dirtyCount++
		}
	}
}

// DirtyPages returns the pages with the page-level dirty bit set, sorted.
// Only meaningful for hierarchical trackers.
func (db *DirtyBits) DirtyPages() []int {
	out := make([]int, 0, db.dirtyCount)
	for pg, d := range db.pageDirty {
		if d {
			out = append(out, pg)
		}
	}
	return out
}

// Collect scans the dirty bits within ranges and returns the modified spans
// as block-aligned runs, plus the number of blocks examined (the write-
// collection scan cost). The bits are left set; call Reset to clear them.
func (db *DirtyBits) Collect(ranges []mem.Range) (runs []mem.Range, scanned int) {
	return db.CollectAppend(nil, ranges)
}

// CollectAppend is Collect appending to dst, letting callers reuse a scratch
// buffer across collections. Runs never merge across ranges, nor with what
// dst already held.
func (db *DirtyBits) CollectAppend(dst, ranges []mem.Range) (runs []mem.Range, scanned int) {
	runs = dst
	for _, r := range ranges {
		if r.Len <= 0 {
			continue
		}
		block := db.al.BlockAt(r.Base)
		start := int(r.Base) &^ (block - 1) // block is a power of two
		end := int(r.End())
		var cur *mem.Range
		// Walk the span page by page so the bit-array lookup happens once
		// per page instead of once per block.
		for off := start; off < end; {
			pg := off >> mem.PageShift
			stop := (pg + 1) << mem.PageShift
			if stop > end {
				stop = end
			}
			pb := db.words[pg]
			if pb == nil {
				scanned += (stop - off + block - 1) / block
				cur = nil
				off = stop
				continue
			}
			for ; off < stop; off += block {
				scanned++
				if pb.get((off & (mem.PageSize - 1)) / mem.WordSize) {
					if cur != nil && cur.End() == mem.Addr(off) {
						cur.Len += block
					} else {
						runs = append(runs, mem.Range{Base: mem.Addr(off), Len: block})
						cur = &runs[len(runs)-1]
					}
				} else {
					cur = nil
				}
			}
		}
	}
	return runs, scanned
}

// CollectPage scans one page's word-level bits (used with the hierarchical
// scheme after the page-level bit identified the page).
func (db *DirtyBits) CollectPage(pg int) (runs []mem.Range, scanned int) {
	return db.Collect([]mem.Range{{Base: mem.PageBase(pg), Len: mem.PageSize}})
}

// Reset clears all dirty state within ranges.
func (db *DirtyBits) Reset(ranges []mem.Range) {
	for _, r := range ranges {
		if r.Len <= 0 {
			continue
		}
		first, last := mem.PageOf(r.Base), mem.PageOf(r.End()-1)
		for pg := first; pg <= last; pg++ {
			pb := db.words[pg]
			if pb == nil {
				continue
			}
			lo := max(int(r.Base), int(mem.PageBase(pg)))
			hi := min(int(r.End()), int(mem.PageBase(pg+1)))
			for off := lo &^ (mem.WordSize - 1); off < hi; off += mem.WordSize {
				w := (off & (mem.PageSize - 1)) / mem.WordSize
				pb[w>>6] &^= 1 << (uint(w) & 63)
			}
		}
	}
}

// ResetPage clears the word bits and the page bit of page pg.
func (db *DirtyBits) ResetPage(pg int) {
	if pb := db.words[pg]; pb != nil {
		*pb = pageBits{} // zero in place: the array is reused on the next write
	}
	if db.pageDirty[pg] {
		db.pageDirty[pg] = false
		db.dirtyCount--
	}
}
