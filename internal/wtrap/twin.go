package wtrap

import (
	"bytes"
	"encoding/binary"

	"ecvslrc/internal/mem"
)

// PageTwins implements copy-on-write page twinning, the mechanism used by
// LRC and by EC for objects larger than a page: the page is write-protected;
// the first write faults, a copy (the twin) is made, and the page is
// unprotected. At collection time the page is compared word-by-word against
// its twin.
type PageTwins struct {
	im      *mem.Image
	twins   [][]byte // indexed by page; nil = no twin
	pool    [][]byte // free-list of dropped twin buffers, reused by Make
	scratch []mem.Range
	made    int64
}

// NewPageTwins returns an empty twin store over image im.
func NewPageTwins(im *mem.Image) *PageTwins {
	return &PageTwins{im: im, twins: make([][]byte, im.Size()/mem.PageSize)}
}

// Make copies page pg as its twin. Calling Make for an already-twinned page
// panics: the protocol must not double-fault.
func (t *PageTwins) Make(pg int) {
	if t.twins[pg] != nil {
		panic("wtrap: page already twinned")
	}
	var twin []byte
	if n := len(t.pool); n > 0 {
		twin = t.pool[n-1]
		t.pool[n-1] = nil
		t.pool = t.pool[:n-1]
	} else {
		twin = make([]byte, mem.PageSize)
	}
	copy(twin, t.im.Page(pg))
	t.twins[pg] = twin
	t.made++
}

// Has reports whether page pg currently has a twin.
func (t *PageTwins) Has(pg int) bool { return t.twins[pg] != nil }

// Made returns the total number of twins created.
func (t *PageTwins) Made() int64 { return t.made }

// Compare diffs page pg against its twin and returns the modified words as
// coalesced runs. The comparison examines every word of the page (the
// twinning granularity is always a single word, Section 5.1). The returned
// slice aliases an internal scratch buffer valid until the next Compare:
// callers consume or copy the runs before comparing another page.
func (t *PageTwins) Compare(pg int) (runs []mem.Range, compared int) {
	twin := t.twins[pg]
	if twin == nil {
		panic("wtrap: compare of untwinned page")
	}
	cur := t.im.Page(pg)
	runs, compared = compareWords(t.scratch[:0], cur, twin, mem.PageBase(pg))
	t.scratch = runs[:0]
	return runs, compared
}

// Drop discards the twin of page pg, returning its buffer to the free-list.
func (t *PageTwins) Drop(pg int) {
	if twin := t.twins[pg]; twin != nil {
		t.pool = append(t.pool, twin)
		t.twins[pg] = nil
	}
}

// Refresh overwrites the twin of page pg with the current image contents in
// the byte span [lo, hi) (absolute addresses). EC uses this when two locks'
// large objects share a page: after harvesting one lock's changes, its span
// of the twin is brought up to date so the other lock's later harvest does
// not re-collect them.
func (t *PageTwins) Refresh(im *mem.Image, pg, lo, hi int) {
	twin := t.twins[pg]
	if twin == nil {
		panic("wtrap: refresh of untwinned page")
	}
	base := int(mem.PageBase(pg))
	copy(twin[lo-base:hi-base], im.Bytes()[lo:hi])
}

// ObjectTwin is the eager small-object twin used by our EC implementation:
// when a write lock is acquired on an object smaller than a page, the object
// is copied immediately instead of taking a protection fault (Section 4.2,
// "Twinning for EC" — the improvement over the Midway VM implementation).
// The zero value is an empty twin; Remake fills (and refills) it, so a node
// can keep a free list of twins instead of allocating one per acquire.
type ObjectTwin struct {
	ranges []mem.Range // aliases the caller's: must not change while twinned
	data   []byte      // the ranges' bytes, back to back in range order
	im     *mem.Image
}

// Remake makes o the twin of ranges: it eagerly copies their bytes from im,
// replacing whatever o held and reusing its buffer when that is big enough.
func (o *ObjectTwin) Remake(im *mem.Image, ranges []mem.Range) {
	total := 0
	for _, r := range ranges {
		total += r.Len
	}
	if cap(o.data) < total {
		o.data = make([]byte, total)
	}
	o.ranges, o.im, o.data = ranges, im, o.data[:total]
	off := 0
	for _, r := range ranges {
		off += copy(o.data[off:off+r.Len], im.Bytes()[r.Base:r.End()])
	}
}

// Words returns the total words twinned (the copy cost basis).
func (o *ObjectTwin) Words() int { return mem.Words(o.ranges) }

// Compare diffs the current object contents against the twin, returning
// modified word runs and the number of words compared.
func (o *ObjectTwin) Compare() (runs []mem.Range, compared int) {
	return o.CompareAppend(nil)
}

// CompareAppend is Compare appending to dst, letting callers reuse a scratch
// buffer across harvests.
func (o *ObjectTwin) CompareAppend(dst []mem.Range) (runs []mem.Range, compared int) {
	runs = dst
	off := 0
	for _, r := range o.ranges {
		var c int
		runs, c = compareWords(runs, o.im.Bytes()[r.Base:r.End()], o.data[off:off+r.Len], r.Base)
		compared += c
		off += r.Len
	}
	return runs, compared
}

// Identical stretches are skipped with the runtime's vectorized memequal
// before any per-word work happens: a block at a time where one is aligned,
// then a chunk (a cache line) at a time.
const (
	compareChunk = 64
	compareBlock = 8 * compareChunk
)

// compareWords diffs cur against old, appending the runs of modified words to
// dst; base is the shared address of cur[0]. Both slices must have equal,
// word-multiple length. The runs are exactly those of a word-by-word scan
// that coalesces adjacent modified words (a run starting at base joins a last
// run of dst that ends there), but the work follows the changes, not the
// words: with no run open, identical blocks and chunks are skipped whole and
// then identical double-words; inside a run, the scan extends 8 bytes at a
// time while both words of a double-word differ, and the run is appended
// once, when it closes. Passing a reused dst keeps the steady-state compare
// allocation-free.
func compareWords(dst []mem.Range, cur, old []byte, base mem.Addr) (runs []mem.Range, compared int) {
	n := len(cur)
	compared = n / mem.WordSize
	runs = dst
	if bytes.Equal(cur, old) {
		return runs, compared
	}
	n8 := n &^ 7 // the whole double-words; an odd word count leaves a 4-byte tail
	for off := skipEqual(cur, old, 0); off < n8; {
		x := xor8(cur, old, off)
		if x == 0 {
			if off += 8; off%compareChunk == 0 {
				off = skipEqual(cur, old, off)
			}
			continue
		}
		lo, hi := off, off+4
		if uint32(x) == 0 {
			lo += 4 // only the high word differs
		}
		if x>>32 != 0 {
			// The run is open through the high word: extend it while both
			// words of a double-word differ; a modified low word closes it.
			for hi = off + 8; hi < n8; hi += 8 {
				if x = xor8(cur, old, hi); uint32(x) == 0 || x>>32 == 0 {
					if uint32(x) != 0 {
						hi += 4
					}
					break
				}
			}
		}
		runs = appendRun(runs, base, lo, hi)
		off = (hi + 7) &^ 7 // the next double-word, or this one if its high word may open a run
	}
	if n8 < n && binary.LittleEndian.Uint32(cur[n8:]) != binary.LittleEndian.Uint32(old[n8:]) {
		runs = appendRun(runs, base, n8, n) // joins a run that reached n8
	}
	return runs, compared
}

// skipEqual returns the first offset at or after off, a multiple of
// compareChunk, whose chunk differs or is incomplete.
func skipEqual(cur, old []byte, off int) int {
	for off+compareChunk <= len(cur) {
		if off%compareBlock == 0 && off+compareBlock <= len(cur) && bytes.Equal(cur[off:off+compareBlock], old[off:off+compareBlock]) {
			off += compareBlock
		} else if bytes.Equal(cur[off:off+compareChunk], old[off:off+compareChunk]) {
			off += compareChunk
		} else {
			break
		}
	}
	return off
}

// xor8 returns the XOR of the double-words of cur and old at off: its low and
// high halves are nonzero exactly where the first and second word differ.
func xor8(cur, old []byte, off int) uint64 {
	return binary.LittleEndian.Uint64(cur[off:]) ^ binary.LittleEndian.Uint64(old[off:])
}

// appendRun appends the modified bytes [lo, hi) of the compared slice, whose
// first byte is at base, coalescing with a last run that ends at lo.
func appendRun(runs []mem.Range, base mem.Addr, lo, hi int) []mem.Range {
	a := base + mem.Addr(lo)
	if k := len(runs) - 1; k >= 0 && runs[k].End() == a {
		runs[k].Len += hi - lo
		return runs
	}
	return append(runs, mem.Range{Base: a, Len: hi - lo})
}
