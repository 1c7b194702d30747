// Package mem models the shared virtual address space of the DSM systems: a
// flat range of bytes with 4 KB pages and 4-byte words, of which every
// simulated processor holds a private image. The consistency protocols keep
// the images in sync; applications access them only through the DSM API.
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// Page and word geometry, matching the DECstation-5000/240 and the paper's
// terminology (a "word" is 4 bytes; twinning always compares words).
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	WordSize  = 4
	PageWords = PageSize / WordSize
)

// Addr is a simulated shared-memory address (byte offset into the space).
type Addr int

// PageOf returns the page number containing a.
func PageOf(a Addr) int { return int(a) >> PageShift }

// PageBase returns the first address of page pg.
func PageBase(pg int) Addr { return Addr(pg << PageShift) }

// Range is a contiguous span of shared memory, used for binding data to
// entry-consistency locks (Len in bytes).
type Range struct {
	Base Addr
	Len  int
}

// End returns the first address past the range.
func (r Range) End() Addr { return r.Base + Addr(r.Len) }

// Contains reports whether a falls inside r.
func (r Range) Contains(a Addr) bool { return a >= r.Base && a < r.End() }

// Words returns the number of words spanned by r.
func (r Range) Words() int { return (r.Len + WordSize - 1) / WordSize }

// Words returns the number of words the ranges span together.
func Words(rs []Range) int {
	n := 0
	for _, r := range rs {
		n += r.Words()
	}
	return n
}

// PageSpan returns the first and last page r touches; last < first when r is
// empty, so "for pg := first; pg <= last; pg++" visits exactly r's pages.
func (r Range) PageSpan() (first, last int) {
	if r.Len <= 0 {
		return 0, -1
	}
	return PageOf(r.Base), PageOf(r.End() - 1)
}

// Pages returns the page numbers r touches.
func (r Range) Pages() []int {
	first, last := r.PageSpan()
	if last < first {
		return nil
	}
	out := make([]int, 0, last-first+1)
	for pg := first; pg <= last; pg++ {
		out = append(out, pg)
	}
	return out
}

// Region is a named allocation in the shared space. Block is the write
// trapping granularity in bytes for compiler instrumentation (4 or 8): the
// paper's Water and 3D-FFT programs use 8-byte (double-word) dirty bits.
type Region struct {
	Name  string
	Base  Addr
	Size  int
	Block int
}

// Allocator hands out page-aligned shared regions. All processors share one
// allocator (allocation happens deterministically before the run starts).
type Allocator struct {
	next    Addr
	regions []Region
	// pageBlock caches each page's instrumentation block size: regions are
	// page-aligned, so a page has exactly one block granularity and BlockAt
	// becomes a single array load instead of a region binary search (it runs
	// on every instrumented store and in every collection scan).
	pageBlock []uint8
	// replay re-serves the recorded regions in order instead of appending
	// (see Replayer): replayNext indexes the next region to hand out.
	replay     bool
	replayNext int
}

// NewAllocator returns an empty allocator starting at address 0.
func NewAllocator() *Allocator { return &Allocator{} }

// Replayer returns a view of al that re-serves the recorded allocation
// sequence: calling Alloc with the same (name, size, block) sequence returns
// the same addresses without mutating al or rebuilding its region tables.
// Layout is a pure function of the problem instance, so a cached allocator
// plus a Replayer lets every cell of a sweep rebind its app's addresses
// against shared, read-only region state. A mismatched sequence panics —
// that is a (app, scale) cache mix-up, not a recoverable condition.
func (al *Allocator) Replayer() *Allocator {
	cp := *al
	cp.replay = true
	cp.replayNext = 0
	return &cp
}

// Alloc reserves size bytes on a fresh page boundary with the given
// instrumentation block granularity and returns the base address. On a
// Replayer it re-serves the next recorded region instead, verifying the
// request matches.
func (al *Allocator) Alloc(name string, size, block int) Addr {
	if size <= 0 {
		panic(fmt.Sprintf("mem: alloc %q: bad size %d", name, size))
	}
	if block != 4 && block != 8 {
		panic(fmt.Sprintf("mem: alloc %q: block must be 4 or 8, got %d", name, block))
	}
	if al.replay {
		if al.replayNext >= len(al.regions) {
			panic(fmt.Sprintf("mem: replay alloc %q beyond the recorded layout", name))
		}
		r := al.regions[al.replayNext]
		if r.Name != name || r.Size != size || r.Block != block {
			panic(fmt.Sprintf("mem: replay alloc %q (%d/%d) does not match recorded region %q (%d/%d)",
				name, size, block, r.Name, r.Size, r.Block))
		}
		al.replayNext++
		return r.Base
	}
	base := al.next
	al.regions = append(al.regions, Region{Name: name, Base: base, Size: size, Block: block})
	pages := (size + PageSize - 1) / PageSize
	for i := 0; i < pages; i++ {
		al.pageBlock = append(al.pageBlock, uint8(block))
	}
	al.next += Addr(pages * PageSize)
	return base
}

// Size returns the total allocated extent in bytes (page-rounded).
func (al *Allocator) Size() int { return int(al.next) }

// Pages returns the number of allocated pages.
func (al *Allocator) Pages() int { return int(al.next) / PageSize }

// Regions returns the allocations in address order.
func (al *Allocator) Regions() []Region { return al.regions }

// BlockAt returns the instrumentation block size covering a (4 if the
// address is unallocated). Page padding inside an allocated region's final
// page reports the region's block size: the region's granularity governs the
// whole page.
func (al *Allocator) BlockAt(a Addr) int {
	pg := int(a) >> PageShift
	if pg < len(al.pageBlock) {
		return int(al.pageBlock[pg])
	}
	return WordSize
}

// Image is one processor's private copy of the shared space: a heap buffer,
// or a copy-on-write fork of a template image (Fork).
type Image struct {
	data []byte
	fork forkState
}

// ImageBytes returns the page-rounded byte size an image of size bytes
// occupies.
func ImageBytes(size int) int {
	return (size + PageSize - 1) / PageSize * PageSize
}

// NewImage returns a zeroed image of size bytes (page-rounded up).
func NewImage(size int) *Image {
	return &Image{data: make([]byte, ImageBytes(size))}
}

// imagePools recycles image backing stores, one pool per buffer size. Node
// images are forks now (Fork), so the pools, RecycledImage, RecycleImage and
// CopyFrom are left only for the two mem probes of the benchmark
// (benchmark/probes.go), and go when those probes are re-pointed.
var imagePools sync.Map // buffer length -> *sync.Pool of *Image

// RecycledImage returns an image of size bytes (page-rounded up) with
// UNSPECIFIED contents, reusing a recycled buffer of the right size when one
// is available. Only for callers that fully overwrite the image before any
// read (a whole-image CopyFrom); everyone else wants NewImage. Its one
// caller is the benchmark's mem.recycle_image_ns probe (see imagePools).
func RecycledImage(size int) *Image {
	pages := (size + PageSize - 1) / PageSize
	want := pages * PageSize
	if p, ok := imagePools.Load(want); ok {
		if v := p.(*sync.Pool).Get(); v != nil {
			return v.(*Image)
		}
	}
	return &Image{data: make([]byte, want)}
}

// RecycleImage surrenders im's buffer for reuse by RecycledImage. The caller
// must drop every reference to im. A fork is not a heap buffer: it panics,
// since a fork must be released (Release) instead. A template's memory file
// is closed, as the buffer's next owner rewrites it. Its one caller is the
// benchmark's mem.recycle_image_ns probe (see imagePools).
func RecycleImage(im *Image) {
	if im.fork.mapped {
		panic("mem: RecycleImage of a fork: release it")
	}
	im.Release()
	p, _ := imagePools.LoadOrStore(len(im.data), &sync.Pool{})
	p.(*sync.Pool).Put(im)
}

// Size returns the image size in bytes.
func (im *Image) Size() int { return len(im.data) }

// Bytes exposes the raw backing store (used by validation and twinning).
func (im *Image) Bytes() []byte { return im.data }

// Page returns the backing bytes of page pg.
func (im *Image) Page(pg int) []byte {
	return im.data[pg<<PageShift : (pg+1)<<PageShift]
}

// CopyFrom overwrites this image with the contents of src. Its one caller
// outside tests is the benchmark's mem.image_copy_ns_per_mb probe (see
// imagePools).
func (im *Image) CopyFrom(src *Image) {
	if len(src.data) != len(im.data) {
		panic("mem: image size mismatch")
	}
	copy(im.data, src.data)
}

// ReadU32 loads the 32-bit word at a.
func (im *Image) ReadU32(a Addr) uint32 {
	return binary.LittleEndian.Uint32(im.data[a:])
}

// WriteU32 stores v at a.
func (im *Image) WriteU32(a Addr, v uint32) {
	binary.LittleEndian.PutUint32(im.data[a:], v)
}

// ReadU64 loads the 64-bit double-word at a.
func (im *Image) ReadU64(a Addr) uint64 {
	return binary.LittleEndian.Uint64(im.data[a:])
}

// WriteU64 stores v at a.
func (im *Image) WriteU64(a Addr, v uint64) {
	binary.LittleEndian.PutUint64(im.data[a:], v)
}

// ReadI32 loads a signed 32-bit integer.
func (im *Image) ReadI32(a Addr) int32 { return int32(im.ReadU32(a)) }

// WriteI32 stores a signed 32-bit integer.
func (im *Image) WriteI32(a Addr, v int32) { im.WriteU32(a, uint32(v)) }

// ReadF32 loads a 32-bit float.
func (im *Image) ReadF32(a Addr) float32 { return math.Float32frombits(im.ReadU32(a)) }

// WriteF32 stores a 32-bit float.
func (im *Image) WriteF32(a Addr, v float32) { im.WriteU32(a, math.Float32bits(v)) }

// ReadF64 loads a 64-bit float.
func (im *Image) ReadF64(a Addr) float64 { return math.Float64frombits(im.ReadU64(a)) }

// WriteF64 stores a 64-bit float.
func (im *Image) WriteF64(a Addr, v float64) { im.WriteU64(a, math.Float64bits(v)) }

// EqualRange reports whether two images agree over r.
func EqualRange(a, b *Image, r Range) bool {
	return bytes.Equal(a.data[r.Base:r.End()], b.data[r.Base:r.End()])
}
