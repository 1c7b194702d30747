package mem

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGeometry(t *testing.T) {
	if PageSize != 4096 || WordSize != 4 || PageWords != 1024 {
		t.Fatalf("geometry constants wrong: %d %d %d", PageSize, WordSize, PageWords)
	}
	if PageOf(4095) != 0 || PageOf(4096) != 1 {
		t.Error("PageOf boundary wrong")
	}
	if PageBase(3) != 3*4096 {
		t.Error("PageBase wrong")
	}
}

func TestRange(t *testing.T) {
	r := Range{Base: 100, Len: 8}
	if !r.Contains(100) || !r.Contains(107) || r.Contains(108) || r.Contains(99) {
		t.Error("Contains wrong")
	}
	if r.Words() != 2 {
		t.Errorf("Words = %d, want 2", r.Words())
	}
	if got := (Range{Base: 4090, Len: 10}).Pages(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("Pages = %v", got)
	}
	if (Range{Base: 0, Len: 0}).Pages() != nil {
		t.Error("empty range should span no pages")
	}
}

func TestAllocatorPageAlignment(t *testing.T) {
	al := NewAllocator()
	a := al.Alloc("a", 100, 4)
	b := al.Alloc("b", PageSize+1, 8)
	c := al.Alloc("c", 50, 4)
	if a != 0 {
		t.Errorf("a = %d", a)
	}
	if b != PageSize {
		t.Errorf("b = %d, want %d", b, PageSize)
	}
	if c != 3*PageSize {
		t.Errorf("c = %d, want %d", c, 3*PageSize)
	}
	if al.Pages() != 4 {
		t.Errorf("pages = %d, want 4", al.Pages())
	}
}

func TestRegionLookup(t *testing.T) {
	al := NewAllocator()
	al.Alloc("a", 100, 4)
	al.Alloc("b", 200, 8)
	if al.BlockAt(PageSize+10) != 8 {
		t.Error("BlockAt should report region granularity")
	}
	if al.BlockAt(150) != 4 {
		t.Error("BlockAt in padding should default to word size")
	}
}

func TestAllocatorPanics(t *testing.T) {
	al := NewAllocator()
	mustPanic(t, "zero size", func() { al.Alloc("x", 0, 4) })
	mustPanic(t, "bad block", func() { al.Alloc("x", 8, 16) })
}

// TestAllocatorReplayer: a Replayer re-serves the recorded allocation
// sequence with identical addresses and metadata, without mutating the
// original, and rejects any divergence from the recorded layout.
func TestAllocatorReplayer(t *testing.T) {
	al := NewAllocator()
	a := al.Alloc("a", 100, 4)
	b := al.Alloc("b", PageSize+1, 8)

	r := al.Replayer()
	if got := r.Alloc("a", 100, 4); got != a {
		t.Errorf("replayed a = %d, want %d", got, a)
	}
	if got := r.Alloc("b", PageSize+1, 8); got != b {
		t.Errorf("replayed b = %d, want %d", got, b)
	}
	if r.Size() != al.Size() || r.Pages() != al.Pages() {
		t.Errorf("replayer geometry %d/%d, want %d/%d", r.Size(), r.Pages(), al.Size(), al.Pages())
	}
	if r.BlockAt(PageSize+10) != 8 {
		t.Error("replayer lost block granularity")
	}
	if len(al.Regions()) != 2 {
		t.Errorf("replay mutated the original: %d regions", len(al.Regions()))
	}
	mustPanic(t, "replay beyond layout", func() { r.Alloc("c", 8, 4) })

	r2 := al.Replayer()
	mustPanic(t, "replay mismatch", func() { r2.Alloc("a", 200, 4) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestImageAccessors(t *testing.T) {
	im := NewImage(PageSize)
	im.WriteI32(0, -42)
	if im.ReadI32(0) != -42 {
		t.Error("I32 roundtrip")
	}
	im.WriteF32(4, 3.25)
	if im.ReadF32(4) != 3.25 {
		t.Error("F32 roundtrip")
	}
	im.WriteF64(8, math.Pi)
	if im.ReadF64(8) != math.Pi {
		t.Error("F64 roundtrip")
	}
	im.WriteU64(16, 0x0102030405060708)
	if im.ReadU32(16) != 0x05060708 {
		t.Error("little-endian layout expected")
	}
}

func TestImageCopyAndEqualRange(t *testing.T) {
	a := NewImage(2 * PageSize)
	b := NewImage(2 * PageSize)
	a.WriteI32(100, 7)
	if EqualRange(a, b, Range{Base: 96, Len: 16}) {
		t.Error("ranges should differ")
	}
	b.CopyFrom(a)
	if !EqualRange(a, b, Range{Base: 0, Len: 2 * PageSize}) {
		t.Error("ranges should match after copy")
	}
	b.WriteI32(4096, 9)
	if !EqualRange(a, b, Range{Base: 0, Len: PageSize}) {
		t.Error("first page still equal")
	}
}

func TestImagePageSlicing(t *testing.T) {
	im := NewImage(3 * PageSize)
	im.WriteU32(PageSize, 0xdeadbeef)
	pg := im.Page(1)
	if len(pg) != PageSize {
		t.Fatalf("page len = %d", len(pg))
	}
	if pg[0] != 0xef || pg[3] != 0xde {
		t.Error("page slice does not alias image")
	}
	pg[0] = 0xaa
	if im.ReadU32(PageSize) != 0xdeadbeaa {
		t.Error("writes through page slice must be visible")
	}
}

func TestPropertyWordRoundTrip(t *testing.T) {
	im := NewImage(16 * PageSize)
	f := func(word uint16, v uint32) bool {
		a := Addr(int(word) % (16 * PageWords) * WordSize)
		im.WriteU32(a, v)
		return im.ReadU32(a) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyF64RoundTrip(t *testing.T) {
	im := NewImage(16 * PageSize)
	f := func(slot uint16, v float64) bool {
		a := Addr(int(slot) % (16 * PageSize / 8) * 8)
		im.WriteF64(a, v)
		got := im.ReadF64(a)
		if math.IsNaN(v) {
			return math.IsNaN(got)
		}
		return got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyRangePagesCoverRange(t *testing.T) {
	f := func(base uint16, length uint16) bool {
		r := Range{Base: Addr(base), Len: int(length)%8192 + 1}
		pages := r.Pages()
		// Every address in the range must fall in a listed page, and every
		// listed page must contain at least one address of the range.
		for a := r.Base; a < r.End(); a += 512 {
			found := false
			for _, pg := range pages {
				if PageOf(a) == pg {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		for _, pg := range pages {
			lo, hi := PageBase(pg), PageBase(pg+1)
			if r.End() <= lo || r.Base >= hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
