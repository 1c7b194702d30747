package wtrap

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ecvslrc/internal/mem"
)

func newAlloc(t *testing.T) *mem.Allocator {
	t.Helper()
	al := mem.NewAllocator()
	al.Alloc("w4", 2*mem.PageSize, 4) // word-granularity region: pages 0-1
	al.Alloc("w8", 2*mem.PageSize, 8) // double-word region: pages 2-3
	return al
}

func TestNoteWriteAndCollectWordRegion(t *testing.T) {
	al := newAlloc(t)
	db := NewDirtyBits(al, false)
	db.NoteWrite(8, 4)
	db.NoteWrite(12, 4) // adjacent: should coalesce
	db.NoteWrite(100, 4)
	runs, scanned := db.Collect([]mem.Range{{Base: 0, Len: 256}})
	want := []mem.Range{{Base: 8, Len: 8}, {Base: 100, Len: 4}}
	if !reflect.DeepEqual(runs, want) {
		t.Errorf("runs = %v, want %v", runs, want)
	}
	if scanned != 64 {
		t.Errorf("scanned = %d, want 64 blocks", scanned)
	}
}

func TestNoteWriteDoubleWordRegion(t *testing.T) {
	al := newAlloc(t)
	db := NewDirtyBits(al, false)
	base := mem.Addr(2 * mem.PageSize)
	db.NoteWrite(base+4, 4) // a word store inside an 8-byte block dirties the block
	runs, scanned := db.Collect([]mem.Range{{Base: base, Len: 64}})
	want := []mem.Range{{Base: base, Len: 8}}
	if !reflect.DeepEqual(runs, want) {
		t.Errorf("runs = %v, want %v", runs, want)
	}
	if scanned != 8 { // 64 bytes / 8-byte blocks
		t.Errorf("scanned = %d, want 8", scanned)
	}
}

func TestStoreSpanningBlocks(t *testing.T) {
	al := newAlloc(t)
	db := NewDirtyBits(al, false)
	db.NoteWrite(6, 4) // crosses the 4/8 word boundary: dirties both words
	runs, _ := db.Collect([]mem.Range{{Base: 0, Len: 16}})
	want := []mem.Range{{Base: 4, Len: 8}}
	if !reflect.DeepEqual(runs, want) {
		t.Errorf("runs = %v, want %v", runs, want)
	}
}

func TestHierarchicalPageBits(t *testing.T) {
	al := newAlloc(t)
	db := NewDirtyBits(al, true)
	db.NoteWrite(mem.PageSize+40, 4)
	db.NoteWrite(3*mem.PageSize+8, 8)
	if got := db.DirtyPages(); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Errorf("dirty pages = %v", got)
	}
	runs, _ := db.CollectPage(1)
	want := []mem.Range{{Base: mem.PageSize + 40, Len: 4}}
	if !reflect.DeepEqual(runs, want) {
		t.Errorf("page runs = %v, want %v", runs, want)
	}
	db.ResetPage(1)
	if got := db.DirtyPages(); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("after reset, dirty pages = %v", got)
	}
}

func TestNonHierarchicalTracksNoPages(t *testing.T) {
	al := newAlloc(t)
	db := NewDirtyBits(al, false)
	db.NoteWrite(0, 4)
	if got := db.DirtyPages(); len(got) != 0 {
		t.Errorf("dirty pages = %v, want none", got)
	}
}

func TestResetRanges(t *testing.T) {
	al := newAlloc(t)
	db := NewDirtyBits(al, false)
	db.NoteWrite(0, 4)
	db.NoteWrite(64, 4)
	db.Reset([]mem.Range{{Base: 0, Len: 32}})
	runs, _ := db.Collect([]mem.Range{{Base: 0, Len: 128}})
	want := []mem.Range{{Base: 64, Len: 4}}
	if !reflect.DeepEqual(runs, want) {
		t.Errorf("runs after reset = %v, want %v", runs, want)
	}
	if db.Stores() != 2 {
		t.Errorf("stores = %d, want 2", db.Stores())
	}
}

func TestPageTwinsCompare(t *testing.T) {
	im := mem.NewImage(2 * mem.PageSize)
	im.WriteI32(16, 1)
	pt := NewPageTwins(im)
	pt.Make(0)
	if !pt.Has(0) || pt.Has(1) {
		t.Error("Has wrong")
	}
	im.WriteI32(16, 2)
	im.WriteI32(20, 3)
	im.WriteI32(800, 4)
	runs, compared := pt.Compare(0)
	want := []mem.Range{{Base: 16, Len: 8}, {Base: 800, Len: 4}}
	if !reflect.DeepEqual(runs, want) {
		t.Errorf("runs = %v, want %v", runs, want)
	}
	if compared != mem.PageWords {
		t.Errorf("compared = %d, want %d", compared, mem.PageWords)
	}
	pt.Drop(0)
	if pt.Has(0) {
		t.Error("Drop failed")
	}
	if pt.Made() != 1 {
		t.Errorf("Made = %d", pt.Made())
	}
}

func TestDoubleTwinPanics(t *testing.T) {
	im := mem.NewImage(mem.PageSize)
	pt := NewPageTwins(im)
	pt.Make(0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on double twin")
		}
	}()
	pt.Make(0)
}

func TestCompareUntwinnedPanics(t *testing.T) {
	pt := NewPageTwins(mem.NewImage(mem.PageSize))
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	pt.Compare(0)
}

func TestObjectTwin(t *testing.T) {
	im := mem.NewImage(mem.PageSize)
	im.WriteI32(0, 10)
	im.WriteI32(40, 20)
	ranges := []mem.Range{{Base: 0, Len: 8}, {Base: 40, Len: 8}}
	ot := new(ObjectTwin)
	ot.Remake(im, ranges)
	if ot.Words() != 4 {
		t.Errorf("Words = %d, want 4", ot.Words())
	}
	im.WriteI32(44, 99) // second word of second range
	runs, compared := ot.Compare()
	want := []mem.Range{{Base: 44, Len: 4}}
	if !reflect.DeepEqual(runs, want) {
		t.Errorf("runs = %v, want %v", runs, want)
	}
	if compared != 4 {
		t.Errorf("compared = %d, want 4", compared)
	}
}

// A pooled twin refilled by Remake — over fewer bytes, more bytes or more
// ranges than it held before — compares exactly like a fresh one: nothing of
// its earlier contents or extent shows through.
func TestObjectTwinRemakeMatchesFresh(t *testing.T) {
	im := mem.NewImage(2 * mem.PageSize)
	rng := rand.New(rand.NewSource(7))
	shapes := [][]mem.Range{
		{{Base: 64, Len: 256}},
		{{Base: 8, Len: 12}},                               // shorter, odd word count
		{{Base: 1000, Len: 2000}, {Base: 4096, Len: 1024}}, // longer
		{{Base: 0, Len: 4}, {Base: 16, Len: 8}, {Base: 100, Len: 60}, {Base: 5000, Len: 24}}, // more ranges
		nil,
		{{Base: 64, Len: 256}},
	}
	pooled := new(ObjectTwin)
	for round, ranges := range shapes {
		for a := 0; a < im.Size(); a += 4 {
			im.WriteU32(mem.Addr(a), rng.Uint32())
		}
		fresh := new(ObjectTwin)
		fresh.Remake(im, ranges)
		pooled.Remake(im, ranges)
		for _, r := range ranges {
			for k := 0; k < 1+r.Words()/3; k++ {
				a := r.Base + mem.Addr(4*rng.Intn(r.Words()))
				im.WriteU32(a, im.ReadU32(a)+uint32(1+rng.Intn(2)))
			}
		}
		wantRuns, wantCmp := fresh.Compare()
		gotRuns, gotCmp := pooled.CompareAppend(nil)
		if !reflect.DeepEqual(gotRuns, wantRuns) || gotCmp != wantCmp || pooled.Words() != fresh.Words() {
			t.Errorf("round %d (%v): remade twin found %v (%d compared), fresh twin %v (%d)",
				round, ranges, gotRuns, gotCmp, wantRuns, wantCmp)
		}
		if len(ranges) > 0 && len(wantRuns) == 0 {
			t.Errorf("round %d: no change detected", round)
		}
	}
}

// Property: for arbitrary write sets, Collect returns exactly the dirtied
// blocks, coalesced, and twin comparison agrees with direct inspection.
func TestPropertyDirtyBitsMatchWrites(t *testing.T) {
	al := mem.NewAllocator()
	al.Alloc("r", mem.PageSize, 4)
	f := func(words []uint16) bool {
		db := NewDirtyBits(al, false)
		written := map[int]bool{}
		for _, w := range words {
			idx := int(w) % mem.PageWords
			db.NoteWrite(mem.Addr(idx*4), 4)
			written[idx] = true
		}
		runs, _ := db.Collect([]mem.Range{{Base: 0, Len: mem.PageSize}})
		got := map[int]bool{}
		for _, r := range runs {
			for a := r.Base; a < r.End(); a += 4 {
				got[int(a)/4] = true
			}
		}
		if len(got) != len(written) {
			return false
		}
		for w := range written {
			if !got[w] {
				return false
			}
		}
		// Runs must be maximal: no two adjacent runs.
		for i := 1; i < len(runs); i++ {
			if runs[i-1].End() == runs[i].Base {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyTwinCompareFindsExactChanges(t *testing.T) {
	f := func(writes []uint16, vals []uint32) bool {
		im := mem.NewImage(mem.PageSize)
		pt := NewPageTwins(im)
		pt.Make(0)
		changed := map[int]bool{}
		for i, w := range writes {
			idx := int(w) % mem.PageWords
			var v uint32 = 0xdead0000
			if i < len(vals) {
				v = vals[i]
			}
			if v != 0 { // writing 0 to a zero word is not a change
				im.WriteU32(mem.Addr(idx*4), v)
				changed[idx] = true
			}
		}
		runs, _ := pt.Compare(0)
		got := map[int]bool{}
		for _, r := range runs {
			for a := r.Base; a < r.End(); a += 4 {
				got[int(a)/4] = true
			}
		}
		for w := range got {
			if !changed[w] {
				return false // found a change that was not written
			}
		}
		// Every word that now differs from zero must be reported.
		for w := range changed {
			if im.ReadU32(mem.Addr(w*4)) != 0 && !got[w] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
