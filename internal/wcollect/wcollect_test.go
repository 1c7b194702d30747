package wcollect

import (
	"reflect"
	"testing"
	"testing/quick"

	"ecvslrc/internal/mem"
)

func wordAlloc() *mem.Allocator {
	al := mem.NewAllocator()
	al.Alloc("w4", 4*mem.PageSize, 4)
	return al
}

func TestDiffBuildApply(t *testing.T) {
	src := mem.NewImage(mem.PageSize)
	dst := mem.NewImage(mem.PageSize)
	src.WriteI32(8, 7)
	src.WriteI32(12, 8)
	src.WriteF32(100, 2.5)
	d := BuildDiff(src, []mem.Range{{Base: 8, Len: 8}, {Base: 100, Len: 4}})
	if d.Empty() {
		t.Fatal("diff should not be empty")
	}
	if d.Words() != 3 {
		t.Errorf("Words = %d, want 3", d.Words())
	}
	wantSize := DiffHeaderBytes + (RunHeaderBytes + 8) + (RunHeaderBytes + 4)
	if d.WireSize() != wantSize {
		t.Errorf("WireSize = %d, want %d", d.WireSize(), wantSize)
	}
	applied := d.Apply(dst)
	if applied != 3 {
		t.Errorf("applied = %d, want 3", applied)
	}
	if dst.ReadI32(8) != 7 || dst.ReadI32(12) != 8 || dst.ReadF32(100) != 2.5 {
		t.Error("apply did not install data")
	}
	if dst.ReadI32(0) != 0 {
		t.Error("apply touched unrelated data")
	}
}

func TestDiffSnapshotsDataAtBuildTime(t *testing.T) {
	src := mem.NewImage(mem.PageSize)
	src.WriteI32(0, 1)
	d := BuildDiff(src, []mem.Range{{Base: 0, Len: 4}})
	src.WriteI32(0, 2) // later write must not leak into the diff
	dst := mem.NewImage(mem.PageSize)
	d.Apply(dst)
	if dst.ReadI32(0) != 1 {
		t.Errorf("diff captured %d, want snapshot value 1", dst.ReadI32(0))
	}
}

func TestLRCStampPacking(t *testing.T) {
	s := LRCStamp(7, 123456)
	p, i := s.ProcInterval()
	if p != 7 || i != 123456 {
		t.Errorf("unpacked (%d,%d)", p, i)
	}
	if LRCStamp(0, 0) != 0 {
		t.Error("zero stamp should be zero")
	}
}

func TestStampsSetSelect(t *testing.T) {
	al := wordAlloc()
	st := NewStamps(al)
	st.Set([]mem.Range{{Base: 16, Len: 8}}, 5)
	st.Set([]mem.Range{{Base: 24, Len: 4}}, 6)
	st.Set([]mem.Range{{Base: 40, Len: 4}}, 5)

	runs, scanned := st.Select([]mem.Range{{Base: 0, Len: 64}}, func(s Stamp) bool { return s > 4 })
	want := []StampRun{
		{Base: 16, Len: 8, Stamp: 5},
		{Base: 24, Len: 4, Stamp: 6},
		{Base: 40, Len: 4, Stamp: 5},
	}
	if !reflect.DeepEqual(runs, want) {
		t.Errorf("runs = %v, want %v", runs, want)
	}
	if scanned != 16 {
		t.Errorf("scanned = %d, want 16", scanned)
	}
	// Runs with equal stamps but non-adjacent addresses must not merge;
	// adjacent blocks with different stamps must not merge.
	runs2, _ := st.Select([]mem.Range{{Base: 16, Len: 16}}, func(s Stamp) bool { return s != 0 })
	if len(runs2) != 2 {
		t.Errorf("adjacent different stamps merged: %v", runs2)
	}
}

func TestStampsGetAndApply(t *testing.T) {
	al := wordAlloc()
	a := NewStamps(al)
	a.Set([]mem.Range{{Base: 100, Len: 4}}, 9)
	if a.Get(100) != 9 || a.Get(104) != 0 {
		t.Error("Get wrong")
	}
	b := NewStamps(al)
	runs, _ := a.Select([]mem.Range{{Base: 96, Len: 16}}, func(s Stamp) bool { return s != 0 })
	b.ApplyStamps(runs)
	if b.Get(100) != 9 {
		t.Error("ApplyStamps did not install")
	}
}

func TestExtractStampedRoundTrip(t *testing.T) {
	al := wordAlloc()
	src := mem.NewImage(mem.PageSize)
	dst := mem.NewImage(mem.PageSize)
	srcStamps := NewStamps(al)
	dstStamps := NewStamps(al)

	src.WriteI32(8, 42)
	srcStamps.Set([]mem.Range{{Base: 8, Len: 4}}, LRCStamp(3, 17))

	runs, _ := srcStamps.Select([]mem.Range{{Base: 0, Len: 64}}, func(s Stamp) bool { return s != 0 })
	sd := StampedData{Runs: runs}
	sd.Extract(src, new(Arena))
	if got := sd.WireSize(LRCStampBytes); got != RunHeaderBytes+LRCStampBytes+4 {
		t.Errorf("WireSize = %d", got)
	}
	words := sd.Apply(dst, dstStamps)
	if words != 1 {
		t.Errorf("words = %d, want 1", words)
	}
	if dst.ReadI32(8) != 42 {
		t.Error("data not applied")
	}
	p, i := dstStamps.Get(8).ProcInterval()
	if p != 3 || i != 17 {
		t.Errorf("stamp = (%d,%d)", p, i)
	}
}

func TestDoubleWordBlockStamps(t *testing.T) {
	al := mem.NewAllocator()
	al.Alloc("w8", mem.PageSize, 8)
	st := NewStamps(al)
	// Writing one word of an 8-byte block stamps the whole block.
	st.Set([]mem.Range{{Base: 12, Len: 4}}, 3)
	runs, scanned := st.Select([]mem.Range{{Base: 0, Len: 32}}, func(s Stamp) bool { return s != 0 })
	want := []StampRun{{Base: 8, Len: 8, Stamp: 3}}
	if !reflect.DeepEqual(runs, want) {
		t.Errorf("runs = %v, want %v", runs, want)
	}
	if scanned != 4 { // 32 bytes / 8-byte blocks
		t.Errorf("scanned = %d, want 4", scanned)
	}
}

func TestPropertyDiffRoundTrip(t *testing.T) {
	f := func(writes []uint16, vals []uint32) bool {
		src := mem.NewImage(mem.PageSize)
		dst := mem.NewImage(mem.PageSize)
		var changed []mem.Range
		for i, w := range writes {
			idx := int(w) % mem.PageWords
			var v uint32 = 0xabcd
			if i < len(vals) {
				v = vals[i]
			}
			src.WriteU32(mem.Addr(idx*4), v)
			changed = append(changed, mem.Range{Base: mem.Addr(idx * 4), Len: 4})
		}
		d := BuildDiff(src, changed)
		d.Apply(dst)
		return mem.EqualRange(src, dst, mem.Range{Base: 0, Len: mem.PageSize})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Select(newer) ∘ Set behaves like a map from block to stamp.
func TestPropertyStampsSelectConsistent(t *testing.T) {
	al := wordAlloc()
	f := func(ops []struct {
		W uint16
		S uint8
	}) bool {
		st := NewStamps(al)
		model := map[int]Stamp{}
		for _, op := range ops {
			idx := int(op.W) % (2 * mem.PageWords)
			s := Stamp(op.S%8) + 1
			st.Set([]mem.Range{{Base: mem.Addr(idx * 4), Len: 4}}, s)
			model[idx] = s
		}
		cut := Stamp(4)
		runs, _ := st.Select([]mem.Range{{Base: 0, Len: 2 * mem.PageSize}}, func(s Stamp) bool { return s > cut })
		got := map[int]Stamp{}
		for _, r := range runs {
			for a := r.Base; a < r.Base+mem.Addr(r.Len); a += 4 {
				got[int(a)/4] = r.Stamp
			}
		}
		for idx, s := range model {
			if s > cut && got[idx] != s {
				return false
			}
			if s <= cut {
				if _, ok := got[idx]; ok {
					return false
				}
			}
		}
		return len(got) <= len(model)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// selectRef is the specification of AppendSelect, one Get per block: within
// each range, maximal runs of adjacent selected blocks with equal stamps.
func selectRef(st *Stamps, al *mem.Allocator, ranges []mem.Range, newer func(Stamp) bool) (runs []StampRun, scanned int) {
	for _, r := range ranges {
		if r.Len <= 0 {
			continue
		}
		block := al.BlockAt(r.Base)
		open := false
		for off := int(r.Base) / block * block; off < int(r.End()); off += block {
			scanned++
			s := st.Get(mem.Addr(off))
			switch last := len(runs) - 1; {
			case !newer(s):
				open = false
				continue
			case open && runs[last].Stamp == s:
				runs[last].Len += block
			default:
				runs = append(runs, StampRun{Base: mem.Addr(off), Len: block, Stamp: s})
			}
			open = true
		}
	}
	return runs, scanned
}

// Property: AppendSelect agrees with the block-by-block specification on
// random stamp patterns — word and double-word regions, pages never stamped
// (with a predicate that selects stamp 0 and one that does not), ranges in
// any order — and leaves what dst already held untouched and unmerged.
func TestPropertyAppendSelectMatchesSpec(t *testing.T) {
	al := mem.NewAllocator()
	w4 := al.Alloc("w4", 3*mem.PageSize, 4)
	w8 := al.Alloc("w8", 3*mem.PageSize, 8)
	f := func(ops []struct {
		Off uint16
		Len uint8
		S   uint8
	}, cuts []uint16, min int8) bool {
		st := NewStamps(al)
		for i, op := range ops {
			// The last page of each region is never stamped.
			base := []mem.Addr{w4, w8}[i%2] + mem.Addr(int(op.Off)%(2*mem.PageSize))&^3
			st.Set([]mem.Range{{Base: base, Len: int(op.Len)%40 + 1}}, Stamp(op.S%6))
		}
		var ranges []mem.Range
		for i, c := range cuts {
			base := []mem.Addr{w4, w8}[i%2] + mem.Addr(int(c)%(3*mem.PageSize-600))&^3
			ranges = append(ranges, mem.Range{Base: base, Len: int(c)%600 + 1})
		}
		// A predecessor run ending exactly where the first range starts and
		// carrying a stamp it may select: it must not be extended.
		prefix := []StampRun{{Base: 0, Len: 4, Stamp: 1}}
		if len(ranges) > 0 {
			prefix[0].Base = ranges[0].Base - 4
		}
		pred := NewerThan{Min: Stamp(min % 4)} // negative Min selects never-stamped blocks
		got, scanned := AppendSelect(prefix[:1:1], st, ranges, pred)
		want, wantScanned := selectRef(st, al, ranges, pred.newer)
		return scanned == wantScanned &&
			reflect.DeepEqual(got[:1], prefix) &&
			reflect.DeepEqual(append([]StampRun(nil), got[1:]...), want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
