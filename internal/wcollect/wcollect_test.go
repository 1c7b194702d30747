package wcollect

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

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
	for _, tc := range []struct{ nprocs, maxInterval int }{
		{1, 1<<32 - 1}, {8, 1<<29 - 1}, {1024, 1<<22 - 1}, {32767, 1<<17 - 1},
	} {
		k := NewLRCPacking(tc.nprocs)
		if k.MaxInterval() != tc.maxInterval {
			t.Errorf("%d procs: MaxInterval = %d, want %d", tc.nprocs, k.MaxInterval(), tc.maxInterval)
		}
		if k.Stamp(0, 0) != 0 {
			t.Errorf("%d procs: (0, 0) packs to %d, want the never-stamped 0", tc.nprocs, k.Stamp(0, 0))
		}
		// In (processor, interval) order, so stamps must ascend.
		last := tc.nprocs - 1
		pairs := [][2]int{{0, 0}, {0, 1}, {0, tc.maxInterval}}
		if last > 0 {
			pairs = append(pairs, [2]int{last, 0}, [2]int{last, 1}, [2]int{last, tc.maxInterval})
		}
		for i, pi := range pairs {
			s := k.Stamp(pi[0], pi[1])
			if p, iv := k.Unpack(s); p != pi[0] || iv != pi[1] {
				t.Errorf("%d procs: (%d, %d) unpacked as (%d, %d)", tc.nprocs, pi[0], pi[1], p, iv)
			}
			if i > 0 && s <= k.Stamp(pairs[i-1][0], pairs[i-1][1]) {
				t.Errorf("%d procs: (%d, %d) = %d is out of (processor, interval) order", tc.nprocs, pi[0], pi[1], s)
			}
		}
		wantPanic(t, fmt.Sprintf("interval %d of processor %d: a %d-processor cell's stamps hold intervals 0..%d",
			tc.maxInterval+1, last, tc.nprocs, tc.maxInterval), func() { k.Stamp(last, tc.maxInterval+1) })
		wantPanic(t, "interval -1", func() { k.Stamp(0, -1) })
		wantPanic(t, fmt.Sprintf("processor %d of a %d-processor cell", tc.nprocs, tc.nprocs), func() { k.Stamp(tc.nprocs, 0) })
	}
	wantPanic(t, "no LRC stamp packing for 0 processors", func() { NewLRCPacking(0) })
}

// ProcWindow selects exactly what "processor proc, interval in (since, upTo]"
// means, at the window's edges, at the interval field's limit and for the
// lowest and highest processor ids — never a neighbour's stamps.
func TestProcWindowEdges(t *testing.T) {
	for _, nprocs := range []int{1, 8, 1024, 32767} {
		k := NewLRCPacking(nprocs)
		top := k.MaxInterval()
		lim := min(top, 1<<31-1) // a window's bounds are int32
		for _, proc := range []int{0, 1, nprocs - 1} {
			if proc >= nprocs {
				continue
			}
			for _, win := range [][2]int{{-1, 0}, {-1, 5}, {0, 0}, {3, 4}, {3, 2}, {7, 1076}, {lim - 2, lim}, {-1, lim}, {lim - 1, min(lim+5, 1<<31-1)}, {-5, 2}} {
				since, upTo := win[0], win[1]
				w := k.Window(proc, int32(since), int32(upTo))
				for _, q := range []int{proc - 1, proc, proc + 1} {
					if q < 0 || q >= nprocs {
						continue
					}
					for _, iv := range []int{0, 1, since, since + 1, since + 2, upTo - 1, upTo, upTo + 1, top - 1, top} {
						if iv < 0 || iv > top {
							continue
						}
						want := q == proc && iv > since && iv <= upTo
						if got := w.newer(k.Stamp(q, iv)); got != want {
							t.Errorf("%d procs, window of %d over (%d, %d]: stamp (%d, %d) selected = %v, want %v",
								nprocs, proc, since, upTo, q, iv, got, want)
						}
					}
				}
			}
		}
	}
	wantPanic(t, "processor 8 of a 8-processor cell", func() { NewLRCPacking(8).Window(8, -1, 3) })
}

func TestECStamp(t *testing.T) {
	if ECStamp(0) != 0 || ECStamp(1<<31-1) != 1<<31-1 {
		t.Error("ECStamp must keep an incarnation's value")
	}
	wantPanic(t, "negative lock incarnation -1", func() { ECStamp(-1) })
}

// wantPanic fails t unless f panics with a message containing want.
func wantPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if msg := fmt.Sprint(r); r == nil || !strings.Contains(msg, want) {
			t.Errorf("panic %v, want one containing %q", r, want)
		}
	}()
	f()
}

// A stamped page holds one 4-byte stamp per trapping block: 1024 for a word
// page, 512 for a double-word page.
func TestStampPageCost(t *testing.T) {
	al := mem.NewAllocator()
	w4 := al.Alloc("w4", mem.PageSize, 4)
	w8 := al.Alloc("w8", mem.PageSize, 8)
	st := NewStamps(al)
	st.Set([]mem.Range{{Base: w4 + 12, Len: 4}, {Base: w8 + 12, Len: 4}}, 1)
	for _, tc := range []struct {
		base  mem.Addr
		bytes int
	}{{w4, 1024 * 4}, {w8, 512 * 4}} {
		p := st.pages[mem.PageOf(tc.base)]
		if got := cap(p) * int(unsafe.Sizeof(Stamp(0))); got != tc.bytes {
			t.Errorf("page at %d costs %d B of stamps, want %d", tc.base, got, tc.bytes)
		}
	}
}

// A range keeps its first address's block; one that runs on into a page of
// another block size panics in every operation that walks it.
func TestRangeIntoOtherBlockSizePanics(t *testing.T) {
	al := mem.NewAllocator()
	w4 := al.Alloc("w4", mem.PageSize, 4)
	w8 := al.Alloc("w8", mem.PageSize, 8)
	al.Alloc("w4b", mem.PageSize, 4)
	for _, r := range []mem.Range{{Base: w8 - 8, Len: 16}, {Base: w8 + mem.PageSize - 8, Len: 12}, {Base: w4, Len: 2 * mem.PageSize}} {
		st := NewStamps(al)
		msg := "blocks runs into page"
		wantPanic(t, msg, func() { st.Set([]mem.Range{r}, 1) })
		wantPanic(t, msg, func() { st.Select([]mem.Range{r}, func(Stamp) bool { return true }) })
		wantPanic(t, msg, func() { st.ApplyStamps([]StampRun{{Base: r.Base, Len: r.Len, Stamp: 1}}) })
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
	pk := NewLRCPacking(8)
	srcStamps.Set([]mem.Range{{Base: 8, Len: 4}}, pk.Stamp(3, 17))

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
	p, i := pk.Unpack(dstStamps.Get(8))
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

// mixedRegions lays out word and double-word regions of two and three pages,
// back to back, so ranges meet both block sizes and page edges of each.
func mixedRegions() (*mem.Allocator, []mem.Range) {
	al := mem.NewAllocator()
	var regions []mem.Range
	for i, block := range []int{4, 8, 8, 4, 8} {
		size := (3 - i%2) * mem.PageSize
		regions = append(regions, mem.Range{Base: al.Alloc(fmt.Sprint("r", i), size, block), Len: size})
	}
	return al, regions
}

// sameStamps reports whether a and b hold the same stamp for every block of
// regions.
func sameStamps(a, b *Stamps, al *mem.Allocator, regions []mem.Range) bool {
	for _, r := range regions {
		for off := r.Base; off < r.End(); off += mem.Addr(al.BlockAt(off)) {
			if a.Get(off) != b.Get(off) {
				return false
			}
		}
	}
	return true
}

// Property: AppendSelect agrees with the block-by-block specification on
// random stamp patterns — word and double-word regions side by side, ranges
// that start mid-block and cross page edges, pages never stamped (with a
// predicate that selects stamp 0 and one that does not), ranges in any
// order, stamps set directly or received through ApplyStamps — and leaves
// what dst already held untouched and unmerged.
func TestPropertyAppendSelectMatchesSpec(t *testing.T) {
	al, regions := mixedRegions()
	pk := NewLRCPacking(8)
	f := func(ops []struct {
		Off uint16
		Len uint8
		S   uint8
	}, cuts []struct{ Off, Len uint16 }, cut uint8, window, viaApply bool) bool {
		st := NewStamps(al)
		for i, op := range ops {
			// The last page of each region is almost never stamped.
			reg := regions[i%len(regions)]
			base := reg.Base + mem.Addr(int(op.Off)%(reg.Len-mem.PageSize))&^3
			st.Set([]mem.Range{{Base: base, Len: int(op.Len)%40 + 1}}, Stamp(op.S%6))
		}
		if viaApply {
			// A requester that received every stamped block holds the same
			// stamps.
			runs, _ := st.Select(regions, func(s Stamp) bool { return s != 0 })
			got := NewStamps(al)
			got.ApplyStamps(runs)
			if !sameStamps(got, st, al, regions) {
				return false
			}
			st = got
		}
		var ranges []mem.Range
		for i, c := range cuts {
			reg := regions[i%len(regions)]
			base := reg.Base + mem.Addr(int(c.Off)%(reg.Len-600))
			ranges = append(ranges, mem.Range{Base: base, Len: int(c.Len)%600 + 1})
		}
		// A predecessor run ending exactly where the first range starts and
		// carrying a stamp it may select: it must not be extended.
		prefix := []StampRun{{Base: 0, Len: 4, Stamp: 1}}
		if len(ranges) > 0 {
			prefix[0].Base = ranges[0].Base - 4
		}
		var pred stampPred = NewerThan{Min: Stamp(cut % 4)}
		if window {
			pred = pk.Window(0, -1, int32(cut%6)) // selects never-stamped blocks
		}
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

// Property: ApplyStamps stamps every block a run overlaps, as Set does with
// the run's range, wherever in a block the run starts or ends.
func TestPropertyApplyStampsMatchesSet(t *testing.T) {
	al, regions := mixedRegions()
	f := func(runs []struct {
		Off uint16
		Len uint8
		S   uint8
	}) bool {
		got, want := NewStamps(al), NewStamps(al)
		for i, r := range runs {
			reg := regions[i%len(regions)]
			sr := StampRun{Base: reg.Base + mem.Addr(int(r.Off)%(reg.Len-256)), Len: int(r.Len), Stamp: Stamp(r.S)}
			got.ApplyStamps([]StampRun{sr})
			want.Set([]mem.Range{{Base: sr.Base, Len: sr.Len}}, sr.Stamp)
		}
		return sameStamps(got, want, al, regions)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDiffDrop: a dropped diff keeps the wire size and word count its
// transfer and application are charged for, and installs nothing.
func TestDiffDrop(t *testing.T) {
	src := mem.NewImage(mem.PageSize)
	src.WriteI32(8, 7)
	src.WriteI32(100, 9)
	d := BuildDiff(src, []mem.Range{{Base: 8, Len: 8}, {Base: 100, Len: 4}})
	dropped := d.Drop()
	if !dropped.Dropped() || d.Dropped() || (Diff{}).Dropped() {
		t.Errorf("Dropped: built %v, dropped %v, empty %v; want false, true, false", d.Dropped(), dropped.Dropped(), (Diff{}).Dropped())
	}
	if dropped.WireSize() != d.WireSize() || dropped.Words() != d.Words() {
		t.Errorf("dropped diff: wire %d words %d, want %d and %d", dropped.WireSize(), dropped.Words(), d.WireSize(), d.Words())
	}
	dst := mem.NewImage(mem.PageSize)
	if got := dropped.Apply(dst); got != 3 {
		t.Errorf("dropped Apply returned %d words, want 3", got)
	}
	if !mem.EqualRange(dst, mem.NewImage(mem.PageSize), mem.Range{Len: mem.PageSize}) {
		t.Error("a dropped diff installed bytes")
	}
	if d.Covers(dropped) || dropped.Covers(d) {
		t.Error("a dropped diff covers or is covered")
	}
}

// coverRanges decodes spec into ascending, non-overlapping runs of one
// page's words, the shape a twin comparison produces: byte 2i is the gap in
// words before run i and byte 2i+1 its length, both mod 8. A zero gap makes
// adjacent runs and a zero length an empty one, which BuildDiff encodes
// too. Runs stop at the page's end.
func coverRanges(spec []byte) []mem.Range {
	var rs []mem.Range
	w := 0
	for i := 0; i+1 < len(spec); i += 2 {
		w += int(spec[i] % 8)
		if w >= mem.PageWords {
			break
		}
		n := min(int(spec[i+1]%8), mem.PageWords-w)
		rs = append(rs, mem.Range{Base: mem.Addr(w * mem.WordSize), Len: n * mem.WordSize})
		w += n
	}
	return rs
}

// FuzzDiffCover holds Covers to a brute-force oracle: d covers e exactly
// when the set of words d's runs carry contains e's. When it does,
// installing e and then d must leave the page as installing d alone does.
func FuzzDiffCover(f *testing.F) {
	f.Add([]byte{0, 5, 0, 0}, []byte{0, 5})                   // equal runs
	f.Add([]byte{0, 7, 0, 7}, []byte{3, 6})                   // an e run across two adjacent d runs
	f.Add([]byte{0, 3, 1, 3}, []byte{2, 3})                   // across a one-word gap
	f.Add([]byte{0, 4, 4, 0}, []byte{4, 4})                   // SOR's red half against the black half
	f.Add([]byte{1, 2, 2, 2, 2, 2}, []byte{1, 1, 4, 1, 4, 1}) // a subset of every run
	f.Add([]byte{}, []byte{0, 0, 3, 0})                       // empty against empty runs
	f.Fuzz(func(t *testing.T, dspec, espec []byte) {
		dr, er := coverRanges(dspec), coverRanges(espec)
		dw := make(map[int]bool)
		for _, r := range dr {
			for w := range r.Words() {
				dw[int(r.Base)/mem.WordSize+w] = true
			}
		}
		want := true
		for _, r := range er {
			for w := range r.Words() {
				want = want && dw[int(r.Base)/mem.WordSize+w]
			}
		}
		dsrc, esrc := mem.NewImage(mem.PageSize), mem.NewImage(mem.PageSize)
		for w := range mem.PageWords {
			dsrc.WriteI32(mem.Addr(w*mem.WordSize), int32(w+1))
			esrc.WriteI32(mem.Addr(w*mem.WordSize), -int32(w+1))
		}
		d, e := BuildDiff(dsrc, dr), BuildDiff(esrc, er)
		if got := d.Covers(e); got != want {
			t.Fatalf("d %v covers e %v: got %v, want %v", dr, er, got, want)
		}
		if !want {
			return
		}
		both, alone := mem.NewImage(mem.PageSize), mem.NewImage(mem.PageSize)
		e.Apply(both)
		d.Apply(both)
		d.Apply(alone)
		if !mem.EqualRange(both, alone, mem.Range{Len: mem.PageSize}) {
			t.Fatalf("d %v covers e %v, yet installing e first changes the page", dr, er)
		}
	})
}
