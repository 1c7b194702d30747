package wtrap

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ecvslrc/internal/mem"
)

// referenceCompareWords is the oracle for compareWords: the word-at-a-time
// compare it replaced, one diff8 per double-word and one addRun per modified
// word, without the identical-chunk skip.
func referenceCompareWords(dst []mem.Range, cur, old []byte, base mem.Addr) ([]mem.Range, int) {
	runs := dst
	off := 0
	for ; off+8 <= len(cur); off += 8 {
		runs = diff8(runs, cur, old, base, off)
	}
	if off < len(cur) && binary.LittleEndian.Uint32(cur[off:]) != binary.LittleEndian.Uint32(old[off:]) {
		runs = addRun(runs, base+mem.Addr(off))
	}
	return runs, len(cur) / mem.WordSize
}

// diff8 compares the double-word at off and appends the differing words.
func diff8(runs []mem.Range, cur, old []byte, base mem.Addr, off int) []mem.Range {
	a := binary.LittleEndian.Uint64(cur[off:])
	b := binary.LittleEndian.Uint64(old[off:])
	if a == b {
		return runs
	}
	if uint32(a) != uint32(b) {
		runs = addRun(runs, base+mem.Addr(off))
	}
	if uint32(a>>32) != uint32(b>>32) {
		runs = addRun(runs, base+mem.Addr(off)+4)
	}
	return runs
}

// addRun appends the changed word at a, coalescing with an adjacent last run.
func addRun(runs []mem.Range, a mem.Addr) []mem.Range {
	if len(runs) > 0 && runs[len(runs)-1].End() == a {
		runs[len(runs)-1].Len += mem.WordSize
		return runs
	}
	return append(runs, mem.Range{Base: a, Len: mem.WordSize})
}

// wordPair builds a compared pair from a word pattern: one word per entry,
// unchanged where the entry is 0 and otherwise differing in byte (entry-1)&3
// only, so a change can sit anywhere inside its word.
func wordPair(pattern []byte) (cur, old []byte) {
	old = make([]byte, len(pattern)*mem.WordSize)
	for i := range old {
		old[i] = byte(i*7 + 3)
	}
	cur = slices.Clone(old)
	for w, p := range pattern {
		if p != 0 {
			cur[w*mem.WordSize+int(p-1)&3] ^= 0x5a
		}
	}
	return cur, old
}

// words returns a pattern of n words with the listed words modified.
func words(n int, modified ...int) []byte {
	p := make([]byte, n)
	for _, w := range modified {
		p[w] = byte(1 + w%4)
	}
	return p
}

// span returns the words [lo, hi).
func span(lo, hi int) []int {
	var ws []int
	for w := lo; w < hi; w++ {
		ws = append(ws, w)
	}
	return ws
}

// checkCompare runs compareWords and the oracle on one pair, once into an
// empty dst and once into a dst whose last run ends at base (a modified first
// word must join it), and reports any difference.
func checkCompare(t *testing.T, name string, cur, old []byte) {
	t.Helper()
	const base = mem.Addr(0x3000)
	for _, dst := range [][]mem.Range{nil, {{Base: 0x100, Len: 8}, {Base: base - 12, Len: 12}}} {
		got, gotCmp := compareWords(slices.Clone(dst), cur, old, base)
		want, wantCmp := referenceCompareWords(slices.Clone(dst), cur, old, base)
		if !slices.Equal(got, want) || gotCmp != wantCmp {
			t.Errorf("%s (dst %v): runs %v over %d words, want %v over %d", name, dst, got, gotCmp, want, wantCmp)
		}
	}
}

// pattern is one named word pattern of the seeded table (see wordPair).
type pattern struct {
	name  string
	words []byte
}

// comparePatterns is the seeded table: the shapes the run scanner branches
// on, at page size and at odd word counts.
func comparePatterns() []pattern {
	page := mem.PageWords
	alt := func(first int) []int {
		var ws []int
		for w := first; w < page; w += 2 {
			ws = append(ws, w)
		}
		return ws
	}
	ps := []pattern{
		{"clean", words(page)},
		{"sparse", words(page, 32, 33, 750)},
		{"dense low words", words(page, alt(0)...)},
		{"dense high words", words(page, alt(1)...)},
		{"half page", words(page, span(0, page/2)...)},
		{"half page from high", words(page, span(3, page/2+3)...)},
		{"all different", words(page, span(0, page)...)},
		{"first word", words(page, 0)},
		{"last word", words(page, page-1)},
		{"run to last word", words(page, span(1000, page)...)},
		{"high-word run to last", words(page, span(1001, page)...)},
		{"chunk edge pair", words(page, 15, 16)},
		{"across chunk edge", words(page, span(14, 18)...)},
		{"across two edges", words(page, span(13, 37)...)},
		{"whole chunk", words(page, span(16, 32)...)},
		{"across block edge", words(page, span(126, 131)...)},
		{"lone word past a block", words(page, 200)},
		{"high word to low word", words(page, span(5, 9)...)},
		{"lone high word", words(page, 7)},
		{"sparse mix", words(page, 5, 100, 101, 900)},
		{"odd tail", words(5, 4)},
		{"odd run into tail", words(9, 6, 7, 8)},
		{"odd high into tail", words(9, 7, 8)},
		{"odd all", words(7, span(0, 7)...)},
		{"one word", words(1, 0)},
		{"one word clean", words(1)},
		{"odd clean", words(21)},
		{"odd chunk and tail", words(33, span(15, 33)...)},
	}
	rng := rand.New(rand.NewSource(28))
	for _, density := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
		for _, n := range []int{page, 37} {
			p := make([]byte, n)
			for w := range p {
				if rng.Float64() < density {
					p[w] = byte(1 + rng.Intn(4))
				}
			}
			ps = append(ps, pattern{fmt.Sprintf("random %.2f x %d", density, n), p})
		}
	}
	return ps
}

// TestCompareWordsMatchesReference pins the run scanner to the word-at-a-time
// oracle on the seeded table.
func TestCompareWordsMatchesReference(t *testing.T) {
	for _, p := range comparePatterns() {
		cur, old := wordPair(p.words)
		checkCompare(t, p.name, cur, old)
	}
}

// TestObjectTwinMatchesReference compares object twins over odd-word-length
// ranges, adjacent ones included, against the oracle run range by range into
// one dst: the 4-byte tails, and a run closing one range joining the run
// opening the next.
func TestObjectTwinMatchesReference(t *testing.T) {
	ranges := []mem.Range{{Base: 4, Len: 20}, {Base: 24, Len: 12}, {Base: 100, Len: 4}, {Base: 200, Len: 132}}
	rng := rand.New(rand.NewSource(28))
	for round := 0; round < 200; round++ {
		im := mem.NewImage(mem.PageSize)
		for a := 0; a < im.Size(); a += 4 {
			im.WriteU32(mem.Addr(a), rng.Uint32())
		}
		ot := new(ObjectTwin)
		ot.Remake(im, ranges)
		var want []mem.Range
		wantCmp := 0
		for _, r := range ranges {
			old := slices.Clone(im.Bytes()[r.Base:r.End()])
			for a := r.Base; a < r.End(); a += 4 {
				if rng.Intn(3) == 0 {
					im.WriteU32(a, im.ReadU32(a)^1<<(8*rng.Intn(4)))
				}
			}
			var c int
			want, c = referenceCompareWords(want, im.Bytes()[r.Base:r.End()], old, r.Base)
			wantCmp += c
		}
		got, gotCmp := ot.CompareAppend(nil)
		if !slices.Equal(got, want) || gotCmp != wantCmp {
			t.Fatalf("round %d: runs %v over %d words, want %v over %d", round, got, gotCmp, want, wantCmp)
		}
	}
}

// FuzzCompareWords holds the run scanner to the oracle on arbitrary word
// patterns (see wordPair), seeded with the table.
func FuzzCompareWords(f *testing.F) {
	for _, p := range comparePatterns() {
		f.Add(p.words)
	}
	f.Fuzz(func(t *testing.T, pattern []byte) {
		if len(pattern) > 2*mem.PageWords {
			pattern = pattern[:2*mem.PageWords]
		}
		cur, old := wordPair(pattern)
		checkCompare(t, "fuzz", cur, old)
	})
}

// BenchmarkCompareWords prices one 4 KB page compare per shape: the three
// shapes of the benchmark's wtrap probes plus a half-page run (one colour of
// an SOR row).
func BenchmarkCompareWords(b *testing.B) {
	for _, p := range comparePatterns() {
		switch p.name {
		case "clean", "sparse", "dense low words", "half page":
		default:
			continue
		}
		cur, old := wordPair(p.words)
		b.Run(p.name, func(b *testing.B) {
			var runs []mem.Range
			for i := 0; i < b.N; i++ {
				runs, _ = compareWords(runs[:0], cur, old, 0)
			}
		})
	}
}
