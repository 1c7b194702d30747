package apps

import (
	"fmt"

	"ecvslrc/internal/core"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/run"
	"ecvslrc/internal/sim"
)

func init() {
	register("SOR", func(s Scale) run.App { return newSOR(s, false) })
	register("SOR+", func(s Scale) run.App { return newSOR(s, true) })
}

// sorPerElem is the CPU cost of one five-point stencil update, calibrated so
// the paper-size sequential run lands near Table 3's 86.10 s.
const sorPerElem = 1720 * sim.Nanosecond

// SOR solves a PDE by Red-Black Successive Over-Relaxation on a float32
// matrix whose four edges are constant. Each iteration has a red and a black
// phase separated by barriers; the matrix is divided into bands of
// consecutive rows, one band per processor, and communication occurs across
// band boundaries.
//
// Rows are laid out with all red elements first and all black elements next
// (the layout behind the paper's prefetch observation for LRC, Section 7.2).
//
// In the plus variant (SOR+) only the band-boundary rows are declared
// shared; interior rows live in private memory.
type SOR struct {
	plus       bool
	rows, cols int
	iters      int
	base       mem.Addr // full matrix (SOR) or boundary-row block (SOR+)
	// sharedOf[i] is row i's index in the shared boundary block, -1 when the
	// row is private (SOR+). A flat table: rowBase runs on every element
	// access of the stencil.
	sharedOf     []int32
	bandCounts   []int // processor counts whose band boundaries Layout pre-shares
	nShared      int
	stride       int                 // cached sharedStride (SOR+)
	priv         map[int][][]float32 // SOR+: per-processor private bands
	verifyGather bool
}

func newSOR(s Scale, plus bool) *SOR {
	a := &SOR{plus: plus, priv: make(map[int][][]float32)}
	switch s {
	case Test:
		a.rows, a.cols, a.iters = 48, 64, 4
	case Bench:
		a.rows, a.cols, a.iters = 256, 256, 8
	case Large:
		// 1024 interior rows: one full row per processor at 1024 procs,
		// narrow columns so the replicated per-node image stays small.
		a.rows, a.cols, a.iters = 1026, 64, 4
	default: // Paper: 1000x1000 floats (Table 2)
		a.rows, a.cols, a.iters = 1000, 1000, 50
	}
	// Band-boundary precompute set for SOR+'s Layout: the historical tiers
	// share boundaries for every processor count 1..64 (kept verbatim so the
	// shared-row numbering and the seed golden stay byte-identical); Large
	// additionally supports the power-of-two counts of the scaled machine.
	for p := 1; p <= 64; p++ {
		a.bandCounts = append(a.bandCounts, p)
	}
	if s == Large {
		a.bandCounts = append(a.bandCounts, 128, 256, 512, 1024)
	}
	a.sharedOf = make([]int32, a.rows)
	for i := range a.sharedOf {
		a.sharedOf[i] = -1
	}
	a.stride = a.sharedStride()
	return a
}

// Name implements run.App.
func (a *SOR) Name() string {
	if a.plus {
		return "SOR+"
	}
	return "SOR"
}

// rowBytes is the storage size of one row (red half then black half).
func (a *SOR) rowBytes() int { return a.cols * 4 }

// sharedStride is the spacing of rows inside SOR+'s boundary block. Shared
// rows belong to different processors and live pages apart in the real
// program's address space; packing them tightly would introduce artificial
// false sharing, so each shared row gets its own page(s).
func (a *SOR) sharedStride() int {
	pages := (a.rowBytes() + mem.PageSize - 1) / mem.PageSize
	return pages * mem.PageSize
}

// elemAddr returns the shared address of element (i,j) given the base
// address of row i's storage: red elements pack first, black second.
func (a *SOR) elemAddr(rowBase mem.Addr, i, j int) mem.Addr {
	nRed := (a.cols + 1 - i%2) / 2 // count of red (i+j even) elements in row i
	if (i+j)%2 == 0 {
		return rowBase + mem.Addr(4*(j/2))
	}
	return rowBase + mem.Addr(4*(nRed+j/2))
}

// redRange and blackRange give the two color halves of a row's storage.
func (a *SOR) redRange(rowBase mem.Addr, i int) mem.Range {
	nRed := (a.cols + 1 - i%2) / 2
	return mem.Range{Base: rowBase, Len: 4 * nRed}
}

func (a *SOR) blackRange(rowBase mem.Addr, i int) mem.Range {
	nRed := (a.cols + 1 - i%2) / 2
	return mem.Range{Base: rowBase + mem.Addr(4*nRed), Len: 4 * (a.cols - nRed)}
}

// rowBase returns the shared base address of row i, or -1 if the row is
// private (SOR+ interior rows).
func (a *SOR) rowBase(i int) mem.Addr {
	if !a.plus {
		return a.base + mem.Addr(i*a.rowBytes())
	}
	if idx := a.sharedOf[i]; idx >= 0 {
		return a.base + mem.Addr(int(idx)*a.stride)
	}
	return -1
}

// Layout implements run.App.
func (a *SOR) Layout(al *mem.Allocator) {
	if !a.plus {
		a.base = al.Alloc("matrix", a.rows*a.rowBytes(), 4)
		return
	}
	// SOR+ shares only the band-boundary rows. The band split must match
	// Program's; it depends only on row count and processor count, so we
	// precompute for every plausible processor count by sharing the first
	// and last row of every band (1..64 everywhere; Large adds the scaled
	// machine's power-of-two counts — see newSOR). Redundant rows collapse
	// via the map.
	for _, p := range a.bandCounts {
		for q := 0; q < p; q++ {
			lo, hi := band(a.rows-2, p, q)
			for _, r := range []int{lo + 1, hi} {
				if r >= 1 && r <= a.rows-2 && a.sharedOf[r] < 0 {
					a.sharedOf[r] = int32(a.nShared)
					a.nShared++
				}
			}
		}
	}
	a.base = al.Alloc("boundary-rows", a.nShared*a.stride, 4)
}

// initValue gives the deterministic nonzero initial matrix (internal
// elements change on every iteration, as the paper arranged for a fair
// trapping comparison).
func (a *SOR) initValue(i, j int) float32 {
	if i == 0 || j == 0 || i == a.rows-1 || j == a.cols-1 {
		return float32(100 + (i+j)%7) // constant edges
	}
	return float32(1 + (i*31+j*17)%23)
}

// Init implements run.App: it seeds the shared rows and warms the expected
// result of a plain sequential solver.
func (a *SOR) Init(im *mem.Image) {
	for i := 0; i < a.rows; i++ {
		base := a.rowBase(i)
		if base < 0 {
			continue
		}
		for j := 0; j < a.cols; j++ {
			im.WriteF32(a.elemAddr(base, i, j), a.initValue(i, j))
		}
	}
	a.reference()
}

var sorRefs refMemo[[3]int, [][]float32]

// reference returns the memoized sequential solution, a pure function of
// (rows, cols, iters).
func (a *SOR) reference() [][]float32 {
	return sorRefs.get([3]int{a.rows, a.cols, a.iters}, a.solve)
}

// solve runs the red-black solver on one flat matrix, visiting only the
// current colour's columns (j from its first column, stepping by 2). Within
// one colour every update reads only the other colour, so the visiting order
// changes no operand and the result is bit-identical to any sweep of the same
// expression (TestSORReferenceMatchesNaive pins it).
func (a *SOR) solve() [][]float32 {
	flat := make([]float32, a.rows*a.cols)
	m := make([][]float32, a.rows)
	for i := range m {
		m[i] = flat[i*a.cols : (i+1)*a.cols : (i+1)*a.cols]
		for j := range m[i] {
			m[i][j] = a.initValue(i, j)
		}
	}
	for it := 0; it < a.iters; it++ {
		for color := 0; color < 2; color++ {
			for i := 1; i < a.rows-1; i++ {
				up, row, dn := m[i-1], m[i], m[i+1]
				up, dn = up[:len(row)], dn[:len(row)]
				j0 := 1
				if (i+j0)%2 != color {
					j0 = 2
				}
				for j := j0; j < len(row)-1; j += 2 {
					row[j] = (up[j] + dn[j] + row[j-1] + row[j+1]) / 4
				}
			}
		}
	}
	return m
}

// lock ids: per (row, color).
func (a *SOR) lockOf(row, color int) core.LockID { return core.LockID(1 + 2*row + color) }

// Program implements run.App: the per-processor program.
func (a *SOR) Program(d core.DSM) {
	ec := d.Model() == core.EC
	np := d.NProcs()
	me := d.Proc()
	lo, hi := band(a.rows-2, np, me)
	lo, hi = lo+1, hi+1 // interior rows [lo, hi)

	if ec {
		// Bindings are static program declarations: every processor issues
		// the identical full set (lock managers must know them too).
		bind := bindOne(d)
		for i := 1; i < a.rows-1; i++ {
			if base := a.rowBase(i); base >= 0 {
				bind(a.lockOf(i, 0), a.redRange(base, i))
				bind(a.lockOf(i, 1), a.blackRange(base, i))
			}
		}
	}

	// SOR+: private band storage, rows [lo-1, hi] inclusive halo.
	var pm [][]float32
	if a.plus {
		pm = make([][]float32, a.rows)
		for i := lo - 1; i <= hi; i++ {
			pm[i] = make([]float32, a.cols)
			for j := 0; j < a.cols; j++ {
				pm[i][j] = a.initValue(i, j)
			}
		}
		a.priv[me] = pm
	}

	get := func(i, j int) float32 {
		if a.plus {
			if base := a.rowBase(i); base >= 0 && (i < lo || i >= hi) {
				return d.ReadF32(a.elemAddr(base, i, j))
			}
			return pm[i][j]
		}
		return d.ReadF32(a.elemAddr(a.rowBase(i), i, j))
	}
	put := func(i, j int, v float32) {
		if a.plus {
			pm[i][j] = v
			if base := a.rowBase(i); base >= 0 {
				d.WriteF32(a.elemAddr(base, i, j), v)
			}
			return
		}
		d.WriteF32(a.elemAddr(a.rowBase(i), i, j), v)
	}

	barrier := core.BarrierID(0)
	for it := 0; it < a.iters; it++ {
		for color := 0; color < 2; color++ {
			if ec {
				// Read-only locks on the neighbours' boundary rows (the
				// other colour is read), exclusive locks on own rows.
				for _, i := range []int{lo - 1, hi} {
					if i >= 1 && i <= a.rows-2 && (i < lo || i >= hi) && a.rowBase(i) >= 0 {
						d.AcquireRead(a.lockOf(i, 1-color))
					}
				}
				for i := lo; i < hi; i++ {
					if a.rowBase(i) >= 0 {
						d.Acquire(a.lockOf(i, color))
					}
				}
			}
			for i := lo; i < hi; i++ {
				j0 := 1
				if (i+j0)%2 != color {
					j0 = 2
				}
				switch {
				case !a.plus:
					// Every access hits shared memory; the five addresses
					// advance by one word per stencil step, so compute them
					// once per row instead of re-deriving per element
					// (identical addresses, identical access order).
					rowB := a.rowBytes()
					rbU := a.base + mem.Addr((i-1)*rowB)
					rbD := a.base + mem.Addr((i+1)*rowB)
					rbI := a.base + mem.Addr(i*rowB)
					nRedU := (a.cols + 1 - (i-1)%2) / 2
					nRedD := (a.cols + 1 - (i+1)%2) / 2
					nRedI := (a.cols + 1 - i%2) / 2
					var up, dn, lf, rt, self mem.Addr
					if color == 1 { // neighbours are red, the written cell black
						up = rbU + mem.Addr(4*(j0/2))
						dn = rbD + mem.Addr(4*(j0/2))
						lf = rbI + mem.Addr(4*((j0-1)/2))
						rt = rbI + mem.Addr(4*((j0+1)/2))
						self = rbI + mem.Addr(4*(nRedI+j0/2))
					} else { // neighbours are black, the written cell red
						up = rbU + mem.Addr(4*(nRedU+j0/2))
						dn = rbD + mem.Addr(4*(nRedD+j0/2))
						lf = rbI + mem.Addr(4*(nRedI+(j0-1)/2))
						rt = rbI + mem.Addr(4*(nRedI+(j0+1)/2))
						self = rbI + mem.Addr(4*(j0/2))
					}
					for j := j0; j < a.cols-1; j += 2 {
						v := (d.ReadF32(up) + d.ReadF32(dn) + d.ReadF32(lf) + d.ReadF32(rt)) / 4
						d.WriteF32(self, v)
						up += 4
						dn += 4
						lf += 4
						rt += 4
						self += 4
					}
				case i > lo && i < hi-1:
					// SOR+ interior row: all four neighbours are in-band and
					// private, so only the write may touch shared memory —
					// when another processor count's band boundary shares
					// the row. Its address then advances one word per step.
					up, row, dn := pm[i-1], pm[i], pm[i+1]
					base := a.rowBase(i)
					var self mem.Addr
					if base >= 0 {
						self = a.elemAddr(base, i, j0)
					}
					for j := j0; j < a.cols-1; j += 2 {
						v := (up[j] + dn[j] + row[j-1] + row[j+1]) / 4
						row[j] = v
						if base >= 0 {
							d.WriteF32(self, v)
							self += 4
						}
					}
				default:
					for j := j0; j < a.cols-1; j += 2 {
						v := (get(i-1, j) + get(i+1, j) + get(i, j-1) + get(i, j+1)) / 4
						put(i, j, v)
					}
				}
				d.Compute(sim.Time(a.cols/2) * sorPerElem)
			}
			if ec {
				for i := lo; i < hi; i++ {
					if a.rowBase(i) >= 0 {
						d.Release(a.lockOf(i, color))
					}
				}
				for _, i := range []int{lo - 1, hi} {
					if i >= 1 && i <= a.rows-2 && (i < lo || i >= hi) && a.rowBase(i) >= 0 {
						d.Release(a.lockOf(i, 1-color))
					}
				}
			}
			d.Barrier(barrier)
		}
	}
	d.StatsEnd()

	// Verify own band against the reference; gather shared rows to proc 0.
	ref := a.reference()
	for i := lo; i < hi; i++ {
		for j := 1; j < a.cols-1; j++ {
			var got float32
			if a.plus {
				got = pm[i][j]
			} else {
				got = d.ReadF32(a.elemAddr(a.rowBase(i), i, j))
			}
			if got != ref[i][j] {
				panic(fmt.Sprintf("%s: proc %d: m[%d][%d] = %v, want %v", a.Name(), me, i, j, got, ref[i][j]))
			}
		}
	}
	d.Barrier(1)
	if me == 0 {
		for i := 1; i < a.rows-1; i++ {
			base := a.rowBase(i)
			if base < 0 {
				continue
			}
			if ec {
				d.AcquireRead(a.lockOf(i, 0))
				d.AcquireRead(a.lockOf(i, 1))
			}
			for j := 1; j < a.cols-1; j++ {
				_ = d.ReadF32(a.elemAddr(base, i, j))
			}
			if ec {
				d.Release(a.lockOf(i, 0))
				d.Release(a.lockOf(i, 1))
			}
		}
	}
}

// Verify implements run.App: checks every shared row in processor 0's image.
func (a *SOR) Verify(im *mem.Image) error {
	ref := a.reference()
	for i := 1; i < a.rows-1; i++ {
		base := a.rowBase(i)
		if base < 0 {
			continue
		}
		for j := 1; j < a.cols-1; j++ {
			got := im.ReadF32(a.elemAddr(base, i, j))
			if got != ref[i][j] {
				return fmt.Errorf("%s: m[%d][%d] = %v, want %v", a.Name(), i, j, got, ref[i][j])
			}
		}
	}
	return nil
}
