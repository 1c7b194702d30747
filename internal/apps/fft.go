package apps

import (
	"fmt"
	"math"
	"math/cmplx"

	"ecvslrc/internal/core"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/run"
	"ecvslrc/internal/sim"
)

func init() {
	register("3D-FFT", func(s Scale) run.App { return newFFT(s) })
	// Granularity ablation (Section 8.1): the same program trapped at
	// single-word granularity, doubling the dirty bits scanned during write
	// collection. "Compiler instrumentation pays off in EC only when the
	// granularity of sharing is greater than a word."
	register("3D-FFT-w4", func(s Scale) run.App { f := newFFT(s); f.block = 4; return f })
}

// fftPerFlop is the CPU cost of one butterfly flop, calibrated so the
// paper-size run lands near Table 3's 39.82 s sequential time.
const fftPerFlop = 640 * sim.Nanosecond

// FFT is the NAS 3D-FFT benchmark skeleton: an n1 x n2 x n3 complex array
// distributed along the first dimension. Each iteration performs 1-D FFTs
// along dimension 3 and dimension 2 (both local), a barrier, then a
// transpose into a duplicate array (each processor reads 1/P of its data
// from every other processor) followed by the dimension-1 FFTs (Section 2).
//
// The transposed blocks read from each peer are non-contiguous in memory, so
// the EC program binds multiple ranges to a single lock; the block bound to
// one lock spans eight pages at paper scale, making EC's update protocol
// fetch all eight pages in one exchange where LRC's invalidate protocol
// takes one page fault each (Section 7.2). Memory is duplicated rather than
// rebound, as the paper's program chose.
type FFT struct {
	n1, n2, n3 int
	iters      int
	block      int      // trapping granularity: 8 (double-word, the paper's) or 4
	a, b       mem.Addr // the array and its transpose-duplicate
	nprocs     int
}

func newFFT(s Scale) *FFT {
	f := &FFT{block: 8}
	switch s {
	case Test:
		f.n1, f.n2, f.n3, f.iters = 16, 16, 32, 2
	case Bench:
		f.n1, f.n2, f.n3, f.iters = 32, 32, 32, 3
	case Large:
		// The kernel bands both n1 and n2, so only min(n1,n2) processors get
		// work: past 64 procs 3D-FFT saturates by construction — a documented
		// scaling finding (the transpose, not the butterflies, is the wall).
		f.n1, f.n2, f.n3, f.iters = 64, 64, 8, 2
	default: // Paper: 64x64x32 (Table 2)
		f.n1, f.n2, f.n3, f.iters = 64, 64, 32, 6
	}
	return f
}

// Name implements run.App.
func (f *FFT) Name() string {
	if f.block == 4 {
		return "3D-FFT-w4"
	}
	return "3D-FFT"
}

func (f *FFT) elems() int { return f.n1 * f.n2 * f.n3 }

// Layout implements run.App: two arrays of complex128 (16 bytes each),
// trapped at double-word granularity.
func (f *FFT) Layout(al *mem.Allocator) {
	f.a = al.Alloc("A", f.elems()*16, f.block)
	f.b = al.Alloc("B", f.elems()*16, f.block)
}

// addrA is the address of A[i][j][k] (row-major).
func (f *FFT) addrA(i, j, k int) mem.Addr {
	return f.a + mem.Addr(16*((i*f.n2+j)*f.n3+k))
}

// addrB is the address of B[j][i][k]: B is A transposed in dims 1<->2,
// distributed along j.
func (f *FFT) addrB(j, i, k int) mem.Addr {
	return f.b + mem.Addr(16*((j*f.n1+i)*f.n3+k))
}

func (f *FFT) initValue(i, j, k int) complex128 {
	rng := newLCG(uint64(i*1000003 + j*1009 + k))
	return complex(rng.f64()-0.5, rng.f64()-0.5)
}

// Init implements run.App: seed A; it warms the sequential reference of the
// full iteration pipeline.
func (f *FFT) Init(im *mem.Image) {
	for i := 0; i < f.n1; i++ {
		for j := 0; j < f.n2; j++ {
			for k := 0; k < f.n3; k++ {
				v := f.initValue(i, j, k)
				im.WriteF64(f.addrA(i, j, k), real(v))
				im.WriteF64(f.addrA(i, j, k)+8, imag(v))
			}
		}
	}
	f.reference()
}

var fftRefs refMemo[[4]int, []complex128]

// reference returns the memoized sequential reference spectrum (plain Go,
// identical operation order), a pure function of the problem size.
func (f *FFT) reference() []complex128 {
	return fftRefs.get([4]int{f.n1, f.n2, f.n3, f.iters}, func() []complex128 {
		a := make([]complex128, f.elems())
		b := make([]complex128, f.elems())
		idxA := func(i, j, k int) int { return (i*f.n2+j)*f.n3 + k }
		idxB := func(j, i, k int) int { return (j*f.n1+i)*f.n3 + k }
		for i := 0; i < f.n1; i++ {
			for j := 0; j < f.n2; j++ {
				for k := 0; k < f.n3; k++ {
					a[idxA(i, j, k)] = f.initValue(i, j, k)
				}
			}
		}
		buf := make([]complex128, maxInt(f.n1, maxInt(f.n2, f.n3)))
		for it := 0; it < f.iters; it++ {
			for i := 0; i < f.n1; i++ {
				for j := 0; j < f.n2; j++ {
					for k := 0; k < f.n3; k++ {
						buf[k] = a[idxA(i, j, k)]
					}
					fft1d(buf[:f.n3])
					for k := 0; k < f.n3; k++ {
						a[idxA(i, j, k)] = buf[k]
					}
				}
				for k := 0; k < f.n3; k++ {
					for j := 0; j < f.n2; j++ {
						buf[j] = a[idxA(i, j, k)]
					}
					fft1d(buf[:f.n2])
					for j := 0; j < f.n2; j++ {
						a[idxA(i, j, k)] = buf[j]
					}
				}
			}
			for j := 0; j < f.n2; j++ {
				for i := 0; i < f.n1; i++ {
					for k := 0; k < f.n3; k++ {
						b[idxB(j, i, k)] = a[idxA(i, j, k)]
					}
				}
				for k := 0; k < f.n3; k++ {
					for i := 0; i < f.n1; i++ {
						buf[i] = b[idxB(j, i, k)]
					}
					fft1d(buf[:f.n1])
					for i := 0; i < f.n1; i++ {
						b[idxB(j, i, k)] = buf[i]
					}
				}
			}
			// Feed back (scaled) for the next iteration, keeping values bounded.
			if it < f.iters-1 {
				scale := complex(1/float64(f.elems()), 0)
				for i := 0; i < f.n1; i++ {
					for j := 0; j < f.n2; j++ {
						for k := 0; k < f.n3; k++ {
							a[idxA(i, j, k)] = b[idxB(j, i, k)] * scale
						}
					}
				}
			}
		}
		return b
	})
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// fft1d is an in-place iterative radix-2 complex FFT (stdlib only).
func fft1d(x []complex128) {
	n := len(x)
	if n&(n-1) != 0 {
		panic("fft: length must be a power of two")
	}
	// Bit reversal permutation.
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
		m := n >> 1
		for m >= 1 && j&m != 0 {
			j &^= m
			m >>= 1
		}
		j |= m
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		w := cmplx.Exp(complex(0, -2*math.Pi/float64(size)))
		for start := 0; start < n; start += size {
			wk := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * wk
				x[start+k] = a + b
				x[start+k+half] = a - b
				wk *= w
			}
		}
	}
}

// fftFlops is the standard 5·n·log2(n) operation count.
func fftFlops(n int) int {
	lg := 0
	for v := n; v > 1; v >>= 1 {
		lg++
	}
	return 5 * n * lg
}

// fftLocks numbers the per-(writer, reader) block locks of one run. Up to 64
// processors the ids are the paper-scale ones (stride 64, B's range starting
// at 5001), which every golden and lock-manager assignment is pinned to; a
// larger machine widens the stride to np and moves B's range past A's, so no
// two (q, p) pairs share an id.
type fftLocks struct{ stride, baseB int }

func newFFTLocks(np int) fftLocks {
	if np <= 64 {
		return fftLocks{stride: 64, baseB: 5001}
	}
	return fftLocks{stride: np, baseB: 1 + np*np}
}

// lockA covers the block of A owned by writer q that reader p needs for its
// transpose: rows A[i in q's planes][j in p's planes][*] — multiple
// non-contiguous ranges bound to one lock. At paper scale each block spans
// eight pages.
func (l fftLocks) lockA(q, p int) core.LockID {
	return core.LockID(1 + q*l.stride + p)
}

// lockB covers the block of B owned by writer q (its j-planes) that reader p
// needs for the feed-back transpose: B[j in q's planes][i in p's planes][*].
func (l fftLocks) lockB(q, p int) core.LockID {
	return core.LockID(l.baseB + q*l.stride + p)
}

// Program implements run.App: the per-processor program.
func (f *FFT) Program(d core.DSM) {
	ec := d.Model() == core.EC
	np := d.NProcs()
	me := d.Proc()
	a := f
	locks := newFFTLocks(np)
	iLo, iHi := band(a.n1, np, me) // my planes of A
	jLo, jHi := band(a.n2, np, me) // my planes of B

	if ec {
		var rsA, rsB []mem.Range // reused: Bind copies its ranges
		for q := 0; q < np; q++ {
			qiLo, qiHi := band(a.n1, np, q)
			qjLo, qjHi := band(a.n2, np, q)
			for p := 0; p < np; p++ {
				pjLo, pjHi := band(a.n2, np, p)
				piLo, piHi := band(a.n1, np, p)
				rsA = rsA[:0]
				for i := qiLo; i < qiHi; i++ {
					if pjHi > pjLo {
						rsA = append(rsA, mem.Range{Base: a.addrA(i, pjLo, 0), Len: (pjHi - pjLo) * a.n3 * 16})
					}
				}
				if len(rsA) > 0 {
					d.Bind(locks.lockA(q, p), rsA...)
				}
				rsB = rsB[:0]
				for j := qjLo; j < qjHi; j++ {
					if piHi > piLo {
						rsB = append(rsB, mem.Range{Base: a.addrB(j, piLo, 0), Len: (piHi - piLo) * a.n3 * 16})
					}
				}
				if len(rsB) > 0 {
					d.Bind(locks.lockB(q, p), rsB...)
				}
			}
		}
	}

	readA := func(i, j, k int) complex128 {
		base := a.addrA(i, j, k)
		return complex(d.ReadF64(base), d.ReadF64(base+8))
	}
	writeA := func(i, j, k int, v complex128) {
		base := a.addrA(i, j, k)
		d.WriteF64(base, real(v))
		d.WriteF64(base+8, imag(v))
	}
	readB := func(j, i, k int) complex128 {
		base := a.addrB(j, i, k)
		return complex(d.ReadF64(base), d.ReadF64(base+8))
	}
	writeB := func(j, i, k int, v complex128) {
		base := a.addrB(j, i, k)
		d.WriteF64(base, real(v))
		d.WriteF64(base+8, imag(v))
	}

	// rdim is the dimension the reader p is banded over (n2 for lockA blocks,
	// n1 for lockB blocks): past np > rdim the tail processors' bands are
	// empty and their locks were never bound, so they must be skipped.
	acquireOwn := func(lock func(q, p int) core.LockID, rdim int) {
		for p := 0; p < np; p++ {
			if lo, hi := band(rdim, np, p); hi > lo {
				d.Acquire(lock(me, p))
			}
		}
	}
	releaseOwn := func(lock func(q, p int) core.LockID, rdim int) {
		for p := 0; p < np; p++ {
			if lo, hi := band(rdim, np, p); hi > lo {
				d.Release(lock(me, p))
			}
		}
	}

	buf := make([]complex128, maxInt(a.n1, maxInt(a.n2, a.n3)))
	for it := 0; it < a.iters; it++ {
		// Local phases: FFT along dim 3 then dim 2 on my planes of A. Under
		// EC, I hold my A-block locks exclusively while writing (they stay
		// owned locally, so reacquisition is free).
		if ec && iHi > iLo {
			acquireOwn(locks.lockA, a.n2)
		}
		for i := iLo; i < iHi; i++ {
			for j := 0; j < a.n2; j++ {
				for k := 0; k < a.n3; k++ {
					buf[k] = readA(i, j, k)
				}
				fft1d(buf[:a.n3])
				for k := 0; k < a.n3; k++ {
					writeA(i, j, k, buf[k])
				}
				d.Compute(sim.Time(fftFlops(a.n3)) * fftPerFlop)
			}
			for k := 0; k < a.n3; k++ {
				for j := 0; j < a.n2; j++ {
					buf[j] = readA(i, j, k)
				}
				fft1d(buf[:a.n2])
				for j := 0; j < a.n2; j++ {
					writeA(i, j, k, buf[j])
				}
				d.Compute(sim.Time(fftFlops(a.n2)) * fftPerFlop)
			}
		}
		if ec && iHi > iLo {
			releaseOwn(locks.lockA, a.n2)
		}
		d.Barrier(0)

		// Transpose: read my j-columns from every processor's planes of A,
		// writing my planes of B. Under EC the read of each peer's block is
		// one read-lock acquisition that ships the whole (eight-page at
		// paper scale) block via the update protocol; under LRC it is one
		// page fault per page.
		if ec && jHi > jLo {
			acquireOwn(locks.lockB, a.n1)
		}
		for q := 0; q < np; q++ {
			qLo, qHi := band(a.n1, np, q)
			if ec && q != me && qHi > qLo && jHi > jLo {
				d.AcquireRead(locks.lockA(q, me))
			}
			for i := qLo; i < qHi; i++ {
				for j := jLo; j < jHi; j++ {
					for k := 0; k < a.n3; k++ {
						writeB(j, i, k, readA(i, j, k))
					}
				}
			}
			d.Compute(sim.Time((qHi-qLo)*(jHi-jLo)*a.n3) * 100 * sim.Nanosecond)
			if ec && q != me && qHi > qLo && jHi > jLo {
				d.Release(locks.lockA(q, me))
			}
		}

		// Dimension-1 FFTs on my planes of B.
		for j := jLo; j < jHi; j++ {
			for k := 0; k < a.n3; k++ {
				for i := 0; i < a.n1; i++ {
					buf[i] = readB(j, i, k)
				}
				fft1d(buf[:a.n1])
				for i := 0; i < a.n1; i++ {
					writeB(j, i, k, buf[i])
				}
				d.Compute(sim.Time(fftFlops(a.n1)) * fftPerFlop)
			}
		}
		if ec && jHi > jLo {
			releaseOwn(locks.lockB, a.n1)
		}
		d.Barrier(1)

		// Feed back for the next iteration: my A planes from B (reading
		// 1/P of B from every processor — the reverse transpose).
		if it < a.iters-1 {
			scale := complex(1/float64(a.elems()), 0)
			if ec && iHi > iLo {
				acquireOwn(locks.lockA, a.n2)
			}
			for q := 0; q < np; q++ {
				pLo, pHi := band(a.n2, np, q)
				if ec && q != me && pHi > pLo && iHi > iLo {
					d.AcquireRead(locks.lockB(q, me))
				}
				for i := iLo; i < iHi; i++ {
					for j := pLo; j < pHi; j++ {
						for k := 0; k < a.n3; k++ {
							writeA(i, j, k, readB(j, i, k)*scale)
						}
					}
				}
				if ec && q != me && pHi > pLo && iHi > iLo {
					d.Release(locks.lockB(q, me))
				}
			}
			d.Compute(sim.Time((iHi-iLo)*a.n2*a.n3) * 100 * sim.Nanosecond)
			if ec && iHi > iLo {
				releaseOwn(locks.lockA, a.n2)
			}
			d.Barrier(2)
		}
	}
	d.StatsEnd()

	// Gather B to processor 0 for verification.
	if me == 0 {
		for q := 0; q < np; q++ {
			qjLo, qjHi := band(a.n2, np, q)
			for p := 0; p < np; p++ {
				if ec && q != me {
					piLo, piHi := band(a.n1, np, p)
					if qjHi > qjLo && piHi > piLo {
						d.AcquireRead(locks.lockB(q, p))
					}
				}
			}
			for j := qjLo; j < qjHi; j++ {
				for i := 0; i < a.n1; i++ {
					for k := 0; k < a.n3; k++ {
						_ = readB(j, i, k)
					}
				}
			}
			for p := 0; p < np; p++ {
				if ec && q != me {
					piLo, piHi := band(a.n1, np, p)
					if qjHi > qjLo && piHi > piLo {
						d.Release(locks.lockB(q, p))
					}
				}
			}
		}
	}
}

// Verify implements run.App: exact comparison with the sequential pipeline.
func (f *FFT) Verify(im *mem.Image) error {
	idxB := func(j, i, k int) int { return (j*f.n1+i)*f.n3 + k }
	ref := f.reference()
	for j := 0; j < f.n2; j++ {
		for i := 0; i < f.n1; i++ {
			for k := 0; k < f.n3; k++ {
				base := f.addrB(j, i, k)
				got := complex(im.ReadF64(base), im.ReadF64(base+8))
				want := ref[idxB(j, i, k)]
				if got != want {
					return fmt.Errorf("3D-FFT: B[%d][%d][%d] = %v, want %v", j, i, k, got, want)
				}
			}
		}
	}
	return nil
}
