package apps

import (
	"fmt"
	"math"

	"ecvslrc/internal/core"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/run"
	"ecvslrc/internal/sim"
)

func init() {
	register("Water", func(s Scale) run.App { return newWater(s, false) })
	register("Water-split", func(s Scale) run.App { return newWater(s, true) })
}

// waterPerPair is the CPU cost of one pairwise interaction, calibrated so
// 343 molecules x 5 steps lands near Table 3's 61.21 s sequential time.
const waterPerPair = 208 * sim.Microsecond

// molBytes is the per-molecule record size. The SPLASH Water molecule record
// holds positions, forces and higher-order derivatives for all atom sites
// (several hundred bytes); we keep the displacement and force vectors live
// and pad to the realistic record size, which determines how many molecules
// share a page. Water traps writes at 8-byte granularity (Section 8.1).
const molBytes = 512

// Water is the SPLASH molecular-dynamics kernel's sharing skeleton with a
// simplified pairwise force law. Each timestep has a force-computation phase
// (each processor interacts its molecules with those of half the other
// processors, accumulating updates locally and applying them under
// per-molecule locks) and a displacement phase (owners update their own
// molecules), separated by barriers (Section 2).
//
// In the split variant the displacements are reorganized into a separate
// array with one per-processor lock over each owner's chunk, giving EC the
// prefetch-like effect discussed at the end of Section 7.2.
type Water struct {
	split  bool
	m      int // molecules
	steps  int
	mols   mem.Addr
	disp   mem.Addr // split variant: separate displacement array
	nprocs int
}

func newWater(s Scale, split bool) *Water {
	a := &Water{split: split}
	switch s {
	case Test:
		a.m, a.steps = 37, 2
	case Bench:
		a.m, a.steps = 125, 3
	case Large:
		// One molecule per processor at 1024 procs; the O(m^2/2) pair phase
		// still gives every processor real work at 256.
		a.m, a.steps = 1024, 2
	default: // Paper: 343 molecules, 5 iterations (Table 2)
		a.m, a.steps = 343, 5
	}
	return a
}

// Name implements run.App.
func (a *Water) Name() string {
	if a.split {
		return "Water-split"
	}
	return "Water"
}

// Layout implements run.App.
func (a *Water) Layout(al *mem.Allocator) {
	if a.split {
		a.disp = al.Alloc("displacements", a.m*24, 8)
		a.mols = al.Alloc("forces", a.m*32, 8)
		return
	}
	a.mols = al.Alloc("molecules", a.m*molBytes, 8)
}

func (a *Water) dispAddr(i, c int) mem.Addr {
	if a.split {
		return a.disp + mem.Addr(24*i+8*c)
	}
	return a.mols + mem.Addr(molBytes*i+8*c)
}

func (a *Water) forceAddr(i, c int) mem.Addr {
	if a.split {
		return a.mols + mem.Addr(32*i+8*c)
	}
	return a.mols + mem.Addr(molBytes*i+24+8*c)
}

func (a *Water) initDisp(i int) [3]float64 {
	rng := newLCG(uint64(7777 + i))
	return [3]float64{rng.f64(), rng.f64(), rng.f64()}
}

// Init implements run.App: deterministic initial positions and zero forces;
// it warms the sequential reference trajectory.
func (a *Water) Init(im *mem.Image) {
	for i := 0; i < a.m; i++ {
		d := a.initDisp(i)
		for c := 0; c < 3; c++ {
			im.WriteF64(a.dispAddr(i, c), d[c])
		}
	}
	a.reference()
}

// waterRef is the sequential reference trajectory: a pure function of
// (molecules, steps).
type waterRef struct {
	disp, force [][3]float64
}

var waterRefs refMemo[[2]int, *waterRef]

// reference returns the memoized sequential reference trajectory.
func (a *Water) reference() *waterRef {
	return waterRefs.get([2]int{a.m, a.steps}, func() *waterRef {
		disp := make([][3]float64, a.m)
		force := make([][3]float64, a.m)
		for i := range disp {
			disp[i] = a.initDisp(i)
		}
		for s := 0; s < a.steps; s++ {
			acc := make([][3]float64, a.m)
			for i := 0; i < a.m; i++ {
				for w := 1; w <= a.m/2; w++ {
					j := (i + w) % a.m
					f := pairForce(disp[i], disp[j])
					for c := 0; c < 3; c++ {
						acc[i][c] += f[c]
						acc[j][c] -= f[c]
					}
				}
			}
			for i := 0; i < a.m; i++ {
				for c := 0; c < 3; c++ {
					force[i][c] = acc[i][c]
					disp[i][c] += 0.001 * force[i][c]
				}
			}
		}
		return &waterRef{disp: disp, force: force}
	})
}

// pairForce is the simplified interaction: a clipped inverse-square pull.
func pairForce(di, dj [3]float64) [3]float64 {
	var r [3]float64
	var r2 float64
	for c := 0; c < 3; c++ {
		r[c] = dj[c] - di[c]
		r2 += r[c] * r[c]
	}
	s := 1.0 / (r2 + 0.05)
	var f [3]float64
	for c := 0; c < 3; c++ {
		f[c] = s * r[c]
	}
	return f
}

// Lock layout: per-molecule locks 1..m; split variant adds per-processor
// displacement-chunk locks after them.
func (a *Water) molLock(i int) core.LockID       { return core.LockID(1 + i) }
func (a *Water) dispChunkLock(p int) core.LockID { return core.LockID(1 + a.m + p) }

// Program implements run.App: the per-processor program.
func (a *Water) Program(d core.DSM) {
	ec := d.Model() == core.EC
	np := d.NProcs()
	me := d.Proc()
	a.nprocs = np
	lo, hi := band(a.m, np, me)
	owner := func(i int) int {
		for p := 0; p < np; p++ {
			l, h := band(a.m, np, p)
			if i >= l && i < h {
				return p
			}
		}
		return 0
	}

	if ec {
		bind := bindOne(d)
		for i := 0; i < a.m; i++ {
			if a.split {
				bind(a.molLock(i), mem.Range{Base: a.forceAddr(i, 0), Len: 24})
			} else {
				bind(a.molLock(i), mem.Range{Base: a.mols + mem.Addr(molBytes*i), Len: 48})
			}
		}
		if a.split {
			for p := 0; p < np; p++ {
				l, h := band(a.m, np, p)
				if h > l {
					bind(a.dispChunkLock(p), mem.Range{Base: a.dispAddr(l, 0), Len: 24 * (h - l)})
				}
			}
		}
	}

	readDisp := func(i int) [3]float64 {
		return [3]float64{d.ReadF64(a.dispAddr(i, 0)), d.ReadF64(a.dispAddr(i, 1)), d.ReadF64(a.dispAddr(i, 2))}
	}

	// EC: read-only locks on the displacements of molecules read in a force
	// phase, one acquire per molecule per phase, released in acquisition
	// order at its end.
	readLocked := newLockSet(int(a.dispChunkLock(np)))

	// Force accumulators, flat and reused across steps: bump runs once per
	// pairwise interaction.
	acc := make([][3]float64, a.m)
	touched := make([]bool, a.m)

	for s := 0; s < a.steps; s++ {
		// Force computation phase: accumulate locally, then apply under
		// per-molecule locks (the SPLASH report's optimization).
		clear(acc)
		clear(touched)
		bump := func(i int, f [3]float64, sign float64) {
			touched[i] = true
			for c := 0; c < 3; c++ {
				acc[i][c] += sign * f[c]
			}
		}
		lockDisp := func(i int) {
			if !ec {
				return
			}
			var l core.LockID
			if a.split {
				l = a.dispChunkLock(owner(i))
			} else {
				l = a.molLock(i)
			}
			if !readLocked.member[l] && owner(i) != me {
				readLocked.add(l)
				d.AcquireRead(l)
			}
		}
		for i := lo; i < hi; i++ {
			for w := 1; w <= a.m/2; w++ {
				j := (i + w) % a.m
				lockDisp(j)
				f := pairForce(readDisp(i), readDisp(j))
				bump(i, f, 1)
				bump(j, f, -1)
				d.Compute(waterPerPair)
			}
		}
		for _, l := range readLocked.order {
			d.Release(l)
		}
		readLocked.reset()
		// Apply accumulated force updates under per-molecule locks (both
		// models: the lock is part of the sequentially consistent program).
		for i := 0; i < a.m; i++ {
			if !touched[i] {
				continue
			}
			v := &acc[i]
			d.Acquire(a.molLock(i))
			for c := 0; c < 3; c++ {
				d.WriteF64(a.forceAddr(i, c), d.ReadF64(a.forceAddr(i, c))+v[c])
			}
			d.Release(a.molLock(i))
		}
		d.Barrier(0)

		// Displacement phase: owners update their own molecules. LRC needs
		// no locks; EC takes exclusive per-molecule locks (and the split
		// variant holds its own displacement-chunk lock).
		if ec && a.split && hi > lo {
			d.Acquire(a.dispChunkLock(me))
		}
		for i := lo; i < hi; i++ {
			if ec {
				d.Acquire(a.molLock(i))
			}
			for c := 0; c < 3; c++ {
				f := d.ReadF64(a.forceAddr(i, c))
				d.WriteF64(a.dispAddr(i, c), d.ReadF64(a.dispAddr(i, c))+0.001*f)
				if s < a.steps-1 {
					d.WriteF64(a.forceAddr(i, c), 0)
				}
			}
			d.Compute(2 * sim.Microsecond)
			if ec {
				d.Release(a.molLock(i))
			}
		}
		if ec && a.split && hi > lo {
			d.Release(a.dispChunkLock(me))
		}
		d.Barrier(1)
	}
	d.StatsEnd()

	// Gather for verification.
	if me == 0 {
		for i := 0; i < a.m; i++ {
			if ec {
				d.AcquireRead(a.molLock(i))
				if a.split {
					d.AcquireRead(a.dispChunkLock(owner(i)))
				}
			}
			for c := 0; c < 3; c++ {
				_ = d.ReadF64(a.dispAddr(i, c))
				_ = d.ReadF64(a.forceAddr(i, c))
			}
			if ec {
				d.Release(a.molLock(i))
				if a.split {
					d.Release(a.dispChunkLock(owner(i)))
				}
			}
		}
	}
}

// Verify implements run.App: compare against the sequential trajectory with
// a tolerance for the parallel force-accumulation order.
func (a *Water) Verify(im *mem.Image) error {
	const tol = 1e-9
	ref := a.reference()
	for i := 0; i < a.m; i++ {
		for c := 0; c < 3; c++ {
			got := im.ReadF64(a.dispAddr(i, c))
			want := ref.disp[i][c]
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				return fmt.Errorf("Water: disp[%d][%d] = %v, want %v", i, c, got, want)
			}
			gotF := im.ReadF64(a.forceAddr(i, c))
			wantF := ref.force[i][c]
			if math.Abs(gotF-wantF) > tol*(1+math.Abs(wantF)) {
				return fmt.Errorf("Water: force[%d][%d] = %v, want %v", i, c, gotF, wantF)
			}
		}
	}
	return nil
}
