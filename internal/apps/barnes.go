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
	register("Barnes-Hut", func(s Scale) run.App { return newBarnes(s) })
	// The granularity-ablation variant: positions bound per owner instead
	// of per body. Section 7.2 argues this restructuring is impractical for
	// Barnes-Hut because "at the beginning of a phase it cannot be
	// determined which body and cell positions will be read"; with a
	// uniform distribution and theta=0.8 each processor in fact reads most
	// bodies, so the coarse binding pays off — the Section 3.3 trade-off
	// made measurable.
	register("Barnes-Hut-chunked", func(s Scale) run.App { b := newBarnes(s); b.chunked = true; return b })
}

// Per-operation CPU costs, calibrated against Table 3's 133.76 s sequential
// time for 8,192 bodies and 5 steps.
const (
	barnesPerInteract = 15 * sim.Microsecond
	barnesPerInsert   = 4 * sim.Microsecond
	barnesPerVisit    = 2 * sim.Microsecond
)

const (
	bodyBytes   = 128 // set A: position+mass; set B: force (Section 3.3's two lock sets)
	cellBytes   = 128 // center, half-width, centre of mass, mass, 8 children
	barnesTheta = 0.8
)

// Barnes is the Barnes-Hut N-body simulation: a hierarchical oct-tree of
// cells over the bodies, rebuilt each step, with load-balancing, force-
// computation and position-update phases separated by barriers (Section 2).
// No data item is written by two processors in a phase, so LRC needs no
// locks at all; EC adds per-cell locks and two per-body locks (splitting the
// body record into position and force sets avoids the nested-lock deadlock
// the paper describes).
type Barnes struct {
	m        int
	steps    int
	maxCells int
	chunked  bool // bind positions per owner (granularity ablation)
	bodies   mem.Addr
	cells    mem.Addr
	ncells   mem.Addr // shared allocation counter (written by proc 0 only)
	nprocs   int
}

func newBarnes(s Scale) *Barnes {
	a := &Barnes{}
	switch s {
	case Test:
		a.m, a.steps = 64, 2
	case Bench:
		a.m, a.steps = 512, 2
	case Large:
		// Two bodies per processor at 1024 procs; tree build stays the
		// serial fraction (a documented scaling finding, not a bug).
		a.m, a.steps = 2048, 2
	default: // Paper: 8,192 bodies, 5 iterations (Table 2)
		a.m, a.steps = 8192, 5
	}
	a.maxCells = 4*a.m + 64
	return a
}

// Name implements run.App.
func (a *Barnes) Name() string {
	if a.chunked {
		return "Barnes-Hut-chunked"
	}
	return "Barnes-Hut"
}

// Layout implements run.App.
func (a *Barnes) Layout(al *mem.Allocator) {
	a.bodies = al.Alloc("bodies", a.m*bodyBytes, 8)
	a.cells = al.Alloc("cells", a.maxCells*cellBytes, 8)
	a.ncells = al.Alloc("ncells", 8, 4)
}

// Body field addresses. Set A holds position and mass; set B holds force.
func (a *Barnes) posAddr(i, c int) mem.Addr   { return a.bodies + mem.Addr(bodyBytes*i+8*c) }
func (a *Barnes) massAddr(i int) mem.Addr     { return a.bodies + mem.Addr(bodyBytes*i+24) }
func (a *Barnes) forceAddr(i, c int) mem.Addr { return a.bodies + mem.Addr(bodyBytes*i+64+8*c) }

// Cell field addresses.
func (a *Barnes) cCenter(c, k int) mem.Addr { return a.cells + mem.Addr(cellBytes*c+8*k) }
func (a *Barnes) cHalf(c int) mem.Addr      { return a.cells + mem.Addr(cellBytes*c+24) }
func (a *Barnes) cCom(c, k int) mem.Addr    { return a.cells + mem.Addr(cellBytes*c+32+8*k) }
func (a *Barnes) cMass(c int) mem.Addr      { return a.cells + mem.Addr(cellBytes*c+56) }
func (a *Barnes) cKid(c, k int) mem.Addr    { return a.cells + mem.Addr(cellBytes*c+64+4*k) }

// Child encoding: 0 = empty, > 0 = cell index, < 0 = -(body index + 1).
const emptyKid = 0

// cellsPerLock groups cells under one lock: the granularity choice of
// Section 3.3 ("if some fields of a large subset of the array elements are
// accessed in a phase, it may be profitable to associate a single lock with
// these fields for the entire subset"). Cells are written only by processor
// 0 and read by everyone, so coarse read-lock granularity cuts the
// per-traversal lock count without adding write contention.
const cellsPerLock = 64

// Lock layout. The body record splits into two lock sets (the deadlock fix
// of Section 3.3): set B (forces) always uses per-body locks; set A
// (positions+mass) uses per-body locks in the paper's program and per-owner
// chunk locks in the granularity-ablation variant.
func (a *Barnes) bodyBLock(i int) core.LockID { return core.LockID(1 + i) }
func (a *Barnes) bodyALock(i int) core.LockID { return core.LockID(1 + a.m + i) }
func (a *Barnes) posChunkLock(p int) core.LockID {
	return core.LockID(1 + 2*a.m + p)
}
func (a *Barnes) cellLock(c int) core.LockID {
	return core.LockID(1 + 2*a.m + 64 + c/cellsPerLock)
}

// numLocks bounds the lock ids above: the size of a lockSet over them.
func (a *Barnes) numLocks() int {
	return int(max(a.cellLock(a.maxCells-1), a.posChunkLock(a.nprocs-1))) + 1
}

// posLock returns the lock protecting body i's position set: per body in
// the paper's program, per owner in the chunked variant.
func (a *Barnes) posLock(i int) core.LockID {
	if !a.chunked {
		return a.bodyALock(i)
	}
	for p := 0; p < a.nprocs; p++ {
		lo, hi := band(a.m, a.nprocs, p)
		if i >= lo && i < hi {
			return a.posChunkLock(p)
		}
	}
	return a.posChunkLock(0)
}

func (a *Barnes) initPos(i int) ([3]float64, float64) {
	rng := newLCG(uint64(31337 + i))
	return [3]float64{rng.f64(), rng.f64(), rng.f64()}, 1.0 / float64(a.m)
}

// Init implements run.App: body positions; it warms the sequential reference.
func (a *Barnes) Init(im *mem.Image) {
	for i := 0; i < a.m; i++ {
		p, m := a.initPos(i)
		for c := 0; c < 3; c++ {
			im.WriteF64(a.posAddr(i, c), p[c])
		}
		im.WriteF64(a.massAddr(i), m)
	}
	a.reference()
}

// --- plain-Go reference implementation (also defines the physics) ---------

type refCell struct {
	center [3]float64
	half   float64
	com    [3]float64
	mass   float64
	kids   [8]int // same encoding as the shared tree
}

type refTree struct {
	cells []refCell
	pos   [][3]float64
	mass  []float64
}

func buildRefTree(pos [][3]float64, mass []float64) *refTree {
	t := &refTree{pos: pos, mass: mass}
	t.cells = append(t.cells, refCell{center: [3]float64{0.5, 0.5, 0.5}, half: 0.5})
	for i := range pos {
		t.insert(0, i, 0)
	}
	t.com(0)
	return t
}

func octant(center, p [3]float64) int {
	o := 0
	for c := 0; c < 3; c++ {
		if p[c] >= center[c] {
			o |= 1 << c
		}
	}
	return o
}

func childCenter(center [3]float64, half float64, o int) [3]float64 {
	var out [3]float64
	for c := 0; c < 3; c++ {
		d := -half / 2
		if o&(1<<c) != 0 {
			d = half / 2
		}
		out[c] = center[c] + d
	}
	return out
}

func (t *refTree) insert(cell, body, depth int) {
	o := octant(t.cells[cell].center, t.pos[body])
	kid := t.cells[cell].kids[o]
	switch {
	case kid == emptyKid:
		t.cells[cell].kids[o] = -(body + 1)
	case kid < 0:
		other := -kid - 1
		if depth > 60 || t.pos[other] == t.pos[body] {
			// Coincident bodies: keep both in a chain is impossible in this
			// encoding; nudge by treating as direct neighbours (store the
			// new body in the next empty slot scan). Coincidence cannot
			// happen with our generator; guard anyway.
			panic("barnes: coincident bodies")
		}
		nc := len(t.cells)
		t.cells = append(t.cells, refCell{
			center: childCenter(t.cells[cell].center, t.cells[cell].half, o),
			half:   t.cells[cell].half / 2,
		})
		t.cells[cell].kids[o] = nc
		t.insert(nc, other, depth+1)
		t.insert(nc, body, depth+1)
	default:
		t.insert(kid, body, depth+1)
	}
}

func (t *refTree) com(cell int) ([3]float64, float64) {
	var com [3]float64
	var mass float64
	for _, kid := range t.cells[cell].kids {
		var kc [3]float64
		var km float64
		switch {
		case kid == emptyKid:
			continue
		case kid < 0:
			kc, km = t.pos[-kid-1], t.mass[-kid-1]
		default:
			kc, km = t.com(kid)
		}
		mass += km
		for c := 0; c < 3; c++ {
			com[c] += kc[c] * km
		}
	}
	if mass > 0 {
		for c := 0; c < 3; c++ {
			com[c] /= mass
		}
	}
	t.cells[cell].com = com
	t.cells[cell].mass = mass
	return com, mass
}

// gravity computes the interaction of a body at p with a point mass.
func gravity(p, q [3]float64, m float64) [3]float64 {
	var r [3]float64
	r2 := 1e-6 // softening
	for c := 0; c < 3; c++ {
		r[c] = q[c] - p[c]
		r2 += r[c] * r[c]
	}
	s := m / (r2 * math.Sqrt(r2))
	var f [3]float64
	for c := 0; c < 3; c++ {
		f[c] = s * r[c]
	}
	return f
}

// forceOn traverses the reference tree accumulating the force on body i,
// counting interactions.
func (t *refTree) forceOn(i, cell int, f *[3]float64, interactions *int) {
	for _, kid := range t.cells[cell].kids {
		switch {
		case kid == emptyKid:
		case kid < 0:
			j := -kid - 1
			if j != i {
				g := gravity(t.pos[i], t.pos[j], t.mass[j])
				for c := 0; c < 3; c++ {
					f[c] += g[c]
				}
				*interactions++
			}
		default:
			kc := &t.cells[kid]
			var d2 float64
			for c := 0; c < 3; c++ {
				dd := kc.com[c] - t.pos[i][c]
				d2 += dd * dd
			}
			size := kc.half * 2
			if size*size < barnesTheta*barnesTheta*d2 {
				g := gravity(t.pos[i], kc.com, kc.mass)
				for c := 0; c < 3; c++ {
					f[c] += g[c]
				}
				*interactions++
			} else {
				t.forceOn(i, kid, f, interactions)
			}
		}
	}
}

// barnesRef is the sequential reference: a pure function of (bodies, steps).
type barnesRef struct {
	pos, force [][3]float64
}

var barnesRefs refMemo[[2]int, *barnesRef]

// reference returns the memoized sequential reference.
func (a *Barnes) reference() *barnesRef {
	return barnesRefs.get([2]int{a.m, a.steps}, func() *barnesRef {
		pos := make([][3]float64, a.m)
		mass := make([]float64, a.m)
		for i := range pos {
			pos[i], mass[i] = a.initPos(i)
		}
		force := make([][3]float64, a.m)
		for s := 0; s < a.steps; s++ {
			t := buildRefTree(pos, mass)
			ints := 0
			for i := 0; i < a.m; i++ {
				force[i] = [3]float64{}
				t.forceOn(i, 0, &force[i], &ints)
			}
			for i := 0; i < a.m; i++ {
				for c := 0; c < 3; c++ {
					pos[i][c] += 1e-4 * force[i][c]
					pos[i][c] = math.Min(math.Max(pos[i][c], 0), 1-1e-12)
				}
			}
		}
		return &barnesRef{pos: pos, force: force}
	})
}

// --- the DSM program -------------------------------------------------------

// Program implements run.App: the per-processor program.
func (a *Barnes) Program(d core.DSM) {
	ec := d.Model() == core.EC
	np := d.NProcs()
	me := d.Proc()
	a.nprocs = np
	lo, hi := band(a.m, np, me)

	if ec {
		bind := bindOne(d)
		for i := 0; i < a.m; i++ {
			bind(a.bodyBLock(i), mem.Range{Base: a.forceAddr(i, 0), Len: 24})
		}
		if a.chunked {
			var rs []mem.Range
			for p := 0; p < np; p++ {
				l, h := band(a.m, np, p)
				rs = rs[:0]
				for i := l; i < h; i++ {
					rs = append(rs, mem.Range{Base: a.posAddr(i, 0), Len: 32})
				}
				if len(rs) > 0 {
					d.Bind(a.posChunkLock(p), rs...)
				}
			}
		} else {
			for i := 0; i < a.m; i++ {
				bind(a.bodyALock(i), mem.Range{Base: a.posAddr(i, 0), Len: 32})
			}
		}
		for c := 0; c < a.maxCells; c += cellsPerLock {
			n := min(cellsPerLock, a.maxCells-c)
			bind(a.cellLock(c), mem.Range{Base: a.cells + mem.Addr(cellBytes*c), Len: n * cellBytes})
		}
	}

	// Per-phase read-lock cache (EC): lock each cell/body set once per
	// phase, releasing in acquisition order at phase end.
	held := newLockSet(a.numLocks())
	rlock := func(l core.LockID) {
		if ec && held.add(l) {
			d.AcquireRead(l)
		}
	}
	releaseAll := func() {
		for _, l := range held.order {
			d.Release(l)
		}
		held.reset()
	}

	for s := 0; s < a.steps; s++ {
		// Phase 1 (processor 0): rebuild the oct-tree from the body
		// positions. Under EC this takes read locks on every body's
		// position set and exclusive locks on the cells being written.
		if me == 0 {
			barnesBuildShared(a, d, rlock)
			releaseAll()
		}
		d.Barrier(0)

		// Phase 2: load balancing. Every processor traverses the tree
		// (read-locking cells under EC) to examine the body distribution;
		// the assignment itself is the static band (a documented
		// simplification — cost zones change ownership rarely for uniform
		// distributions).
		barnesTraverse(a, d, 0, rlock)
		releaseAll()
		d.Barrier(1)

		// Phase 3: force computation on my bodies.
		for i := lo; i < hi; i++ {
			var f [3]float64
			ints := 0
			barnesForce(a, d, i, 0, &f, &ints, rlock)
			d.Compute(sim.Time(ints) * barnesPerInteract)
			if ec {
				d.Acquire(a.bodyBLock(i))
			}
			for c := 0; c < 3; c++ {
				d.WriteF64(a.forceAddr(i, c), f[c])
			}
			if ec {
				d.Release(a.bodyBLock(i))
			}
		}
		releaseAll()
		d.Barrier(2)

		// Phase 4: position update on my bodies under the position locks
		// (they stay owned here, so reacquisition is free).
		if ec && a.chunked && hi > lo {
			d.Acquire(a.posChunkLock(me))
		}
		for i := lo; i < hi; i++ {
			if ec {
				if !a.chunked {
					d.Acquire(a.bodyALock(i))
				}
				d.AcquireRead(a.bodyBLock(i))
			}
			for c := 0; c < 3; c++ {
				p := d.ReadF64(a.posAddr(i, c)) + 1e-4*d.ReadF64(a.forceAddr(i, c))
				p = math.Min(math.Max(p, 0), 1-1e-12)
				d.WriteF64(a.posAddr(i, c), p)
			}
			d.Compute(3 * sim.Microsecond)
			if ec {
				d.Release(a.bodyBLock(i))
				if !a.chunked {
					d.Release(a.bodyALock(i))
				}
			}
		}
		if ec && a.chunked && hi > lo {
			d.Release(a.posChunkLock(me))
		}
		d.Barrier(3)
	}
	d.StatsEnd()

	// Gather for verification.
	if me == 0 {
		if ec && a.chunked {
			for p := 1; p < np; p++ {
				if l, h := band(a.m, np, p); h > l {
					d.AcquireRead(a.posChunkLock(p))
				}
			}
		}
		for i := 0; i < a.m; i++ {
			if ec {
				if !a.chunked {
					d.AcquireRead(a.posLock(i))
				}
				d.AcquireRead(a.bodyBLock(i))
			}
			for c := 0; c < 3; c++ {
				_ = d.ReadF64(a.posAddr(i, c))
				_ = d.ReadF64(a.forceAddr(i, c))
			}
			if ec {
				d.Release(a.bodyBLock(i))
				if !a.chunked {
					d.Release(a.posLock(i))
				}
			}
		}
		if ec && a.chunked {
			for p := 1; p < np; p++ {
				if l, h := band(a.m, np, p); h > l {
					d.Release(a.posChunkLock(p))
				}
			}
		}
	}
}

// buildShared rebuilds the shared tree (processor 0 only). Cell locks are
// acquired exclusively per touched cell; they stay owned by processor 0
// across steps, so reacquisition is free after the first step.
func barnesBuildShared(a *Barnes, d core.DSM, rlock func(core.LockID)) {
	ec := d.Model() == core.EC
	next := 1
	heldCells := newLockSet(a.numLocks())
	wlockCell := func(c int) {
		if l := a.cellLock(c); ec && heldCells.add(l) {
			d.Acquire(l)
		}
	}
	// Root cell.
	wlockCell(0)
	d.WriteF64(a.cCenter(0, 0), 0.5)
	d.WriteF64(a.cCenter(0, 1), 0.5)
	d.WriteF64(a.cCenter(0, 2), 0.5)
	d.WriteF64(a.cHalf(0), 0.5)
	for k := 0; k < 8; k++ {
		d.WriteI32(a.cKid(0, k), emptyKid)
	}

	var insert func(cell, body, depth int)
	insert = func(cell, body, depth int) {
		d.Compute(barnesPerInsert)
		p := [3]float64{d.ReadF64(a.posAddr(body, 0)), d.ReadF64(a.posAddr(body, 1)), d.ReadF64(a.posAddr(body, 2))}
		center := [3]float64{d.ReadF64(a.cCenter(cell, 0)), d.ReadF64(a.cCenter(cell, 1)), d.ReadF64(a.cCenter(cell, 2))}
		o := octant(center, p)
		kid := int(d.ReadI32(a.cKid(cell, o)))
		switch {
		case kid == emptyKid:
			d.WriteI32(a.cKid(cell, o), int32(-(body + 1)))
		case kid < 0:
			other := -kid - 1
			if depth > 60 {
				panic("barnes: tree too deep")
			}
			nc := next
			next++
			if nc >= a.maxCells {
				panic("barnes: cell pool exhausted")
			}
			wlockCell(nc)
			half := d.ReadF64(a.cHalf(cell))
			cc := childCenter(center, half, o)
			for c := 0; c < 3; c++ {
				d.WriteF64(a.cCenter(nc, c), cc[c])
			}
			d.WriteF64(a.cHalf(nc), half/2)
			for k := 0; k < 8; k++ {
				d.WriteI32(a.cKid(nc, k), emptyKid)
			}
			d.WriteI32(a.cKid(cell, o), int32(nc))
			insert(nc, other, depth+1)
			insert(nc, body, depth+1)
		default:
			insert(kid, body, depth+1)
		}
	}
	for i := 0; i < a.m; i++ {
		rlock(a.posLock(i))
		insert(0, i, 0)
	}

	var com func(cell int) ([3]float64, float64)
	com = func(cell int) ([3]float64, float64) {
		d.Compute(barnesPerVisit)
		var cm [3]float64
		var mass float64
		for k := 0; k < 8; k++ {
			kid := int(d.ReadI32(a.cKid(cell, k)))
			var kc [3]float64
			var km float64
			switch {
			case kid == emptyKid:
				continue
			case kid < 0:
				b := -kid - 1
				kc = [3]float64{d.ReadF64(a.posAddr(b, 0)), d.ReadF64(a.posAddr(b, 1)), d.ReadF64(a.posAddr(b, 2))}
				km = d.ReadF64(a.massAddr(b))
			default:
				kc, km = com(kid)
			}
			mass += km
			for c := 0; c < 3; c++ {
				cm[c] += kc[c] * km
			}
		}
		if mass > 0 {
			for c := 0; c < 3; c++ {
				cm[c] /= mass
			}
		}
		for c := 0; c < 3; c++ {
			d.WriteF64(a.cCom(cell, c), cm[c])
		}
		d.WriteF64(a.cMass(cell), mass)
		return cm, mass
	}
	com(0)

	for _, l := range heldCells.order {
		d.Release(l)
	}
}

// traverse walks the whole tree, read-locking cells (the load-balancing
// phase's tree examination).
func barnesTraverse(a *Barnes, d core.DSM, cell int, rlock func(core.LockID)) {
	rlock(a.cellLock(cell))
	d.Compute(barnesPerVisit)
	for k := 0; k < 8; k++ {
		kid := int(d.ReadI32(a.cKid(cell, k)))
		if kid > 0 {
			barnesTraverse(a, d, kid, rlock)
		}
	}
}

// force accumulates the force on body i by tree traversal, mirroring the
// reference implementation but reading through the DSM with EC read locks.
func barnesForce(a *Barnes, d core.DSM, i, cell int, f *[3]float64, ints *int, rlock func(core.LockID)) {
	rlock(a.cellLock(cell))
	pi := [3]float64{d.ReadF64(a.posAddr(i, 0)), d.ReadF64(a.posAddr(i, 1)), d.ReadF64(a.posAddr(i, 2))}
	for k := 0; k < 8; k++ {
		kid := int(d.ReadI32(a.cKid(cell, k)))
		switch {
		case kid == emptyKid:
		case kid < 0:
			j := -kid - 1
			if j != i {
				rlock(a.posLock(j))
				pj := [3]float64{d.ReadF64(a.posAddr(j, 0)), d.ReadF64(a.posAddr(j, 1)), d.ReadF64(a.posAddr(j, 2))}
				g := gravity(pi, pj, d.ReadF64(a.massAddr(j)))
				for c := 0; c < 3; c++ {
					f[c] += g[c]
				}
				*ints++
			}
		default:
			rlock(a.cellLock(kid))
			com := [3]float64{d.ReadF64(a.cCom(kid, 0)), d.ReadF64(a.cCom(kid, 1)), d.ReadF64(a.cCom(kid, 2))}
			var d2 float64
			for c := 0; c < 3; c++ {
				dd := com[c] - pi[c]
				d2 += dd * dd
			}
			size := d.ReadF64(a.cHalf(kid)) * 2
			if size*size < barnesTheta*barnesTheta*d2 {
				g := gravity(pi, com, d.ReadF64(a.cMass(kid)))
				for c := 0; c < 3; c++ {
					f[c] += g[c]
				}
				*ints++
			} else {
				barnesForce(a, d, i, kid, f, ints, rlock)
			}
		}
	}
}

// Verify implements run.App.
func (a *Barnes) Verify(im *mem.Image) error {
	const tol = 1e-9
	ref := a.reference()
	for i := 0; i < a.m; i++ {
		for c := 0; c < 3; c++ {
			got := im.ReadF64(a.posAddr(i, c))
			want := ref.pos[i][c]
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				return fmt.Errorf("Barnes-Hut: pos[%d][%d] = %v, want %v", i, c, got, want)
			}
			gotF := im.ReadF64(a.forceAddr(i, c))
			wantF := ref.force[i][c]
			if math.Abs(gotF-wantF) > tol*(1+math.Abs(wantF)) {
				return fmt.Errorf("Barnes-Hut: force[%d][%d] = %v, want %v", i, c, gotF, wantF)
			}
		}
	}
	return nil
}
