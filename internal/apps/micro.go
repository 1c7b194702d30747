package apps

import (
	"fmt"

	"ecvslrc/internal/core"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/run"
	"ecvslrc/internal/sim"
)

func init() {
	register("micro-migratory", func(s Scale) run.App { return newMicro(s, microMigratory) })
	register("micro-producer-consumer", func(s Scale) run.App { return newMicro(s, microProducerConsumer) })
	register("micro-false-sharing", func(s Scale) run.App { return newMicro(s, microFalseSharing) })
	register("micro-prefetch", func(s Scale) run.App { return newMicro(s, microPrefetch) })
	register("micro-rebinding", func(s Scale) run.App { return newMicro(s, microRebinding) })
}

type microKind int

const (
	// microMigratory: a sub-page record passes round-robin between
	// processors, each mutating all of it under one lock — the Section 5.3
	// pattern where EC timestamps beat diffs (overlapping diffs).
	microMigratory microKind = iota
	// microProducerConsumer: one processor writes a multi-page buffer,
	// everyone reads it after a barrier — the single-diff pattern where
	// diffing beats timestamps (one diff, no repeated scans).
	microProducerConsumer
	// microFalseSharing: each processor owns a distinct quarter of a page,
	// writing its quarter and reading a neighbour's each phase — EC moves
	// only the bound quarters, LRC the page (Section 7.1, false sharing).
	microFalseSharing
	// microPrefetch: many small objects on the same page, each bound to its
	// own lock, all read by the same consumer — LRC's page fault brings all
	// of them at once, EC pays one lock exchange each (Section 7.1,
	// prefetching).
	microPrefetch
	// microRebinding: a lock is rebound to fresh memory each round and the
	// next acquirer receives a conservative full transfer (Section 7.1,
	// rebinding).
	microRebinding
)

var microNames = map[microKind]string{
	microMigratory:        "micro-migratory",
	microProducerConsumer: "micro-producer-consumer",
	microFalseSharing:     "micro-false-sharing",
	microPrefetch:         "micro-prefetch",
	microRebinding:        "micro-rebinding",
}

// Micro is a synthetic kernel isolating one of the five performance factors
// of Section 7.1.
type Micro struct {
	kind   microKind
	rounds int
	base   mem.Addr
	nprocs int
}

func newMicro(s Scale, k microKind) *Micro {
	m := &Micro{kind: k}
	switch s {
	case Test:
		m.rounds = 4
	case Bench:
		m.rounds = 16
	case Large:
		m.rounds = 32
	default:
		m.rounds = 64
	}
	return m
}

// Name implements run.App.
func (m *Micro) Name() string { return microNames[m.kind] }

// Layout implements run.App.
func (m *Micro) Layout(al *mem.Allocator) {
	switch m.kind {
	case microProducerConsumer:
		m.base = al.Alloc("buffer", 4*mem.PageSize, 4)
	case microRebinding:
		m.base = al.Alloc("slots", 8*mem.PageSize, 4)
	default:
		m.base = al.Alloc("page", mem.PageSize, 4)
	}
}

// Init implements run.App.
func (m *Micro) Init(im *mem.Image) {}

// Program implements run.App: the per-processor program runs the selected
// factor kernel.
func (m *Micro) Program(d core.DSM) {
	switch m.kind {
	case microMigratory:
		migratory(m, d)
	case microProducerConsumer:
		producerConsumer(m, d)
	case microFalseSharing:
		falseSharing(m, d)
	case microPrefetch:
		prefetch(m, d)
	case microRebinding:
		rebinding(m, d)
	}
}

func migratory(m *Micro, d core.DSM) {
	m.nprocs = d.NProcs()
	const words = 256 // 1 KB record, below a page
	d.Bind(1, mem.Range{Base: m.base, Len: words * 4})
	for r := 0; r < m.rounds; r++ {
		d.Acquire(1)
		for w := 0; w < words; w++ {
			a := m.base + mem.Addr(4*w)
			d.WriteI32(a, d.ReadI32(a)+1)
		}
		d.Compute(50 * sim.Microsecond)
		d.Release(1)
	}
	d.Barrier(0)
	d.StatsEnd()
	if d.Proc() == 0 {
		d.AcquireRead(1)
		for w := 0; w < words; w++ {
			_ = d.ReadI32(m.base + mem.Addr(4*w))
		}
		d.Release(1)
	}
}

func producerConsumer(m *Micro, d core.DSM) {
	ec := d.Model() == core.EC
	m.nprocs = d.NProcs()
	n := 4 * mem.PageSize / 4
	d.Bind(1, mem.Range{Base: m.base, Len: n * 4})
	for r := 0; r < m.rounds; r++ {
		if d.Proc() == 0 {
			if ec {
				d.Acquire(1)
			}
			for w := 0; w < n; w++ {
				d.WriteI32(m.base+mem.Addr(4*w), int32(r*n+w))
			}
			d.Compute(200 * sim.Microsecond)
			if ec {
				d.Release(1)
			}
		}
		d.Barrier(0)
		if d.Proc() != 0 {
			if ec {
				d.AcquireRead(1)
			}
			var sum int64
			for w := 0; w < n; w += 16 {
				sum += int64(d.ReadI32(m.base + mem.Addr(4*w)))
			}
			_ = sum
			d.Compute(50 * sim.Microsecond)
			if ec {
				d.Release(1)
			}
		}
		d.Barrier(1)
	}
	d.StatsEnd()
	if d.Proc() == 0 {
		_ = d.ReadI32(m.base)
	}
}

func falseSharing(m *Micro, d core.DSM) {
	ec := d.Model() == core.EC
	m.nprocs = d.NProcs()
	np := d.NProcs()
	me := d.Proc()
	chunk := mem.PageSize / np
	lock := func(p int) core.LockID { return core.LockID(1 + p) }
	rng := func(p int) mem.Range { return mem.Range{Base: m.base + mem.Addr(p*chunk), Len: chunk} }
	for p := 0; p < np; p++ {
		d.Bind(lock(p), rng(p))
	}
	for r := 0; r < m.rounds; r++ {
		if ec {
			d.Acquire(lock(me))
		}
		for a := rng(me).Base; a < rng(me).End(); a += 4 {
			d.WriteI32(a, int32(r))
		}
		d.Compute(50 * sim.Microsecond)
		if ec {
			d.Release(lock(me))
		}
		d.Barrier(0)
		other := (me + 1) % np
		if ec {
			d.AcquireRead(lock(other))
		}
		if got := d.ReadI32(rng(other).Base); got != int32(r) {
			panic(fmt.Sprintf("micro-false-sharing: read %d, want %d", got, r))
		}
		if ec {
			d.Release(lock(other))
		}
		d.Barrier(1)
	}
	d.StatsEnd()
}

func prefetch(m *Micro, d core.DSM) {
	ec := d.Model() == core.EC
	m.nprocs = d.NProcs()
	const objs = 32 // 128-byte objects, all on one page
	objRange := func(o int) mem.Range {
		return mem.Range{Base: m.base + mem.Addr(o*128), Len: 128}
	}
	for o := 0; o < objs; o++ {
		d.Bind(core.LockID(1+o), objRange(o))
	}
	writer := 1 % d.NProcs()
	for r := 0; r < m.rounds; r++ {
		if d.Proc() == writer {
			for o := 0; o < objs; o++ {
				if ec {
					d.Acquire(core.LockID(1 + o))
				}
				for a := objRange(o).Base; a < objRange(o).End(); a += 4 {
					d.WriteI32(a, int32(r*objs+o))
				}
				if ec {
					d.Release(core.LockID(1 + o))
				}
			}
			d.Compute(100 * sim.Microsecond)
		}
		d.Barrier(0)
		if d.Proc() == 0 {
			// The consumer touches every object: LRC faults once for the
			// page; EC needs one read-lock exchange per object.
			for o := 0; o < objs; o++ {
				if ec {
					d.AcquireRead(core.LockID(1 + o))
				}
				_ = d.ReadI32(objRange(o).Base)
				if ec {
					d.Release(core.LockID(1 + o))
				}
			}
			d.Compute(50 * sim.Microsecond)
		}
		d.Barrier(1)
	}
	d.StatsEnd()
}

func rebinding(m *Micro, d core.DSM) {
	ec := d.Model() == core.EC
	m.nprocs = d.NProcs()
	const taskBytes = 2048
	d.Bind(1, mem.Range{Base: m.base, Len: taskBytes})
	np := d.NProcs()
	for r := 0; r < m.rounds; r++ {
		turn := r % np
		if d.Proc() == turn {
			d.AcquireForRebind(1)
			slot := mem.Range{Base: m.base + mem.Addr((r%8)*mem.PageSize), Len: taskBytes}
			if ec {
				d.Rebind(1, slot)
			}
			for a := slot.Base; a < slot.End(); a += 4 {
				d.WriteI32(a, int32(r))
			}
			d.Compute(50 * sim.Microsecond)
			d.Release(1)
		}
		d.Barrier(0)
	}
	d.StatsEnd()
	if d.Proc() == 0 {
		d.AcquireRead(1)
		_ = d.ReadI32(m.base)
		d.Release(1)
	}
}

// Verify implements run.App: the kernels assert inline; nothing to check.
func (m *Micro) Verify(im *mem.Image) error { return nil }
