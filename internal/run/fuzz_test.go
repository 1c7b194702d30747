package run

import (
	"fmt"
	"testing"

	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/sim"
)

// fuzzApp is a randomized (but seeded, hence deterministic) program over a
// set of lock-protected counters: every processor performs a shuffled
// sequence of read-modify-write operations under the proper locks, with
// occasional barriers. The final counter values are exactly predictable, so
// any stale read under any implementation shows up as a verification error.
// This is a protocol stress test: many locks, false sharing between
// counters on the same page, migratory and contended access mixed.
type fuzzApp struct {
	seed     uint64
	counters int
	ops      int
	base     mem.Addr
	procs    int
	// expected number of increments per counter, sized by Layout and
	// filled during Program.
	added []int64
}

type fuzzLCG struct{ s uint64 }

func (l *fuzzLCG) next() uint64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return l.s
}

func (a *fuzzApp) Name() string { return "fuzz" }

func (a *fuzzApp) Layout(al *mem.Allocator) {
	a.base = al.Alloc("counters", a.counters*8, 4)
	a.added = make([]int64, a.counters)
}

func (a *fuzzApp) Init(im *mem.Image) {}

func (a *fuzzApp) addr(c int) mem.Addr    { return a.base + mem.Addr(8*c) }
func (a *fuzzApp) lock(c int) core.LockID { return core.LockID(1 + c) }

func (a *fuzzApp) Program(d core.DSM) {
	a.procs = d.NProcs()
	for c := 0; c < a.counters; c++ {
		d.Bind(a.lock(c), mem.Range{Base: a.addr(c), Len: 8})
	}
	rng := fuzzLCG{s: a.seed + uint64(d.Proc())*977}
	for op := 0; op < a.ops; op++ {
		c := int(rng.next()) % a.counters
		if c < 0 {
			c = -c
		}
		amount := int32(rng.next()%7) + 1
		d.Acquire(a.lock(c))
		v := d.ReadI32(a.addr(c))
		d.Compute(sim.Time(rng.next()%50) * sim.Microsecond)
		d.WriteI32(a.addr(c), v+amount)
		d.Release(a.lock(c))
		a.added[c] += int64(amount)
		// Barriers at fixed op indices so every processor participates.
		if op%16 == 7 {
			d.Barrier(core.BarrierID(op % 3))
		}
	}
	d.Barrier(10)
	d.StatsEnd()
	if d.Proc() == 0 {
		for c := 0; c < a.counters; c++ {
			d.AcquireRead(a.lock(c))
			_ = d.ReadI32(a.addr(c))
			d.Release(a.lock(c))
		}
	}
}

func (a *fuzzApp) Verify(im *mem.Image) error {
	for c := 0; c < a.counters; c++ {
		if got := int64(im.ReadI32(a.addr(c))); got != a.added[c] {
			return fmt.Errorf("fuzz: counter %d = %d, want %d", c, got, a.added[c])
		}
	}
	return nil
}

func TestProtocolFuzz(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			for _, impl := range core.Implementations() {
				app := &fuzzApp{seed: seed, counters: 12, ops: 40}
				if _, err := Run(app, impl, 4, fabric.DefaultCostModel()); err != nil {
					t.Errorf("%v: %v", impl, err)
				}
			}
		})
	}
}
