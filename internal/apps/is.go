package apps

import (
	"fmt"

	"ecvslrc/internal/core"
	"ecvslrc/internal/ec"
	"ecvslrc/internal/lrc"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/run"
	"ecvslrc/internal/sim"
)

func init() {
	register("IS", func(s Scale) run.App { return newIS(s) })
}

// Per-key CPU costs, calibrated against Table 3's 10.27 s sequential time
// for N=2^20 keys and 10 rankings.
const (
	isPerKeyCount = 400 * sim.Nanosecond
	isPerKeyRank  = 600 * sim.Nanosecond
)

// IS is the NAS Integer Sort benchmark: ranking N keys in [0, Bmax) by
// counting sort. Phase 1: each processor ranks its keys locally, then adds
// its counts into a shared bucket array under a lock (migratory data — the
// array is smaller than a page). Phase 2: each processor reads the shared
// array to compute the global ranks of its keys. Barriers separate phases.
type IS struct {
	n, bmax, rounds int
	buckets         mem.Addr
	nprocs          int
}

func newIS(s Scale) *IS {
	a := &IS{}
	switch s {
	case Test:
		a.n, a.bmax, a.rounds = 4096, 128, 3
	case Bench:
		a.n, a.bmax, a.rounds = 1<<16, 1<<9, 5
	case Large:
		// 256 keys per processor at 1024 procs; the shared bucket array is
		// the scaling stress (every processor merges all Bmax buckets).
		a.n, a.bmax, a.rounds = 1<<18, 1<<10, 3
	default: // Paper: N = 2^20, Bmax = 2^9, 10 rankings (Table 2)
		a.n, a.bmax, a.rounds = 1<<20, 1<<9, 10
	}
	return a
}

// Name implements run.App.
func (a *IS) Name() string { return "IS" }

// Layout implements run.App. The bucket array (2 KB at paper scale) is the
// only shared data: "the size of the shared array is less than a page".
func (a *IS) Layout(al *mem.Allocator) {
	a.buckets = al.Alloc("buckets", a.bmax*4, 4)
}

// Init implements run.App.
func (a *IS) Init(im *mem.Image) {}

// keyStream returns the generator of processor p's deterministic key set and
// the number of keys it holds; each key is the stream's next intn(a.bmax).
func (a *IS) keyStream(p, nprocs int) (rng *lcg, n int) {
	lo, hi := band(a.n, nprocs, p)
	return newLCG(uint64(1000 + p)), hi - lo
}

// keys regenerates processor p's deterministic key set.
func (a *IS) keys(p, nprocs int) []int32 {
	rng, n := a.keyStream(p, nprocs)
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(rng.intn(a.bmax))
	}
	return out
}

const isLock = core.LockID(1)

// Program implements run.App: the interface-adapter entry of isProgram —
// the same generic kernel the statically-dispatched entries run.
func (a *IS) Program(d core.DSM) { isProgram(a, d) }

// ProgramLRC implements run.StaticApp: isProgram instantiated at *lrc.Node.
func (a *IS) ProgramLRC(n *lrc.Node) { isProgram(a, n) }

// ProgramEC implements run.StaticApp: isProgram instantiated at *ec.Node.
func (a *IS) ProgramEC(n *ec.Node) { isProgram(a, n) }

// ProgramSeq implements run.StaticApp: isProgram instantiated at *run.Local.
func (a *IS) ProgramSeq(l *run.Local) { isProgram(a, l) }

// isProgram is the per-processor program as a generic kernel: one source,
// statically instantiated per protocol stack.
func isProgram[D core.Accessor](a *IS, d D) {
	ec := d.Model() == core.EC
	a.nprocs = d.NProcs()
	d.Bind(isLock, mem.Range{Base: a.buckets, Len: a.bmax * 4})
	keys := a.keys(d.Proc(), d.NProcs())
	local := make([]int32, a.bmax)

	for r := 0; r < a.rounds; r++ {
		// Phase 1: local ranking, then merge into the shared array.
		clear(local)
		for _, k := range keys {
			local[k]++
		}
		d.Compute(sim.Time(len(keys)) * isPerKeyCount)

		d.Acquire(isLock)
		for b := 0; b < a.bmax; b++ {
			addr := a.buckets + mem.Addr(4*b)
			d.WriteI32(addr, d.ReadI32(addr)+local[b])
		}
		d.Compute(sim.Time(a.bmax) * 200 * sim.Nanosecond)
		d.Release(isLock)
		d.Barrier(0)

		// Phase 2: read the final counts and rank the local keys.
		if ec {
			d.AcquireRead(isLock)
		}
		var checksum int64
		for b := 0; b < a.bmax; b++ {
			checksum += int64(d.ReadI32(a.buckets + mem.Addr(4*b)))
		}
		_ = checksum
		d.Compute(sim.Time(len(keys)) * isPerKeyRank)
		if ec {
			d.Release(isLock)
		}
		d.Barrier(1)
	}
	d.StatsEnd()

	// Gather for verification.
	if d.Proc() == 0 {
		if ec {
			d.AcquireRead(isLock)
		}
		for b := 0; b < a.bmax; b++ {
			_ = d.ReadI32(a.buckets + mem.Addr(4*b))
		}
		if ec {
			d.Release(isLock)
		}
	}
}

// Verify implements run.App: the shared buckets accumulate rounds×histogram.
func (a *IS) Verify(im *mem.Image) error {
	want := make([]int32, a.bmax)
	for p := 0; p < a.nprocs; p++ {
		rng, n := a.keyStream(p, a.nprocs)
		for i := 0; i < n; i++ {
			want[rng.intn(a.bmax)] += int32(a.rounds)
		}
	}
	for b := 0; b < a.bmax; b++ {
		if got := im.ReadI32(a.buckets + mem.Addr(4*b)); got != want[b] {
			return fmt.Errorf("IS: bucket[%d] = %d, want %d", b, got, want[b])
		}
	}
	return nil
}
