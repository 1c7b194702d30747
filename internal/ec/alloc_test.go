package ec

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/sim"
)

// pingPong runs two EC nodes that take turns acquiring two locks exclusively,
// overwriting every other word of each lock's bound data and checking what
// the other side wrote the turn before. The turns are spaced in virtual time
// so each lock is free when requested: every acquire is a remote grant built
// from a harvested write epoch. The two locks bind different data (obj and a
// one-word counter) but share each node's grant-body and twin free lists, so
// a body or twin released too early, or carrying state over into its next
// use, shows up as a wrong word. mark(k) runs on processor 0 before its k-th
// turn and, with k == turns, after its last.
func pingPong(tb testing.TB, impl core.Impl, obj []mem.Range, turns int, mark func(k int)) {
	tb.Helper()
	const objLock, ctrLock = 1, 2
	s := sim.New()
	net := fabric.New(s, fabric.DefaultCostModel(), 2)
	al := mem.NewAllocator()
	al.Alloc("data", 8*mem.PageSize, 4)
	ctr := mem.Range{Base: 7 * mem.PageSize, Len: mem.WordSize}
	nodes := make([]*Node, 2)
	for i := range nodes {
		i := i
		p := s.Spawn("p", func(p *sim.Proc) {
			nd := nodes[i]
			nd.Bind(objLock, obj...)
			nd.Bind(ctrLock, ctr)
			p.Sleep(sim.Time(i) * 50 * sim.Millisecond)
			for k := 0; k < turns; k++ {
				if i == 0 {
					mark(k)
				}
				turn := int32(2*k + i) // global turn number: 0, 1, 2, ...
				nd.Acquire(ctrLock)
				if got := nd.ReadI32(ctr.Base); got != turn {
					tb.Errorf("%v: turn %d read counter %d", impl, turn, got)
				}
				nd.WriteI32(ctr.Base, turn+1)
				nd.Release(ctrLock)
				nd.Acquire(objLock)
				for _, r := range obj {
					for a := r.Base; a < r.End(); a += 2 * mem.WordSize {
						if got := nd.ReadI32(a); turn > 0 && got != turn-1+int32(a) {
							tb.Errorf("%v: turn %d read %d at %d, want %d", impl, turn, got, a, turn-1+int32(a))
						}
						nd.WriteI32(a, turn+int32(a))
					}
				}
				nd.Release(objLock)
				p.Sleep(100 * sim.Millisecond)
			}
			if i == 0 {
				mark(turns)
			}
		})
		nodes[i] = New(p, net, al, 2, impl)
	}
	if err := s.Run(); err != nil {
		tb.Fatal(err)
	}
}

// Object shapes of the steady-state tests: a sub-page object in two pieces
// (eager object twin) and an object over three pages in two pieces (page
// twins under twinning).
var (
	smallObject = []mem.Range{{Base: 64, Len: 96}, {Base: 1024, Len: 40}}
	largeObject = []mem.Range{{Base: mem.PageSize + 128, Len: 2 * mem.PageSize}, {Base: 4 * mem.PageSize, Len: 512}}
)

// TestGrantSteadyStateAllocs pins the acquire/grant/harvest path at zero
// allocations per remote acquire once the free lists are warm, for a small
// and a multi-page object under every EC implementation. EC-diff keeps the
// diff of each write epoch for later requesters, so it may allocate exactly
// that: one object, the diff's encoding. The count is process-wide, so the
// cell runs on one P like dsmrun's (goroutines migrating between Ps refill
// runtime caches) and is taken over two windows, the quieter one judged: an
// allocation on the path shows in both, a stray one from the runtime in one.
func TestGrantSteadyStateAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const warm, window = 4, 8
	for _, impl := range core.Implementations() {
		if impl.Model != core.EC {
			continue
		}
		for name, obj := range map[string][]mem.Range{"small": smallObject, "large": largeObject} {
			t.Run(fmt.Sprintf("%v/%s", impl, name), func(t *testing.T) {
				var m [3]runtime.MemStats
				pingPong(t, impl, obj, warm+2*window, func(k int) {
					if k >= warm && (k-warm)%window == 0 {
						runtime.ReadMemStats(&m[(k-warm)/window])
					}
				})
				// Both processors acquire both locks once a turn.
				acquires := uint64(2 * 2 * window)
				var want uint64
				if impl.Collect == core.Diffs {
					want = acquires
				}
				if got := min(m[1].Mallocs-m[0].Mallocs, m[2].Mallocs-m[1].Mallocs); got > want {
					t.Errorf("%d warm acquires allocated %d objects, want at most %d", acquires, got, want)
				}
			})
		}
	}
}

// BenchmarkECGrant is the CI form of TestGrantSteadyStateAllocs for EC-time
// on a small object: remote acquires must report 0 allocs/op.
func BenchmarkECGrant(b *testing.B) {
	b.ReportAllocs()
	impl := core.Impl{Model: core.EC, Trap: core.Twinning, Collect: core.Timestamps}
	const warm = 4
	pingPong(b, impl, smallObject, warm+(b.N+3)/4, func(k int) {
		if k == warm {
			b.ResetTimer()
		}
	})
}

// TestBindOwnsRanges: Bind and Rebind copy their argument, so a caller may
// reuse one slice for every lock and change it afterwards.
func TestBindOwnsRanges(t *testing.T) {
	newTestNode(t, core.Impl{Model: core.EC, Trap: core.Twinning, Collect: core.Timestamps}, func(n *Node) {
		arg := make([]mem.Range, 2)
		var want [4][]mem.Range
		for l := range want {
			arg[0] = mem.Range{Base: mem.Addr(64 * l), Len: 8}
			arg[1] = mem.Range{Base: mem.Addr(2048 + 64*l), Len: 16}
			want[l] = append([]mem.Range(nil), arg...)
			n.Bind(core.LockID(l), arg...)
		}
		n.Acquire(3)
		arg[0], arg[1] = mem.Range{Base: 512, Len: 4}, mem.Range{Base: 640, Len: 4}
		want[3] = append([]mem.Range(nil), arg...)
		n.Rebind(3, arg...)
		n.Release(3)
		arg[0], arg[1] = mem.Range{Base: 4000, Len: 4000}, mem.Range{}
		for l := range want {
			b := &n.ls(core.LockID(l)).b
			if fmt.Sprint(b.ranges) != fmt.Sprint(want[l]) {
				t.Errorf("lock %d bound to %v, want %v", l, b.ranges, want[l])
			}
			if b.words != want[l][0].Words()+want[l][1].Words() || !b.small {
				t.Errorf("lock %d: words %d small %v", l, b.words, b.small)
			}
		}
		big := make([]mem.Range, rangeSlabLen)
		for i := range big {
			big[i] = mem.Range{Base: mem.Addr(8 * i), Len: 4}
		}
		n.Bind(9, big...)
		big[0].Len = 0
		if got := n.ls(9).b.ranges; len(got) != len(big) || got[0].Len != 4 {
			t.Errorf("a binding larger than a slab block was not copied: %d ranges, first %v", len(got), got[0])
		}
	})
}

// slotOf returns lock l's slot at n without making it: nil if n has not
// used l.
func slotOf(n *Node, l core.LockID) *lockState {
	if c := int(l) / lockChunk; c < len(n.lockSt) && n.lockSt[c] != nil {
		if st := &n.lockSt[c][int(l)%lockChunk]; st.b.version != 0 {
			return st
		}
	}
	return nil
}

// TestLockTableSlots: lock ids arrive in any order, with gaps (3D-FFT's
// second lock family starts at 5001) and above 2^16 (3D-FFT at 256
// processors); every id resolves to one slot of its own, made by the node's
// first use and not by Bind, that never moves while further slabs are
// carved; ids the node bound but never used have no slot, and chunks no
// used id falls in are not allocated.
func TestLockTableSlots(t *testing.T) {
	newTestNode(t, core.Impl{Model: core.EC, Trap: core.CompilerInstr, Collect: core.Timestamps}, func(n *Node) {
		ids := []core.LockID{5001, 3, 1<<16 + 77, 0, 5000, lockChunk, 131072, lockChunk - 1, 9097}
		for l := core.LockID(0); l <= 131072; l++ {
			n.Bind(l, mem.Range{Base: mem.Addr(4 * (l % 1024)), Len: 4})
		}
		if len(n.lockSt) != 0 {
			t.Fatalf("Bind made a lock table of %d chunks", len(n.lockSt))
		}
		slots := make(map[core.LockID]*lockState)
		touch := func(l core.LockID) {
			st := n.ls(l)
			st.inc = int32(l) + 1
			slots[l] = st
		}
		for _, l := range ids {
			touch(l)
		}
		// One lock in each of several slabs' worth of further chunks.
		for l := core.LockID(10000); l < 10000+3*lockSlab*lockChunk; l += lockChunk {
			touch(l)
		}
		for l, st := range slots {
			if got := n.ls(l); got != st || got.inc != int32(l)+1 || got.b.version != 1 {
				t.Errorf("lock %d: slot moved or shared (inc %d, version %d)", l, got.inc, got.b.version)
			}
		}
		if want := (131072 + lockChunk) / lockChunk; len(n.lockSt) != want {
			t.Errorf("table covers %d chunks, want every bound id's (%d)", len(n.lockSt), want)
		}
		used := make(map[int]bool)
		for l := range slots {
			used[int(l)/lockChunk] = true
		}
		for c, ch := range n.lockSt {
			if (ch != nil) != used[c] {
				t.Errorf("chunk %d: allocated %v, used %v", c, ch != nil, used[c])
			}
		}
		for l := core.LockID(0); l <= 131072; l++ {
			if (slotOf(n, l) != nil) != (slots[l] != nil) {
				t.Errorf("lock %d: has a slot %v, used %v", l, slotOf(n, l) != nil, slots[l] != nil)
			}
		}
	})
}

// TestLockTableStaysSparse: a node's lock table costs the locks it uses, not
// the locks the cell binds. 3D-FFT at 64 processors binds 8192 locks (ids
// 1..9096) on every processor; a processor then uses the blocks it writes,
// the blocks it reads and the locks it manages (id % 64 == self, whose
// first grant it makes) — about 380, as every processor of the real cell
// but processor 0 (which gathers the result) does, in about 205 chunks.
// Its table must hold no more than 8x the bytes of those slots plus
// perLockID bytes per lock id (a chunk pointer per lockChunk ids and one
// bound bit); the table this replaced held a 128-byte slot per lock id.
func TestLockTableStaysSparse(t *testing.T) {
	const nprocs, maxFactor, perLockID = 64, 8, 2
	lockA := func(q, p int) core.LockID { return core.LockID(1 + 64*q + p) }
	lockB := func(q, p int) core.LockID { return core.LockID(5001 + 64*q + p) }
	impl := core.Impl{Model: core.EC, Trap: core.Twinning, Collect: core.Timestamps}
	slotBytes := unsafe.Sizeof(lockState{})
	binds := newTestCell(t, nprocs, impl, func(self int, n *Node) {
		for q := 0; q < nprocs; q++ {
			for p := 0; p < nprocs; p++ {
				n.Bind(lockA(q, p), mem.Range{Base: mem.Addr(64 * p), Len: 64})
				n.Bind(lockB(q, p), mem.Range{Base: mem.Addr(4096 + 64*p), Len: 64})
			}
		}
		used := make(map[core.LockID]bool)
		for _, lock := range []func(q, p int) core.LockID{lockA, lockB} {
			for q := 0; q < nprocs; q++ {
				used[lock(self, q)] = true // writer self
				used[lock(q, self)] = true // reader self
				for p := 0; p < nprocs; p++ {
					if l := lock(q, p); int(l)%nprocs == self {
						used[l] = true // managed: the first owner
					}
				}
			}
		}
		for l := range used {
			n.ls(l)
		}
		touched, chunks := len(used), 0
		for _, ch := range n.lockSt {
			if ch != nil {
				chunks++
			}
		}
		slabs := (chunks + lockSlab - 1) / lockSlab // a slab is carved one chunk at a time
		got := uintptr(cap(n.lockSt))*unsafe.Sizeof(n.lockSt[0]) + uintptr(cap(n.bound))*8 +
			uintptr(slabs*lockSlab)*unsafe.Sizeof([lockChunk]lockState{})
		ids := len(n.binds.b)
		if limit := maxFactor*uintptr(touched)*slotBytes + perLockID*uintptr(ids); got > limit {
			t.Errorf("proc %d: %d slots used (%d B) of %d lock ids hold %d B of table, over %dx + %d B per id = %d B",
				self, touched, uintptr(touched)*slotBytes, ids, got, maxFactor, perLockID, limit)
		}
	})
	if ids := 5001 + 64*64; len(binds.b) != ids {
		t.Errorf("the cell's table holds %d ids, want %d", len(binds.b), ids)
	}
}
