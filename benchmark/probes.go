package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/ec"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/harness"
	"ecvslrc/internal/lrc"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/perf"
	"ecvslrc/internal/platform"
	"ecvslrc/internal/run"
	"ecvslrc/internal/sim"
	"ecvslrc/internal/sweep"
	"ecvslrc/internal/syncmgr"
	"ecvslrc/internal/trace"
	"ecvslrc/internal/vm"
	"ecvslrc/internal/wcollect"
	"ecvslrc/internal/wtrap"
)

// Per-layer source 1: probes. Each probe drives one layer's public functions
// for a fixed number of operations and reports host nanoseconds per operation
// (microseconds where the name says _us). Fixed iteration counts, probeReps
// repetitions, the first quartile is reported (see steady). Every probe checks what the layer
// returned, so a probe of a broken layer fails instead of timing garbage.

const probeReps = 5

// Shapes the ledger relies on: the words a diff probe moves per operation and
// the pages a multi-page scan covers, so per-page and per-word unit costs
// can be derived from the per-operation figures.
const (
	probeScanPages = 4
	probeDiffRuns  = 8
	probeDiffWords = probeDiffRuns * 16
)

// probe measures one rep and returns the host time per operation.
type probe struct {
	Name string
	Run  func(rng *rand.Rand) (time.Duration, int, error) // elapsed, operations
}

// timed runs f once and returns its wall time.
func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// simRun runs s to completion inside the timed region.
func simRun(s *sim.Simulator) (time.Duration, error) {
	var err error
	d := timed(func() { err = s.Run() })
	return d, err
}

// probes lists every probe. div divides the fixed iteration counts; it is 1
// except in the tests, which only check that every probe runs and verifies.
func probes(div int) []probe {
	cm := fabric.DefaultCostModel()
	iters := func(n int) int { return max(n/div, 2) }
	return []probe{
		// --- sim ---------------------------------------------------------
		{"sim.schedule_ns", func(*rand.Rand) (time.Duration, int, error) {
			// One schedule + dispatch through the same-instant FIFO and the
			// time-ordered heap (the BenchmarkSimSchedule mix).
			n := iters(100_000)
			s := sim.New()
			fired := 0
			fn := func() { fired++ }
			var err error
			d := timed(func() {
				for i := 0; i < n && err == nil; i++ {
					s.Schedule(s.Now(), fn)
					s.Schedule(s.Now()+sim.Microsecond, fn)
					s.Schedule(s.Now()+2*sim.Microsecond, fn)
					s.Schedule(s.Now()+sim.Microsecond, fn)
					err = s.Run()
				}
			})
			if err == nil && fired != 4*n {
				err = fmt.Errorf("dispatched %d of %d events", fired, 4*n)
			}
			return d, 4 * n, err
		}},
		{"sim.handoff_ns", func(*rand.Rand) (time.Duration, int, error) {
			return handoffProbe(2, iters(25_000))
		}},
		{"sim.handoff_p64_ns", func(*rand.Rand) (time.Duration, int, error) {
			return handoffProbe(64, iters(400))
		}},
		{"sim.spawn_ns", func(*rand.Rand) (time.Duration, int, error) {
			// Create, start and retire a process: goroutine + resume channel.
			rounds, procs := iters(40), 64
			ran := 0
			var err error
			d := timed(func() {
				for r := 0; r < rounds && err == nil; r++ {
					s := sim.New()
					for i := 0; i < procs; i++ {
						s.Spawn("p", func(*sim.Proc) { ran++ })
					}
					err = s.Run()
				}
			})
			if err == nil && ran != rounds*procs {
				err = fmt.Errorf("ran %d of %d processes", ran, rounds*procs)
			}
			return d, rounds * procs, err
		}},

		// --- fabric ------------------------------------------------------
		{"fabric.send_ns", func(*rand.Rand) (time.Duration, int, error) {
			n := iters(50_000)
			s := sim.New()
			net := fabric.New(s, cm, 2)
			got := 0
			src := s.Spawn("src", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					net.Send(p, 1, 1, 8, fabric.Payload{Kind: fabric.PayloadPageReq, A: int32(i)})
				}
			})
			dst := s.Spawn("dst", func(*sim.Proc) {})
			net.Attach(src, func(*fabric.HandlerCtx, fabric.Msg) {})
			net.Attach(dst, func(*fabric.HandlerCtx, fabric.Msg) { got++ })
			d, err := simRun(s)
			if err == nil && got != n {
				err = fmt.Errorf("delivered %d of %d messages", got, n)
			}
			return d, n, err
		}},
		{"fabric.call_ns", func(*rand.Rand) (time.Duration, int, error) {
			return callProbe(cm, iters(30_000), func(*fabric.Network) error { return nil })
		}},
		{"fabric.call_contention_ns", func(*rand.Rand) (time.Duration, int, error) {
			return callProbe(cm, iters(30_000), func(n *fabric.Network) error { n.EnableContention(); return nil })
		}},
		{"fabric.call_faults_ns", func(rng *rand.Rand) (time.Duration, int, error) {
			plan := fabric.FaultPlan{Seed: rng.Uint64(), Drop: 1e-2}
			return callProbe(cm, iters(20_000), func(n *fabric.Network) error { return n.EnableFaults(plan) })
		}},

		// --- mem ---------------------------------------------------------
		{"mem.image_copy_ns_per_mb", func(rng *rand.Rand) (time.Duration, int, error) {
			mib, rounds := 4, iters(40)
			src, dst := mem.NewImage(mib<<20), mem.NewImage(mib<<20)
			rng.Read(src.Bytes())
			d := timed(func() {
				for i := 0; i < rounds; i++ {
					dst.CopyFrom(src)
				}
			})
			var err error
			if !mem.EqualRange(src, dst, mem.Range{Base: 0, Len: mib << 20}) {
				err = fmt.Errorf("copied image differs from its source")
			}
			return d, mib * rounds, err
		}},
		{"mem.recycle_image_ns", func(*rand.Rand) (time.Duration, int, error) {
			n, size := iters(100_000), 1<<20
			im := mem.RecycledImage(size)
			d := timed(func() {
				for i := 0; i < n; i++ {
					mem.RecycleImage(im)
					im = mem.RecycledImage(size)
				}
			})
			var err error
			if im.Size() != size {
				err = fmt.Errorf("recycled image is %d bytes, want %d", im.Size(), size)
			}
			return d, n, err
		}},

		// --- vm ----------------------------------------------------------
		{"vm.check_ns", func(*rand.Rand) (time.Duration, int, error) {
			n, pages := iters(2_000_000), 64
			m := vm.New(pages)
			d := timed(func() {
				for i := 0; i < n; i++ {
					a := mem.Addr((i & (pages*mem.PageWords - 1)) * mem.WordSize)
					m.CheckRead(a)
					m.CheckWrite(a)
				}
			})
			var err error
			if m.Faults() != 0 {
				err = fmt.Errorf("%d faults on accessible pages", m.Faults())
			}
			return d, 2 * n, err
		}},
		{"vm.fault_ns", func(*rand.Rand) (time.Duration, int, error) {
			n, pages := iters(300_000), 64
			m := vm.New(pages)
			m.SetHandler(func(a mem.Addr, write bool) { m.SetProt(mem.PageOf(a), vm.ReadWrite) })
			d := timed(func() {
				for i := 0; i < n; i++ {
					pg := i & (pages - 1)
					m.SetProt(pg, vm.ReadOnly)
					m.CheckWrite(mem.PageBase(pg))
				}
			})
			var err error
			if m.Faults() != int64(n) {
				err = fmt.Errorf("%d faults, want %d", m.Faults(), n)
			}
			return d, n, err
		}},

		// --- wtrap -------------------------------------------------------
		{"wtrap.twin_make_ns", func(rng *rand.Rand) (time.Duration, int, error) {
			n, pages := iters(100_000), 16
			im := mem.NewImage(pages * mem.PageSize)
			rng.Read(im.Bytes())
			pt := wtrap.NewPageTwins(im)
			d := timed(func() {
				for i := 0; i < n; i++ {
					pt.Make(i & (pages - 1))
					pt.Drop(i & (pages - 1))
				}
			})
			var err error
			if pt.Made() != int64(n) {
				err = fmt.Errorf("%d twins made, want %d", pt.Made(), n)
			}
			return d, n, err
		}},
		{"wtrap.compare_clean_ns", func(rng *rand.Rand) (time.Duration, int, error) {
			return compareProbe(rng, iters(100_000), 0, func(*mem.Image, *rand.Rand) {})
		}},
		{"wtrap.compare_sparse_ns", func(rng *rand.Rand) (time.Duration, int, error) {
			return compareProbe(rng, iters(50_000), 2, func(im *mem.Image, _ *rand.Rand) {
				im.WriteU32(128, ^im.ReadU32(128))
				im.WriteU32(132, ^im.ReadU32(132))
				im.WriteU32(3000, ^im.ReadU32(3000))
			})
		}},
		{"wtrap.compare_dense_ns", func(rng *rand.Rand) (time.Duration, int, error) {
			// Every other word modified: the worst case for run coalescing.
			return compareProbe(rng, iters(10_000), mem.PageWords/2, func(im *mem.Image, _ *rand.Rand) {
				for w := 0; w < mem.PageWords; w += 2 {
					a := mem.Addr(w * mem.WordSize)
					im.WriteU32(a, ^im.ReadU32(a))
				}
			})
		}},
		{"wtrap.dirty_note_ns", func(*rand.Rand) (time.Duration, int, error) {
			n := iters(2_000_000)
			al := mem.NewAllocator()
			base := al.Alloc("r", probeScanPages*mem.PageSize, 4)
			db := wtrap.NewDirtyBits(al, true)
			d := timed(func() {
				for i := 0; i < n; i++ {
					db.NoteWrite(base+mem.Addr((i&(probeScanPages*mem.PageWords-1))*mem.WordSize), 4)
				}
			})
			var err error
			if db.Stores() != int64(n) {
				err = fmt.Errorf("%d stores noted, want %d", db.Stores(), n)
			}
			return d, n, err
		}},
		{"wtrap.dirty_collect_ns", func(*rand.Rand) (time.Duration, int, error) {
			// Per 4 KB page of a region with scattered dirty blocks.
			n := iters(5_000)
			al := mem.NewAllocator()
			base := al.Alloc("r", probeScanPages*mem.PageSize, 4)
			db := wtrap.NewDirtyBits(al, false)
			for off := 0; off < probeScanPages*mem.PageSize; off += 256 {
				db.NoteWrite(base+mem.Addr(off), 4)
			}
			ranges := []mem.Range{{Base: base, Len: probeScanPages * mem.PageSize}}
			var err error
			d := timed(func() {
				for i := 0; i < n; i++ {
					runs, scanned := db.Collect(ranges)
					if len(runs) != probeScanPages*mem.PageSize/256 || scanned != probeScanPages*mem.PageWords {
						err = fmt.Errorf("collect: %d runs, %d blocks scanned", len(runs), scanned)
					}
				}
			})
			return d, n * probeScanPages, err
		}},

		// --- wcollect ----------------------------------------------------
		{"wcollect.stamps_set_ns", func(*rand.Rand) (time.Duration, int, error) {
			n := iters(300_000)
			al := mem.NewAllocator()
			base := al.Alloc("r", probeScanPages*mem.PageSize, 4)
			st := wcollect.NewStamps(al)
			changed := []mem.Range{{Base: base + 64, Len: 128}, {Base: base + 9000, Len: 64}}
			d := timed(func() {
				for i := 0; i < n; i++ {
					st.Set(changed, wcollect.Stamp(i+1))
				}
			})
			var err error
			if last := wcollect.Stamp(n); st.Get(base+64) != last || st.Get(base+9000) != last || st.Get(base) != 0 {
				err = fmt.Errorf("stamps not set as written")
			}
			return d, n, err
		}},
		{"wcollect.stamps_select_ns", func(*rand.Rand) (time.Duration, int, error) {
			// Per 4 KB page of a binding with a few stamped runs.
			n := iters(5_000)
			al := mem.NewAllocator()
			base := al.Alloc("r", probeScanPages*mem.PageSize, 4)
			st := wcollect.NewStamps(al)
			st.Set([]mem.Range{{Base: base + 64, Len: 128}, {Base: base + 9000, Len: 64}}, 5)
			ranges := []mem.Range{{Base: base, Len: probeScanPages * mem.PageSize}}
			newer := func(s wcollect.Stamp) bool { return s > 3 }
			var err error
			d := timed(func() {
				for i := 0; i < n; i++ {
					runs, scanned := st.Select(ranges, newer)
					if len(runs) != 2 || scanned != probeScanPages*mem.PageWords {
						err = fmt.Errorf("select: %d runs, %d blocks scanned", len(runs), scanned)
					}
				}
			})
			return d, n * probeScanPages, err
		}},
		{"wcollect.diff_build_ns", func(rng *rand.Rand) (time.Duration, int, error) {
			n := iters(100_000)
			im, changed := diffFixture(rng)
			words := 0
			d := timed(func() {
				for i := 0; i < n; i++ {
					words += wcollect.BuildDiff(im, changed).Words()
				}
			})
			var err error
			if words != n*probeDiffWords {
				err = fmt.Errorf("diffs carry %d words, want %d", words, n*probeDiffWords)
			}
			return d, n, err
		}},
		{"wcollect.diff_apply_ns", func(rng *rand.Rand) (time.Duration, int, error) {
			n := iters(300_000)
			im, changed := diffFixture(rng)
			diff := wcollect.BuildDiff(im, changed)
			dst := mem.NewImage(im.Size())
			words := 0
			d := timed(func() {
				for i := 0; i < n; i++ {
					words += diff.Apply(dst)
				}
			})
			var err error
			if words != n*probeDiffWords || !mem.EqualRange(im, dst, changed[0]) {
				err = fmt.Errorf("applied %d words, want %d", words, n*probeDiffWords)
			}
			return d, n, err
		}},

		// --- nodebase (through the concrete frontends) and run.Local -----
		{"nodebase.access_ec_ns", func(*rand.Rand) (time.Duration, int, error) {
			return accessProbe(mustImpls("EC-time")[0], false, iters(accessIters))
		}},
		{"nodebase.access_lrc_ns", func(*rand.Rand) (time.Duration, int, error) {
			return accessProbe(mustImpls("LRC-diff")[0], false, iters(accessIters))
		}},
		{"nodebase.access_iface_ns", func(*rand.Rand) (time.Duration, int, error) {
			return accessProbe(mustImpls("LRC-diff")[0], true, iters(accessIters))
		}},
		{"run.local_access_ns", func(*rand.Rand) (time.Duration, int, error) {
			l, n := run.NewLocal(mem.NewImage(mem.PageSize)), iters(accessIters)
			var sum int64
			d := timed(func() { sum = accessLoop(l, 0, n) })
			return d, 4 * n, checkAccessSum(sum, n)
		}},

		// --- syncmgr -----------------------------------------------------
		{"syncmgr.lock_local_ns", func(*rand.Rand) (time.Duration, int, error) {
			n := iters(500_000)
			var cnt syncmgr.Counters
			s := sim.New()
			net := fabric.New(s, cm, 1)
			var lm *syncmgr.LockMgr
			p := s.Spawn("p", func(*sim.Proc) {
				for i := 0; i < n; i++ {
					lm.Acquire(0, syncmgr.Exclusive)
					lm.Release(0)
				}
			})
			lm = syncmgr.NewLockMgr(p, net, 1, nopHooks{}, &cnt)
			net.Attach(p, func(hc *fabric.HandlerCtx, m fabric.Msg) { lm.Handle(hc, m) })
			d, err := simRun(s)
			if err == nil && (cnt.LockAcquires != int64(n) || cnt.RemoteAcquires != 0) {
				err = fmt.Errorf("%d acquires (%d remote), want %d local", cnt.LockAcquires, cnt.RemoteAcquires, n)
			}
			return d, n, err
		}},
		{"syncmgr.lock_remote_ns", func(*rand.Rand) (time.Duration, int, error) {
			// Two nodes ping-pong one lock: each holds it long enough for the
			// other's request to queue, so every acquire but the first moves
			// ownership across the fabric.
			n := iters(4_000)
			cnt := make([]syncmgr.Counters, 2)
			s := sim.New()
			net := fabric.New(s, cm, 2)
			lms := make([]*syncmgr.LockMgr, 2)
			for i := range lms {
				i := i
				p := s.Spawn("p", func(p *sim.Proc) {
					for k := 0; k < n; k++ {
						lms[i].Acquire(0, syncmgr.Exclusive)
						p.Sleep(sim.Millisecond)
						lms[i].Release(0)
						p.Sleep(sim.Microsecond)
					}
				})
				lms[i] = syncmgr.NewLockMgr(p, net, 2, nopHooks{}, &cnt[i])
				net.Attach(p, func(hc *fabric.HandlerCtx, m fabric.Msg) { lms[i].Handle(hc, m) })
			}
			d, err := simRun(s)
			remote := cnt[0].RemoteAcquires + cnt[1].RemoteAcquires
			if err == nil && remote < int64(2*n-2) {
				err = fmt.Errorf("%d of %d acquires were remote", remote, 2*n)
			}
			return d, 2 * n, err
		}},
		{"syncmgr.barrier_p8_ns", func(*rand.Rand) (time.Duration, int, error) {
			return barrierProbe(cm, 8, 0, iters(1_500))
		}},
		{"syncmgr.barrier_p64_fanin16_ns", func(*rand.Rand) (time.Duration, int, error) {
			return barrierProbe(cm, 64, 16, iters(150))
		}},

		// --- ec / lrc ----------------------------------------------------
		{"ec.acquire_update_ns", func(*rand.Rand) (time.Duration, int, error) {
			// A remote acquire that ships one modified bound page.
			n := iters(2_000)
			s := sim.New()
			net := fabric.New(s, cm, 2)
			al := mem.NewAllocator()
			base := al.Alloc("obj", mem.PageSize, 4)
			nodes := make([]*ec.Node, 2)
			for i := range nodes {
				i := i
				p := s.Spawn("p", func(*sim.Proc) {
					nd := nodes[i]
					nd.Bind(1, mem.Range{Base: base, Len: mem.PageSize})
					nd.Barrier(0)
					for k := 0; k < n; k++ {
						nd.Acquire(1)
						a := base + mem.Addr((k&(mem.PageWords-1))*mem.WordSize)
						nd.WriteI32(a, nd.ReadI32(a)+1)
						nd.Compute(sim.Millisecond)
						nd.Release(1)
						nd.Compute(sim.Microsecond)
					}
					nd.Barrier(0)
				})
				nodes[i] = ec.New(p, net, al, 2, mustImpls("EC-time")[0])
			}
			d, err := simRun(s)
			if err == nil {
				err = checkPingPongSum(nodes[0], nodes[1], base, 2*n)
			}
			return d, 2 * n, err
		}},
		{"lrc.fault_fetch_ns", func(*rand.Rand) (time.Duration, int, error) {
			return missProbe(cm, 1, iters(1_500))
		}},
		{"lrc.miss_16_writers_ns", func(*rand.Rand) (time.Duration, int, error) {
			return missProbe(cm, 16, iters(60))
		}},

		// --- harness / sweep ---------------------------------------------
		{"harness.foreach_ns", func(*rand.Rand) (time.Duration, int, error) {
			n := iters(100_000)
			hits := make([]uint8, n)
			var err error
			d := timed(func() { err = harness.ForEach(2, n, func(i int) { hits[i]++ }) })
			for _, h := range hits {
				if h != 1 && err == nil {
					err = fmt.Errorf("ForEach ran an index %d times", h)
				}
			}
			return d, n, err
		}},
		{"sweep.cell_overhead_us", func(*rand.Rand) (time.Duration, int, error) {
			// sweep.Run over the smallest real cells: wall per cell is mostly
			// per-cell set-up, not simulation.
			rounds := iters(4)
			g := sweep.Grid{Scale: apps.Test, Apps: []string{"IS"}, NProcs: []int{4}, Parallel: 1}
			cells := 0
			var err error
			d := timed(func() {
				for r := 0; r < rounds && err == nil; r++ {
					var recs []sweep.Record
					recs, err = sweep.Run(g)
					cells += len(recs)
				}
			})
			if err == nil && cells != rounds*len(core.Implementations()) {
				err = fmt.Errorf("sweep produced %d records", cells)
			}
			return d, cells, err
		}},

		// --- trace / perf / platform -------------------------------------
		{"trace.append_ns", func(*rand.Rand) (time.Duration, int, error) {
			n := iters(2_000_000)
			tr := trace.New(4)
			tr.Reserve(n/4 + 16)
			d := timed(func() {
				for i := 0; i < n; i++ {
					tr.Send(1, i&3, (i+1)&3, 1, 64)
				}
			})
			var err error
			if tr.Len() != n {
				err = fmt.Errorf("tracer holds %d records, want %d", tr.Len(), n)
			}
			return d, n, err
		}},
		{"trace.analyze_ns_per_krec", func(*rand.Rand) (time.Duration, int, error) {
			tr, meta, err := tracedFixture()
			if err != nil {
				return 0, 1, err
			}
			var an *trace.Analysis
			d := timed(func() { an = trace.Analyze(tr, meta) })
			if an.TotalMsgs == 0 {
				err = fmt.Errorf("analysis saw no messages")
			}
			return d, krecs(tr), err
		}},
		{"trace.profile_ns_per_krec", func(*rand.Rand) (time.Duration, int, error) {
			tr, meta, err := tracedFixture()
			if err != nil {
				return 0, 1, err
			}
			var prof *trace.Profile
			d := timed(func() { prof = trace.BuildProfile(tr, meta) })
			return d, krecs(tr), prof.CheckConservation()
		}},
		{"trace.critpath_ns_per_krec", func(*rand.Rand) (time.Duration, int, error) {
			tr, meta, err := tracedFixture()
			if err != nil {
				return 0, 1, err
			}
			prof := trace.BuildProfile(tr, meta)
			var cp *trace.CritPath
			d := timed(func() { cp = trace.ExtractCriticalPath(tr, prof) })
			if cp.Total != prof.Span || cp.Truncated {
				err = fmt.Errorf("critical path covers %v of %v", cp.Total, prof.Span)
			}
			return d, krecs(tr), err
		}},
		{"perf.cellspan_us", func(*rand.Rand) (time.Duration, int, error) {
			// An enabled StartCell/End pair: two runtime.ReadMemStats.
			n := iters(2_000)
			reg := perf.New()
			d := timed(func() {
				for i := 0; i < n; i++ {
					reg.StartCell("paper", "IS", "LRC-diff", 8).End(perf.OutcomeOK)
				}
			})
			var err error
			if got := reg.Histogram("cell_wall_ns", perf.WallBuckets).Count(); got != int64(n) {
				err = fmt.Errorf("registry recorded %d cells, want %d", got, n)
			}
			return d, n, err
		}},
		{"platform.resolve_us", func(*rand.Rand) (time.Duration, int, error) {
			n := iters(20_000)
			var err error
			d := timed(func() {
				for i := 0; i < n && err == nil; i++ {
					_, err = platform.Resolve("rdma_100g+net=x2+detect=hw")
				}
			})
			return d, n, err
		}},
	}
}

// handoffProbe has nprocs processes sleep in lock-step with staggered phases,
// so consecutive wake-ups always target a different process: every wake is a
// baton handoff between goroutines.
func handoffProbe(nprocs, rounds int) (time.Duration, int, error) {
	s := sim.New()
	wakes := 0
	for i := 0; i < nprocs; i++ {
		i := i
		s.Spawn("p", func(p *sim.Proc) {
			p.Sleep(sim.Time(i + 1))
			for k := 0; k < rounds; k++ {
				p.Sleep(sim.Time(nprocs))
				wakes++
			}
		})
	}
	d, err := simRun(s)
	if err == nil && wakes != nprocs*rounds {
		err = fmt.Errorf("%d wakes, want %d", wakes, nprocs*rounds)
	}
	return d, nprocs * rounds, err
}

// callProbe times synchronous request/reply round trips between two
// processors (the BenchmarkFabricDeliver path) under the given fabric mode.
func callProbe(cm fabric.CostModel, n int, mode func(*fabric.Network) error) (time.Duration, int, error) {
	s := sim.New()
	net := fabric.New(s, cm, 2)
	if err := mode(net); err != nil {
		return 0, 1, err
	}
	bad := 0
	client := s.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			reply := net.Call(p, 1, 1, 8, fabric.Payload{Kind: fabric.PayloadPageReq, A: int32(i)})
			if reply.Payload.C != int32(i) {
				bad++
			}
		}
	})
	server := s.Spawn("server", func(*sim.Proc) {})
	net.Attach(client, func(*fabric.HandlerCtx, fabric.Msg) {})
	net.Attach(server, func(hc *fabric.HandlerCtx, m fabric.Msg) {
		hc.Reply(m, 2, 8, fabric.Payload{Kind: fabric.PayloadPageReply, C: m.Payload.A})
	})
	d, err := simRun(s)
	if err == nil && bad != 0 {
		err = fmt.Errorf("%d of %d replies carried the wrong value", bad, n)
	}
	return d, n, err
}

// compareProbe times PageTwins.Compare of one 4 KB page after dirty modified
// it; wantRuns is the number of coalesced runs the comparison must find.
func compareProbe(rng *rand.Rand, n, wantRuns int, dirty func(*mem.Image, *rand.Rand)) (time.Duration, int, error) {
	im := mem.NewImage(mem.PageSize)
	rng.Read(im.Bytes())
	pt := wtrap.NewPageTwins(im)
	pt.Make(0)
	dirty(im, rng)
	var err error
	d := timed(func() {
		for i := 0; i < n; i++ {
			runs, compared := pt.Compare(0)
			if len(runs) != wantRuns || compared != mem.PageWords {
				err = fmt.Errorf("compare: %d runs over %d words, want %d runs", len(runs), compared, wantRuns)
			}
		}
	})
	return d, n, err
}

// diffFixture is a page-sized image and probeDiffRuns scattered 16-word
// changed ranges in it, placed by the seed.
func diffFixture(rng *rand.Rand) (*mem.Image, []mem.Range) {
	im := mem.NewImage(mem.PageSize)
	rng.Read(im.Bytes())
	slot := mem.PageSize / probeDiffRuns
	changed := make([]mem.Range, probeDiffRuns)
	for i := range changed {
		off := i*slot + rng.Intn(slot/mem.WordSize-16)*mem.WordSize
		changed[i] = mem.Range{Base: mem.Addr(off), Len: 16 * mem.WordSize}
	}
	return im, changed
}

const accessIters = 500_000

// accessLoop is the BenchmarkDSMAccess kernel: integer and float traffic over
// one page, generic like the application kernels so the static variants
// measure exactly the devirtualized path. It returns a checksum of the loads.
func accessLoop[D core.Accessor](d D, base mem.Addr, n int) int64 {
	var sum int64
	for i := 0; i < n; i++ {
		a := base + mem.Addr((i&511)*4)
		d.WriteI32(a, int32(i))
		sum += int64(d.ReadI32(a))
		f := base + mem.Addr(2048+(i&255)*8)
		d.WriteF64(f, float64(i))
		sum += int64(d.ReadF64(f))
	}
	return sum
}

func checkAccessSum(sum int64, n int) error {
	if want := int64(n) * int64(n-1); sum != want {
		return fmt.Errorf("access loop read back %d, want %d", sum, want)
	}
	return nil
}

// accessProbe runs accessLoop on a one-processor node of impl, through the
// concrete frontend or (iface) the core.DSM adapter.
func accessProbe(impl core.Impl, iface bool, iters int) (time.Duration, int, error) {
	s := sim.New()
	net := fabric.New(s, fabric.DefaultCostModel(), 1)
	al := mem.NewAllocator()
	base := al.Alloc("probe", mem.PageSize, 4)
	var start func() int64
	var sum int64
	p := s.Spawn("probe", func(*sim.Proc) { sum = start() })
	switch impl.Model {
	case core.EC:
		n := ec.New(p, net, al, 1, impl)
		start = func() int64 { return accessLoop(n, base, iters) }
	case core.LRC:
		n := lrc.New(p, net, al, 1, impl)
		if iface {
			var d core.DSM = n
			start = func() int64 { return accessLoop(d, base, iters) }
		} else {
			start = func() int64 { return accessLoop(n, base, iters) }
		}
	}
	d, err := simRun(s)
	if err == nil {
		err = checkAccessSum(sum, iters)
	}
	return d, 4 * iters, err
}

// nopHooks is the empty consistency payload: the syncmgr probes measure the
// lock and barrier protocols themselves, not what ec or lrc attach to them.
type nopHooks struct{}

func (nopHooks) MakeLockRequest(core.LockID, syncmgr.Mode) (fabric.Payload, int) {
	return fabric.Payload{}, 8
}
func (nopHooks) MakeLockGrant(core.LockID, syncmgr.Mode, fabric.Payload, int) (fabric.Payload, int, sim.Time) {
	return fabric.Payload{}, 8, 0
}
func (nopHooks) ApplyLockGrant(core.LockID, syncmgr.Mode, fabric.Payload) sim.Time { return 0 }
func (nopHooks) LocalReacquire(core.LockID, syncmgr.Mode)                          {}
func (nopHooks) OnRelease(core.LockID) sim.Time                                    { return 0 }
func (nopHooks) MakeArrival(core.BarrierID) (fabric.Payload, int, sim.Time) {
	return fabric.Payload{}, 8, 0
}
func (nopHooks) AbsorbArrival(core.BarrierID, int, fabric.Payload) sim.Time { return 0 }
func (nopHooks) PrepareDepartures(core.BarrierID) sim.Time                  { return 0 }
func (nopHooks) MakeDeparture(core.BarrierID, int) (fabric.Payload, int, sim.Time) {
	return fabric.Payload{}, 8, 0
}
func (nopHooks) ApplyDeparture(core.BarrierID, fabric.Payload) sim.Time { return 0 }

// barrierProbe times whole barrier episodes of nprocs processors (fanin >= 2
// arranges them as a tree) and reports host time per episode.
func barrierProbe(cm fabric.CostModel, nprocs, fanin, episodes int) (time.Duration, int, error) {
	s := sim.New()
	net := fabric.New(s, cm, nprocs)
	cnt := make([]syncmgr.Counters, nprocs)
	bms := make([]*syncmgr.BarrierMgr, nprocs)
	for i := range bms {
		i := i
		p := s.Spawn("p", func(p *sim.Proc) {
			for k := 0; k < episodes; k++ {
				p.Sleep(sim.Time(i+1) * sim.Microsecond)
				bms[i].Wait(0)
			}
		})
		bms[i] = syncmgr.NewBarrierMgr(p, net, nprocs, nopHooks{}, &cnt[i])
		bms[i].SetFanIn(fanin)
		net.Attach(p, func(hc *fabric.HandlerCtx, m fabric.Msg) { bms[i].Handle(hc, m) })
	}
	d, err := simRun(s)
	if err == nil && cnt[nprocs-1].Barriers != int64(episodes) {
		err = fmt.Errorf("%d barrier episodes, want %d", cnt[nprocs-1].Barriers, episodes)
	}
	return d, episodes, err
}

// checkPingPongSum verifies the EC probe: the page's words were incremented
// once per acquire, and the last holder's image carries all of them.
func checkPingPongSum(a, b *ec.Node, base mem.Addr, want int) error {
	sum := func(n *ec.Node) int {
		total := 0
		for w := 0; w < mem.PageWords; w++ {
			total += int(n.Im.ReadI32(base + mem.Addr(w*mem.WordSize)))
		}
		return total
	}
	if sa, sb := sum(a), sum(b); sa != want && sb != want {
		return fmt.Errorf("bound page sums to %d / %d on the two nodes, want %d", sa, sb, want)
	}
	return nil
}

// missProbe times LRC access misses. Per round, `writers` processors each
// modify their own word of one shared page and everyone meets at two
// barriers; between them the reader's loads miss and fetch one diff from
// every writer — so with 16 writers the miss orders 16 concurrent intervals.
// The same rounds run once without the loads, and the difference is what the
// miss itself costs: host time per round, net of the barriers and the writers'
// faults, twins and interval bookkeeping.
func missProbe(cm fabric.CostModel, writers, rounds int) (time.Duration, int, error) {
	with, err := missRounds(cm, writers, rounds, true)
	if err != nil {
		return 0, rounds, err
	}
	without, err := missRounds(cm, writers, rounds, false)
	if d := with - without; d > 0 {
		return d, rounds, err
	}
	return 1, rounds, err
}

func missRounds(cm fabric.CostModel, writers, rounds int, read bool) (time.Duration, error) {
	nprocs := writers + 1
	s := sim.New()
	net := fabric.New(s, cm, nprocs)
	al := mem.NewAllocator()
	base := al.Alloc("page", mem.PageSize, 4)
	nodes := make([]*lrc.Node, nprocs)
	var seen int64
	for i := range nodes {
		i := i
		p := s.Spawn("p", func(*sim.Proc) {
			nd := nodes[i]
			for k := 0; k < rounds; k++ {
				if i > 0 {
					nd.WriteI32(base+mem.Addr(i*mem.WordSize), int32(k+1))
				}
				nd.Barrier(0)
				if i == 0 && read {
					for w := 1; w <= writers; w++ {
						seen += int64(nd.ReadI32(base + mem.Addr(w*mem.WordSize)))
					}
				}
				nd.Barrier(1)
			}
		})
		nodes[i] = lrc.New(p, net, al, nprocs, mustImpls("LRC-diff")[0])
	}
	d, err := simRun(s)
	if want := int64(writers) * int64(rounds) * int64(rounds+1) / 2; err == nil && read && seen != want {
		err = fmt.Errorf("reader saw %d, want %d", seen, want)
	}
	return d, err
}

// tracedCell is the trace the trace-analysis probes run over.
type tracedCell struct {
	tr   *trace.Tracer
	meta trace.Meta
	err  error
}

// fixture traces one bench-scale Water/LRC-diff cell with the scheduler
// channel on, once: locks, barriers, misses and diffs all appear in it.
var fixture = sync.OnceValue(func() tracedCell {
	impl := mustImpls("LRC-diff")[0]
	a, err := apps.New("Water", apps.Bench)
	if err != nil {
		return tracedCell{err: err}
	}
	tr := trace.New(8)
	tr.EnableSched()
	if _, err := run.RunWith(a, impl, 8, fabric.DefaultCostModel(), run.Options{Trace: tr}); err != nil {
		return tracedCell{err: err}
	}
	// TraceMeta lays the application out again, which needs a fresh instance.
	fresh, err := apps.New("Water", apps.Bench)
	if err != nil {
		return tracedCell{err: err}
	}
	return tracedCell{tr: tr, meta: run.TraceMeta(fresh, impl, 8, apps.Bench.String())}
})

func tracedFixture() (*trace.Tracer, trace.Meta, error) {
	f := fixture()
	return f.tr, f.meta, f.err
}

func krecs(tr *trace.Tracer) int {
	if n := tr.Len() / 1000; n > 0 {
		return n
	}
	return 1
}

// nsPer converts the nanoseconds a probe is timed in to its metric's unit.
var nsPer = map[string]float64{"ns": 1, "us": 1e3}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("benchmark: probe " + name + " has no declared metric")
}

// runProbes measures every probe probeReps times and returns the medians,
// keyed by metric name. Probes run on one P: they measure unit costs, not
// scheduling.
func runProbes(seed uint64, div int) (map[string]float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	out := map[string]float64{}
	for _, pr := range probes(div) {
		vals := make([]float64, probeReps)
		for r := range vals {
			runtime.GC()
			d, ops, err := pr.Run(rand.New(rand.NewSource(int64(seed)*1000 + int64(r))))
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", pr.Name, err)
			}
			vals[r] = float64(d.Nanoseconds()) / float64(ops)
		}
		out[pr.Name] = steady(vals) / nsPer[unitOf(probeMetrics, pr.Name)]
	}
	return out, nil
}

// runProbesOnly is `-workload probes`: the unit costs alone.
func runProbesOnly(opt options, stdout io.Writer) int {
	vals, err := runProbes(opt.Seed, 1)
	if err != nil {
		fmt.Fprintf(stdout, "FAIL %v\n", err)
		printResult(stdout, result{Attempted: len(probeMetrics), Failed: 1, Metrics: map[string]value{}})
		return 1
	}
	rep := newReport(probeMetrics)
	for name, v := range vals {
		rep.set(name, v, fmt.Sprintf("first quartile of %d reps", probeReps))
	}
	rep.print(stdout, "per-layer metrics, source 1: probes (host time per operation)")
	if miss := rep.missing(); len(miss) > 0 {
		fmt.Fprintf(stdout, "FAIL probes not reported: %v\n", miss)
		return 1
	}
	printResult(stdout, result{Correct: true, Attempted: len(probeMetrics), Metrics: rep.values})
	return 0
}
