package ecvslrc

import (
	"testing"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/harness"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/run"
	"ecvslrc/internal/sim"
	"ecvslrc/internal/sweep"
	"ecvslrc/internal/wcollect"
	"ecvslrc/internal/wtrap"
)

// Benchmarks regenerate the paper's tables at Bench scale (Go benchmarks at
// full paper scale take minutes per cell; use cmd/dsmbench -scale paper for
// the real numbers). Each reported iteration simulates a complete parallel
// run including result verification. The custom metrics report simulated
// seconds, messages and bytes — the paper's quantities.

func benchCell(b *testing.B, app string, impl core.Impl, nprocs int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		a, err := apps.New(app, apps.Bench)
		if err != nil {
			b.Fatal(err)
		}
		res, err := run.Run(a, impl, nprocs, fabric.DefaultCostModel())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.Stats.Time.Seconds(), "sim-sec")
			b.ReportMetric(float64(res.Stats.Msgs), "sim-msgs")
			b.ReportMetric(float64(res.Stats.Bytes), "sim-bytes")
		}
	}
}

// BenchmarkTable3 regenerates Table 3's comparison cells: the best EC and
// best LRC implementation per application (per the paper's Table 3 "Imp."
// columns), at 8 processors.
func BenchmarkTable3(b *testing.B) {
	best := map[string][2]core.Impl{
		"SOR":        {{Model: core.EC, Trap: core.Twinning, Collect: core.Timestamps}, {Model: core.LRC, Trap: core.Twinning, Collect: core.Diffs}},
		"SOR+":       {{Model: core.EC, Trap: core.Twinning, Collect: core.Timestamps}, {Model: core.LRC, Trap: core.Twinning, Collect: core.Timestamps}},
		"QS":         {{Model: core.EC, Trap: core.Twinning, Collect: core.Diffs}, {Model: core.LRC, Trap: core.Twinning, Collect: core.Diffs}},
		"Water":      {{Model: core.EC, Trap: core.CompilerInstr, Collect: core.Timestamps}, {Model: core.LRC, Trap: core.Twinning, Collect: core.Diffs}},
		"Barnes-Hut": {{Model: core.EC, Trap: core.Twinning, Collect: core.Timestamps}, {Model: core.LRC, Trap: core.Twinning, Collect: core.Diffs}},
		"IS":         {{Model: core.EC, Trap: core.Twinning, Collect: core.Timestamps}, {Model: core.LRC, Trap: core.Twinning, Collect: core.Timestamps}},
		"3D-FFT":     {{Model: core.EC, Trap: core.CompilerInstr, Collect: core.Timestamps}, {Model: core.LRC, Trap: core.Twinning, Collect: core.Diffs}},
	}
	for _, app := range apps.Names() {
		pair := best[app]
		b.Run(app+"/seq", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, err := apps.New(app, apps.Bench)
				if err != nil {
					b.Fatal(err)
				}
				t, err := run.RunSeq(a)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(t.Seconds(), "sim-sec")
				}
			}
		})
		b.Run(app+"/"+pair[0].String(), func(b *testing.B) { benchCell(b, app, pair[0], 8) })
		b.Run(app+"/"+pair[1].String(), func(b *testing.B) { benchCell(b, app, pair[1], 8) })
	}
}

// BenchmarkTable4 regenerates Table 4: every EC implementation on every
// application.
func BenchmarkTable4(b *testing.B) {
	for _, app := range apps.Names() {
		for _, impl := range core.ModelImpls(core.EC) {
			b.Run(app+"/"+impl.String(), func(b *testing.B) { benchCell(b, app, impl, 8) })
		}
	}
}

// BenchmarkTable5 regenerates Table 5: every LRC implementation on every
// application.
func BenchmarkTable5(b *testing.B) {
	for _, app := range apps.Names() {
		for _, impl := range core.ModelImpls(core.LRC) {
			b.Run(app+"/"+impl.String(), func(b *testing.B) { benchCell(b, app, impl, 8) })
		}
	}
}

// BenchmarkMicroFactors regenerates the Section 7.1 factor kernels across
// the full implementation matrix.
func BenchmarkMicroFactors(b *testing.B) {
	for _, name := range apps.MicroNames() {
		for _, impl := range core.Implementations() {
			b.Run(name+"/"+impl.String(), func(b *testing.B) { benchCell(b, name, impl, 8) })
		}
	}
}

// BenchmarkInstrumentationOptimization is the Section 8.1 ablation: SOR with
// naive vs loop-split compiler instrumentation (the paper measured a 16%
// improvement for SOR).
func BenchmarkInstrumentationOptimization(b *testing.B) {
	for _, opt := range []struct {
		name  string
		naive bool
	}{{"optimized", false}, {"naive", true}} {
		b.Run(opt.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, err := apps.New("SOR", apps.Bench)
				if err != nil {
					b.Fatal(err)
				}
				cm := fabric.DefaultCostModel()
				if opt.naive {
					cm.InstrStoreOpt = cm.InstrStore
				}
				res, err := run.Run(a, core.Impl{Model: core.EC, Trap: core.CompilerInstr, Collect: core.Timestamps}, 8, cm)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(res.Stats.Time.Seconds(), "sim-sec")
				}
			}
		})
	}
}

// BenchmarkHarnessTable3 exercises the full Table 3 path end to end: one
// sweep of the cells through the harness, then the renderer.
func BenchmarkHarnessTable3(b *testing.B) {
	cfg := harness.Config{Scale: apps.Test, NProcs: 4, Cost: fabric.DefaultCostModel(), Timeout: cellTimeout}
	for i := 0; i < b.N; i++ {
		if _, err := sweep.Report(cfg, []string{"IS"}, sweep.Table3); err != nil {
			b.Fatal(err)
		}
	}
}

// --- allocation-counting kernels -------------------------------------------
//
// The benchmarks below isolate the simulator's real-time hot paths: event
// scheduling/dispatch, twin diffing, dirty-bit collection and timestamp
// selection. They report allocs/op so regressions in the allocation-free
// design are caught by inspection of the benchmark output.

// BenchmarkSimSchedule measures a schedule/dispatch cycle through the event
// heap, one event at the current instant and three later. Steady state is
// zero allocs.
func BenchmarkSimSchedule(b *testing.B) {
	s := sim.New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(s.Now(), fn)
		s.Schedule(s.Now()+sim.Microsecond, fn)
		s.Schedule(s.Now()+2*sim.Microsecond, fn)
		s.Schedule(s.Now()+sim.Microsecond, fn)
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageCompare measures the word-wide twin diff of one 4 KB page
// with a sparse change pattern (the common protocol case).
func BenchmarkPageCompare(b *testing.B) {
	im := mem.NewImage(mem.PageSize)
	pt := wtrap.NewPageTwins(im)
	pt.Make(0)
	im.WriteU32(128, 7)
	im.WriteU32(132, 8)
	im.WriteU32(3000, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, _ := pt.Compare(0)
		if len(runs) != 2 {
			b.Fatalf("runs = %v", runs)
		}
	}
}

// BenchmarkPageCompareClean measures the fast-skip over an unmodified page
// (twinned pages that a lock's epoch never wrote are compared in full).
func BenchmarkPageCompareClean(b *testing.B) {
	im := mem.NewImage(mem.PageSize)
	pt := wtrap.NewPageTwins(im)
	pt.Make(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if runs, _ := pt.Compare(0); len(runs) != 0 {
			b.Fatalf("runs = %v", runs)
		}
	}
}

// BenchmarkDirtyCollect measures the compiler-instrumentation scan of a
// 4-page region with scattered dirty blocks.
func BenchmarkDirtyCollect(b *testing.B) {
	al := mem.NewAllocator()
	base := al.Alloc("r", 4*mem.PageSize, 4)
	db := wtrap.NewDirtyBits(al, false)
	for off := 0; off < 4*mem.PageSize; off += 256 {
		db.NoteWrite(base+mem.Addr(off), 4)
	}
	ranges := []mem.Range{{Base: base, Len: 4 * mem.PageSize}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, scanned := db.Collect(ranges)
		if len(runs) == 0 || scanned != 4*mem.PageWords {
			b.Fatalf("runs=%d scanned=%d", len(runs), scanned)
		}
	}
}

// BenchmarkStampsSelect measures the responder-side timestamp scan charged
// on every timestamp-collection request (Section 5.3's computation
// overhead), over a 4-page binding with a few stamped runs.
func BenchmarkStampsSelect(b *testing.B) {
	al := mem.NewAllocator()
	base := al.Alloc("r", 4*mem.PageSize, 4)
	st := wcollect.NewStamps(al)
	st.Set([]mem.Range{{Base: base + 64, Len: 128}, {Base: base + 9000, Len: 64}}, 5)
	ranges := []mem.Range{{Base: base, Len: 4 * mem.PageSize}}
	newer := func(s wcollect.Stamp) bool { return s > 3 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, scanned := st.Select(ranges, newer)
		if len(runs) != 2 || scanned != 4*mem.PageWords {
			b.Fatalf("runs=%d scanned=%d", len(runs), scanned)
		}
	}
}
