package harness

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/run"
	"ecvslrc/internal/sim"
	"ecvslrc/internal/trace"
)

// runBuffered runs one cell the way RunCell does, but with a buffered
// trace.New tracer attached: Config.Trace means the profiling tracer, and the
// segments, critical path and reports these tests check need the history.
func runBuffered(t *testing.T, cfg Config, app string, impl core.Impl) (run.Result, *trace.Tracer) {
	t.Helper()
	a, err := apps.New(app, cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := Options(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	opts.Trace = trace.New(cfg.NProcs)
	res, err := run.RunWith(a, impl, cfg.NProcs, cfg.Cost, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, opts.Trace
}

// TestProfileConservationGrid runs every (application x implementation) cell
// at bench scale with tracing on and checks the virtual-time profiler's
// foundation on each: every simulated nanosecond of every processor is
// classified into exactly one stall class (the class totals sum to each
// processor's end time), and the critical path tiles [0, end) with the same
// exactness.
func TestProfileConservationGrid(t *testing.T) {
	cfg := Config{Scale: apps.Bench, NProcs: 8, Cost: fabric.DefaultCostModel(), Timeout: apps.BenchHorizon}
	for _, app := range apps.Names() {
		for _, impl := range core.Implementations() {
			app, impl := app, impl
			t.Run(fmt.Sprintf("%s/%v", app, impl), func(t *testing.T) {
				t.Parallel()
				res, tr := runBuffered(t, cfg, app, impl)
				meta := trace.Meta{App: app, Impl: impl.String(), Scale: cfg.Scale.String(), NProcs: cfg.NProcs}
				prof := trace.BuildProfile(tr, meta)
				if err := prof.CheckConservation(); err != nil {
					t.Error(err)
				}
				// The trace covers the whole simulated run, including the
				// gathering after StatsEnd, outside the window [0, StatsEnd], so
				// the profiled span can only exceed the reported run time.
				if prof.Span <= 0 || prof.Span < res.Stats.Time {
					t.Errorf("span = %v, want >= the run time %v", prof.Span, res.Stats.Time)
				}
				cp := trace.ExtractCriticalPath(tr, prof)
				if cp.Truncated {
					t.Error("critical path truncated")
				}
				if cp.Total != prof.Procs[cp.EndProc].End {
					t.Errorf("path total %v != anchor end %v", cp.Total, prof.Procs[cp.EndProc].End)
				}
				// The spans must tile [0, Total) without gap or overlap, and the
				// class decomposition must sum to the total.
				var at sim.Time
				for i, s := range cp.Spans {
					if s.T0 != at || s.T1 <= s.T0 {
						t.Fatalf("span %d = [%v, %v), want to start at %v", i, s.T0, s.T1, at)
					}
					at = s.T1
				}
				if at != cp.Total {
					t.Errorf("spans tile [0, %v), want [0, %v)", at, cp.Total)
				}
				var sum sim.Time
				for _, c := range trace.StallClasses() {
					sum += cp.Class[c]
				}
				if sum != cp.Total {
					t.Errorf("path classes sum to %v, want %v", sum, cp.Total)
				}
			})
		}
	}
}

// TestProfileRealRunDeterminism renders the full profiler report set from two
// independent traced runs of the same cell: the bytes must match exactly.
func TestProfileRealRunDeterminism(t *testing.T) {
	cfg := Config{Scale: apps.Bench, NProcs: 8, Cost: fabric.DefaultCostModel()}
	impl := core.Impl{Model: core.LRC, Trap: core.Twinning, Collect: core.Diffs}
	render := func() []byte {
		_, tr := runBuffered(t, cfg, "SOR", impl)
		a, err := apps.New("SOR", cfg.Scale)
		if err != nil {
			t.Fatal(err)
		}
		meta := run.TraceMeta(a, impl, cfg.NProcs, cfg.Scale.String())
		written, err := trace.EmitReports(t.TempDir(),
			[]trace.Report{trace.ReportProfile, trace.ReportCritPath, trace.ReportWhatIf}, tr, meta)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, path := range written {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(b)
		}
		return buf.Bytes()
	}
	if a, b := render(), render(); !bytes.Equal(a, b) {
		t.Error("profiler reports differ across identical traced runs")
	}
}

// TestBlockLabelsMatchContext pins what DESIGN.md "Time accounting" rests
// on: the wait a block is labelled with where it blocks agrees with the
// protocol records around it. A lock wait lies inside the processor's open
// request of that lock, a barrier wait inside its episode of that barrier,
// and a page wait follows its latest miss, on that page; no real run parks
// unlabelled. Every suite and micro application under every implementation,
// with flat barriers and a fan-in-2 tree.
func TestBlockLabelsMatchContext(t *testing.T) {
	for _, fanIn := range []int{0, 2} {
		for _, app := range append(apps.Names(), apps.MicroNames()...) {
			for _, impl := range core.Implementations() {
				app, impl, fanIn := app, impl, fanIn
				t.Run(fmt.Sprintf("%s/%v/fanin=%d", app, impl, fanIn), func(t *testing.T) {
					t.Parallel()
					cfg := Config{Scale: apps.Test, NProcs: 8, Cost: fabric.DefaultCostModel(),
						Machine: run.Machine{BarrierFanIn: fanIn}}
					row, _ := RunTraced(cfg, app, impl, false)
					if row.Err != nil {
						t.Fatal(row.Err)
					}
					// Per processor: the lock requested and the barrier entered
					// (-1 when none is open), and the page last missed on.
					lock, barrier, missed := make([]int32, cfg.NProcs), make([]int32, cfg.NProcs), make([]int32, cfg.NProcs)
					for p := range lock {
						lock[p], barrier[p], missed[p] = -1, -1, -1
					}
					var labelled [sim.WaitLock + 1]int
					for _, r := range row.Trace.Merged() {
						switch r.Kind {
						case trace.EvLockReq:
							lock[r.Proc] = r.A
						case trace.EvLockAcq:
							lock[r.Proc] = -1
						case trace.EvBarArrive:
							barrier[r.Proc] = r.A
						case trace.EvBarDepart:
							barrier[r.Proc] = -1
						case trace.EvMiss:
							missed[r.Proc] = r.A
						case trace.EvBlock:
							w := sim.Wait{Kind: sim.WaitKind(r.Aux), Obj: r.A}
							var open int32
							switch w.Kind {
							case sim.WaitSleep:
								continue
							case sim.WaitLock:
								open = lock[r.Proc]
							case sim.WaitBarrier:
								open = barrier[r.Proc]
							case sim.WaitPage:
								open = missed[r.Proc]
							default:
								t.Fatalf("p%d parks at %v waiting for %v", r.Proc, r.At, w)
							}
							if open != w.Obj {
								t.Fatalf("p%d waits for %v at %v, but its open object of that kind is %d", r.Proc, w, r.At, open)
							}
							labelled[w.Kind]++
						}
					}
					for _, c := range []struct {
						kind sim.WaitKind
						ops  int64
					}{{sim.WaitLock, row.Stats.RemoteAcquires}, {sim.WaitBarrier, row.Stats.Barriers}, {sim.WaitPage, row.Stats.AccessMisses}} {
						if c.ops > 0 && labelled[c.kind] == 0 {
							t.Errorf("no %v blocks in a cell with %d such operations", sim.Wait{Kind: c.kind}, c.ops)
						}
					}
				})
			}
		}
	}
}
