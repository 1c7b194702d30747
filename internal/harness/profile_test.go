package harness

import (
	"bytes"
	"fmt"
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
	cfg := Config{Scale: apps.Bench, NProcs: 8, Cost: fabric.DefaultCostModel()}
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
				// initialization outside the StatsBegin..StatsEnd window, so the
				// profiled span can only exceed the reported run time.
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
		art := trace.Analyzed(tr, meta)
		var buf bytes.Buffer
		for _, w := range []func() error{
			func() error { return trace.WriteProfileMarkdown(&buf, art.Profile, art.CritPath) },
			func() error { return trace.WriteFoldedStacks(&buf, art.Profile) },
			func() error { return trace.WriteCritPathCSV(&buf, art.CritPath) },
			func() error { return trace.WriteWhatIfMarkdown(&buf, art.CritPath) },
		} {
			if err := w(); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	if a, b := render(), render(); !bytes.Equal(a, b) {
		t.Error("profiler reports differ across identical traced runs")
	}
}
