package run_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/harness"
	"ecvslrc/internal/perf"
	"ecvslrc/internal/run"
	"ecvslrc/internal/sim"
	"ecvslrc/internal/trace"
)

// TestTracingObservationOnly pins the trace subsystem's core contract: a
// traced run's statistics — aggregate and per-processor — are bit-identical
// to an untraced run of the same cell, for every implementation of both
// models and both tracer kinds. Tracing observes; it must never perturb the
// simulation.
func TestTracingObservationOnly(t *testing.T) {
	const nprocs = 4
	for _, impl := range core.Implementations() {
		for _, appName := range []string{"SOR", "Water", "IS"} {
			plain := mustRun(t, appName, impl, nprocs, nil)
			for _, tr := range []*trace.Tracer{trace.New(nprocs), trace.NewProfiling(nprocs)} {
				traced := mustRun(t, appName, impl, nprocs, tr)
				if !reflect.DeepEqual(plain, traced) {
					t.Errorf("%s on %v: traced run diverged:\n  plain:  %+v\n  traced: %+v",
						appName, impl, plain, traced)
				}
				if trace.BuildProfile(tr, trace.Meta{}).Span <= 0 {
					t.Errorf("%s on %v: traced run observed no events", appName, impl)
				}
			}
		}
	}
}

// TestRunAheadMatchesTracedRun is the cross-layer differential for the
// simulator's run-ahead: a tracer turns run-ahead off, so a traced run takes
// every block and resume the old way. On cells where run-ahead is active —
// contention, a Clos fabric, a large machine with notice GC and a barrier
// tree, a watchdog firing mid-compute — the untraced result, per-processor
// windows and final image included, must equal the traced one, and a stall
// must read the same.
func TestRunAheadMatchesTracedRun(t *testing.T) {
	cells := []struct {
		app, impl string
		nprocs    int
		scale     apps.Scale
		opts      run.Options
	}{
		{"Water", "LRC-diff", 8, apps.Test, run.Options{Machine: run.Machine{Contention: true}}},
		{"3D-FFT", "EC-time", 8, apps.Test, run.Options{Machine: run.Machine{Contention: true}}},
		{"SOR+", "LRC-diff", 8, apps.Test, run.Options{Machine: run.Machine{Topology: &fabric.Topology{Radix: 4, Taper: 1}}}},
		{"QS", "EC-diff", 8, apps.Test, run.Options{Machine: run.Machine{Topology: &fabric.Topology{Radix: 4, Taper: 1}, Contention: true}}},
		{"3D-FFT", "EC-time", 32, apps.Large, run.Options{Machine: run.Machine{NoticeGC: true, BarrierFanIn: 16}}},
		{"SOR", "LRC-diff", 64, apps.Large, run.Options{Machine: run.Machine{NoticeGC: true, BarrierFanIn: 16}}},
		{"Water", "LRC-diff", 4, apps.Test, run.Options{Timeout: 20 * sim.Millisecond}},
	}
	for _, c := range cells {
		impl, err := core.ParseImpl(c.impl)
		if err != nil {
			t.Fatal(err)
		}
		once := func(tr *trace.Tracer) (run.Result, string) {
			a, err := apps.New(c.app, c.scale)
			if err != nil {
				t.Fatal(err)
			}
			opts := c.opts
			opts.Trace, opts.KeepImage = tr, true
			res, err := run.RunWith(a, impl, c.nprocs, fabric.DefaultCostModel(), opts)
			if err != nil {
				return res, err.Error()
			}
			return res, ""
		}
		plain, plainErr := once(nil)
		traced, tracedErr := once(trace.NewProfiling(c.nprocs))
		if plainErr != tracedErr {
			t.Errorf("%s on %s, %d procs: untraced error %q, traced %q", c.app, c.impl, c.nprocs, plainErr, tracedErr)
		}
		if c.opts.Timeout > 0 && !strings.Contains(plainErr, "watchdog") {
			t.Errorf("%s on %s: the watchdog did not fire mid-run: %q", c.app, c.impl, plainErr)
		}
		if !reflect.DeepEqual(plain, traced) {
			t.Errorf("%s on %s, %d procs: untraced run diverged from the traced one:\n  untraced: %+v\n  traced:   %+v",
				c.app, c.impl, c.nprocs, plain.Stats, traced.Stats)
		}
	}
}

// TestRunAheadHandoffCensus pins what run-ahead buys where it matters most:
// untraced, Water/LRC-diff at 32 processors and large scale (the slowest
// cell of the benchmark's scale_large) passes the baton at most 65 % as
// often as traced, where every flush sleep is a block. Both counts come
// from the cell's "sim_handoffs" registry counter.
func TestRunAheadHandoffCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("two 32-proc large-scale Water runs")
	}
	impl := core.Impl{Model: core.LRC, Trap: core.Twinning, Collect: core.Diffs}
	handoffs := func(tr *trace.Tracer) int64 {
		a, err := apps.New("Water", apps.Large)
		if err != nil {
			t.Fatal(err)
		}
		reg := perf.New()
		opts := run.Options{Machine: run.Machine{NoticeGC: true, BarrierFanIn: 16}, Trace: tr, Perf: reg}
		if _, err := run.RunWith(a, impl, 32, fabric.DefaultCostModel(), opts); err != nil {
			t.Fatal(err)
		}
		return reg.Counters()["sim_handoffs"]
	}
	untraced, traced := handoffs(nil), handoffs(trace.NewProfiling(32))
	t.Logf("handoffs: %d untraced, %d traced", untraced, traced)
	if untraced <= 0 || untraced*100 > traced*65 {
		t.Errorf("untraced run made %d handoffs, traced %d: want at most 65 %%", untraced, traced)
	}
}

func mustRun(t *testing.T, appName string, impl core.Impl, nprocs int, tr *trace.Tracer) run.Result {
	t.Helper()
	a, err := apps.New(appName, apps.Test)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.RunWith(a, impl, nprocs, fabric.DefaultCostModel(), run.Options{Trace: tr})
	if err != nil {
		t.Fatalf("%s on %v: %v", appName, impl, err)
	}
	return res
}

// traceBytes runs one traced cell and returns its binary trace.
func traceBytes(t *testing.T, appName string, impl core.Impl, nprocs int) []byte {
	t.Helper()
	tr := trace.New(nprocs)
	mustRun(t, appName, impl, nprocs, tr)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceDeterministic requires the binary trace of a cell to be
// byte-identical across repeated runs, and across runs interleaved on the
// harness worker pool at any parallelism — the per-cell tracer plus the
// canonical merged order make the trace a pure function of the cell.
func TestTraceDeterministic(t *testing.T) {
	const nprocs = 4
	cells := []struct {
		app  string
		impl core.Impl
	}{
		{"SOR", core.Impl{Model: core.LRC, Trap: core.Twinning, Collect: core.Diffs}},
		{"Water", core.Impl{Model: core.EC, Trap: core.Twinning, Collect: core.Diffs}},
		{"IS", core.Impl{Model: core.LRC, Trap: core.CompilerInstr, Collect: core.Timestamps}},
		{"QS", core.Impl{Model: core.EC, Trap: core.Twinning, Collect: core.Timestamps}},
	}
	solo := make([][]byte, len(cells))
	for i, c := range cells {
		solo[i] = traceBytes(t, c.app, c.impl, nprocs)
	}
	// Re-run every cell concurrently on the worker pool: host-level
	// interleaving must not move a byte of any trace.
	concurrent := make([][]byte, len(cells))
	harness.ForEach(len(cells), len(cells), func(i int) {
		c := cells[i]
		tr := trace.New(nprocs)
		a, err := apps.New(c.app, apps.Test)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := run.RunWith(a, c.impl, nprocs, fabric.DefaultCostModel(), run.Options{Trace: tr}); err != nil {
			t.Error(err)
			return
		}
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			t.Error(err)
			return
		}
		concurrent[i] = buf.Bytes()
	})
	for i, c := range cells {
		if len(solo[i]) == 0 {
			t.Errorf("%s on %v: empty trace", c.app, c.impl)
			continue
		}
		if !bytes.Equal(solo[i], concurrent[i]) {
			t.Errorf("%s on %v: trace differs between solo and concurrent runs (%d vs %d bytes)",
				c.app, c.impl, len(solo[i]), len(concurrent[i]))
		}
	}
}

// TestTraceAnalysisCoversPaperApps runs three paper applications traced and
// checks the acceptance contract: per-page, per-lock (where the model uses
// remote locks) and timeline artifacts are derivable, and the classifier
// assigns a sharing pattern to every shared page.
func TestTraceAnalysisCoversPaperApps(t *testing.T) {
	const nprocs = 4
	cases := []struct {
		app  string
		impl core.Impl
	}{
		{"Water", core.Impl{Model: core.LRC, Trap: core.Twinning, Collect: core.Diffs}},
		{"IS", core.Impl{Model: core.EC, Trap: core.Twinning, Collect: core.Diffs}},
		{"3D-FFT", core.Impl{Model: core.LRC, Trap: core.Twinning, Collect: core.Timestamps}},
	}
	for _, c := range cases {
		tr := trace.New(nprocs)
		mustRun(t, c.app, c.impl, nprocs, tr)
		a2, err := apps.New(c.app, apps.Test)
		if err != nil {
			t.Fatal(err)
		}
		meta := run.TraceMeta(a2, c.impl, nprocs, "test")
		an := trace.Analyze(tr, meta)
		if len(an.Pages) != meta.Pages {
			t.Errorf("%s on %v: %d page reports for %d pages", c.app, c.impl, len(an.Pages), meta.Pages)
		}
		shared := 0
		for _, p := range an.Pages {
			if p.Pattern != trace.PatternPrivate {
				shared++
			}
		}
		if shared == 0 {
			t.Errorf("%s on %v: classifier found no shared pages at all", c.app, c.impl)
		}
		if an.TotalMsgs == 0 || len(an.Intervals) == 0 {
			t.Errorf("%s on %v: empty timeline (msgs %d, intervals %d)",
				c.app, c.impl, an.TotalMsgs, len(an.Intervals))
		}
		if c.impl.Model == core.EC && len(an.Locks) == 0 {
			t.Errorf("%s on %v: EC run produced no lock reports", c.app, c.impl)
		}
		var md bytes.Buffer
		if err := trace.WriteMarkdown(&md, an); err != nil {
			t.Errorf("%s: summary: %v", c.app, err)
		}
		var tl bytes.Buffer
		if err := trace.WriteChromeTrace(&tl, tr, an.Meta); err != nil {
			t.Errorf("%s: timeline: %v", c.app, err)
		}
		if md.Len() == 0 || tl.Len() == 0 {
			t.Errorf("%s: empty report artifacts", c.app)
		}
	}
}
