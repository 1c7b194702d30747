package run_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
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
// simulator's run-ahead. A tracer that records the dispatch stream
// (EnableSched) turns run-ahead off, so its run takes every block and resume
// as it happens, and is the reference. On cells where run-ahead is active —
// contention, a Clos fabric, a large machine with notice GC and a barrier
// tree, a fault plan, a watchdog firing mid-compute — the untraced result,
// per-processor windows and final image included, must equal the reference
// one, a stall must read the same, and a buffered trace taken with run-ahead
// on must hold the reference trace's records, dispatches aside, in the same
// emission order in every processor's buffer, and so in the same merged
// order too.
func TestRunAheadMatchesTracedRun(t *testing.T) {
	chaos, err := fabric.FaultPreset("chaos")
	if err != nil {
		t.Fatal(err)
	}
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
		{"QS", "LRC-diff", 8, apps.Test, run.Options{Machine: run.Machine{Faults: chaos}}},
		{"Water", "EC-time", 8, apps.Test, run.Options{Machine: run.Machine{Faults: chaos, Contention: true}}},
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
		ordered := trace.New(c.nprocs)
		ordered.EnableSched()
		want, wantErr := once(ordered)
		plain, plainErr := once(nil)
		if plainErr != wantErr {
			t.Errorf("%s on %s, %d procs: untraced error %q, ordered trace %q", c.app, c.impl, c.nprocs, plainErr, wantErr)
		}
		if c.opts.Timeout > 0 && !strings.Contains(plainErr, "watchdog") {
			t.Errorf("%s on %s: the watchdog did not fire mid-run: %q", c.app, c.impl, plainErr)
		}
		if !reflect.DeepEqual(plain, want) {
			t.Errorf("%s on %s, %d procs: untraced run diverged from the ordered trace's:\n  untraced: %+v\n  ordered:  %+v",
				c.app, c.impl, c.nprocs, plain.Stats, want.Stats)
		}
		buffered := trace.New(c.nprocs)
		once(buffered)
		for p := range c.nprocs {
			got := buffered.Records(p)
			ref := slices.DeleteFunc(slices.Clone(ordered.Records(p)), func(r trace.Rec) bool { return r.Kind == trace.EvDispatch })
			if i := firstDiff(got, ref); i >= 0 {
				t.Errorf("%s on %s, %d procs: processor %d's run-ahead records diverge at record %d of %d (ordered %d): %s",
					c.app, c.impl, c.nprocs, p, i, len(got), len(ref), recAt(got, i)+" vs "+recAt(ref, i))
			}
		}
		// The reference's dispatch records, which sit in processor 0's
		// buffer, must not move its profile.
		if !reflect.DeepEqual(trace.BuildProfile(buffered, trace.Meta{}), trace.BuildProfile(ordered, trace.Meta{})) {
			t.Errorf("%s on %s, %d procs: the run-ahead trace's profile differs from the ordered one's", c.app, c.impl, c.nprocs)
		}
	}
}

// firstDiff returns the first index where a and b differ, -1 if they are
// equal.
func firstDiff(a, b []trace.Rec) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// recAt prints record i of recs, or "none" past the end.
func recAt(recs []trace.Rec, i int) string {
	if i >= len(recs) {
		return "none"
	}
	return fmt.Sprintf("%+v", recs[i])
}

// TestRunAheadHandoffCensus pins what run-ahead buys where it matters most,
// and that a profiling tracer does not turn it off: traced, Water/LRC-diff
// at 32 processors and large scale (the slowest cell of the benchmark's
// scale_large) passes the baton as often as untraced, and at most 65 % as
// often as under a tracer that records the dispatch stream, where every
// flush sleep is a block. All three counts come from the cell's
// "sim_handoffs" registry counter.
func TestRunAheadHandoffCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("three 32-proc large-scale Water runs")
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
	ordered := trace.New(32)
	ordered.EnableSched()
	untraced, traced, sched := handoffs(nil), handoffs(trace.NewProfiling(32)), handoffs(ordered)
	t.Logf("handoffs: %d untraced, %d profiled, %d with the dispatch stream", untraced, traced, sched)
	if traced != untraced {
		t.Errorf("profiled run made %d handoffs, untraced %d: the profiling tracer changed the schedule", traced, untraced)
	}
	if untraced <= 0 || untraced*100 > sched*65 {
		t.Errorf("untraced run made %d handoffs, the dispatch-stream run %d: want at most 65 %%", untraced, sched)
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
