package sweep

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/harness"
	"ecvslrc/internal/run"
	"ecvslrc/internal/sim"
	"ecvslrc/internal/trace"
)

func breakdownGrid(parallel int) Grid {
	return Grid{
		Scale:     apps.Test,
		Apps:      []string{"SOR", "IS"},
		NProcs:    []int{4},
		Parallel:  parallel,
		Breakdown: true,
	}
}

// TestBreakdownObservationOnly pins the -breakdown contract: every other
// record field is identical with the stall breakdown on or off, every
// breakdown record carries one, and its classes sum to the cells' total
// processor time (the profiler's conservation invariant, per cell).
func TestBreakdownObservationOnly(t *testing.T) {
	with, err := Run(breakdownGrid(1))
	if err != nil {
		t.Fatal(err)
	}
	g := breakdownGrid(1)
	g.Breakdown = false
	without, err := Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(with) != len(without) {
		t.Fatalf("%d records with breakdown, %d without", len(with), len(without))
	}
	for i := range with {
		r := with[i]
		if r.Stall == nil {
			t.Fatalf("record %d (%s/%s) has no stall breakdown", i, r.App, r.Impl)
		}
		sum := r.Stall.Compute + r.Stall.TrapDiff + r.Stall.PageFetch +
			r.Stall.LockWait + r.Stall.BarrierWait + r.Stall.LinkWait + r.Stall.Recovery
		if sum <= 0 {
			t.Errorf("record %d (%s/%s): stall classes sum to %v", i, r.App, r.Impl, sum)
		}
		r.Stall = nil
		if !reflect.DeepEqual(r, without[i]) {
			t.Errorf("record %d differs beyond the breakdown:\nwith:    %+v\nwithout: %+v", i, r, without[i])
		}
	}
}

// TestBreakdownDeterministicUnderParallel requires bit-identical breakdowns
// (and CSV bytes) for any worker count — profiling rides on the same
// determinism contract as the records themselves.
func TestBreakdownDeterministicUnderParallel(t *testing.T) {
	serial, err := Run(breakdownGrid(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(breakdownGrid(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("breakdown records differ between -parallel 1 and 4")
	}
	var a, b bytes.Buffer
	if err := WriteCSV(&a, serial); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&b, parallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("breakdown CSV differs between -parallel 1 and 4")
	}
	if !strings.Contains(strings.SplitN(a.String(), "\n", 2)[0], "stall_compute_sec") {
		t.Errorf("breakdown CSV header lacks stall columns: %s", strings.SplitN(a.String(), "\n", 2)[0])
	}
}

// TestBreakdownBeyondBufferedTracerProcs: the breakdown is built online by a
// profiling tracer, which stores no one-byte processor id, so a grid past
// trace.MaxProcs is accepted and runs, and every cell's classes sum to the
// total processor time — checked against an independent profile of the same
// cell, whose per-processor conservation holds to the nanosecond.
func TestBreakdownBeyondBufferedTracerProcs(t *testing.T) {
	const np = trace.MaxProcs + 1
	impl, err := core.ParseImpl("LRC-diff")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := Run(Grid{
		Scale:     apps.Test,
		Apps:      []string{"SOR"},
		Impls:     []core.Impl{impl},
		NProcs:    []int{np},
		Breakdown: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Stall == nil {
		t.Fatalf("records = %+v, want one with a stall breakdown", recs)
	}
	row := harness.RunCell(harness.Config{Scale: apps.Test, NProcs: np, Cost: Baseline().Cost, Trace: true}, "SOR", impl)
	if row.Err != nil {
		t.Fatal(row.Err)
	}
	prof := trace.BuildProfile(row.Trace, trace.Meta{NProcs: np})
	if err := prof.CheckConservation(); err != nil {
		t.Error(err)
	}
	var ends sim.Time
	for _, pp := range prof.Procs {
		ends += pp.End
	}
	if len(prof.Procs) != np || ends <= 0 {
		t.Fatalf("%d processors ending at a total of %v, want %d with time on them", len(prof.Procs), ends, np)
	}
	st := recs[0].Stall
	if sum := st.Compute + st.TrapDiff + st.PageFetch + st.LockWait + st.BarrierWait + st.LinkWait + st.Recovery; sum != ends {
		t.Errorf("stall classes sum to %v, the %d processors' end times to %v", sum, np, ends)
	}
}

// TestStreamingProfileMatchesBuffered is the equivalence fence of the online
// profile build: for every application and implementation at bench scale,
// under the calibrated model, a contended RDMA fabric and the same fabric
// dropping frames, the profile a profiling tracer folds while the cell runs
// equals the one BuildProfile computes from a buffered trace of that cell —
// totals, span, every processor's classes and end — conservation holds in
// both, and neither tracer moves a simulated statistic.
func TestStreamingProfileMatchesBuffered(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale grid, twice")
	}
	const np = 8
	variants, err := ParseVariantSpec("platform=rdma_100g contention=on fault=off,drop1e-2")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range append([]Variant{Baseline()}, variants...) {
		for _, app := range apps.Names() {
			for _, impl := range core.Implementations() {
				v, app, impl := v, app, impl
				t.Run(v.Name+"/"+app+"/"+impl.String(), func(t *testing.T) {
					t.Parallel()
					row := harness.RunCell(harness.Config{
						Scale: apps.Bench, NProcs: np, Cost: v.Cost, Machine: v.Machine, Trace: true, Timeout: apps.BenchHorizon,
					}, app, impl)
					if row.Err != nil {
						t.Fatal(row.Err)
					}
					a, err := apps.New(app, apps.Bench)
					if err != nil {
						t.Fatal(err)
					}
					tr := trace.New(np)
					res, err := run.RunWith(a, impl, np, v.Cost, run.Options{Machine: v.Machine, Trace: tr, Timeout: apps.BenchHorizon})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res, row.Result) {
						t.Errorf("results differ between tracer kinds:\nprofiling: %+v\nbuffered:  %+v", row.Result, res)
					}
					meta := trace.Meta{App: app, Impl: impl.String(), Scale: apps.Bench.String(), NProcs: np}
					live, full := trace.BuildProfile(row.Trace, meta), trace.BuildProfile(tr, meta)
					for _, p := range []*trace.Profile{live, full} {
						if err := p.CheckConservation(); err != nil {
							t.Error(err)
						}
					}
					if live.Total != full.Total || live.Span != full.Span || live.Span <= 0 {
						t.Errorf("profiling total %v span %v, buffered total %v span %v", live.Total, live.Span, full.Total, full.Span)
					}
					for i := range full.Procs {
						l, f := live.Procs[i], full.Procs[i]
						if l.Proc != f.Proc || l.End != f.End || l.Class != f.Class {
							t.Errorf("proc %d: profiling end %v classes %v, buffered end %v classes %v", i, l.End, l.Class, f.End, f.Class)
						}
						if l.Segments != nil || len(f.Segments) == 0 {
							t.Errorf("proc %d: %d segments from the profiling tracer, %d from the buffered one", i, len(l.Segments), len(f.Segments))
						}
					}
				})
			}
		}
	}
}

// TestStallCSVColumns pins the column layout: no stall columns without a
// breakdown (the golden sample.csv covers the exact bytes), seven appended
// zero-filled columns for records missing one in a mixed set.
func TestStallCSVColumns(t *testing.T) {
	recs := sampleRecords()
	recs[0].Stall = &StallBreakdown{Compute: sim.Second, BarrierWait: sim.Second / 2}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	wantCols := len(csvHeader) + len(stallHeader)
	for i, line := range lines {
		if got := len(strings.Split(line, ",")); got != wantCols {
			t.Errorf("line %d has %d columns, want %d", i, got, wantCols)
		}
	}
	if !strings.HasSuffix(lines[1], "1.000000,0.000000,0.000000,0.000000,0.500000,0.000000,0.000000") {
		t.Errorf("breakdown row = %s", lines[1])
	}
	if !strings.HasSuffix(lines[2], "0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000") {
		t.Errorf("zero-filled row = %s", lines[2])
	}
}
