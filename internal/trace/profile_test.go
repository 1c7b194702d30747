package trace

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ecvslrc/internal/mem"
	"ecvslrc/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the profiler golden files")

// profileMeta is the synthetic three-processor run the profiler tests use:
// 6 pages in one region.
func profileMeta() Meta {
	return Meta{
		App: "synthetic", Impl: "LRC-diff", Scale: "test", NProcs: 3,
		Regions: []mem.Region{{Name: "data", Base: 0, Size: 6 * mem.PageSize, Block: 4}},
		Pages:   6,
	}
}

// profileHistory hand-emits a three-processor history that exercises every
// stall class and every dependency-edge kind, under the scheduler's handoff
// discipline (virtual time only advances inside block..wake pairs):
//
//	p0: computes to 25, flushes 30ns of diff work on page 1 inside a long
//	    sleep, grants lock 5 to p1 at 30, arrives at barrier 0 at 140.
//	p1: waits on lock 5 until the grant wakes it at 40, sleeps with 15ns of
//	    fault recovery charged inside, serves p2's fetch of page 3 at 150,
//	    arrives at barrier 0 at 160.
//	p2: computes to 100, read-misses page 3 (the claim queued 20ns behind
//	    the shared link, served by p1), computes to 280, straggles into
//	    barrier 0 last, releasing everyone at 300.
//
// Every processor ends at exactly 300ns, so the critical path is anchored at
// p0 (lowest id on ties) and chains through all three edge kinds:
// barrier 0 -> straggler p2, page 3 fetch -> server p1, lock 5 -> granter p0.
func profileHistory() *Tracer {
	tr := New(3)
	sleep := sim.Wait{Kind: sim.WaitSleep}

	// p0
	tr.Block(0, 0, sleep)
	tr.Wake(25, 0)
	tr.Work(25, 0, WorkTrapDiff, ObjPage, 1, 30)
	tr.Block(25, 0, sleep)
	tr.LockGrant(30, 0, 5, 1, false, 64) // handler: grants lock 5 to p1
	tr.Wake(140, 0)
	tr.BarArrive(140, 0, 0)
	tr.Block(140, 0, sim.ForBarrier(0))
	tr.Wake(300, 0)
	tr.BarDepart(300, 0, 0)

	// p1
	tr.LockReq(0, 1, 5, false)
	tr.Block(0, 1, sim.ForLock(5))
	tr.Wake(40, 1)
	tr.LockAcq(40, 1, 5, false, false)
	tr.Block(40, 1, sleep)
	tr.Recovery(50, 1, 15)
	tr.FetchServe(150, 1, 3, 2, 4096) // handler: serves page 3 to p2
	tr.Wake(160, 1)
	tr.BarArrive(160, 1, 0)
	tr.Block(160, 1, sim.ForBarrier(0))
	tr.Wake(300, 1)
	tr.BarDepart(300, 1, 0)

	// p2
	tr.Block(0, 2, sleep)
	tr.Wake(100, 2)
	tr.Miss(100, 2, 3, 1, false)
	tr.Block(100, 2, sim.ForPage(3))
	tr.LinkWait(110, 2, 20)
	tr.Wake(200, 2)
	tr.Block(200, 2, sleep)
	tr.Wake(280, 2)
	tr.BarArrive(280, 2, 0)
	tr.Block(280, 2, sim.ForBarrier(0))
	tr.Wake(300, 2)
	tr.BarDepart(300, 2, 0)

	return tr
}

// TestProfileSynthetic pins the exact class decomposition of the synthetic
// history, nanosecond for nanosecond, and the conservation invariant.
func TestProfileSynthetic(t *testing.T) {
	prof := BuildProfile(profileHistory(), profileMeta())
	if err := prof.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	want := [3][NumStallClasses]sim.Time{
		{ClassCompute: 110, ClassTrapDiff: 30, ClassBarrierWait: 160},
		{ClassCompute: 105, ClassLockWait: 40, ClassBarrierWait: 140, ClassRecovery: 15},
		{ClassCompute: 180, ClassPageFetch: 80, ClassBarrierWait: 20, ClassLinkWait: 20},
	}
	if len(prof.Procs) != 3 {
		t.Fatalf("%d proc profiles, want 3", len(prof.Procs))
	}
	for i, pp := range prof.Procs {
		if pp.End != 300 {
			t.Errorf("p%d end = %v, want 300", i, pp.End)
		}
		if pp.Class != want[i] {
			t.Errorf("p%d classes = %v, want %v", i, pp.Class, want[i])
		}
	}
	if prof.Span != 300 {
		t.Errorf("span = %v, want 300", prof.Span)
	}
	wantTotal := [NumStallClasses]sim.Time{
		ClassCompute: 395, ClassTrapDiff: 30, ClassPageFetch: 80, ClassLockWait: 40,
		ClassBarrierWait: 320, ClassLinkWait: 20, ClassRecovery: 15,
	}
	if prof.Total != wantTotal {
		t.Errorf("totals = %v, want %v", prof.Total, wantTotal)
	}
}

// TestCritPathSynthetic pins the exact span sequence of the synthetic
// history's critical path: it must chain through the barrier straggler, the
// fetch server and the lock granter, and tile [0, 300) exactly.
func TestCritPathSynthetic(t *testing.T) {
	tr := profileHistory()
	prof := BuildProfile(tr, profileMeta())
	cp := ExtractCriticalPath(tr, prof)
	if cp.EndProc != 0 || cp.Total != 300 {
		t.Fatalf("anchor p%d total %v, want p0 total 300", cp.EndProc, cp.Total)
	}
	if cp.Truncated {
		t.Fatal("path truncated")
	}
	want := []PathSpan{
		{Proc: 0, T0: 0, T1: 25, Class: ClassCompute, ObjKind: ObjNone, ObjID: -1},
		{Proc: 0, T0: 25, T1: 30, Class: ClassTrapDiff, ObjKind: ObjPage, ObjID: 1},
		{Proc: 1, T0: 30, T1: 40, Class: ClassLockWait, ObjKind: ObjLock, ObjID: 5},
		{Proc: 1, T0: 40, T1: 55, Class: ClassRecovery, ObjKind: ObjNone, ObjID: -1},
		{Proc: 1, T0: 55, T1: 150, Class: ClassCompute, ObjKind: ObjNone, ObjID: -1},
		{Proc: 2, T0: 150, T1: 200, Class: ClassPageFetch, ObjKind: ObjPage, ObjID: 3},
		{Proc: 2, T0: 200, T1: 280, Class: ClassCompute, ObjKind: ObjNone, ObjID: -1},
		{Proc: 0, T0: 280, T1: 300, Class: ClassBarrierWait, ObjKind: ObjBarrier, ObjID: 0},
	}
	if len(cp.Spans) != len(want) {
		t.Fatalf("%d spans, want %d: %+v", len(cp.Spans), len(want), cp.Spans)
	}
	for i := range want {
		if cp.Spans[i] != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, cp.Spans[i], want[i])
		}
	}
	// The spans tile [0, Total) and the class decomposition sums to it.
	var sum sim.Time
	for _, c := range StallClasses() {
		sum += cp.Class[c]
	}
	if sum != cp.Total {
		t.Errorf("path classes sum to %v, want %v", sum, cp.Total)
	}
	if got := cp.WhatIf(ClassBarrierWait); got != 280 {
		t.Errorf("what-if barrier-wait = %v, want 280", got)
	}
	if got := cp.WhatIf(ClassPageFetch); got != 250 {
		t.Errorf("what-if page-fetch = %v, want 250", got)
	}
}

// checkGolden compares got against testdata/name, rewriting under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with `go test ./internal/trace -run TestProfileReportGoldens -update`)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden (regenerate with -update if intended)\n--- got ---\n%s", name, got)
	}
}

// TestProfileReportGoldens pins every profiler report byte for byte on the
// synthetic history — the determinism contract the artifacts advertise.
func TestProfileReportGoldens(t *testing.T) {
	tr := profileHistory()
	prof := BuildProfile(tr, profileMeta())
	cp := ExtractCriticalPath(tr, prof)
	render := func(name string, write func(w *bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkGolden(t, name, buf.Bytes())
	}
	render("profile.md", func(w *bytes.Buffer) error { return WriteProfileMarkdown(w, prof, cp) })
	render("profile.folded", func(w *bytes.Buffer) error { return WriteFoldedStacks(w, prof) })
	render("critpath.csv", func(w *bytes.Buffer) error { return WriteCritPathCSV(w, cp) })
	render("whatif.md", func(w *bytes.Buffer) error { return WriteWhatIfMarkdown(w, cp) })
	render("critpath.json", func(w *bytes.Buffer) error { return WriteCritPathChrome(w, cp) })
}

// TestProfileByteDeterminism renders the full report set twice from two
// independently built traces: the bytes must match exactly.
func TestProfileByteDeterminism(t *testing.T) {
	render := func() []byte {
		tr := profileHistory()
		prof := BuildProfile(tr, profileMeta())
		cp := ExtractCriticalPath(tr, prof)
		var buf bytes.Buffer
		for _, w := range []func() error{
			func() error { return WriteProfileMarkdown(&buf, prof, cp) },
			func() error { return WriteFoldedStacks(&buf, prof) },
			func() error { return WriteCritPathCSV(&buf, cp) },
			func() error { return WriteWhatIfMarkdown(&buf, cp) },
			func() error { return WriteCritPathChrome(&buf, cp) },
		} {
			if err := w(); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	if a, b := render(), render(); !bytes.Equal(a, b) {
		t.Error("profiler reports differ across identical builds")
	}
}

// TestEmitReportsProfileFiles checks the profile report selection writes its
// five artifacts, and that the stdout rendering of the markdown ones is those
// files one blank line apart.
func TestEmitReportsProfileFiles(t *testing.T) {
	tr := profileHistory()
	meta := profileMeta()
	sel := []Report{ReportWhatIf, ReportCritPath, ReportProfile}
	wantNames := []string{"profile.md", "profile.folded", "critpath.csv", "critpath.json", "whatif.md"}
	written, err := EmitReports(t.TempDir(), sel, tr, meta)
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != len(wantNames) {
		t.Fatalf("wrote %v, want %v", written, wantNames)
	}
	for i, path := range written {
		if filepath.Base(path) != wantNames[i] {
			t.Errorf("file %d = %s, want %s (table order)", i, filepath.Base(path), wantNames[i])
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s missing or empty (%v)", path, err)
		}
	}
	prof, err := os.ReadFile(written[0])
	if err != nil {
		t.Fatal(err)
	}
	whatif, err := os.ReadFile(written[4])
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteReports(&buf, []Report{ReportWhatIf, ReportProfile}, tr, meta); err != nil {
		t.Fatal(err)
	}
	if want := string(prof) + "\n" + string(whatif); buf.String() != want {
		t.Errorf("stdout rendering:\n%s\nwant profile.md, a blank line, whatif.md:\n%s", buf.String(), want)
	}
}

// TestProfileEmptyTrace covers the degenerate inputs: a nil tracer and a
// tracer with no events must profile to zero without panicking.
func TestProfileEmptyTrace(t *testing.T) {
	meta := profileMeta()
	for _, tc := range []struct {
		name string
		tr   *Tracer
	}{{"nil", nil}, {"empty", New(3)}} {
		prof := BuildProfile(tc.tr, meta)
		if err := prof.CheckConservation(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if prof.Span != 0 {
			t.Errorf("%s: span = %v, want 0", tc.name, prof.Span)
		}
		cp := ExtractCriticalPath(tc.tr, prof)
		if tc.tr == nil {
			if cp.EndProc != -1 {
				t.Errorf("%s: anchor = %d, want -1", tc.name, cp.EndProc)
			}
		}
		var buf bytes.Buffer
		if err := WriteWhatIfMarkdown(&buf, cp); err != nil {
			t.Errorf("%s: what-if render: %v", tc.name, err)
		}
		if tc.tr == nil && !strings.Contains(buf.String(), "empty trace") {
			t.Errorf("%s: what-if = %q, want empty-trace note", tc.name, buf.String())
		}
	}
}

// profilingHistory replays the synthetic history through a profiling tracer.
func profilingHistory() *Tracer {
	live := NewProfiling(3)
	for proc, recs := range profileHistory().bufs {
		for _, r := range recs {
			live.emit(proc, r)
		}
	}
	return live
}

// TestProfilingTracerSynthetic pins what a profiling tracer answers on the
// synthetic history: the buffered profile's totals, nothing else, and no
// records kept once they are folded.
func TestProfilingTracerSynthetic(t *testing.T) {
	live := profilingHistory()
	got := BuildProfile(live, profileMeta())
	sameTotals(t, "profiling vs buffered", got, BuildProfile(profileHistory(), profileMeta()))
	if err := got.CheckConservation(); err != nil {
		t.Error(err)
	}
	if got.Stacks != nil {
		t.Errorf("totals-only profile has %d stacks", len(got.Stacks))
	}
	for _, pp := range got.Procs {
		if pp.Segments != nil {
			t.Errorf("totals-only profile has %d segments on p%d", len(pp.Segments), pp.Proc)
		}
	}
	if live.Len() != 0 {
		t.Errorf("profiling tracer still holds %d records after BuildProfile", live.Len())
	}
}

// TestProfilingTracerMisuseFailsLoudly: a profiling tracer has no records and
// its profile no segments, so everything that needs either must panic naming
// the cause instead of rendering an eventless run.
func TestProfilingTracerMisuseFailsLoudly(t *testing.T) {
	live := profilingHistory()
	totals := BuildProfile(live, profileMeta())
	buffered := profileHistory()
	full := BuildProfile(buffered, profileMeta())
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"Merged", func() { live.Merged() }},
		{"Analyze", func() { Analyze(live, profileMeta()) }},
		{"WriteBinary", func() { live.WriteBinary(io.Discard) }},
		{"WriteChromeTrace", func() { WriteChromeTrace(io.Discard, live, profileMeta()) }},
		{"ExtractCriticalPath on a profiling tracer", func() { ExtractCriticalPath(live, full) }},
		{"ExtractCriticalPath on a totals-only profile", func() { ExtractCriticalPath(buffered, totals) }},
		{"WriteProfileMarkdown", func() { WriteProfileMarkdown(io.Discard, totals, ExtractCriticalPath(buffered, full)) }},
		{"WriteFoldedStacks", func() { WriteFoldedStacks(io.Discard, totals) }},
		{"EmitReports", func() { EmitReports(t.TempDir(), []Report{ReportProfile}, live, profileMeta()) }},
		{"WriteReports", func() { WriteReports(io.Discard, []Report{ReportWhatIf}, live, profileMeta()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "profiling tracer") {
					t.Errorf("recovered %q, want a panic naming the profiling tracer", msg)
				}
			}()
			tc.call()
		})
	}
}
