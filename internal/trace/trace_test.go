package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"unsafe"

	"ecvslrc/internal/mem"
	"ecvslrc/internal/sim"
)

// TestRecWireSize pins the fixed-width record geometry the binary format and
// the alloc guards rely on.
func TestRecWireSize(t *testing.T) {
	if recWire != 28 {
		t.Errorf("wire record is %d bytes, want 28", recWire)
	}
	if got := unsafe.Sizeof(Rec{}); got != 32 {
		t.Errorf("in-memory record is %d bytes, want 32", got)
	}
}

// TestNilTracerEmitsAreNoOps drives every emit helper through a nil tracer:
// the disabled fast path must be callable and record nothing.
func TestNilTracerEmitsAreNoOps(t *testing.T) {
	var tr *Tracer
	tr.Wake(1, 0)
	tr.Dispatch(1, 2, 0)
	tr.Send(1, 0, 1, 2, 64)
	tr.Deliver(1, 0, 1, 2, 64)
	tr.LinkClaim(1, 0, 1, 64)
	tr.LinkWait(1, 0, 5)
	tr.Fault(1, 0, 3, true)
	tr.Miss(1, 0, 3, 2, false)
	tr.FetchServe(1, 0, 3, 1, 128)
	tr.Twin(1, 0, DomainPage, 3)
	tr.Collect(1, 0, DomainPage, 3, 1, 16)
	tr.Apply(1, 0, DomainPage, 3, 1, 16)
	tr.LockReq(1, 0, 7, false)
	tr.LockAcq(1, 0, 7, false, false)
	tr.LockGrant(1, 0, 7, 1, false, 32)
	tr.LockRel(1, 0, 7, 0)
	tr.BarArrive(1, 0, 2)
	tr.BarDepart(1, 0, 2)
	tr.Bind(1, 0, 7, 4096, 128)
	tr.Block(1, 0, sim.ForPage(3))
	tr.Work(1, 0, WorkTrapDiff, ObjPage, 3, 25)
	tr.Recovery(1, 0, 40)
	if tr.Len() != 0 {
		t.Errorf("nil tracer recorded %d events", tr.Len())
	}
	if got := tr.Merged(); got != nil {
		t.Errorf("nil tracer merged %d records", len(got))
	}
}

// TestMergedOrder checks the canonical order: by time, ties by processor,
// then per-processor emission order — even when a processor's buffer is
// locally out of time order (handler-context timestamps running ahead).
func TestMergedOrder(t *testing.T) {
	tr := New(3)
	tr.Fault(50, 2, 1, false)
	tr.Fault(10, 1, 2, false)
	tr.Fault(30, 2, 3, false) // proc 2 emits 50 then 30: out of order locally
	tr.Fault(10, 0, 4, false)
	tr.Fault(10, 1, 5, false)
	got := tr.Merged()
	var order []int32
	for _, r := range got {
		order = append(order, r.A)
	}
	want := []int32{4, 2, 5, 3, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("merged order %v, want %v", order, want)
		}
	}
}

// TestBinaryRoundTrip writes a trace and reads it back record-for-record.
func TestBinaryRoundTrip(t *testing.T) {
	tr := New(2)
	tr.Send(5, 0, 1, 10, 100)
	tr.Miss(7, 1, 3, 2, true)
	tr.LockGrant(9, 0, 4, 1, true, 256)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := tr.Merged(), back.Merged()
	if len(a) != len(b) {
		t.Fatalf("round trip: %d records, want %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("record %d: %+v != %+v", i, b[i], a[i])
		}
	}
	// Re-serializing must be byte-identical (the determinism contract).
	var buf2 bytes.Buffer
	if err := back.WriteBinary(&buf2); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("re-serialized trace differs")
	}
}

// TestReadBinaryRejectsGarbage covers the error paths.
func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("not a trace at all")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadBinary(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
}

// TestParseReportsErrors pins the ErrConfig wrapping convention and the
// default selections.
func TestParseReportsErrors(t *testing.T) {
	if _, err := ParseReports("pages,nonsense", false); !errors.Is(err, ErrConfig) {
		t.Errorf("unknown report: err = %v, want ErrConfig wrap", err)
	}
	if _, err := ParseReports(",,", false); !errors.Is(err, ErrConfig) {
		t.Errorf("empty selection: err = %v, want ErrConfig wrap", err)
	}
	all, err := ParseReports("", false)
	if err != nil || len(all) != len(ReportNames()) {
		t.Errorf("default selection = %v, %v", all, err)
	}
	if def, err := ParseReports(" ", true); err != nil || len(def) != 1 || def[0] != ReportSummary {
		t.Errorf("default stdout selection = %v, %v, want [summary]", def, err)
	}
	sel, err := ParseReports(" pages , locks ,pages", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0] != ReportPages || sel[1] != ReportLocks {
		t.Errorf("selection = %v, want [pages locks] deduplicated", sel)
	}
}

// TestReportTable pins what the report table declares: each name parses to
// its report and prints back, and exactly the markdown reports render to
// stdout; the others need an output directory, from ParseReports and from
// WriteReports alike.
func TestReportTable(t *testing.T) {
	stdout := map[string]bool{"summary": true, "barriers": true, "profile": true, "whatif": true}
	names := ReportNames()
	if len(names) != 9 {
		t.Errorf("%d reports, want 9: %v", len(names), names)
	}
	for i, name := range names {
		r := Report(i)
		if r.String() != name {
			t.Errorf("report %d prints %q, want %q", i, r, name)
		}
		if sel, err := ParseReports(name, false); err != nil || len(sel) != 1 || sel[0] != r {
			t.Errorf("%s: ParseReports = %v, %v", name, sel, err)
		}
		_, perr := ParseReports(name, true)
		werr := WriteReports(io.Discard, []Report{r}, New(1), Meta{NProcs: 1})
		for _, err := range []error{perr, werr} {
			if stdout[name] && err != nil {
				t.Errorf("%s to stdout rejected: %v", name, err)
			}
			if !stdout[name] && (!errors.Is(err, ErrConfig) || !strings.Contains(err.Error(), "report "+name+" needs an output directory")) {
				t.Errorf("%s to stdout: err = %v, want ErrConfig naming the output directory", name, err)
			}
		}
	}
	if got := Report(len(names)).String(); got != "?" {
		t.Errorf("out-of-table report prints %q", got)
	}
}

// TestMsgClassNames pins the message-class taxonomy used by the timeline.
func TestMsgClassNames(t *testing.T) {
	if got := MsgClassName(1); got != "lock-req" {
		t.Errorf("kind 1 = %q", got)
	}
	if got := MsgClassName(11); got != "page-reply" {
		t.Errorf("kind 11 = %q", got)
	}
	if got := MsgClassName(99); got != "kind-99" {
		t.Errorf("kind 99 = %q", got)
	}
	names := MsgClassNames()
	if names[len(names)-1] != "other" {
		t.Errorf("last class = %q, want other", names[len(names)-1])
	}
}

// synthetic meta for classifier tests: 6 pages in one region, 4 procs.
func classifierMeta() Meta {
	return Meta{
		App: "synthetic", Impl: "LRC-diff", Scale: "test", NProcs: 4,
		Regions: []mem.Region{{Name: "data", Base: 0, Size: 6 * mem.PageSize, Block: 4}},
		Pages:   6,
	}
}

// TestClassifierPatterns builds one synthetic history per pattern and checks
// the classifier's label for each.
func TestClassifierPatterns(t *testing.T) {
	tr := New(4)
	at := sim.Time(0)
	tick := func() sim.Time { at += 10; return at }

	// Page 0: untouched -> private.

	// Page 1: p0 writes once, p1..p3 read-miss it repeatedly -> read-mostly.
	tr.Collect(tick(), 0, DomainPage, 1, 1, 8)
	for i := 0; i < 3; i++ {
		for p := 1; p < 4; p++ {
			tr.Miss(tick(), p, 1, 1, false)
			tr.FetchServe(tick(), 0, 1, p, 64)
		}
	}

	// Page 2: p0 and p1 alternate write-missing and re-writing -> migratory.
	for i := 0; i < 4; i++ {
		p := i % 2
		tr.Miss(tick(), p, 2, 1, true)
		tr.FetchServe(tick(), 1-p, 2, p, 64)
		tr.Collect(tick(), p, DomainPage, 2, i+1, 8)
	}

	// Page 3: one miss fetches from two writers at once -> false-sharing.
	tr.Collect(tick(), 0, DomainPage, 3, 1, 8)
	tr.Collect(tick(), 1, DomainPage, 3, 1, 8)
	tr.Miss(tick(), 2, 3, 2, false)

	// Page 4: p0 and p1 write it, p2 and p3 only read it, reads dominate ->
	// producer-consumer.
	tr.Collect(tick(), 0, DomainPage, 4, 1, 8)
	tr.Collect(tick(), 1, DomainPage, 4, 1, 8)
	for i := 0; i < 4; i++ {
		tr.Miss(tick(), 2, 4, 1, false)
		tr.Miss(tick(), 3, 4, 1, false)
	}
	tr.Miss(tick(), 1, 4, 1, true)

	// Page 5: single writer, fetched only to write -> producer-consumer
	// (write fetches dominate with one writer).
	tr.Collect(tick(), 0, DomainPage, 5, 1, 8)
	tr.Miss(tick(), 1, 5, 1, true)
	tr.Miss(tick(), 2, 5, 1, true)

	a := Analyze(tr, classifierMeta())
	want := map[int]Pattern{
		0: PatternPrivate,
		1: PatternReadMostly,
		2: PatternMigratory,
		3: PatternFalseSharing,
		4: PatternProducerConsumer,
		5: PatternProducerConsumer,
	}
	if len(a.Pages) != 6 {
		t.Fatalf("%d page reports, want 6 (every laid-out page classified)", len(a.Pages))
	}
	for _, p := range a.Pages {
		if p.Pattern != want[p.Page] {
			t.Errorf("page %d classified %v, want %v", p.Page, p.Pattern, want[p.Page])
		}
	}
}

// TestAnalyzeLockHistory drives a small lock scenario through the analyzer:
// request/grant/acquire latencies, queue depth and holders.
func TestAnalyzeLockHistory(t *testing.T) {
	tr := New(3)
	// p1 requests at t=100, p0 grants at t=150, p1 acquires at t=200.
	tr.LockReq(100, 1, 7, false)
	tr.LockGrant(150, 0, 7, 1, false, 64)
	tr.LockAcq(200, 1, 7, false, false)
	// p1 releases with 2 queued; p2's acquire comes later.
	tr.LockRel(300, 1, 7, 2)
	tr.LockReq(250, 2, 7, false)
	tr.LockGrant(310, 1, 7, 2, false, 64)
	tr.LockAcq(400, 2, 7, false, false)
	// p0 reacquires locally.
	tr.LockAcq(500, 0, 7, false, true)

	a := Analyze(tr, Meta{App: "x", Impl: "EC-diff", Scale: "test", NProcs: 3})
	if len(a.Locks) != 1 {
		t.Fatalf("%d lock reports, want 1", len(a.Locks))
	}
	l := a.Locks[0]
	if l.Lock != 7 || l.Acquires != 3 || l.Local != 1 || l.Remote != 2 {
		t.Errorf("lock counts: %+v", l)
	}
	if l.Grants != 2 || l.BytesMoved != 128 {
		t.Errorf("grants %d bytes %d, want 2/128", l.Grants, l.BytesMoved)
	}
	if l.WaitTotal != (200-100)+(400-250) || l.WaitMax != 150 {
		t.Errorf("wait total %v max %v", l.WaitTotal, l.WaitMax)
	}
	if l.HandoffTotal != (200-150)+(400-310) || l.HandoffMax != 90 {
		t.Errorf("handoff total %v max %v", l.HandoffTotal, l.HandoffMax)
	}
	if l.MaxQueue != 2 {
		t.Errorf("max queue %d, want 2", l.MaxQueue)
	}
	if l.Holders != 3 {
		t.Errorf("holders %d, want 3", l.Holders)
	}
}

// TestAnalyzeBarrierImbalance covers episode grouping and imbalance.
func TestAnalyzeBarrierImbalance(t *testing.T) {
	tr := New(2)
	// Episode 1: arrivals at 100 and 130 (imbalance 30, last = p1).
	tr.BarArrive(100, 0, 0)
	tr.BarArrive(130, 1, 0)
	// Episode 2: arrivals at 200 and 210 (imbalance 10, last = p1).
	tr.BarArrive(200, 0, 0)
	tr.BarArrive(210, 1, 0)
	a := Analyze(tr, Meta{App: "x", Impl: "LRC-diff", Scale: "test", NProcs: 2})
	if len(a.Barriers) != 1 {
		t.Fatalf("%d barrier reports, want 1", len(a.Barriers))
	}
	b := a.Barriers[0]
	if b.Episodes != 2 || b.ImbalanceTotal != 40 || b.ImbalanceMax != 30 || b.LastProc != 1 {
		t.Errorf("barrier report %+v", b)
	}
}

// TestEmitReportsBarrierSelectsSummary: selecting only barriers still writes
// the summary (the barrier table lives inside it).
func TestEmitReportsBarrierSelectsSummary(t *testing.T) {
	tr := New(2)
	tr.BarArrive(10, 0, 0)
	tr.BarArrive(20, 1, 0)
	meta := Meta{App: "x", Impl: "LRC-diff", Scale: "test", NProcs: 2}
	written, err := EmitReports(t.TempDir(), []Report{ReportBarriers}, tr, meta)
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != 1 || !strings.HasSuffix(written[0], "summary.md") {
		t.Errorf("written = %v, want just summary.md", written)
	}
	// Shared with the summary, the file is written once and in the summary's
	// place in the table, ahead of pages.csv.
	written, err = EmitReports(t.TempDir(), []Report{ReportPages, ReportBarriers, ReportSummary}, tr, meta)
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != 2 || !strings.HasSuffix(written[0], "summary.md") || !strings.HasSuffix(written[1], "pages.csv") {
		t.Errorf("written = %v, want summary.md then pages.csv", written)
	}
}
