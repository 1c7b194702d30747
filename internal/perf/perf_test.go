package perf

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestCounterHistogram(t *testing.T) {
	r := New()
	c := r.Counter("c")
	c.Add(3)
	c.Add(4)
	if got := c.Value(); got != 7 {
		t.Errorf("counter = %d, want 7", got)
	}
	if r.Counter("c") != c {
		t.Error("second Counter lookup returned a different handle")
	}
	if got := r.Counters()["c"]; got != 7 {
		t.Errorf("Counters()[c] = %d, want 7", got)
	}
	h := r.Histogram("h", []int64{10, 100})
	for _, v := range []int64{5, 50, 500} {
		h.Observe(v)
	}
	if got := h.Count(); got != 3 {
		t.Errorf("histogram count = %d, want 3", got)
	}
	if r.Histogram("h", nil) != h {
		t.Error("second Histogram lookup returned a different handle")
	}
	for i, want := range []int64{1, 1, 1} {
		if got := h.buckets[i].Load(); got != want {
			t.Errorf("bucket %d = %d, want %d", i, got, want)
		}
	}
	if got := h.sum.Load(); got != 555 {
		t.Errorf("histogram sum = %d, want 555", got)
	}
}

// TestNilRegistryIsInert drives every entry point of the disabled layer: each
// is a no-op and every read reports zero or nil.
func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	for _, tc := range []struct {
		name  string
		inert func() bool
	}{
		{"Counter", func() bool {
			r.Counter("c").Add(1)
			return r.Counter("c") == nil && r.Counter("c").Value() == 0
		}},
		{"Histogram", func() bool {
			r.Histogram("h", WallBuckets).Observe(1)
			return r.Histogram("h", WallBuckets) == nil && r.Histogram("h", WallBuckets).Count() == 0
		}},
		{"StartPhase", func() bool {
			ph := r.StartPhase("x")
			ph.End()
			return ph == Phase{}
		}},
		{"StartCell", func() bool {
			cs := r.StartCell("", "a", "b", 1)
			cs.End(OutcomeOK)
			return cs == CellSpan{} && cs.Elapsed() == 0
		}},
		{"Cells", func() bool { return r.Cells() == nil }},
		{"Counters", func() bool { return r.Counters() == nil }},
		{"PeakHeapBytes", func() bool { return r.PeakHeapBytes() == 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.inert() {
				t.Errorf("nil registry's %s handed out a live handle or recorded a value", tc.name)
			}
		})
	}
}

// TestHistogramBucketEdges pins Observe's bucket rule: a value lands in the
// first bucket whose upper bound it does not exceed, so a value equal to a
// bound stays in that bound's bucket and only values past the last bound
// reach the overflow bucket.
func TestHistogramBucketEdges(t *testing.T) {
	bounds := []int64{10, 100}
	for _, tc := range []struct {
		name   string
		v      int64
		bucket int
	}{
		{"negative", -5, 0},
		{"zero", 0, 0},
		{"at first bound", 10, 0},
		{"just past first bound", 11, 1},
		{"at last bound", 100, 1},
		{"overflow", 101, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := New().Histogram("h", bounds)
			h.Observe(tc.v)
			for i := range h.buckets {
				want := int64(0)
				if i == tc.bucket {
					want = 1
				}
				if got := h.buckets[i].Load(); got != want {
					t.Errorf("Observe(%d): bucket %d = %d, want %d", tc.v, i, got, want)
				}
			}
			if h.Count() != 1 || h.sum.Load() != tc.v {
				t.Errorf("Observe(%d): count = %d, sum = %d", tc.v, h.Count(), h.sum.Load())
			}
		})
	}
}

// TestOutcomeMergeOrder runs one cell twice for every ordered pair of
// outcomes: the merged record keeps the worse of the two (panic > err > ok)
// whichever run ends first.
func TestOutcomeMergeOrder(t *testing.T) {
	outcomes := []Outcome{OutcomeOK, OutcomeErr, OutcomePanic}
	for i, first := range outcomes {
		for j, second := range outcomes {
			want := outcomes[max(i, j)]
			t.Run(string(first)+" then "+string(second), func(t *testing.T) {
				r := New()
				for _, o := range []Outcome{first, second} {
					r.StartCell("", "IS", "LRC-diff", 2).End(o)
				}
				cells := r.Cells()
				if len(cells) != 1 || cells[0].Runs != 2 {
					t.Fatalf("cells = %+v, want one cell of two runs", cells)
				}
				if got := Outcome(cells[0].Outcome); got != want {
					t.Errorf("merged outcome = %s, want %s", got, want)
				}
			})
		}
	}
}

// TestCellsSortedCopy checks Cells orders records by (variant, app, impl,
// nprocs) whatever order they were recorded in, and hands out copies the
// caller may modify without touching the registry.
func TestCellsSortedCopy(t *testing.T) {
	r := New()
	keys := []CellKey{
		{"v2", "IS", "EC-time", 2},
		{"v1", "SOR", "EC-time", 8},
		{"v1", "IS", "LRC-diff", 2},
		{"v1", "IS", "EC-time", 16},
		{"v1", "IS", "EC-time", 4},
		{"", "Water", "seq", 1},
	}
	for _, k := range keys {
		r.StartCell(k.Variant, k.App, k.Impl, k.NProcs).End(OutcomeOK)
	}
	want := []CellKey{keys[5], keys[4], keys[3], keys[2], keys[1], keys[0]}
	cells := r.Cells()
	if len(cells) != len(want) {
		t.Fatalf("got %d cells, want %d", len(cells), len(want))
	}
	for i, c := range cells {
		if c.Key() != want[i] {
			t.Errorf("cell %d = %+v, want %+v", i, c.Key(), want[i])
		}
	}
	cells[0].Runs = 99
	if got := r.Cells()[0].Runs; got != 1 {
		t.Errorf("modifying a returned cell changed the registry: runs = %d", got)
	}
}

// TestPhaseAccumulates checks every StartPhase/End pair of one name adds its
// elapsed time to the same "phase_<name>_ns" counter, apart from other
// phases.
func TestPhaseAccumulates(t *testing.T) {
	r := New()
	const nap = time.Millisecond
	for i := 0; i < 2; i++ {
		ph := r.StartPhase("simulate")
		time.Sleep(nap)
		ph.End()
	}
	ph := r.StartPhase("verify")
	ph.End()
	counters := r.Counters()
	if got := counters["phase_simulate_ns"]; got < int64(2*nap) {
		t.Errorf("phase_simulate_ns = %d, want >= %d (two runs of %v)", got, int64(2*nap), nap)
	}
	if _, ok := counters["phase_verify_ns"]; !ok || len(counters) != 2 {
		t.Errorf("counters = %v, want exactly phase_simulate_ns and phase_verify_ns", counters)
	}
}

// sink keeps the test allocations below on the heap.
var sink []byte

func TestCellSpanMeasures(t *testing.T) {
	r := New()
	cs := r.StartCell("v", "SOR", "EC-time", 8)
	time.Sleep(2 * time.Millisecond)
	if cs.Elapsed() < time.Millisecond {
		t.Errorf("Elapsed = %v, want >= 1ms", cs.Elapsed())
	}
	sink = make([]byte, 1<<16) // guarantee at least one allocation in the window
	cs.End(OutcomeOK)
	cells := r.Cells()
	if len(cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(cells))
	}
	c := cells[0]
	if c.Variant != "v" || c.App != "SOR" || c.Impl != "EC-time" || c.NProcs != 8 {
		t.Errorf("cell identity = %+v", c.Key())
	}
	if c.Outcome != "ok" || c.Runs != 1 {
		t.Errorf("outcome/runs = %s/%d", c.Outcome, c.Runs)
	}
	if c.WallNS < int64(time.Millisecond) || c.MinWallNS != c.WallNS {
		t.Errorf("wall = %d, min = %d", c.WallNS, c.MinWallNS)
	}
	if c.Mallocs < 1 || c.AllocBytes < 1<<16 {
		t.Errorf("mallocs = %d, alloc bytes = %d, want >= 1 and >= 64 KiB", c.Mallocs, c.AllocBytes)
	}
	if r.PeakHeapBytes() <= 0 {
		t.Error("no peak heap recorded")
	}
	if got := r.Histogram("cell_wall_ns", WallBuckets).Count(); got != 1 {
		t.Errorf("cell_wall_ns count = %d, want 1", got)
	}
}

// TestCellMerge pins the multi-run merge rule through StartCell/End: runs
// accumulate, min wall keeps the fastest run, the worst outcome wins
// whatever order the runs end in, and distinct identities stay apart.
func TestCellMerge(t *testing.T) {
	r := New()
	run := func(nprocs int, sleep time.Duration, outcome Outcome) {
		cs := r.StartCell("", "SOR", "EC-time", nprocs)
		time.Sleep(sleep)
		sink = make([]byte, 64)
		cs.End(outcome)
	}
	const slow = 2 * time.Millisecond
	run(8, slow, OutcomeOK)
	run(8, 0, OutcomePanic)
	run(8, 0, OutcomeErr)
	run(4, 0, OutcomeOK)
	cells := r.Cells()
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2 (one merged, one distinct)", len(cells))
	}
	// Sorted by nprocs: the 4-proc cell first.
	if d := cells[0]; d.NProcs != 4 || d.Runs != 1 || d.Outcome != "ok" {
		t.Errorf("distinct cell = %+v", d)
	}
	m := cells[1]
	if m.NProcs != 8 || m.Runs != 3 || m.Mallocs < 3 {
		t.Errorf("merged cell = %+v", m)
	}
	// The fastest run is one of the two unslept ones, so it is at most the
	// sum less the slow run.
	if m.WallNS < int64(slow) || m.MinWallNS > m.WallNS-int64(slow) {
		t.Errorf("merged wall = %d, min = %d: min is not the fastest run", m.WallNS, m.MinWallNS)
	}
	if m.Outcome != "panic" {
		t.Errorf("merged outcome = %s, want panic (worst wins)", m.Outcome)
	}
}

// TestRegistryConcurrentUse hammers one registry from many goroutines (the
// parallel-harness shape) and checks totals are exact. Run under -race in
// CI.
func TestRegistryConcurrentUse(t *testing.T) {
	r := New()
	heap := New() // its peak sees only the values below, not the real heap
	var wg sync.WaitGroup
	const workers, perWorker = 8, 200
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("n").Add(1)
				heap.observeHeap(uint64(w*1000 + i))
				r.Histogram("h", WallBuckets).Observe(int64(i))
				cs := r.StartCell("", "app", "impl", w)
				cs.End(OutcomeOK)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := heap.PeakHeapBytes(); got != 7199 {
		t.Errorf("peak heap = %d, want 7199", got)
	}
	cells := r.Cells()
	var runs int64
	for _, c := range cells {
		runs += c.Runs
	}
	if runs != workers*perWorker {
		t.Errorf("cell runs = %d, want %d", runs, workers*perWorker)
	}
	if len(cells) != workers {
		t.Errorf("distinct cells = %d, want %d", len(cells), workers)
	}
}

func TestProgressEmitter(t *testing.T) {
	var buf bytes.Buffer
	p := ProgressEmitter(&buf)
	p(1, 4, "paper/SOR/EC-time/8", 50*time.Millisecond)
	p(2, 4, "paper/SOR/LRC-diff/8", 10*time.Millisecond)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d heartbeat lines, want 2:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "1/4 paper/SOR/EC-time/8") {
		t.Errorf("first heartbeat = %q", lines[0])
	}
	for _, l := range lines {
		if !strings.Contains(l, "cells/s") || !strings.Contains(l, "ETA") {
			t.Errorf("heartbeat missing rate/ETA: %q", l)
		}
	}
}

// TestPeakRSS: the resident high-water mark covers memory the Go heap does
// not hold — a page-touched anonymous mapping raises it — and a reset lowers
// it again. Where /proc is absent it reads 0.
func TestPeakRSS(t *testing.T) {
	if _, err := os.Stat("/proc/self/status"); err != nil {
		if PeakRSSBytes() != 0 {
			t.Fatal("PeakRSSBytes is nonzero without /proc/self/status")
		}
		t.Skip("no /proc/self/status")
	}
	resetErr := ResetPeakRSS()
	before := PeakRSSBytes()
	if before <= 0 {
		t.Fatalf("peak RSS %d, want > 0", before)
	}
	const size = 64 << 20
	data, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < size; i += 4096 {
		data[i] = 1
	}
	raised := PeakRSSBytes()
	if err := syscall.Munmap(data); err != nil {
		t.Fatal(err)
	}
	if raised < before+size/2 {
		t.Errorf("touching %d MiB outside the heap raised the peak RSS from %d to only %d", size>>20, before, raised)
	}
	if resetErr != nil {
		t.Skipf("no reset: %v", resetErr)
	}
	if err := ResetPeakRSS(); err != nil {
		t.Fatal(err)
	}
	if after := PeakRSSBytes(); after >= raised {
		t.Errorf("a reset left the peak RSS at %d, not below the %d the unmapped memory raised it to", after, raised)
	}
}
