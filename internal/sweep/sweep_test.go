package sweep

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/harness"
	"ecvslrc/internal/perf"
)

func testGrid(parallel int) Grid {
	vs, err := ParseVariantSpec("net=x2 detect=hw contention=on")
	if err != nil {
		panic(err)
	}
	return Grid{
		Scale:    apps.Test,
		Apps:     []string{"SOR", "IS"},
		NProcs:   []int{2, 4},
		Variants: vs,
		Parallel: parallel,
	}
}

// TestSweepDeterministicUnderParallel runs the same grid serially and on a
// worker pool and requires bit-identical records: the tables and every
// sweep report are assembled from them, whatever the worker count.
func TestSweepDeterministicUnderParallel(t *testing.T) {
	serial, err := Run(testGrid(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(testGrid(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("records differ between -parallel 1 and 4")
	}
	// 2 variants (the combined one, baseline prepended) x 2 apps x 2 proc
	// counts x 6 impls.
	if want := 2 * 2 * 2 * 6; len(serial) != want {
		t.Errorf("got %d records, want %d", len(serial), want)
	}
	// Grid order: variants outermost, baseline first.
	if serial[0].Variant != BaselineName || serial[0].App != "SOR" || serial[0].NProcs != 2 {
		t.Errorf("first record = %+v", serial[0])
	}
}

// TestSweepBaselineMatchesHarness is the subsystem's anchor: with contention
// off, the default-variant cells must be bit-identical to harness.RunCell
// under the calibrated cost model — the sweep engine adds an axis, it must
// not move the baseline.
func TestSweepBaselineMatchesHarness(t *testing.T) {
	recs, err := Run(Grid{
		Scale:  apps.Test,
		Apps:   []string{"QS"},
		NProcs: []int{4},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.Config{Scale: apps.Test, NProcs: 4, Cost: fabric.DefaultCostModel()}
	impls := core.Implementations()
	if len(recs) != len(impls) {
		t.Fatalf("got %d records, want %d", len(recs), len(impls))
	}
	seq, err := harness.RunSeq(cfg, "QS")
	if err != nil {
		t.Fatal(err)
	}
	for i, impl := range impls {
		row := harness.RunCell(cfg, "QS", impl)
		if row.Err != nil {
			t.Fatal(row.Err)
		}
		r := recs[i]
		if r.Impl != impl.String() || r.Variant != BaselineName || r.Contention {
			t.Errorf("record %d metadata = %+v", i, r)
		}
		if r.Stats != row.Stats {
			t.Errorf("%v: sweep stats differ from harness:\n  sweep:   %+v\n  harness: %+v", impl, r.Stats, row.Stats)
		}
		if r.Seq != seq {
			t.Errorf("%v: seq = %v, want %v", impl, r.Seq, seq)
		}
	}
}

// TestSweepContentionSlowsCells checks the axis actually bites: with
// contention on, no cell can finish earlier, and communication-heavy cells
// finish strictly later.
func TestSweepContentionSlowsCells(t *testing.T) {
	vs, err := ParseVariantSpec("contention=on")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := Run(Grid{
		Scale:    apps.Test,
		Apps:     []string{"IS"},
		NProcs:   []int{4},
		Variants: vs,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := map[string]Record{}
	for _, r := range recs {
		if r.Variant == BaselineName {
			base[r.Impl] = r
		}
	}
	slower := 0
	for _, r := range recs {
		if r.Variant != "contention=on" {
			continue
		}
		b := base[r.Impl]
		if r.Stats.Time < b.Stats.Time {
			t.Errorf("%s: contention made the run faster (%v < %v)", r.Impl, r.Stats.Time, b.Stats.Time)
		}
		if r.Stats.Time > b.Stats.Time {
			slower++
			if r.LinkWait == 0 {
				t.Errorf("%s: contention slowed the run but reported no LinkWait", r.Impl)
			}
		}
		if b.LinkWait != 0 {
			t.Errorf("%s: baseline reports LinkWait %v, want 0", r.Impl, b.LinkWait)
		}
		// The protocol's work is unchanged; only timing moves.
		if r.Stats.Msgs != b.Stats.Msgs {
			t.Errorf("%s: contention changed message count (%d vs %d)", r.Impl, r.Stats.Msgs, b.Stats.Msgs)
		}
	}
	if slower == 0 {
		t.Error("contention=on slowed no cell at all")
	}
}

// TestSweepProgressAndPerf runs a parallel grid with both observers attached
// and checks the accounting: the progress callback fires exactly once per
// unit of work (each seq reference plus each cell), the done counter covers
// 1..total as a set, and the perf registry labels every cell with its
// variant name — while the records themselves stay identical to an
// unobserved run.
func TestSweepProgressAndPerf(t *testing.T) {
	g := testGrid(4)
	g.Impls = core.Implementations()[:2]
	plain, err := Run(g)
	if err != nil {
		t.Fatal(err)
	}

	reg := perf.New()
	var mu sync.Mutex
	seen := make(map[int]string)
	var wantTotal int
	g.Perf = reg
	g.Progress = func(done, total int, cell string, wall time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		if prev, dup := seen[done]; dup {
			t.Errorf("done=%d reported twice (%q, %q)", done, prev, cell)
		}
		seen[done] = cell
		wantTotal = total
		if wall < 0 {
			t.Errorf("negative wall time for %q", cell)
		}
	}
	observed, err := Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Error("progress/perf observation changed the sweep records")
	}

	// 2 seq refs + 2 variants (baseline + spec) x 2 apps x 2 nprocs x
	// 2 impls = 18 units.
	if wantTotal != 18 {
		t.Errorf("reported total = %d, want 18", wantTotal)
	}
	if len(seen) != wantTotal {
		t.Fatalf("got %d progress calls, want %d", len(seen), wantTotal)
	}
	for d := 1; d <= wantTotal; d++ {
		if _, ok := seen[d]; !ok {
			t.Errorf("done=%d never reported", d)
		}
	}

	var variantCells, seqCells int
	for _, c := range reg.Cells() {
		switch {
		case c.Impl == "seq":
			seqCells++
			if c.Variant != "" {
				t.Errorf("seq cell carries variant %q", c.Variant)
			}
		default:
			variantCells++
			if c.Variant == "" {
				t.Errorf("cell %v missing variant label", c.Key())
			}
		}
	}
	if seqCells != 2 || variantCells != 16 {
		t.Errorf("perf cells: seq=%d variant=%d, want 2/16", seqCells, variantCells)
	}
}
