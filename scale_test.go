package ecvslrc

import (
	"bytes"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/harness"
	"ecvslrc/internal/perf"
	"ecvslrc/internal/run"
	"ecvslrc/internal/sim"
)

// scaleProcs are the processor counts the scale-equivalence suite pins:
// the paper's 8 plus two octaves toward the large machine.
var scaleProcs = []int{8, 32, 64}

// TestNoticeGCEquivalence pins the tentpole invariant of notice-history
// garbage collection: for every application and implementation, at 8/32/64
// processors, a run with GC on yields core.Stats deeply equal to the run
// with GC off and a byte-identical final memory image. Collection happens at
// barrier quiescent points and does zero protocol work, so any divergence
// means the kill floor freed an interval some processor still needed.
func TestNoticeGCEquivalence(t *testing.T) {
	cm := fabric.DefaultCostModel()
	collected := false
	for _, name := range apps.Names() {
		for _, impl := range core.Implementations() {
			for _, nprocs := range scaleProcs {
				impl, nprocs, name := impl, nprocs, name
				t.Run(name+"/"+impl.String()+"/"+itoa(nprocs), func(t *testing.T) {
					off := mustRun(t, name, impl, nprocs, cm, run.Options{KeepImage: true})
					on := mustRun(t, name, impl, nprocs, cm, run.Options{KeepImage: true, Machine: run.Machine{NoticeGC: true}})
					if !reflect.DeepEqual(off.Stats, on.Stats) {
						t.Errorf("stats diverge with notice GC:\n  off: %+v\n  on:  %+v", off.Stats, on.Stats)
					}
					if !bytes.Equal(off.Image, on.Image) {
						t.Errorf("final memory images diverge with notice GC")
					}
					if impl.Model == core.LRC {
						if on.GC == nil {
							t.Fatalf("LRC run with NoticeGC has no GC report")
						}
						if on.GC.Violations != 0 {
							t.Errorf("GC recorded %d floor violations", on.GC.Violations)
						}
						if on.NoticeBytes > off.NoticeBytes {
							t.Errorf("GC-on notice history (%d bytes) exceeds GC-off (%d bytes)",
								on.NoticeBytes, off.NoticeBytes)
						}
						if on.GC.RecordsPruned > 0 {
							collected = true
						}
					} else if on.GC != nil {
						t.Errorf("EC run produced a notice-GC report")
					}
				})
			}
		}
	}
	if !collected {
		t.Errorf("notice GC never pruned a record across the whole matrix; the equivalence is vacuous")
	}
}

// TestGCNeverResurrects drives lock-heavy and barrier-heavy cells with GC on
// and asserts the collector's runtime soundness counters: at least a few
// collection passes actually pruned history, and no fetch window ever
// reached below a responder's kill floor, nor was a pruned record
// re-absorbed anywhere (a collected interval must never come back).
func TestGCNeverResurrects(t *testing.T) {
	cm := fabric.DefaultCostModel()
	for _, name := range []string{"Water", "QS", "SOR", "IS"} {
		name := name
		t.Run(name, func(t *testing.T) {
			res := mustRun(t, name, core.Impl{Model: core.LRC, Trap: core.Twinning, Collect: core.Diffs},
				32, cm, run.Options{Machine: run.Machine{NoticeGC: true}})
			gc := res.GC
			if gc == nil {
				t.Fatal("no GC report")
			}
			if gc.Violations != 0 {
				t.Fatalf("%d floor violations: a collected interval was needed again", gc.Violations)
			}
			if gc.Collections < 2 {
				t.Fatalf("only %d collection passes; the cell has too few barriers to test GC", gc.Collections)
			}
			if gc.RecordsPruned == 0 {
				t.Errorf("collector ran %d passes but never pruned a record", gc.Collections)
			}
			for _, s := range gc.Samples {
				if s.After > s.Before {
					t.Errorf("collection grew the notice history: %+v", s)
				}
			}
		})
	}
}

// TestTreeBarrierEquivalence pins the tree fan-in contract: arranging
// barrier arrivals/departures as a radix-4 tree changes message shapes and
// timing (it is a different experiment, not a byte-identical one) but every
// app must still verify against its sequential reference (mustRun checks
// this), synchronize the same number of barrier episodes, and — for apps
// whose result does not depend on lock grant order — compute a byte-
// identical final memory image. Water and QS are excluded from the image
// check only: their images legitimately vary with lock acquisition order
// (floating-point accumulation order, task-queue assignment), under flat
// timing perturbations as much as under the tree. Runs combine fan-in with
// notice GC to pin that the collector's quiescence argument holds under the
// tree too.
func TestTreeBarrierEquivalence(t *testing.T) {
	cm := fabric.DefaultCostModel()
	lockOrderDependent := map[string]bool{"Water": true, "QS": true}
	for _, name := range apps.Names() {
		for _, impl := range []core.Impl{
			{Model: core.LRC, Trap: core.Twinning, Collect: core.Diffs},
			{Model: core.EC, Trap: core.Twinning, Collect: core.Diffs},
		} {
			for _, nprocs := range scaleProcs {
				impl, nprocs, name := impl, nprocs, name
				t.Run(name+"/"+impl.String()+"/"+itoa(nprocs), func(t *testing.T) {
					flat := mustRun(t, name, impl, nprocs, cm, run.Options{KeepImage: true})
					tree := mustRun(t, name, impl, nprocs, cm,
						run.Options{KeepImage: true, Machine: run.Machine{BarrierFanIn: 4, NoticeGC: true}})
					if !lockOrderDependent[name] && !bytes.Equal(flat.Image, tree.Image) {
						t.Errorf("final memory images diverge under tree fan-in")
					}
					if flat.Stats.Barriers != tree.Stats.Barriers {
						t.Errorf("barrier episodes diverge: flat %d, tree %d",
							flat.Stats.Barriers, tree.Stats.Barriers)
					}
					if impl.Model == core.LRC && tree.GC != nil && tree.GC.Violations != 0 {
						t.Errorf("GC under tree fan-in recorded %d floor violations", tree.GC.Violations)
					}
				})
			}
		}
	}
}

// TestTopologySingleStageIdentity pins the degenerate-Clos contract: the
// flat link is the single-stage switch whose radix covers the whole machine
// and whose taper equals its radix (one resource at single-link speed, one
// WireLatency per crossing), so the spec "flat" and the spec that spells
// that geometry out must give byte-identical Stats and final memory images —
// with and without link contention.
func TestTopologySingleStageIdentity(t *testing.T) {
	cm := fabric.DefaultCostModel()
	flatTopo, err := fabric.ParseTopology("flat")
	if err != nil {
		t.Fatal(err)
	}
	topo, err := fabric.ParseTopology("clos:radix=8:taper=8:stages=1")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"SOR", "Water", "IS"} {
		for _, impl := range []core.Impl{
			{Model: core.LRC, Trap: core.Twinning, Collect: core.Diffs},
			{Model: core.EC, Trap: core.Twinning, Collect: core.Diffs},
		} {
			for _, contention := range []bool{false, true} {
				impl, name, contention := impl, name, contention
				label := name + "/" + impl.String()
				if contention {
					label += "/contention"
				}
				t.Run(label, func(t *testing.T) {
					flat := mustRun(t, name, impl, 8, cm,
						run.Options{KeepImage: true, Machine: run.Machine{Contention: contention, Topology: flatTopo}})
					clos := mustRun(t, name, impl, 8, cm,
						run.Options{KeepImage: true, Machine: run.Machine{Contention: contention, Topology: topo}})
					if !reflect.DeepEqual(flat.Stats, clos.Stats) {
						t.Errorf("stats diverge under single-stage clos:\n  flat: %+v\n  clos: %+v",
							flat.Stats, clos.Stats)
					}
					if !bytes.Equal(flat.Image, clos.Image) {
						t.Errorf("final memory images diverge under single-stage clos")
					}
				})
			}
		}
	}
}

// TestNoticeHistoryBounded pins the memory-scaling contract of the collector
// on a workload whose fetch windows drain every epoch: micro-producer-
// consumer (every reader re-reads the whole buffer after each barrier, so
// each epoch's records become collectable at the next quiescent point). With
// GC on, the machine-wide notice-history footprint must cycle — the
// post-collection residue in later epochs never exceeds the first epoch's —
// instead of growing with the epoch count, while the GC-off run demonstrates
// the growth is real (its final history dwarfs the bounded residue).
// Test scale runs 4 producer/consumer epochs (8 barrier episodes), beyond
// the >= 3 needed to distinguish a cycle from monotone growth.
func TestNoticeHistoryBounded(t *testing.T) {
	cm := fabric.DefaultCostModel()
	impl := core.Impl{Model: core.LRC, Trap: core.Twinning, Collect: core.Diffs}
	on := mustRun(t, "micro-producer-consumer", impl, 16, cm, run.Options{Machine: run.Machine{NoticeGC: true}})
	off := mustRun(t, "micro-producer-consumer", impl, 16, cm, run.Options{})
	if on.GC == nil {
		t.Fatal("no GC report")
	}
	if len(on.GC.Samples) < 6 {
		t.Fatalf("only %d collection passes; need >= 3 epochs (6 barriers) to observe the cycle", len(on.GC.Samples))
	}
	firstEpochMax := on.GC.Samples[0].After
	if a := on.GC.Samples[1].After; a > firstEpochMax {
		firstEpochMax = a
	}
	for i, s := range on.GC.Samples {
		if s.After > firstEpochMax {
			t.Errorf("pass %d leaves %d notice bytes live, above the first epoch's %d: history grows with epochs despite GC",
				i, s.After, firstEpochMax)
		}
	}
	if off.NoticeBytes < 8*firstEpochMax {
		t.Errorf("GC-off history (%d bytes) is not much larger than the bounded residue (%d): the workload no longer accumulates history and the bound is vacuous",
			off.NoticeBytes, firstEpochMax)
	}
}

// largeScaleBudgets bound the host memory of large-scale cells, and of one
// cell of the paper's 8-processor machine: the peak heap, measured by the
// perf registry's cell spans on one P (as dsmrun runs a cell, so the reading
// is the peak its -perf line prints), and the peak resident set, measured
// from a high-water mark reset just before the cell. The nodes' images are
// copy-on-write mappings outside the Go heap (DESIGN.md "Node images"), so
// the heap budget sees the protocol state alone and the resident one what
// the nodes write on top of it. Each has headroom for allocator slack and
// for what the earlier tests in the same process left live. Each named
// regression was measured on a copy of the code with it put back:
//   - 32-proc Water/LRC-diff, ~22 MiB heap and ~42 MiB resident, under 30
//     and 56 MiB: its nodes share one interval-record log, and a node that
//     keeps its own per-writer record lists again reads 42 and 62 MiB;
//   - 256-proc SOR/LRC-diff, ~17 MiB heap and ~45 MiB resident, under 32
//     and 72 MiB: an O(procs^2) regression in per-node protocol state of
//     1 KiB per processor pair, 64 MiB at this size, fails both (the
//     uncollected Water cell at the same processor count peaks at ~2.4 GiB);
//   - 64-proc 3D-FFT/EC-time, ~43 MiB heap and ~88 MiB resident, under 60
//     and 100 MiB: it binds 8192 locks on every processor and stamps
//     double-word blocks. Stamps of 8 bytes per word again, instead of 4
//     bytes per trapping block, read 92 and 107 MiB; an EC lock table that
//     costs a slot per bound lock per processor, instead of per lock a
//     processor uses, reads 102 and 146 MiB;
//   - 1024-proc SOR/LRC-diff, ~146 MiB heap and ~227 MiB resident, under
//     200 and 290 MiB: per-node record lists read 276 and 372 MiB;
//   - 8-proc Barnes-Hut/LRC-diff at paper scale, ~19 MiB heap and ~45 MiB
//     resident, under 28 and 58 MiB: pooled heap copies of the initial
//     image for the nodes of cells of 8 or fewer processors read 56 and 72
//     MiB. It runs last, because the harness cache keeps its 5 MiB initial
//     image live in the heap of every later cell.
var largeScaleBudgets = []struct {
	app       string
	impl      core.Impl
	scale     apps.Scale
	nprocs    int
	heap, rss int64
}{
	{"Water", core.Impl{Model: core.LRC, Trap: core.Twinning, Collect: core.Diffs}, apps.Large, 32, 30 << 20, 56 << 20},
	{"SOR", core.Impl{Model: core.LRC, Trap: core.Twinning, Collect: core.Diffs}, apps.Large, 256, 32 << 20, 72 << 20},
	{"3D-FFT", core.Impl{Model: core.EC, Trap: core.Twinning, Collect: core.Timestamps}, apps.Large, 64, 60 << 20, 100 << 20},
	{"SOR", core.Impl{Model: core.LRC, Trap: core.Twinning, Collect: core.Diffs}, apps.Large, 1024, 200 << 20, 290 << 20},
	{"Barnes-Hut", core.Impl{Model: core.LRC, Trap: core.Twinning, Collect: core.Diffs}, apps.Paper, 8, 28 << 20, 58 << 20},
}

// TestLargeScaleMemoryBudget runs full large-scale cells, and one
// paper-scale 8-processor cell, through the harness (image cache, scale
// defaults) and pins each one's host-side peak heap and peak resident set
// under its budgets. The cells are large enough to exercise 64- to
// 1024-way sharing and cheap enough for the tier-1 suite (the heavyweight
// Water cells run in CI's scale smoke job instead). It also pins the
// large-scale harness defaults: notice GC must have been on in the
// large-scale LRC cells without being asked for.
func TestLargeScaleMemoryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("256- and 1024-processor cells")
	}
	// The end-of-span reading includes the cell's uncollected garbage, which
	// depends on how many Ps run the collector; pin it to dsmrun's one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range largeScaleBudgets {
		t.Run(c.app+"/"+c.impl.String()+"/"+itoa(c.nprocs), func(t *testing.T) {
			// The peaks are read from the cell's start: collect the garbage
			// of earlier cells and tests first, give its pages back, and
			// lower the resident high-water mark to what is left, so none
			// of it is counted against this one.
			debug.FreeOSMemory()
			rssReset := perf.ResetPeakRSS() == nil
			reg := perf.New()
			cfg := harness.Config{Scale: c.scale, NProcs: c.nprocs, Cost: fabric.DefaultCostModel(), Perf: reg, Timeout: cellTimeout}
			row := harness.RunCell(cfg, c.app, c.impl)
			if row.Err != nil {
				t.Fatal(row.Err)
			}
			rss := perf.PeakRSSBytes()
			if c.impl.Model == core.LRC && c.scale == apps.Large {
				if row.GC == nil {
					t.Error("large-scale cell ran without notice GC: the harness scale default regressed")
				} else if row.GC.Violations != 0 {
					t.Errorf("GC recorded %d floor violations", row.GC.Violations)
				}
			}
			if len(reg.Cells()) == 0 {
				t.Fatal("perf registry observed no cells")
			}
			peak := reg.PeakHeapBytes()
			if peak <= 0 {
				t.Fatal("no peak heap recorded")
			}
			if peak > c.heap {
				t.Errorf("cell peaked at %d heap bytes, over the %d budget (%.1f MiB > %.1f MiB)",
					peak, c.heap, float64(peak)/(1<<20), float64(c.heap)/(1<<20))
			}
			t.Logf("peak heap %.1f MiB (budget %.0f MiB)", float64(peak)/(1<<20), float64(c.heap)/(1<<20))
			switch {
			case raceDetector:
				t.Log("the race detector's shadow memory is resident: resident budget unchecked")
				return
			case !rssReset || rss == 0:
				t.Log("no resident high-water mark to reset and read: resident budget unchecked")
				return
			}
			if rss > c.rss {
				t.Errorf("cell peaked at %d resident bytes, over the %d budget (%.1f MiB > %.1f MiB)",
					rss, c.rss, float64(rss)/(1<<20), float64(c.rss)/(1<<20))
			}
			t.Logf("peak rss %.1f MiB (budget %.0f MiB)", float64(rss)/(1<<20), float64(c.rss)/(1<<20))
		})
	}
}

// cellTimeout arms the virtual-time watchdog of every cell the root tests
// run (run.Options.Timeout, harness.Config.Timeout). It lies far past any
// test cell's simulated time, so it decides nothing on working code, but a
// protocol bug that stops a cell from finishing fails the test with a
// sim.Stalled naming the blocked processes instead of hanging it.
const cellTimeout = 3600 * sim.Second

// mustRun runs name at test scale under the watchdog and fails the test on
// any error.
func mustRun(t *testing.T, name string, impl core.Impl, nprocs int, cm fabric.CostModel, opts run.Options) run.Result {
	t.Helper()
	a, err := apps.New(name, apps.Test)
	if err != nil {
		t.Fatal(err)
	}
	opts.Timeout = cellTimeout
	res, err := run.RunWith(a, impl, nprocs, cm, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
