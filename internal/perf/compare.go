// Compare loads two trajectories and reports per-cell deltas — the tool CI
// uses to gate on the BENCH_*.json perf history. Wall-clock deltas are
// computed on each cell's min-of-N run (the least noisy estimator) and gated
// with a configurable fractional tolerance; allocation-count deltas are
// near-noise-free for sequential (allocs_exact) trajectories, so they can be
// gated tightly even on shared CI hardware where wall clocks are unreliable.

package perf

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// CompareOptions tunes regression detection.
type CompareOptions struct {
	// WallTol is the fractional wall-time regression tolerance: a cell
	// regresses when head_min_wall > base_min_wall * (1 + WallTol).
	// Negative disables wall gating entirely (the right setting on shared
	// CI runners).
	WallTol float64
	// AllocTol is the fractional per-run Mallocs regression tolerance.
	// Negative disables allocation gating. Allocation gating also requires
	// both trajectories to be allocs_exact; otherwise deltas are reported
	// but never flagged.
	AllocTol float64
}

// Delta is one cell's base-vs-head comparison.
type Delta struct {
	Key CellKey
	// BaseWall / HeadWall are per-run min wall times in nanoseconds.
	BaseWall, HeadWall int64
	// WallRatio is HeadWall / BaseWall (0 when BaseWall is 0).
	WallRatio float64
	// BaseAllocs / HeadAllocs are per-run Mallocs averages.
	BaseAllocs, HeadAllocs float64
	// AllocRatio is HeadAllocs / BaseAllocs (0 when BaseAllocs is 0).
	AllocRatio float64
	// WallRegressed / AllocRegressed flag tolerance violations under the
	// comparison's options.
	WallRegressed, AllocRegressed bool
	// OutcomeChanged flags a head outcome worse than base (ok -> err/panic).
	OutcomeChanged bool
	BaseOutcome    string
	HeadOutcome    string
}

// CompareResult is the full outcome of comparing two trajectories.
type CompareResult struct {
	Deltas []Delta
	// OnlyBase / OnlyHead list cells present in one trajectory only. A cell
	// disappearing from head is flagged as a regression (coverage loss);
	// new cells are informational.
	OnlyBase []CellKey
	OnlyHead []CellKey
	// AllocsGated reports whether allocation tolerances were enforced
	// (both sides exact and AllocTol >= 0).
	AllocsGated bool
	// Regressions counts flagged cells (wall, alloc, outcome) plus cells
	// lost from head.
	Regressions int
}

// Compare diffs head against base cell by cell under opt.
func Compare(base, head *Trajectory, opt CompareOptions) *CompareResult {
	res := &CompareResult{
		AllocsGated: opt.AllocTol >= 0 && base.AllocsExact && head.AllocsExact,
	}
	headByKey := make(map[CellKey]Cell, len(head.Cells))
	for _, c := range head.Cells {
		headByKey[c.Key()] = c
	}
	baseSeen := make(map[CellKey]bool, len(base.Cells))
	for _, b := range base.Cells {
		baseSeen[b.Key()] = true
		h, ok := headByKey[b.Key()]
		if !ok {
			res.OnlyBase = append(res.OnlyBase, b.Key())
			res.Regressions++
			continue
		}
		d := Delta{
			Key:         b.Key(),
			BaseWall:    b.MinWallNS,
			HeadWall:    h.MinWallNS,
			BaseOutcome: b.Outcome,
			HeadOutcome: h.Outcome,
		}
		if b.Runs > 0 {
			d.BaseAllocs = float64(b.Mallocs) / float64(b.Runs)
		}
		if h.Runs > 0 {
			d.HeadAllocs = float64(h.Mallocs) / float64(h.Runs)
		}
		if d.BaseWall > 0 {
			d.WallRatio = float64(d.HeadWall) / float64(d.BaseWall)
		}
		if d.BaseAllocs > 0 {
			d.AllocRatio = d.HeadAllocs / d.BaseAllocs
		}
		if opt.WallTol >= 0 && d.BaseWall > 0 &&
			float64(d.HeadWall) > float64(d.BaseWall)*(1+opt.WallTol) {
			d.WallRegressed = true
		}
		if res.AllocsGated && d.BaseAllocs > 0 &&
			d.HeadAllocs > d.BaseAllocs*(1+opt.AllocTol) {
			d.AllocRegressed = true
		}
		if outcomeRank(Outcome(h.Outcome)) > outcomeRank(Outcome(b.Outcome)) {
			d.OutcomeChanged = true
		}
		if d.WallRegressed || d.AllocRegressed || d.OutcomeChanged {
			res.Regressions++
		}
		res.Deltas = append(res.Deltas, d)
	}
	for _, h := range head.Cells {
		if !baseSeen[h.Key()] {
			res.OnlyHead = append(res.OnlyHead, h.Key())
		}
	}
	// Worst wall ratio first, so the report leads with the damage.
	sort.Slice(res.Deltas, func(i, j int) bool {
		if res.Deltas[i].WallRatio != res.Deltas[j].WallRatio {
			return res.Deltas[i].WallRatio > res.Deltas[j].WallRatio
		}
		return keyLess(res.Deltas[j].Key, res.Deltas[i].Key)
	})
	sortKeys(res.OnlyBase)
	sortKeys(res.OnlyHead)
	return res
}

func keyLess(a, b CellKey) bool {
	if a.Variant != b.Variant {
		return a.Variant < b.Variant
	}
	if a.App != b.App {
		return a.App < b.App
	}
	if a.Impl != b.Impl {
		return a.Impl < b.Impl
	}
	return a.NProcs < b.NProcs
}

func sortKeys(keys []CellKey) {
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
}

// String renders the key as variant/app/impl/nprocs (variant omitted when
// empty).
func (k CellKey) String() string {
	s := fmt.Sprintf("%s/%s/%d", k.App, k.Impl, k.NProcs)
	if k.Variant != "" {
		s = k.Variant + "/" + s
	}
	return s
}

// WriteCompare renders the comparison as a markdown report: header with both
// revisions and aggregates, the top wall movers, every flagged regression,
// and the coverage diff.
func WriteCompare(w io.Writer, base, head *Trajectory, res *CompareResult, opt CompareOptions) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# dsmperf compare\n\n")
	fmt.Fprintf(bw, "| | base | head |\n|---|---|---|\n")
	fmt.Fprintf(bw, "| rev | %s | %s |\n", base.Meta.Rev, head.Meta.Rev)
	fmt.Fprintf(bw, "| go | %s %s/%s | %s %s/%s |\n",
		base.Meta.GoVersion, base.Meta.GOOS, base.Meta.GOARCH,
		head.Meta.GoVersion, head.Meta.GOOS, head.Meta.GOARCH)
	fmt.Fprintf(bw, "| cells/sec | %.2f | %.2f |\n", base.CellsPerSec, head.CellsPerSec)
	fmt.Fprintf(bw, "| p50 / p99 cell wall | %s / %s | %s / %s |\n",
		fmtNS(base.P50NS), fmtNS(base.P99NS), fmtNS(head.P50NS), fmtNS(head.P99NS))
	fmt.Fprintf(bw, "| peak heap | %s | %s |\n", fmtBytes(base.PeakHeapBytes), fmtBytes(head.PeakHeapBytes))
	fmt.Fprintf(bw, "| total mallocs | %d | %d |\n", base.TotalMallocs, head.TotalMallocs)
	fmt.Fprintf(bw, "| allocs exact | %v | %v |\n\n", base.AllocsExact, head.AllocsExact)
	gates := "wall gating off"
	if opt.WallTol >= 0 {
		gates = fmt.Sprintf("wall tolerance %+.0f%%", opt.WallTol*100)
	}
	if res.AllocsGated {
		gates += fmt.Sprintf(", alloc tolerance %+.1f%%", opt.AllocTol*100)
	} else {
		gates += ", alloc gating off"
	}
	fmt.Fprintf(bw, "Gates: %s.\n\n", gates)

	fmt.Fprintf(bw, "## Top wall movers (min-of-N per run)\n\n")
	fmt.Fprintf(bw, "| cell | base | head | ratio | allocs/run base | head | ratio |\n")
	fmt.Fprintf(bw, "|---|---|---|---|---|---|---|\n")
	top := res.Deltas
	if len(top) > 10 {
		top = top[:10]
	}
	for _, d := range top {
		fmt.Fprintf(bw, "| %s | %s | %s | %.2fx | %.0f | %.0f | %.3fx |\n",
			d.Key, fmtNS(d.BaseWall), fmtNS(d.HeadWall), d.WallRatio,
			d.BaseAllocs, d.HeadAllocs, d.AllocRatio)
	}
	fmt.Fprintf(bw, "\n## Regressions\n\n")
	if res.Regressions == 0 {
		fmt.Fprintf(bw, "none\n")
	}
	for _, d := range res.Deltas {
		switch {
		case d.OutcomeChanged:
			fmt.Fprintf(bw, "- %s: outcome %s -> %s\n", d.Key, d.BaseOutcome, d.HeadOutcome)
		case d.WallRegressed:
			fmt.Fprintf(bw, "- %s: wall %s -> %s (%.2fx, tolerance %+.0f%%)\n",
				d.Key, fmtNS(d.BaseWall), fmtNS(d.HeadWall), d.WallRatio, opt.WallTol*100)
		case d.AllocRegressed:
			fmt.Fprintf(bw, "- %s: allocs/run %.0f -> %.0f (%.3fx, tolerance %+.1f%%)\n",
				d.Key, d.BaseAllocs, d.HeadAllocs, d.AllocRatio, opt.AllocTol*100)
		}
	}
	for _, k := range res.OnlyBase {
		fmt.Fprintf(bw, "- %s: present in base, missing from head (coverage lost)\n", k)
	}
	if len(res.OnlyHead) > 0 {
		fmt.Fprintf(bw, "\n## New cells in head\n\n")
		for _, k := range res.OnlyHead {
			fmt.Fprintf(bw, "- %s\n", k)
		}
	}
	return bw.Flush()
}

func fmtNS(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
