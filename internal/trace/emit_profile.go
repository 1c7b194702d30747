package trace

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"ecvslrc/internal/sim"
)

// WriteProfileMarkdown renders the virtual-time profile: the per-processor
// stall-class breakdown with its conservation line, the hottest folded
// stacks, and the critical path's class and object decomposition.
func WriteProfileMarkdown(w io.Writer, prof *Profile, cp *CritPath) error {
	prof.requireFull("WriteProfileMarkdown")
	bw := bufio.NewWriter(w)
	m := prof.Meta
	fmt.Fprintf(bw, "# Virtual-time profile — %s on %s, %d procs (%s scale)\n\n",
		m.App, m.Impl, m.NProcs, m.Scale)
	fmt.Fprintf(bw, "- span: %v (longest processor)\n", prof.Span)
	fmt.Fprintf(bw, "- conservation: per-processor class totals sum exactly to each end time\n\n")

	fmt.Fprintf(bw, "## Per-processor stall breakdown\n\n")
	fmt.Fprintf(bw, "| proc | end |")
	for _, c := range StallClasses() {
		fmt.Fprintf(bw, " %s |", c)
	}
	fmt.Fprintf(bw, "\n|-----:|----:|")
	for range StallClasses() {
		fmt.Fprintf(bw, "----:|")
	}
	fmt.Fprintf(bw, "\n")
	for i := range prof.Procs {
		pp := &prof.Procs[i]
		fmt.Fprintf(bw, "| p%d | %v |", pp.Proc, pp.End)
		for _, c := range StallClasses() {
			fmt.Fprintf(bw, " %s |", pct(pp.Class[c], pp.End))
		}
		fmt.Fprintf(bw, "\n")
	}
	var endSum sim.Time
	for i := range prof.Procs {
		endSum += prof.Procs[i].End
	}
	fmt.Fprintf(bw, "| **all** | %v |", endSum)
	for _, c := range StallClasses() {
		fmt.Fprintf(bw, " %s |", pct(prof.Total[c], endSum))
	}
	fmt.Fprintf(bw, "\n")

	fmt.Fprintf(bw, "\n## Hottest stacks (proc;class;object)\n\n")
	fmt.Fprintf(bw, "| stack | time | share |\n|-------|-----:|------:|\n")
	top := topStacks(prof, 20)
	for _, e := range top {
		fmt.Fprintf(bw, "| p%d;%s;%s | %v | %s |\n",
			e.Proc, e.Class, ObjName(e.ObjKind, e.ObjID, m), e.Time, pct(e.Time, endSum))
	}
	if len(prof.Stacks) > len(top) {
		fmt.Fprintf(bw, "\n(%d further stacks in profile.folded)\n", len(prof.Stacks)-len(top))
	}

	if cp != nil && cp.EndProc >= 0 {
		fmt.Fprintf(bw, "\n## Critical path\n\n")
		fmt.Fprintf(bw, "- anchor: p%d, total %v over %d spans\n", cp.EndProc, cp.Total, len(cp.Spans))
		if cp.Truncated {
			fmt.Fprintf(bw, "- WARNING: walk truncated at the step bound; decomposition is partial\n")
		}
		fmt.Fprintf(bw, "\n| class | path time | share |\n|-------|----------:|------:|\n")
		for _, c := range StallClasses() {
			if cp.Class[c] == 0 {
				continue
			}
			fmt.Fprintf(bw, "| %s | %v | %s |\n", c, cp.Class[c], pct(cp.Class[c], cp.Total))
		}
		fmt.Fprintf(bw, "\n### Path objects\n\n")
		fmt.Fprintf(bw, "| class | object | path time | share |\n|-------|--------|----------:|------:|\n")
		objs := cp.Objects
		if len(objs) > 20 {
			objs = objs[:20]
		}
		for _, e := range objs {
			fmt.Fprintf(bw, "| %s | %s | %v | %s |\n",
				e.Class, ObjName(e.ObjKind, e.ObjID, m), e.Time, pct(e.Time, cp.Total))
		}
	}
	return bw.Flush()
}

// topStacks returns the n largest folded-stack entries (ties by the stable
// stack order).
func topStacks(prof *Profile, n int) []StackEntry {
	out := make([]StackEntry, len(prof.Stacks))
	copy(out, prof.Stacks)
	// Stable on the (proc, class, object) pre-sort, so ties are deterministic.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time > out[j].Time })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// pct renders a share of a total ("42.3%"), "-" when the total is zero.
func pct(part, total sim.Time) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(total))
}

// WriteFoldedStacks emits the profile in the folded-stack format flamegraph
// tools consume: one "proc;class;object value" line per aggregated frame,
// value in simulated nanoseconds.
func WriteFoldedStacks(w io.Writer, prof *Profile) error {
	prof.requireFull("WriteFoldedStacks")
	bw := bufio.NewWriter(w)
	for _, e := range prof.Stacks {
		fmt.Fprintf(bw, "p%d;%s;%s %d\n", e.Proc, e.Class, ObjName(e.ObjKind, e.ObjID, prof.Meta), int64(e.Time))
	}
	return bw.Flush()
}

// WriteCritPathCSV emits the critical path's spans in forward time order.
func WriteCritPathCSV(w io.Writer, cp *CritPath) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"proc", "start_ns", "end_ns", "duration_ns", "class", "object"}); err != nil {
		return err
	}
	for _, s := range cp.Spans {
		rec := []string{
			strconv.Itoa(s.Proc),
			i64(int64(s.T0)), i64(int64(s.T1)), i64(int64(s.T1 - s.T0)),
			s.Class.String(), ObjName(s.ObjKind, s.ObjID, cp.Meta),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteWhatIfMarkdown renders the what-if projections: the anchor's end time
// re-costed with each class's path share removed. The projections are lower
// bounds — zeroing a class does not re-schedule the run, and a second
// near-critical path may sit right behind the first.
func WriteWhatIfMarkdown(w io.Writer, cp *CritPath) error {
	bw := bufio.NewWriter(w)
	m := cp.Meta
	fmt.Fprintf(bw, "# What-if projections — %s on %s, %d procs (%s scale)\n\n",
		m.App, m.Impl, m.NProcs, m.Scale)
	if cp.EndProc < 0 {
		fmt.Fprintf(bw, "(empty trace: no path)\n")
		return bw.Flush()
	}
	fmt.Fprintf(bw, "Critical path: p%d, %v. Each row zeroes one class on the path;\n", cp.EndProc, cp.Total)
	fmt.Fprintf(bw, "the projection is a lower bound (the run is not re-scheduled).\n\n")
	fmt.Fprintf(bw, "| class zeroed | path share | projected end | max speedup |\n")
	fmt.Fprintf(bw, "|--------------|-----------:|--------------:|------------:|\n")
	for _, c := range StallClasses() {
		if cp.Class[c] == 0 {
			continue
		}
		lower := cp.WhatIf(c)
		speed := "-"
		if lower > 0 {
			speed = fmt.Sprintf("%.2fx", float64(cp.Total)/float64(lower))
		}
		fmt.Fprintf(bw, "| %s | %s | %v | %s |\n", c, pct(cp.Class[c], cp.Total), lower, speed)
	}
	return bw.Flush()
}

// WriteCritPathChrome renders the critical path as a Chrome trace-event
// overlay: one "critical path" process with the path spans on each involved
// processor's track, loadable next to timeline.json in Perfetto.
func WriteCritPathChrome(w io.Writer, cp *CritPath) error {
	evs := make([]chromeEvent, 0, len(cp.Spans))
	for _, s := range cp.Spans {
		evs = append(evs, chromeEvent{
			Name: fmt.Sprintf("%s %s", s.Class, ObjName(s.ObjKind, s.ObjID, cp.Meta)),
			Ph:   "X", Ts: s.T0.Micros(), Dur: s.T1.Micros() - s.T0.Micros(),
			Pid: 1, Tid: s.Proc,
			Args: map[string]any{"class": s.Class.String()},
		})
	}
	return writeChromeDoc(w, evs, map[string]any{
		"app": cp.Meta.App, "impl": cp.Meta.Impl, "nprocs": cp.Meta.NProcs,
		"scale": cp.Meta.Scale, "overlay": "critical-path",
	})
}
