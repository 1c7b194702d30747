package sweep

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/harness"
)

// Block is one section of the paper's evaluation report, the output of
// dsmbench.
type Block int

// The report's blocks, in the order `dsmbench -all` prints them.
const (
	Table2   Block = iota // application parameters
	Table3                // best EC vs best LRC
	Table4                // EC: write trapping x write collection
	Table5                // LRC: write trapping x write collection
	Counters              // Section 7.2: messages and data moved by the best implementations
	Micro                 // Section 7.1 factor kernels
)

// AllBlocks is the complete report, `dsmbench -all`.
func AllBlocks() []Block { return []Block{Table2, Table3, Table4, Table5, Counters, Micro} }

// view is what a block renders from: the records of one Report's grid.
type view struct {
	scale  apps.Scale
	nprocs int
	suite  []string // the applications Tables 3-5 and the counters show
	cells  map[cellKey]Record
	best   []modelBest // every group of the grid, suite and kernels alike
}

// blockSpec describes a block once: the cells it shows — its models'
// implementations of the suite, or of the factor kernels — and how it
// renders them. Table 2 shows no cell.
type blockSpec struct {
	kernels bool
	models  []core.Model
	render  func(*strings.Builder, *view)
}

var bothModels = []core.Model{core.EC, core.LRC}

var blockSpecs = [...]blockSpec{
	Table2: {render: func(b *strings.Builder, v *view) { writeTable2(b, v.scale) }},
	Table3: {models: bothModels, render: func(b *strings.Builder, v *view) { writeTable3(b, v.best, v.suite) }},
	Table4: {models: []core.Model{core.EC}, render: func(b *strings.Builder, v *view) {
		writeTableModel(b, core.EC, v.cells, v.suite, v.nprocs)
	}},
	Table5: {models: []core.Model{core.LRC}, render: func(b *strings.Builder, v *view) {
		writeTableModel(b, core.LRC, v.cells, v.suite, v.nprocs)
	}},
	Counters: {models: bothModels, render: func(b *strings.Builder, v *view) { writeCounters(b, v.best, v.suite) }},
	Micro:    {kernels: true, models: bothModels, render: func(b *strings.Builder, v *view) { writeMicro(b, v.cells, v.nprocs) }},
}

// Report renders blocks, in the order given and separated by blank lines,
// from the records of one Run of cfg's cells. Tables 3-5 and the counters
// show appNames (the paper's suite when empty) and Micro the factor
// kernels; the grid holds every application and implementation some block
// shows, so each cell runs once whatever blocks share it. The grid is one
// variant (cfg's cost and machine) on cfg.NProcs, with cfg's Parallel,
// Timeout and Perf; cfg.Trace profiles every cell (Grid.Breakdown). dsmbench
// prints exactly this.
func Report(cfg harness.Config, appNames []string, blocks ...Block) (string, error) {
	if len(appNames) == 0 {
		appNames = apps.Names()
	}
	var names []string
	var models []core.Model
	for _, blk := range blocks {
		spec := blockSpecs[blk]
		if len(spec.models) == 0 {
			continue
		}
		models = append(models, spec.models...)
		list := appNames
		if spec.kernels {
			list = apps.MicroNames()
		}
		for _, n := range list {
			if !slices.Contains(names, n) {
				names = append(names, n)
			}
		}
	}
	var impls []core.Impl
	for _, i := range core.Implementations() {
		if slices.Contains(models, i.Model) {
			impls = append(impls, i)
		}
	}
	variant := cmp.Or(cfg.Variant, BaselineName)
	var recs []Record
	if len(names) > 0 {
		var err error
		recs, err = Run(Grid{
			Scale: cfg.Scale, Apps: names, Impls: impls, NProcs: []int{cfg.NProcs},
			Variants: []Variant{{Name: variant, Cost: cfg.Cost, Machine: cfg.Machine}},
			Parallel: cfg.Parallel, Timeout: cfg.Timeout, Breakdown: cfg.Trace, Perf: cfg.Perf,
		})
		if err != nil {
			return "", err
		}
	}
	v := &view{
		scale: cfg.Scale, nprocs: cfg.NProcs, suite: appNames,
		cells: cellIndex(recs, variant), best: bestPerModel(recs),
	}
	var b strings.Builder
	for i, blk := range blocks {
		if i > 0 {
			b.WriteString("\n")
		}
		blockSpecs[blk].render(&b, v)
	}
	return b.String(), nil
}

// cellKey identifies a cell of one variant.
type cellKey struct {
	app    string
	impl   string
	nprocs int
}

// cellIndex indexes the records of one variant by cell.
func cellIndex(recs []Record, variant string) map[cellKey]Record {
	out := make(map[cellKey]Record)
	for _, r := range recs {
		if r.Variant == variant {
			out[cellKey{r.App, r.Impl, r.NProcs}] = r
		}
	}
	return out
}

// group names the cells one best-per-model choice ranges over: every
// implementation of an application on one processor count under one variant.
type group struct {
	variant string
	app     string
	nprocs  int
}

// modelBest is the paper's headline comparison for one group: the fastest
// record of each model, nil where the group has none.
type modelBest struct {
	group
	ec, lrc *Record
}

// winner names the faster model; a tie goes to LRC.
func (m modelBest) winner() string {
	if m.ec.Stats.Time < m.lrc.Stats.Time {
		return "EC"
	}
	return "LRC"
}

// bestPerModel groups recs in order of first appearance and keeps each
// model's fastest record; of equally fast records the earlier one wins. It is
// the one best-EC-vs-best-LRC rule: Table 3, the counters and the verdict
// flips all read it.
func bestPerModel(recs []Record) []modelBest {
	at := make(map[group]int)
	var out []modelBest
	for i := range recs {
		r := &recs[i]
		g := group{r.Variant, r.App, r.NProcs}
		j, ok := at[g]
		if !ok {
			j = len(out)
			at[g] = j
			out = append(out, modelBest{group: g})
		}
		slot := &out[j].lrc
		if strings.HasPrefix(r.Impl, "EC-") {
			slot = &out[j].ec
		}
		if *slot == nil || r.Stats.Time < (*slot).Stats.Time {
			*slot = r
		}
	}
	return out
}

// table2 is each application's data set per scale, the paper's Table 2 at
// paper scale.
var table2 = map[apps.Scale]map[string]string{
	apps.Paper: {
		"SOR":        "1000x1000 floats, 50 iterations",
		"SOR+":       "1000x1000 floats (boundary rows shared), 50 iterations",
		"QS":         "262,144 integers, cutoff 1024",
		"Water":      "343 molecules, 5 iterations",
		"Barnes-Hut": "8,192 bodies, 5 iterations",
		"IS":         "N = 2^20, Bmax = 2^9, 10 rankings",
		"3D-FFT":     "64x64x32",
	},
	apps.Bench: {
		"SOR":        "256x256 floats, 8 iterations",
		"SOR+":       "256x256 floats (boundary rows shared), 8 iterations",
		"QS":         "32,768 integers, cutoff 1024",
		"Water":      "125 molecules, 3 iterations",
		"Barnes-Hut": "512 bodies, 2 iterations",
		"IS":         "N = 2^16, Bmax = 2^9, 5 rankings",
		"3D-FFT":     "32x32x32",
	},
	apps.Test: {
		"SOR":        "48x64 floats, 4 iterations",
		"SOR+":       "48x64 floats (boundary rows shared), 4 iterations",
		"QS":         "4,096 integers, cutoff 256",
		"Water":      "37 molecules, 2 iterations",
		"Barnes-Hut": "64 bodies, 2 iterations",
		"IS":         "N = 4096, Bmax = 128, 3 rankings",
		"3D-FFT":     "16x16x32",
	},
	apps.Large: {
		"SOR":        "1026x64 floats, 4 iterations",
		"SOR+":       "1026x64 floats (boundary rows shared), 4 iterations",
		"QS":         "131,072 integers, cutoff 512",
		"Water":      "1,024 molecules, 2 iterations",
		"Barnes-Hut": "2,048 bodies, 2 iterations",
		"IS":         "N = 2^18, Bmax = 2^10, 3 rankings",
		"3D-FFT":     "64x64x8",
	},
}

// appColumn is the width of a table's application column: 12, the paper
// suite's, or the longest name it shows, so a factor kernel's row stays
// aligned with the header.
func appColumn(names []string) int {
	w := 12
	for _, n := range names {
		w = max(w, len(n))
	}
	return w
}

// writeTable2 renders the application-parameter table of the whole suite.
func writeTable2(b *strings.Builder, scale apps.Scale) {
	fmt.Fprintf(b, "Table 2: Application Parameters (%s scale)\n", scale)
	fmt.Fprintf(b, "%-12s %s\n", "Application", "Data Set Size")
	for _, name := range apps.Names() {
		fmt.Fprintf(b, "%-12s %s\n", name, table2[scale][name])
	}
}

// writeTable3 renders Table 3 in the paper's layout: each application's
// sequential time, best EC and best LRC times, and which implementation of
// each model won.
func writeTable3(b *strings.Builder, best []modelBest, appNames []string) {
	b.WriteString("Table 3: Execution Times — best EC vs best LRC\n")
	w := appColumn(appNames)
	fmt.Fprintf(b, "%-*s %9s %9s %9s %10s %10s\n", w, "App", "1 proc.", "EC", "LRC", "EC Imp.", "LRC Imp.")
	suffix := func(impl string) string { return impl[strings.Index(impl, "-")+1:] }
	for _, m := range best {
		if !slices.Contains(appNames, m.app) {
			continue
		}
		fmt.Fprintf(b, "%-*s %9.2f %9.2f %9.2f %10s %10s\n",
			w, m.app, m.ec.Seq.Seconds(), m.ec.Stats.Time.Seconds(), m.lrc.Stats.Time.Seconds(),
			suffix(m.ec.Impl), suffix(m.lrc.Impl))
	}
}

// writeTableModel renders Table 4 (EC) or Table 5 (LRC): every application
// under each of the model's implementations, in core.ModelImpls order.
func writeTableModel(b *strings.Builder, model core.Model, cells map[cellKey]Record, appNames []string, nprocs int) {
	n := 4
	if model == core.LRC {
		n = 5
	}
	fmt.Fprintf(b, "Table %d: Execution Times (seconds) for Write Trapping x Write Collection in %v\n", n, model)
	impls := core.ModelImpls(model)
	w := appColumn(appNames)
	fmt.Fprintf(b, "%-*s", w, "App")
	for _, i := range impls {
		fmt.Fprintf(b, " %10s", i)
	}
	b.WriteString("\n")
	for _, name := range appNames {
		fmt.Fprintf(b, "%-*s", w, name)
		for _, i := range impls {
			fmt.Fprintf(b, " %10.2f", cells[cellKey{name, i.String(), nprocs}].Stats.Time.Seconds())
		}
		b.WriteString("\n")
	}
}

// writeCounters renders the Section 7.2 in-text counters (messages and MB
// moved) for the best implementations, the quantities the paper quotes when
// explaining each application's outcome.
func writeCounters(b *strings.Builder, best []modelBest, appNames []string) {
	b.WriteString("Section 7.2 counters: messages and data moved (best impls)\n")
	w := appColumn(appNames)
	fmt.Fprintf(b, "%-*s %12s %12s %12s %12s\n", w, "App", "EC msgs", "LRC msgs", "EC MB", "LRC MB")
	for _, m := range best {
		if !slices.Contains(appNames, m.app) {
			continue
		}
		fmt.Fprintf(b, "%-*s %12d %12d %12.1f %12.1f\n",
			w, m.app, m.ec.Stats.Msgs, m.lrc.Stats.Msgs, m.ec.Stats.MB(), m.lrc.Stats.MB())
	}
}

// writeMicro renders the factor-kernel comparison: time, messages and data
// of every kernel under every implementation.
func writeMicro(b *strings.Builder, cells map[cellKey]Record, nprocs int) {
	b.WriteString("Section 7.1 factor kernels (time / msgs / KB per implementation)\n")
	for _, name := range apps.MicroNames() {
		fmt.Fprintf(b, "%s:\n", name)
		for _, i := range core.Implementations() {
			r := cells[cellKey{name, i.String(), nprocs}]
			fmt.Fprintf(b, "  %-10s %10v %8d msgs %8.1f KB\n",
				r.Impl, r.Stats.Time, r.Stats.Msgs, float64(r.Stats.Bytes)/1024)
		}
	}
}
