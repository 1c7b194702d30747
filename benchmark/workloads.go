package main

import (
	"fmt"
	"strings"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/sim"
	"ecvslrc/internal/sweep"
)

// cell is one unit of work of a workload: an (application, implementation,
// processor count) run at a scale under a cost variant, or — with Seq set —
// the application's sequential reference.
type cell struct {
	Scale   apps.Scale
	App     string
	Impl    core.Impl
	Seq     bool
	Procs   int
	Variant string // sweep variant name; "" for the calibrated paper platform
	// Timeout arms the virtual-time watchdog. Zero in every shipped workload;
	// the tests set it to force a stalled cell.
	Timeout sim.Time
}

// key is the cell's identity in reports and golden digests.
func (c cell) key() string {
	impl := c.Impl.String()
	if c.Seq {
		impl = "seq"
	}
	v := c.Variant
	if v == "" {
		v = sweep.BaselineName
	}
	return fmt.Sprintf("%s/%s/%s/%s/%d", c.Scale, v, c.App, impl, c.Procs)
}

// seedDependent reports whether the cell's simulated statistics depend on
// -seed: only cells under a fault plan do (the plan's PRNG seed is the
// benchmark seed), so only they are excused from the digest at seeds != 1.
func (c cell) seedDependent() bool { return strings.Contains(c.Variant, "fault=") }

// workload is one named input set. Serial workloads list their cells and run
// them one after another on one P; the sweep workload hands one grid to
// sweep.Run on two workers.
type workload struct {
	Name string
	Why  string
	// Procs is the GOMAXPROCS the workload runs under: never more than the
	// 2-core sizing box has, never scaled with the host.
	Procs int
	// Cells is the pass in canonical (digest) order.
	Cells []cell
	// Spec, when non-empty, makes this the sweep workload: Cells is then the
	// expansion of the grid (apps x impls x variants of Spec) and the pass is
	// one sweep.Run call.
	Spec string
}

func mustImpls(names ...string) []core.Impl {
	out := make([]core.Impl, len(names))
	for i, n := range names {
		im, err := core.ParseImpl(n)
		if err != nil {
			panic(err)
		}
		out[i] = im
	}
	return out
}

// cross appends app x impls at (scale, procs), preceded by the sequential
// reference when seq is set.
func cross(dst []cell, scale apps.Scale, procs int, app string, seq bool, impls []core.Impl) []cell {
	if seq {
		dst = append(dst, cell{Scale: scale, App: app, Seq: true, Procs: 1})
	}
	for _, im := range impls {
		dst = append(dst, cell{Scale: scale, App: app, Impl: im, Procs: procs})
	}
	return dst
}

// sweepSpec is sweep_par's variant axes. ParseVariantSpec prepends the
// calibrated paper platform, so the grid runs three variants: the default
// fabric path, and the RDMA platform model behind the contention queue with
// and without the reliable sublayer recovering 1 % loss.
const sweepSpec = "platform=rdma_100g contention=on fault=off,drop1e-2"

// workloads returns the benchmark's input sets. The lists are the ISSUE's,
// cut to fit the driver's per-run budget (about 30 s including set-up, so a
// pass is 2-4 s instead of 8-13 s); README.md records every cut.
func workloads() []workload {
	all := core.Implementations()

	var grid []cell
	grid = cross(grid, apps.Paper, 8, "SOR+", false, mustImpls("LRC-diff"))
	grid = cross(grid, apps.Paper, 8, "3D-FFT", true, all)
	grid = cross(grid, apps.Paper, 8, "IS", true, all)

	var syn []cell
	syn = cross(syn, apps.Paper, 8, "Barnes-Hut", false, mustImpls("EC-time", "LRC-diff"))
	syn = cross(syn, apps.Paper, 8, "Water", false, all)
	syn = cross(syn, apps.Paper, 8, "QS", false, mustImpls("EC-time", "LRC-diff"))

	var large []cell
	large = cross(large, apps.Large, 32, "Water", false, mustImpls("LRC-diff"))
	large = cross(large, apps.Large, 64, "Barnes-Hut", false, mustImpls("EC-time", "LRC-diff"))
	large = cross(large, apps.Large, 64, "QS", false, mustImpls("LRC-diff"))
	large = cross(large, apps.Large, 64, "3D-FFT", false, mustImpls("EC-time", "LRC-diff"))
	large = cross(large, apps.Large, 64, "SOR", false, mustImpls("EC-time", "LRC-diff"))
	large = cross(large, apps.Large, 64, "IS", false, mustImpls("LRC-diff"))
	large = cross(large, apps.Large, 256, "SOR", false, mustImpls("LRC-diff"))
	large = cross(large, apps.Large, 256, "IS", false, mustImpls("LRC-diff"))

	return []workload{
		{
			Name:  "grid_p8",
			Why:   "barrier-synchronised regular grids at paper scale: the per-word access path, vm, wtrap/wcollect and mem do the work, sim handoff and fabric almost none",
			Procs: 1, Cells: grid,
		},
		{
			Name:  "sync_p8",
			Why:   "lock- and message-bound paper-scale apps: sim handoff, fabric delivery, syncmgr and ec do the work, the access path little; bypasses what grid_p8 stresses",
			Procs: 1, Cells: syn,
		},
		{
			Name:  "scale_large",
			Why:   "32-256 simulated processors at large scale: lrc/ec protocol state, many-proc handoff and host memory dominate; peak_rss_mb and slowest_cell_s move here",
			Procs: 1, Cells: large,
		},
		{
			Name:  "sweep_par",
			Why:   "one sweep.Run of ~20 ms bench cells on 2 workers with contention, faults and the enabled tracer: per-cell set-up and the non-default paths the others bypass",
			Procs: 2, Spec: sweepSpec, Cells: sweepCells(sweepSpec, apps.Bench, 8, apps.Names()),
		},
	}
}

// sweepGrid is the sweep workload's grid: its applications at its scale and
// processor count under every variant of its spec, with the stall breakdown
// (enabled tracer + trace.BuildProfile on every cell) and exactly two
// workers. Tracer aside, the timed path carries no observer: Perf stays nil.
func sweepGrid(w workload, seed uint64) (sweep.Grid, error) {
	vs, err := sweep.ParseVariantSpec(w.Spec)
	if err != nil {
		return sweep.Grid{}, err
	}
	// Every fault plan draws from the benchmark seed, so the simulator
	// receives only generated cell specs.
	for i := range vs {
		if vs[i].Faults != nil {
			plan := *vs[i].Faults
			plan.Seed = seed
			vs[i].Faults = &plan
		}
	}
	g := sweep.Grid{
		Scale: w.Cells[0].Scale, NProcs: []int{w.Cells[0].Procs}, Variants: vs,
		Breakdown: true, Parallel: 2,
	}
	for _, c := range w.Cells {
		if c.Variant != vs[0].Name {
			break
		}
		if n := len(g.Apps); n == 0 || g.Apps[n-1] != c.App {
			g.Apps = append(g.Apps, c.App)
		}
	}
	return g, nil
}

// sweepCells expands a sweep grid into cells in sweep.Run's record order:
// variants outermost, then applications, then implementations.
func sweepCells(spec string, scale apps.Scale, procs int, appNames []string) []cell {
	vs, err := sweep.ParseVariantSpec(spec)
	if err != nil {
		panic(err)
	}
	var out []cell
	for _, v := range vs {
		for _, app := range appNames {
			for _, im := range core.Implementations() {
				out = append(out, cell{Scale: scale, App: app, Impl: im, Procs: procs, Variant: v.Name})
			}
		}
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads() {
		out = append(out, w.Name)
	}
	return out
}

// variantByName resolves a cell's variant name to its run configuration for
// the driver's own (traced) cell runner; "" is the calibrated paper platform.
func variantByName(vs []sweep.Variant, name string) (sweep.Variant, bool) {
	for _, v := range vs {
		if v.Name == name {
			return v, true
		}
	}
	return sweep.Variant{Name: sweep.BaselineName, Cost: fabric.DefaultCostModel()}, name == "" || name == sweep.BaselineName
}
