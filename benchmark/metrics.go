package main

import (
	"fmt"
	"io"
	"sort"
)

// metricDef mirrors one metric entry of BENCHMARK.json; the test pins the two
// against each other so the driver and the contract cannot drift apart.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, reported per
// workload. Bound is the share of the parent's median by which the metric may
// worsen before a change counts as a regression. fail_ratio is printed with
// them but lives in the result line's attempted/failed counts: its bound is
// zero and its value is zero on every healthy run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"slowest_cell_s", "s", "lower", 0.25},
	{"mallocs_per_pass", "count", "lower", 0.05},
	{"alloc_mb_per_pass", "MiB", "lower", 0.05},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

func lower(name, unit string) metricDef  { return metricDef{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }

// probeMetrics are per-layer source 1: unit costs measured by calling one
// layer's public functions in a loop (probes.go).
var probeMetrics = []metricDef{
	lower("sim.schedule_ns", "ns"),
	lower("sim.handoff_ns", "ns"),
	lower("sim.handoff_p64_ns", "ns"),
	lower("sim.spawn_ns", "ns"),
	lower("fabric.send_ns", "ns"),
	lower("fabric.call_ns", "ns"),
	lower("fabric.call_contention_ns", "ns"),
	lower("fabric.call_faults_ns", "ns"),
	lower("mem.image_copy_ns_per_mb", "ns"),
	lower("mem.recycle_image_ns", "ns"),
	lower("vm.check_ns", "ns"),
	lower("vm.fault_ns", "ns"),
	lower("wtrap.twin_make_ns", "ns"),
	lower("wtrap.compare_clean_ns", "ns"),
	lower("wtrap.compare_sparse_ns", "ns"),
	lower("wtrap.compare_dense_ns", "ns"),
	lower("wtrap.dirty_note_ns", "ns"),
	lower("wtrap.dirty_collect_ns", "ns"),
	lower("wcollect.stamps_set_ns", "ns"),
	lower("wcollect.stamps_select_ns", "ns"),
	lower("wcollect.diff_build_ns", "ns"),
	lower("wcollect.diff_apply_ns", "ns"),
	lower("nodebase.access_ec_ns", "ns"),
	lower("nodebase.access_lrc_ns", "ns"),
	lower("nodebase.access_iface_ns", "ns"),
	lower("run.local_access_ns", "ns"),
	lower("syncmgr.lock_local_ns", "ns"),
	lower("syncmgr.lock_remote_ns", "ns"),
	lower("syncmgr.barrier_p8_ns", "ns"),
	lower("syncmgr.barrier_p64_fanin16_ns", "ns"),
	lower("ec.acquire_update_ns", "ns"),
	lower("lrc.fault_fetch_ns", "ns"),
	lower("lrc.miss_16_writers_ns", "ns"),
	lower("harness.foreach_ns", "ns"),
	lower("sweep.cell_overhead_us", "us"),
	lower("trace.append_ns", "ns"),
	lower("trace.analyze_ns_per_krec", "ns"),
	lower("trace.profile_ns_per_krec", "ns"),
	lower("trace.critpath_ns_per_krec", "ns"),
	lower("perf.cellspan_us", "us"),
	lower("platform.resolve_us", "us"),
}

// tracedMetrics are per-layer source 2: the observed passes (traced.go). Host
// times are self times of the driver's spans or the perf registry's phases;
// counts are exact and compare as counts, never as speed-ups; ledger shares
// are count x probe unit cost over run.simulate_s.
var tracedMetrics = []metricDef{
	lower("run.init_s", "s"),
	lower("run.simulate_s", "s"),
	lower("run.verify_s", "s"),
	lower("apps.new_s", "s"),
	lower("apps.seq_s", "s"),
	lower("harness.cache_s", "s"),
	lower("trace.analyze_s", "s"),
	lower("trace.profile_s", "s"),
	higher("sweep.occupancy", "ratio"),
	lower("harness.cell_p50_ms", "ms"),
	lower("harness.cell_tail_ms", "ms"),
	lower("go.gc_cycles", "count"),
	lower("go.gc_pause_ms", "ms"),
	lower("go.sys_cpu_frac", "ratio"),
	lower("sim.wakes", "count"),
	lower("sim.dispatches", "count"),
	lower("fabric.msgs", "count"),
	lower("fabric.bytes", "count"),
	lower("fabric.link_waits", "count"),
	lower("fabric.retransmits", "count"),
	lower("vm.faults", "count"),
	lower("lrc.misses", "count"),
	lower("wtrap.twins", "count"),
	lower("wcollect.collect_words", "count"),
	lower("wcollect.apply_words", "count"),
	lower("wcollect.diffs", "count"),
	lower("syncmgr.lock_acquires", "count"),
	lower("syncmgr.lock_remote", "count"),
	lower("syncmgr.barrier_arrivals", "count"),
	lower("trace.records", "count"),
	lower("trace.cells_untraceable", "count"),
	lower("ledger.sim_share", "ratio"),
	lower("ledger.fabric_share", "ratio"),
	lower("ledger.syncmgr_share", "ratio"),
	lower("ledger.wtrap_share", "ratio"),
	lower("ledger.wcollect_share", "ratio"),
	lower("ledger.lrc_share", "ratio"),
	lower("ledger.residual_share", "ratio"),
	lower("trace.overhead_ratio", "ratio"),
}

func perLayer() []metricDef {
	return append(append([]metricDef(nil), probeMetrics...), tracedMetrics...)
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metric values by name, holding them to the declared set:
// a metric is emitted exactly once and with its declared unit.
type report struct {
	defs   []metricDef
	values map[string]value
	notes  map[string]string
}

func newReport(defs []metricDef) *report {
	return &report{defs: defs, values: map[string]value{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64, note string) {
	for _, d := range r.defs {
		if d.Name == name {
			if _, dup := r.values[name]; dup {
				panic("benchmark: metric " + name + " reported twice")
			}
			r.values[name] = value{Value: v, Unit: d.Unit}
			r.notes[name] = note
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared")
}

// missing lists declared metrics that were never set.
func (r *report) missing() []string {
	var out []string
	for _, d := range r.defs {
		if _, ok := r.values[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	return out
}

func (r *report) print(w io.Writer, title string) {
	fmt.Fprintf(w, "%s\n", title)
	for _, d := range r.defs {
		v, ok := r.values[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-32s %14.6g %-6s %s\n", d.Name, v.Value, v.Unit, r.notes[d.Name])
	}
}

// quartiles returns the first quartile, median and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method), so
// the spreads printed here are the ones the acceptance rule is stated in.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// steady is the estimate an end-to-end metric reports from its samples: the
// first quartile. On the shared 2-core sizing box interference only ever adds
// time and memory (measured: per-pass medians spread 8-13 % between runs in a
// noisy phase, first quartiles 4-6 %), so the lower quartile is what repeats;
// the median and third quartile are printed beside it.
func steady(values []float64) float64 {
	q1, _, _ := quartiles(values)
	return q1
}

// provision is the estimate a peak-memory metric reports: the third
// quartile. Garbage-collector phase makes a pass's peak jump between a few
// discrete levels (an image-pool hit or miss right after a collection);
// the upper quartile sits on the upper level — what has to be provisioned —
// without following one freak pass the way the maximum does (measured spread
// between runs: first quartile 19 %, maximum 17 %, third quartile 5-7 %).
func provision(values []float64) float64 {
	_, _, q3 := quartiles(values)
	return q3
}

// spreadNote renders the median, third quartile and sample count beside a
// steady estimate in the human-readable report.
func spreadNote(values []float64) string {
	_, med, q3 := quartiles(values)
	return fmt.Sprintf("median %.6g  q3 %.6g  n=%d", med, q3, len(values))
}
