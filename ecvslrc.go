// Package ecvslrc reproduces "A Comparison of Entry Consistency and Lazy
// Release Consistency Implementations" (Adve, Cox, Dwarkadas, Rajamony,
// Zwaenepoel — HPCA 1996) as a deterministic simulation of the paper's
// software-DSM systems: entry consistency (Midway-style) and lazy release
// consistency (TreadMarks-style), with both write-trapping mechanisms
// (compiler instrumentation, twinning) and both write-collection mechanisms
// (timestamps, diffs), plus the paper's application suite.
//
// This top-level package is the convenience surface: run a named application
// under a named implementation and regenerate the paper's tables. The full
// programming interface (core.DSM, the simulator, the protocols) lives in
// the internal packages; see DESIGN.md for the map.
package ecvslrc

import (
	"fmt"
	"io"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/harness"
	"ecvslrc/internal/platform"
	"ecvslrc/internal/run"
	"ecvslrc/internal/sim"
	"ecvslrc/internal/sweep"
	"ecvslrc/internal/trace"
)

// Scale names a problem-size preset.
type Scale = apps.Scale

// Problem-size presets.
const (
	Test  = apps.Test
	Bench = apps.Bench
	Paper = apps.Paper
)

// Stats is the per-run measurement set (execution time, messages, data
// moved, faults, lock and barrier counts).
type Stats = core.Stats

// CostModel collects the platform constants of a run; see
// fabric.DefaultCostModel for the calibrated paper platform and the
// ScaleNetwork/ScaleCPU/HardwareWriteDetection/ZeroCostDiff knobs for
// sensitivity variants.
type CostModel = fabric.CostModel

// CostPreset is a named, documented cost-model variant.
type CostPreset = platform.Preset

// SweepRecord is one cell of a sensitivity sweep: full run statistics plus
// variant metadata and speedup against the sequential reference.
type SweepRecord = sweep.Record

// DefaultCost returns the calibrated paper-platform cost model.
func DefaultCost() CostModel { return fabric.DefaultCostModel() }

// CostPresets lists the named cost models, the calibrated platform first:
// the aliases of knob-composed sensitivity specs, then the registered
// platform models (internal/platform) — validated machine models whose
// constants derive from published numbers.
func CostPresets() []CostPreset { return platform.Presets() }

// ResolveCost turns a cost spec into a cost model: a preset name (any
// CostPresets entry, platform models included) optionally followed by
// "+"-separated knob settings, e.g. "rdma_100g" or "cluster_gbe+net=x2".
// This is the same resolver behind every CLI's -preset flag (dsmrun,
// dsmsweep, dsmbench, dsmtrace), so specs are portable between the API and
// the tools. See platform.Resolve for the grammar.
func ResolveCost(spec string) (CostModel, error) { return platform.Resolve(spec) }

// Apps lists the application suite in the paper's table order.
func Apps() []string { return apps.Names() }

// Impls lists the implementation names of Table 1: EC-ci, EC-time, EC-diff,
// LRC-ci, LRC-time, LRC-diff.
func Impls() []string { return core.ImplNames() }

// Run executes one application under one implementation on nprocs simulated
// processors and returns the aggregated statistics. The run verifies its
// own result against the application's sequential reference.
func Run(app, impl string, nprocs int, scale Scale) (Stats, error) {
	return RunCost(app, impl, nprocs, scale, fabric.DefaultCostModel(), false)
}

// RunCost is Run under an explicit cost model, optionally with shared-link
// contention — the single-cell form of a sensitivity sweep. It runs the cell
// the way every front end does (harness.RunCell), so its statistics equal
// dsmrun's and dsmsweep's for the same cell.
func RunCost(app, impl string, nprocs int, scale Scale, cost CostModel, contention bool) (Stats, error) {
	i, err := core.ParseImpl(impl)
	if err != nil {
		return Stats{}, err
	}
	row := harness.RunCell(cellConfig(scale, nprocs, cost, contention), app, i)
	return row.Stats, row.Err
}

// cellConfig describes the root API's cells.
func cellConfig(scale Scale, nprocs int, cost CostModel, contention bool) harness.Config {
	return harness.Config{Scale: scale, NProcs: nprocs, Cost: cost, Machine: run.Machine{Contention: contention}}
}

// Sweep runs the full implementation matrix of the named applications (all
// of them when none are given) under the cost variants of spec — e.g.
// "net=x2,x4 detect=sw,hw"; see sweep.ParseVariantSpec for the axes — and
// returns one record per cell in deterministic grid order, baseline variant
// first.
func Sweep(spec string, scale Scale, nprocs int, appNames ...string) ([]SweepRecord, error) {
	vs, err := sweep.ParseVariantSpec(spec)
	if err != nil {
		return nil, err
	}
	return sweep.Run(sweep.Grid{
		Scale:    scale,
		Apps:     appNames,
		NProcs:   []int{nprocs},
		Variants: vs,
	})
}

// TraceAnalysis is the attribution summary of one traced run: per-page heat
// and sharing patterns, per-lock contention, barrier imbalance and the
// message-class timeline. See trace.Analyze for the derivation.
type TraceAnalysis = trace.Analysis

// TraceRun is the outcome of one traced run: the ordinary statistics (bit-
// identical to an untraced run), the raw event tracer and its analysis.
type TraceRun struct {
	Stats    Stats
	Tracer   *trace.Tracer
	Analysis *TraceAnalysis
}

// WriteSummary renders the markdown attribution summary.
func (t *TraceRun) WriteSummary(w io.Writer) error { return trace.WriteMarkdown(w, t.Analysis) }

// WriteTimeline renders the Chrome trace-event JSON timeline.
func (t *TraceRun) WriteTimeline(w io.Writer) error {
	return trace.WriteChromeTrace(w, t.Tracer, t.Analysis.Meta)
}

// Trace executes one application under one implementation with event tracing
// enabled and returns the statistics together with the attribution analysis.
// Tracing is observation-only: Stats matches what Run would report.
func Trace(app, impl string, nprocs int, scale Scale) (*TraceRun, error) {
	return TraceCost(app, impl, nprocs, scale, fabric.DefaultCostModel(), false)
}

// TraceCost is Trace under an explicit cost model, optionally with
// shared-link contention (whose queueing delays then appear in the analysis).
func TraceCost(app, impl string, nprocs int, scale Scale, cost CostModel, contention bool) (*TraceRun, error) {
	i, err := core.ParseImpl(impl)
	if err != nil {
		return nil, err
	}
	row, meta := harness.RunTraced(cellConfig(scale, nprocs, cost, contention), app, i, false)
	if row.Err != nil {
		return nil, row.Err
	}
	return &TraceRun{Stats: row.Stats, Tracer: row.Trace, Analysis: trace.Analyze(row.Trace, meta)}, nil
}

// RunSeq executes the sequential reference of an application and returns
// its simulated time — the paper's "1 proc." column.
func RunSeq(app string, scale Scale) (sim.Time, error) {
	return harness.RunSeq(harness.Config{Scale: scale}, app)
}

// Table3 regenerates the paper's headline table (best EC vs best LRC per
// application; the whole suite when no application is named) as formatted
// text.
func Table3(scale Scale, nprocs int, appNames ...string) (string, error) {
	return sweep.Report(cellConfig(scale, nprocs, fabric.DefaultCostModel(), false), appNames, sweep.Table3)
}

// Table45 regenerates Table 4 (model "EC") or Table 5 (model "LRC").
func Table45(model string, scale Scale, nprocs int, appNames ...string) (string, error) {
	var table sweep.Block
	switch model {
	case "EC":
		table = sweep.Table4
	case "LRC":
		table = sweep.Table5
	default:
		return "", fmt.Errorf("ecvslrc: %w: unknown model %q (valid: EC, LRC)", harness.ErrConfig, model)
	}
	return sweep.Report(cellConfig(scale, nprocs, fabric.DefaultCostModel(), false), appNames, table)
}
