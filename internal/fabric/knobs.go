package fabric

import (
	"math"

	"ecvslrc/internal/sim"
)

// The knobs below are the sensitivity axes of the EC-vs-LRC comparison: the
// paper's verdict depends on platform constants (messaging software, wire
// bandwidth, write-detection cost, diff hardware), and each knob moves one
// group of constants while leaving the rest calibrated. They compose: each
// returns a modified copy, so cm.ScaleNetwork(4).HardwareWriteDetection() is
// a valid variant. The names these compose under — cost presets, "+knob"
// specs, sweep axes — belong to internal/platform, which this package cannot
// import. See EXPERIMENTS.md for the calibration and the axes.

// scaled divides t by k, rounding to the nearest simulated nanosecond.
func scaled(t sim.Time, k float64) sim.Time {
	return sim.Time(math.Round(float64(t) / k))
}

// ScaleNetwork returns a copy with the whole messaging path k times faster:
// fixed send/handler software, per-byte programmed I/O and wire share,
// switch+interrupt latency, and the shared-link occupancy. k=1 is identity;
// k>1 models a faster interconnect (e.g. k=10 approximates gigabit-class
// networking relative to the paper's 100 Mbps ATM).
func (cm CostModel) ScaleNetwork(k float64) CostModel {
	cm.SendFixed = scaled(cm.SendFixed, k)
	cm.SendPerByte = scaled(cm.SendPerByte, k)
	cm.WireLatency = scaled(cm.WireLatency, k)
	cm.HandlerFixed = scaled(cm.HandlerFixed, k)
	cm.LinkPerByte = scaled(cm.LinkPerByte, k)
	return cm
}

// ScaleCPU returns a copy with the memory-management software k times
// faster: protection faults, mprotect, store instrumentation, and the
// per-word twin/compare/scan/apply costs. The messaging path is untouched
// (use ScaleNetwork for it), so CPU and network speed are independent axes.
func (cm CostModel) ScaleCPU(k float64) CostModel {
	cm.ProtFault = scaled(cm.ProtFault, k)
	cm.MProtect = scaled(cm.MProtect, k)
	cm.InstrStore = scaled(cm.InstrStore, k)
	cm.InstrStoreOpt = scaled(cm.InstrStoreOpt, k)
	cm.WordCopy = scaled(cm.WordCopy, k)
	cm.WordCompare = scaled(cm.WordCompare, k)
	cm.WordScan = scaled(cm.WordScan, k)
	cm.WordApply = scaled(cm.WordApply, k)
	return cm
}

// HardwareWriteDetection returns a copy in which write trapping is free, as
// if the memory system maintained per-block dirty bits in hardware: no store
// instrumentation, no protection faults, no mprotect transitions. Collection
// costs (twinning, comparing, scanning) are untouched; combine with
// ZeroCostDiff to model a full hardware diff engine.
func (cm CostModel) HardwareWriteDetection() CostModel {
	cm.InstrStore = 0
	cm.InstrStoreOpt = 0
	cm.ProtFault = 0
	cm.MProtect = 0
	return cm
}

// ZeroCostDiff returns a copy in which write collection is free, as if twin
// creation, word comparison, timestamp scanning and data application were
// performed by hardware (or hidden behind the memory system): the protocols
// still move the same messages and bytes, but pay no per-word CPU time.
func (cm CostModel) ZeroCostDiff() CostModel {
	cm.WordCopy = 0
	cm.WordCompare = 0
	cm.WordScan = 0
	cm.WordApply = 0
	return cm
}
