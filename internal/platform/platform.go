// Package platform is the machine-model library behind the cost presets: a
// Model owns the primitive parameters of one hardware platform (clock rate,
// messaging software path lengths, wire bandwidth, switch latency, syscall
// costs, per-word software bandwidth) in the units its spec sheet publishes,
// and derives every fabric.CostModel constant from them with documented
// formulas. Each model validates itself — Validate recomputes observable
// quantities (small-message round trip, bulk bandwidth, barrier and
// page-fetch estimates) and reports the relative error against published or
// measured reference numbers — and can run a least-squares system-
// identification pass (Fit) that solves for bounded correction terms from
// reference timings, the way the in-core processor-modeling literature
// calibrates machine models.
//
// The package also owns the one table of cost names (Presets): the paper
// platform, the historical knob presets as aliases into Resolve's grammar,
// and every registered model (Register) — so `dsmrun -preset rdma_100g` and
// the sweep engine's `platform=` axis resolve them by name; Resolve composes
// a name with the sensitivity knobs ("rdma_100g+net=x2"). The shipped model library lives in
// internal/platform/models, one directory per platform with an append-only
// CHANGELOG.md; importing that package populates the registry.
package platform

import (
	"fmt"
	"math"

	"ecvslrc/internal/fabric"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/sim"
)

// Primitives are the published platform constants a model is built from.
// Every field is in the unit its source material uses (instruction counts,
// MHz, Gbit/s, µs), so a model file reads like the spec sheets and papers it
// cites; Derive converts them into the simulator's nanosecond cost constants.
type Primitives struct {
	// CPUMHz is the core clock in MHz.
	CPUMHz float64
	// IPC is the sustained instructions per cycle on the DSM software paths
	// (protocol code, not peak vector issue width).
	IPC float64

	// SendInstrs is the instruction count of the message-send software path:
	// system call or doorbell, protocol framing, transmit setup.
	SendInstrs float64
	// HandlerInstrs is the instruction count to field an incoming message:
	// interrupt or completion-queue poll, reassembly, handler dispatch.
	HandlerInstrs float64
	// NICPerByteNs is the per-byte CPU cost in ns of moving payload into the
	// NIC (programmed I/O or a bounce-buffer copy); 0 models zero-copy DMA.
	NICPerByteNs float64
	// WireGbps is the raw link bandwidth in Gbit/s.
	WireGbps float64
	// SwitchDelayUs is the switch traversal plus delivery-notification
	// latency in µs, from the end of the send to the start of the handler.
	SwitchDelayUs float64

	// FaultInstrs is the instruction count of a protection fault: trap
	// delivery, signal-handler entry and resumption.
	FaultInstrs float64
	// MProtectInstrs is the instruction count of one single-page mprotect.
	MProtectInstrs float64

	// StoreCycles is the cycle cost per instrumented store (the software
	// dirty-bit code); StoreOptCycles is the same after the Section 4.1
	// loop-splitting optimization.
	StoreCycles    float64
	StoreOptCycles float64

	// CopyCycles, CompareCycles, ScanCycles and ApplyCycles are the in-core
	// per-word cycle costs of twin creation, twin comparison, timestamp or
	// dirty-bit scanning, and applying received data. Derive takes the
	// ECM-style maximum of this in-core term and the memory-bandwidth term
	// (bytes touched per word / MemGBps), so bandwidth-starved platforms are
	// memory-bound and modern cores are instruction-bound.
	CopyCycles    float64
	CompareCycles float64
	ScanCycles    float64
	ApplyCycles   float64
	// MemGBps is the sustained memory bandwidth in GB/s feeding the per-word
	// bound above; 0 disables the bandwidth term (the in-core cycle counts
	// are then taken as already calibrated).
	MemGBps float64
}

// Corrections are bounded multiplicative correction terms applied to groups
// of derived constants — the system-identification residue that absorbs what
// the primitives do not capture (cache effects on the send path, protocol
// overheads, timer granularity). The zero value means "no correction"
// (every factor 1); Fit solves for them from reference timings and clamps
// each factor to [CorrMin, CorrMax].
type Corrections struct {
	// MsgFixed scales the fixed messaging software (SendFixed, HandlerFixed).
	MsgFixed float64
	// PerByte scales the per-byte path (SendPerByte, LinkPerByte).
	PerByte float64
	// Latency scales the switch+notification latency (WireLatency).
	Latency float64
	// MemMgmt scales the memory-management software (ProtFault, MProtect,
	// InstrStore, InstrStoreOpt).
	MemMgmt float64
	// PerWord scales the per-word collection costs (WordCopy, WordCompare,
	// WordScan, WordApply).
	PerWord float64
}

// Correction-factor bounds enforced by Fit: a correction outside this range
// means the primitives are wrong, not in need of a trim.
const (
	CorrMin = 0.25
	CorrMax = 4.0
)

// normalized maps the zero value to the identity correction.
func (c Corrections) normalized() Corrections {
	one := func(f float64) float64 {
		if f == 0 {
			return 1
		}
		return f
	}
	return Corrections{
		MsgFixed: one(c.MsgFixed),
		PerByte:  one(c.PerByte),
		Latency:  one(c.Latency),
		MemMgmt:  one(c.MemMgmt),
		PerWord:  one(c.PerWord),
	}
}

// Reference is one published or measured quantity a model is validated (and
// optionally fitted) against: a derived prediction computed from the cost
// model, the reference value, and the relative error the model claims to
// stay within.
type Reference struct {
	Name string
	// Want is the reference value in Unit; Source says where it comes from.
	Want   float64
	Unit   string
	Source string
	// Tol is the model's stated calibration error for this quantity: Validate
	// fails the check when the relative error exceeds it.
	Tol float64
	// Quantity computes the model's prediction from the derived constants.
	Quantity func(fabric.CostModel) float64
}

// Check is the outcome of validating one Reference.
type Check struct {
	Name   string
	Unit   string
	Got    float64
	Want   float64
	RelErr float64
	Tol    float64
	Source string
}

// Pass reports whether the check stayed within its stated calibration error.
func (c Check) Pass() bool { return c.RelErr <= c.Tol }

// Model is one platform: metadata for the status table, the primitive
// parameters, the fitted correction terms, and the reference quantities it
// validates against.
type Model struct {
	// Name is the preset name ("decstation_atm"); Desc the one-line summary.
	Name string
	Desc string
	// Priority ranks the model in the status table (P0 highest).
	Priority string
	P        Primitives
	C        Corrections
	Refs     []Reference
}

// round converts a float nanosecond quantity to the nearest simulated
// nanosecond — the simulator's resolution. Sub-nanosecond costs quantize
// (possibly to zero); models whose per-byte or per-word primitives fall
// below 0.5 ns must document the resulting calibration error.
func round(ns float64) sim.Time { return sim.Time(math.Round(ns)) }

// Derive computes the full cost model from the primitives, with the
// correction terms applied before nanosecond rounding. The formulas:
//
//	instr       = 1000 / (CPUMHz * IPC)                ns per instruction
//	cycle       = 1000 / CPUMHz                        ns per cycle
//	wire        = 8 / WireGbps                         ns per byte
//	SendFixed   = SendInstrs * instr                   * MsgFixed
//	SendPerByte = (NICPerByteNs + wire)                * PerByte
//	WireLatency = SwitchDelayUs * 1000                 * Latency
//	HandlerFixed= HandlerInstrs * instr                * MsgFixed
//	ProtFault   = FaultInstrs * instr                  * MemMgmt
//	MProtect    = MProtectInstrs * instr               * MemMgmt
//	InstrStore  = StoreCycles * cycle                  * MemMgmt   (Opt likewise)
//	Word*       = max(Cycles * cycle, bytes/MemGBps)   * PerWord
//	LinkPerByte = wire                                 * PerByte
//
// where the per-word bandwidth term touches 2 words of memory for copy,
// compare and apply (data + twin, or read + write) and 1 for scan. Derive is
// pure: the same model always yields the same constants.
func (m Model) Derive() fabric.CostModel {
	p, c := m.P, m.C.normalized()
	instr := 1000 / (p.CPUMHz * p.IPC)
	cycle := 1000 / p.CPUMHz
	wire := 8 / p.WireGbps
	word := func(cycles, bytes float64) sim.Time {
		t := cycles * cycle
		if p.MemGBps > 0 {
			if bw := bytes / p.MemGBps; bw > t {
				t = bw
			}
		}
		return round(t * c.PerWord)
	}
	return fabric.CostModel{
		SendFixed:     round(p.SendInstrs * instr * c.MsgFixed),
		SendPerByte:   round((p.NICPerByteNs + wire) * c.PerByte),
		WireLatency:   round(p.SwitchDelayUs * 1000 * c.Latency),
		HandlerFixed:  round(p.HandlerInstrs * instr * c.MsgFixed),
		ProtFault:     round(p.FaultInstrs * instr * c.MemMgmt),
		MProtect:      round(p.MProtectInstrs * instr * c.MemMgmt),
		InstrStore:    round(p.StoreCycles * cycle * c.MemMgmt),
		InstrStoreOpt: round(p.StoreOptCycles * cycle * c.MemMgmt),
		WordCopy:      word(p.CopyCycles, 2*mem.WordSize),
		WordCompare:   word(p.CompareCycles, 2*mem.WordSize),
		WordScan:      word(p.ScanCycles, mem.WordSize),
		WordApply:     word(p.ApplyCycles, 2*mem.WordSize),
		LinkPerByte:   round(wire * c.PerByte),
	}
}

// Validate recomputes every reference quantity from the derived constants
// and reports the per-check relative error against the reference value. A
// model is calibrated when every check passes its stated tolerance; MaxErr
// summarizes the table for the status line.
func (m Model) Validate() []Check {
	cm := m.Derive()
	out := make([]Check, 0, len(m.Refs))
	for _, r := range m.Refs {
		got := r.Quantity(cm)
		out = append(out, Check{
			Name: r.Name, Unit: r.Unit, Got: got, Want: r.Want,
			RelErr: relErr(got, r.Want), Tol: r.Tol, Source: r.Source,
		})
	}
	return out
}

// relErr is |got-want|/|want|, degrading to |got| when the reference is zero
// (checks that pin a constant at exactly zero).
func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// MaxErr returns the largest relative error in a validation table — the
// model's calibration error as recorded in the status table.
func MaxErr(checks []Check) float64 {
	var max float64
	for _, c := range checks {
		if c.RelErr > max {
			max = c.RelErr
		}
	}
	return max
}

// Status summarizes a validation table for the status line: "validated" when
// every check passes its stated tolerance, "failing" otherwise.
func Status(checks []Check) string {
	for _, c := range checks {
		if !c.Pass() {
			return "failing"
		}
	}
	return "validated"
}

// The derived observable quantities models validate against. Message sizes
// are on-the-wire bytes including the fabric.MsgHeader framing; the helpers
// mirror how the simulator charges the corresponding operations.

// OneWayUs is the one-way latency in µs of a message of size bytes: sender
// software and per-byte cost, switch traversal, receiver handler entry.
func OneWayUs(cm fabric.CostModel, size int) float64 {
	return (cm.MsgCost(size) + cm.WireLatency + cm.HandlerFixed).Micros()
}

// RTTUs is the small-message round trip in µs (request and reply, header
// only) — the remote-lock-acquisition shape.
func RTTUs(cm fabric.CostModel) float64 {
	return 2 * OneWayUs(cm, fabric.MsgHeader)
}

// BarrierUs estimates an nprocs flat barrier in µs: the last arrival's
// round trip plus the manager serially fielding the other arrivals.
func BarrierUs(cm fabric.CostModel, nprocs int) float64 {
	return RTTUs(cm) + float64(nprocs-1)*cm.HandlerFixed.Micros()
}

// PageFetchUs is a remote page fetch in µs: a header-only request one way, a
// full-page reply back.
func PageFetchUs(cm fabric.CostModel) float64 {
	return OneWayUs(cm, fabric.MsgHeader) + OneWayUs(cm, fabric.MsgHeader+mem.PageSize)
}

// BulkMBps is the effective bulk-transfer bandwidth in MB/s implied by the
// per-byte send cost. It is +Inf when the per-byte cost quantized to zero
// (wire bandwidth beyond the 1 ns/byte simulator resolution); such models
// validate their page-fetch estimate instead.
func BulkMBps(cm fabric.CostModel) float64 {
	if cm.SendPerByte == 0 {
		return math.Inf(1)
	}
	return 1000 / float64(cm.SendPerByte)
}

// PageCopyUs is the cost in µs of twinning one full page word by word.
func PageCopyUs(cm fabric.CostModel) float64 {
	return (sim.Time(mem.PageWords) * cm.WordCopy).Micros()
}

// PageCompareUs is the cost in µs of diffing one full page against its twin.
func PageCompareUs(cm fabric.CostModel) float64 {
	return (sim.Time(mem.PageWords) * cm.WordCompare).Micros()
}

// ProtFaultUs is the protection-fault cost in µs.
func ProtFaultUs(cm fabric.CostModel) float64 { return cm.ProtFault.Micros() }

// validate reports whether the model definition itself is usable.
func (m Model) validate() error {
	if m.Name == "" {
		return fmt.Errorf("platform: model with empty name")
	}
	p := m.P
	switch {
	case p.CPUMHz <= 0 || p.IPC <= 0:
		return fmt.Errorf("platform: model %q: CPU clock and IPC must be positive", m.Name)
	case p.WireGbps <= 0:
		return fmt.Errorf("platform: model %q: wire bandwidth must be positive", m.Name)
	case p.SendInstrs < 0 || p.HandlerInstrs < 0 || p.NICPerByteNs < 0 ||
		p.SwitchDelayUs < 0 || p.FaultInstrs < 0 || p.MProtectInstrs < 0 ||
		p.StoreCycles < 0 || p.StoreOptCycles < 0 || p.CopyCycles < 0 ||
		p.CompareCycles < 0 || p.ScanCycles < 0 || p.ApplyCycles < 0 || p.MemGBps < 0:
		return fmt.Errorf("platform: model %q: negative primitive", m.Name)
	}
	c := m.C.normalized()
	for _, f := range []float64{c.MsgFixed, c.PerByte, c.Latency, c.MemMgmt, c.PerWord} {
		if f < CorrMin || f > CorrMax {
			return fmt.Errorf("platform: model %q: correction %g outside [%g, %g]",
				m.Name, f, CorrMin, CorrMax)
		}
	}
	return nil
}
