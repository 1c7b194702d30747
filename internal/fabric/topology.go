package fabric

import (
	"fmt"
	"strconv"
	"strings"

	"ecvslrc/internal/sim"
)

// Topology models the interconnect as a folded-Clos (fat-tree) hierarchy of
// switches. Processors are leaves; Radix consecutive leaves share a
// first-level switch, Radix first-level switches share a second-level
// switch, and so on. A message between processors i and j climbs to their
// lowest common switch level l and back down, paying l x WireLatency; under
// contention it occupies that level's subtree resource, whose bandwidth
// tapers with height.
//
// The calibrated 1996 flat ATM link is this model's one-stage case (radix
// and taper both covering the machine), which New installs and
// TestTopologySingleStageIdentity pins against the spec that spells it out.
// At 256-1024 processors a flat link is meaningless — every barrier would
// serialize the whole machine through one resource — so `-scale large`
// sweeps enable a multi-stage Clos via the `topo=` variant axis or `-topo`
// (ParseTopology).
type Topology struct {
	// Radix is the switch radix: leaves (or subtrees) per switch, >= 2.
	Radix int
	// Taper is the per-level bandwidth taper, in [1, Radix]: crossing level
	// l gives the message (Radix/Taper)^(l-1) times the single-link
	// bandwidth. Taper 1 models full bisection bandwidth (each level
	// aggregates its children's capacity); Taper == Radix degrades every
	// level to single-link speed — with a single stage that is exactly the
	// flat shared link.
	Taper float64
	// ForcedStages, when > 0, fixes the switch-level count instead of
	// deriving ceil(log_Radix nprocs). Levels above the derived need are
	// harmless (no pair reaches them); fewer levels cap the climb.
	ForcedStages int
}

// maxTopologyStages bounds ForcedStages: 16 levels of radix 2 already
// address 65,536 processors, far past the simulated machine.
const maxTopologyStages = 16

// Validate rejects degenerate switch geometries.
func (t Topology) Validate() error {
	if t.Radix < 2 {
		return fmt.Errorf("fabric: topology radix %d < 2", t.Radix)
	}
	if t.Taper < 1 || t.Taper > float64(t.Radix) {
		return fmt.Errorf("fabric: topology taper %g outside [1, radix=%d]", t.Taper, t.Radix)
	}
	if t.ForcedStages < 0 || t.ForcedStages > maxTopologyStages {
		return fmt.Errorf("fabric: topology stages %d outside [0, %d]", t.ForcedStages, maxTopologyStages)
	}
	return nil
}

// Stages returns the switch-level count for an nprocs-leaf machine.
func (t Topology) Stages(nprocs int) int {
	if t.ForcedStages > 0 {
		return t.ForcedStages
	}
	stages, span := 1, t.Radix
	for span < nprocs && stages < maxTopologyStages {
		stages++
		span *= t.Radix
	}
	return stages
}

// String renders the canonical spec form ParseTopology accepts.
func (t Topology) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "clos:radix=%d", t.Radix)
	if t.Taper != 1 {
		fmt.Fprintf(&b, ":taper=%g", t.Taper)
	}
	if t.ForcedStages > 0 {
		fmt.Fprintf(&b, ":stages=%d", t.ForcedStages)
	}
	return b.String()
}

// ParseTopology is the inverse of Topology.String, the grammar behind every
// `-topo` flag and the sweep's topo= axis. "flat" keeps the calibrated flat
// shared link and returns a nil topology; "clos:radix=K[:taper=T][:stages=N]"
// selects a folded-Clos switch fabric with switch radix K, per-level bandwidth
// taper T (default 1 = full bisection) and an optional forced stage count N
// (default derives ceil(log_K nprocs)). Key order is free; duplicate and
// unknown keys are rejected, and the geometry must pass Validate.
func ParseTopology(spec string) (*Topology, error) {
	if spec == "flat" {
		return nil, nil
	}
	parts := strings.Split(spec, ":")
	if parts[0] != "clos" {
		return nil, fmt.Errorf("fabric: topology %q is neither \"flat\" nor \"clos:radix=K[:taper=T][:stages=N]\"", spec)
	}
	t := &Topology{Taper: 1}
	seen := make(map[string]bool)
	for _, kv := range parts[1:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok || val == "" {
			return nil, fmt.Errorf("fabric: topology %q: %q is not key=value", spec, kv)
		}
		if seen[key] {
			return nil, fmt.Errorf("fabric: topology %q: key %q given twice", spec, key)
		}
		seen[key] = true
		var err error
		switch key {
		case "radix":
			if t.Radix, err = strconv.Atoi(val); err != nil {
				return nil, fmt.Errorf("fabric: topology %q: radix %q is not an integer", spec, val)
			}
		case "taper":
			if t.Taper, err = strconv.ParseFloat(val, 64); err != nil {
				return nil, fmt.Errorf("fabric: topology %q: taper %q is not a number", spec, val)
			}
		case "stages":
			if t.ForcedStages, err = strconv.Atoi(val); err != nil {
				return nil, fmt.Errorf("fabric: topology %q: stages %q is not an integer", spec, val)
			}
		default:
			return nil, fmt.Errorf("fabric: topology %q: unknown key %q (known: radix, taper, stages)", spec, key)
		}
	}
	if !seen["radix"] {
		return nil, fmt.Errorf("fabric: topology %q: radix is required", spec)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// topoState is the network's switch geometry: the per-(level, group)
// contention resources and the precomputed radix powers.
type topoState struct {
	pow    []int      // pow[l] = Radix^l, l in [0, stages]
	off    []int      // resource index offset of level l+1's groups
	free   []sim.Time // next-idle time per (level, group) resource
	speedr []float64  // per-level occupancy divisor (Radix/Taper)^(l-1)
}

// EnableTopology replaces the flat shared link with the folded-Clos model:
// message latency becomes level x WireLatency (level = lowest common switch
// of the endpoints) and, when contention is also enabled, each message
// serializes on its crossing level's subtree resource with tapered
// bandwidth. Must be called before the simulation starts. Topology composes
// with contention but not with fault plans: the reliable sublayer's
// retransmission timing is calibrated against the flat link.
func (n *Network) EnableTopology(t Topology) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if n.faults != nil {
		return fmt.Errorf("fabric: topology cannot be combined with a fault plan")
	}
	n.setGeometry(t)
	n.clos = true
	return nil
}

// setGeometry installs t's switch geometry, every resource idle, and
// declares the network's lookahead to the simulator: how soon, at the
// earliest, anything that happens at one instant can act on a processor
// other than through a flight already aimed at it. A new message costs its
// sender at least the programmed I/O of a bare header, then at least one
// level's WireLatency before it arrives — 353 µs on the paper's platform.
func (n *Network) setGeometry(t Topology) {
	nprocs := len(n.procs)
	stages := t.Stages(nprocs)
	ts := &topoState{pow: make([]int, stages+1)}
	ts.pow[0] = 1
	for l := 1; l <= stages; l++ {
		ts.pow[l] = ts.pow[l-1] * t.Radix
	}
	ts.off = make([]int, stages)
	ts.speedr = make([]float64, stages)
	resources := 0
	speed := 1.0
	for l := 1; l <= stages; l++ {
		ts.off[l-1] = resources
		resources += (nprocs + ts.pow[l] - 1) / ts.pow[l]
		ts.speedr[l-1] = speed
		speed *= float64(t.Radix) / t.Taper
	}
	ts.free = make([]sim.Time, resources)
	n.topo = ts
	n.sim.SetLookahead(n.cm.MsgCost(MsgHeader) + n.cm.WireLatency)
}

// level returns the lowest common switch level of two distinct processors.
func (ts *topoState) level(i, j int) int {
	l := 1
	for l < len(ts.pow)-1 && i/ts.pow[l] != j/ts.pow[l] {
		l++
	}
	return l
}

// wireLatency is the end-to-end switch traversal time between two endpoints:
// one WireLatency per level up to their lowest common switch and back down.
func (n *Network) wireLatency(from, to int) sim.Time {
	return sim.Time(n.topo.level(from, to)) * n.cm.WireLatency
}

// claimTopo occupies the (level, group) resource a message crosses, in
// virtual-time claim order, and returns the time its transfer completes.
// Higher levels divide the per-byte occupancy by the level's aggregate
// speedup, so full-bisection fabrics (Taper 1) never bottleneck on height.
func (n *Network) claimTopo(start sim.Time, from, to, totalBytes int) sim.Time {
	ts := n.topo
	l := ts.level(from, to)
	idx := ts.off[l-1] + from/ts.pow[l]
	if ts.free[idx] > start {
		n.linkWait += ts.free[idx] - start
		n.tr.LinkWait(start, from, ts.free[idx]-start)
		start = ts.free[idx]
	}
	occ := sim.Time(float64(totalBytes) * float64(n.cm.LinkPerByte) / ts.speedr[l-1])
	ts.free[idx] = start + occ
	return ts.free[idx]
}
