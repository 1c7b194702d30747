package sweep

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"ecvslrc/internal/fabric"

	// The platform axis resolves values through the fabric preset table; the
	// blank import guarantees the model library (decstation_atm, cluster_gbe,
	// rdma_100g, grace, ...) is registered whenever the sweep engine is
	// linked, so "platform=rdma_100g" parses the same in every binary.
	_ "ecvslrc/internal/platform/models"
)

// ErrSpec is wrapped by every variant-spec parse failure.
var ErrSpec = errors.New("invalid variant spec")

// axis is one sensitivity dimension of the cost model. Axes apply in a fixed
// order, so a variant's cost model (and canonical name) does not depend on
// the order the user wrote the spec in.
type axis struct {
	name    string
	def     string // default value, elided from variant names
	values  []string
	apply   func(cm fabric.CostModel, val float64) fabric.CostModel
	numeric bool                         // values are scale factors like "x2" (or bare "2")
	canon   func(string) (string, error) // custom validation/canonicalization (topo specs)
}

func axes() []axis {
	return []axis{
		// The platform axis is first: it selects the starting cost model (any
		// fabric preset — registered platform models included) that the knob
		// axes below then transform. buildVariant resolves it directly.
		{name: "platform", def: BaselineName, apply: nil, canon: canonPlatformSpec},
		{name: "net", def: "x1", numeric: true,
			apply: func(cm fabric.CostModel, k float64) fabric.CostModel { return cm.ScaleNetwork(k) }},
		{name: "cpu", def: "x1", numeric: true,
			apply: func(cm fabric.CostModel, k float64) fabric.CostModel { return cm.ScaleCPU(k) }},
		{name: "detect", def: "sw", values: []string{"sw", "hw"},
			apply: func(cm fabric.CostModel, _ float64) fabric.CostModel { return cm.HardwareWriteDetection() }},
		{name: "diff", def: "sw", values: []string{"sw", "free"},
			apply: func(cm fabric.CostModel, _ float64) fabric.CostModel { return cm.ZeroCostDiff() }},
		{name: "contention", def: "off", values: []string{"off", "on"}, apply: nil},
		// Fault plans are not cost-model transforms; buildVariant resolves
		// the preset into Variant.Faults directly.
		{name: "fault", def: "off", values: fabric.FaultPresetNames(), apply: nil},
		// Switch topologies are not cost-model transforms either;
		// buildVariant resolves the spec into Variant.Topology directly.
		{name: "topo", def: "flat", apply: nil, canon: canonTopologySpec},
	}
}

// canonPlatformSpec validates a platform= axis value against the fabric
// preset table (which names the valid set on failure). Preset names are
// already canonical.
func canonPlatformSpec(v string) (string, error) {
	if _, err := fabric.PresetByName(v); err != nil {
		return "", fmt.Errorf("sweep: %w: axis \"platform\": %v", ErrSpec, err)
	}
	return v, nil
}

// canonTopologySpec validates a topo= axis value and returns the canonical
// spelling rendered by fabric.Topology.String (defaults elided, fixed key
// order), so "clos:taper=1:radix=8" and "clos:radix=8" name the same variant.
func canonTopologySpec(v string) (string, error) {
	t, err := ParseTopologySpec(v)
	if err != nil {
		return "", err
	}
	if t == nil {
		return "flat", nil
	}
	return t.String(), nil
}

// ParseVariantSpec expands a sensitivity spec into the cross product of its
// axes, e.g. "net=x2,x4 detect=sw,hw" yields four variants. Syntax: space-
// separated axes, each "name=v1,v2,...". Axes:
//
//	platform=NAME cost-model starting point: any fabric preset, including
//	      the registered platform models (decstation_atm, cluster_gbe,
//	      rdma_100g, grace — see internal/platform). The knob axes below
//	      apply on top, so "platform=rdma_100g net=x2" is the RDMA platform
//	      with its messaging path doubled. Default: paper.
//	net=xK        messaging path K times faster (ScaleNetwork)
//	cpu=xK        memory-management software K times faster (ScaleCPU)
//	detect=sw|hw  software write trapping vs free hardware dirty bits
//	diff=sw|free  software write collection vs a free hardware diff engine
//	contention=off|on  shared-link occupancy modeling in the fabric
//	fault=off|drop1e-3|drop1e-2|chaos  seeded fault-plan preset injected
//	      into the fabric (fabric.FaultPreset); recovery runs on the
//	      reliable sublayer and its cost lands in the cell's virtual time
//	topo=flat|clos:radix=K[:taper=T][:stages=N]  interconnect model: the
//	      calibrated flat link or a folded-Clos switch fabric
//	      (ParseTopologySpec); mutually exclusive with fault presets
//
// Unspecified axes stay at their defaults (x1, sw, off). The all-default
// combination is named "paper"; other variants are named by their non-default
// settings, e.g. "net=x2+detect=hw". The baseline always comes first:
// prepended when the spec does not produce it, moved to the front when the
// cross product yields it elsewhere — so reports and Sweep callers can read
// the leading records as their comparison point. An empty spec yields just
// the baseline. Errors wrap ErrSpec.
func ParseVariantSpec(spec string) ([]Variant, error) {
	defs := axes()
	chosen := make([][]string, len(defs))
	for i, ax := range defs {
		chosen[i] = []string{ax.def}
	}
	byName := make(map[string]int, len(defs))
	for i, ax := range defs {
		byName[ax.name] = i
	}
	seen := make(map[string]bool)
	for _, field := range strings.Fields(spec) {
		name, vals, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("sweep: %w: %q is not axis=v1,v2,...", ErrSpec, field)
		}
		i, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("sweep: %w: unknown axis %q (known: %s)", ErrSpec, name, axisNames(defs))
		}
		if seen[name] {
			return nil, fmt.Errorf("sweep: %w: axis %q specified twice", ErrSpec, name)
		}
		seen[name] = true
		var list []string
		dup := make(map[string]bool)
		for _, v := range strings.Split(vals, ",") {
			v = strings.TrimSpace(v)
			if v == "" {
				continue
			}
			canon, err := defs[i].canonical(v)
			if err != nil {
				return nil, err
			}
			if dup[canon] {
				continue
			}
			dup[canon] = true
			list = append(list, canon)
		}
		if len(list) == 0 {
			return nil, fmt.Errorf("sweep: %w: axis %q lists no values", ErrSpec, name)
		}
		chosen[i] = list
	}

	var out []Variant
	counts := make([]int, len(defs))
	for {
		v := buildVariant(defs, chosen, counts)
		if v.Faults != nil && v.Topology != nil {
			// The reliable sublayer's retransmission timing is calibrated
			// against the flat link (fabric.EnableTopology rejects the
			// combination), so refuse the cross product up front instead of
			// failing cell by cell.
			return nil, fmt.Errorf("sweep: %w: fault=%s cannot combine with topo=%s; sweep them separately",
				ErrSpec, v.Fault, v.Topo)
		}
		out = append(out, v)
		// Odometer increment over the per-axis value lists.
		i := len(defs) - 1
		for ; i >= 0; i-- {
			counts[i]++
			if counts[i] < len(chosen[i]) {
				break
			}
			counts[i] = 0
		}
		if i < 0 {
			break
		}
	}
	for i, v := range out {
		if v.Name == BaselineName {
			// The baseline leads regardless of where the cross product put
			// it (e.g. "net=x4,x1"): reports and callers read the first
			// records as the comparison point.
			copy(out[1:i+1], out[:i])
			out[0] = v
			return out, nil
		}
	}
	return append([]Variant{Baseline()}, out...), nil
}

// canonical validates one axis value and returns its canonical spelling
// ("2" becomes "x2"; enumerated values must match exactly).
func (ax axis) canonical(v string) (string, error) {
	if ax.canon != nil {
		return ax.canon(v)
	}
	if ax.numeric {
		k, err := ax.factor(v)
		if err != nil {
			return "", err
		}
		return "x" + strconv.FormatFloat(k, 'g', -1, 64), nil
	}
	for _, known := range ax.values {
		if v == known {
			return v, nil
		}
	}
	return "", fmt.Errorf("sweep: %w: axis %q: value %q (want one of %s)",
		ErrSpec, ax.name, v, strings.Join(ax.values, "|"))
}

// factor parses a scale value like "x2", "x2.5" or bare "4".
func (ax axis) factor(v string) (float64, error) {
	s := strings.TrimPrefix(v, "x")
	k, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("sweep: %w: axis %q: value %q: %v", ErrSpec, ax.name, v, err)
	}
	if k <= 0 {
		return 0, fmt.Errorf("sweep: %w: axis %q: scale %q must be > 0", ErrSpec, ax.name, v)
	}
	return k, nil
}

// buildVariant assembles the variant selected by counts: the cost model with
// every non-default axis applied in axis order, named by those settings.
func buildVariant(defs []axis, chosen [][]string, counts []int) Variant {
	v := Variant{Cost: fabric.DefaultCostModel()}
	var parts []string
	for i, ax := range defs {
		val := chosen[i][counts[i]]
		if val == ax.def {
			continue
		}
		parts = append(parts, ax.name+"="+val)
		if ax.name == "platform" {
			v.Cost, _ = fabric.PresetByName(val) // val validated by canonical
			continue
		}
		if ax.name == "contention" {
			v.Contention = true
			continue
		}
		if ax.name == "fault" {
			v.Fault = val
			v.Faults, _ = fabric.FaultPreset(val) // val validated by canonical
			continue
		}
		if ax.name == "topo" {
			v.Topo = val
			v.Topology, _ = ParseTopologySpec(val) // val validated by canonical
			continue
		}
		var k float64
		if ax.numeric {
			k, _ = ax.factor(val) // already validated by canonical
		}
		v.Cost = ax.apply(v.Cost, k)
	}
	if len(parts) == 0 {
		v.Name = BaselineName
	} else {
		v.Name = strings.Join(parts, "+")
	}
	return v
}

func axisNames(defs []axis) string {
	var names []string
	for _, ax := range defs {
		names = append(names, ax.name)
	}
	return strings.Join(names, ", ")
}
