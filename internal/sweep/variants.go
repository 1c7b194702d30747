package sweep

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"ecvslrc/internal/fabric"
	"ecvslrc/internal/platform"
	"ecvslrc/internal/run"

	// The platform axis resolves values through platform's cost-name table;
	// the blank import guarantees the model library (decstation_atm, cluster_gbe,
	// rdma_100g, grace, ...) is registered whenever the sweep engine is
	// linked, so "platform=rdma_100g" parses the same in every binary.
	_ "ecvslrc/internal/platform/models"
)

// ErrSpec is wrapped by every variant-spec parse failure.
var ErrSpec = errors.New("invalid variant spec")

// axis is one sensitivity dimension of a sweep. Axes apply in a fixed order,
// so a variant's cost model (and canonical name) does not depend on the
// order the user wrote the spec in.
type axis struct {
	name   string
	def    string   // default value, elided from variant names
	values []string // the accepted values of an enumerated axis
	// canon validates one value and returns its canonical spelling; nil for
	// an enumerated axis, whose values must match exactly.
	canon func(string) (string, error)
	// set applies a non-default (canonical, hence valid) value to the variant.
	set func(v *Variant, val string)
}

func axes() []axis {
	// The platform axis is first: it selects the starting cost model (any
	// platform.Presets name — registered models included) that the knob axes
	// then transform.
	out := []axis{{name: "platform", def: BaselineName, canon: canonPlatformSpec,
		set: func(v *Variant, val string) { v.Cost, _ = platform.Lookup(val) }}}
	// The cost axes are platform.Resolve's knobs under the same names: a
	// numeric knob takes any xK factor, an enumerated one its two settings.
	for _, k := range platform.Knobs() {
		k := k
		if k.Value != "" {
			out = append(out, axis{name: k.Name, def: k.Default, values: []string{k.Default, k.Value},
				set: func(v *Variant, _ string) { v.Cost = k.Apply(v.Cost, 0) }})
			continue
		}
		out = append(out, axis{name: k.Name, def: k.Default,
			canon: func(val string) (string, error) {
				f, err := platform.ParseFactor(val)
				if err != nil {
					return "", fmt.Errorf("sweep: %w: axis %q: value %q: %v", ErrSpec, k.Name, val, err)
				}
				return "x" + strconv.FormatFloat(f, 'g', -1, 64), nil
			},
			set: func(v *Variant, val string) {
				f, _ := platform.ParseFactor(val)
				v.Cost = k.Apply(v.Cost, f)
			}})
	}
	// The machine axes set run.Machine fields, not cost constants.
	return append(out,
		axis{name: "contention", def: "off", values: []string{"off", "on"},
			set: func(v *Variant, _ string) { v.Contention = true }},
		axis{name: "fault", def: "off", values: fabric.FaultPresetNames(),
			set: func(v *Variant, val string) { v.Faults, _ = fabric.FaultPreset(val) }},
		axis{name: "topo", def: "flat", canon: canonTopologySpec,
			set: func(v *Variant, val string) { v.Topology, _ = fabric.ParseTopology(val) }},
	)
}

// canonPlatformSpec validates a platform= axis value against the cost-name
// table (which names the valid set on failure). Names are already canonical.
func canonPlatformSpec(v string) (string, error) {
	if _, err := platform.Lookup(v); err != nil {
		return "", fmt.Errorf("sweep: %w: axis \"platform\": %v", ErrSpec, err)
	}
	return v, nil
}

// canonTopologySpec validates a topo= axis value and returns the canonical
// spelling rendered by fabric.Topology.String (defaults elided, fixed key
// order), so "clos:taper=1:radix=8" and "clos:radix=8" name the same variant.
func canonTopologySpec(v string) (string, error) {
	t, err := fabric.ParseTopology(v)
	if err != nil {
		return "", fmt.Errorf("sweep: %w: axis \"topo\": %v", ErrSpec, err)
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
//	platform=NAME cost-model starting point: any platform.Presets name, including
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
//	      (fabric.ParseTopology); mutually exclusive with fault presets
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
		// Refuse an unrunnable cross product (a fault plan on a switch
		// topology) up front instead of failing cell by cell.
		if err := (run.Options{Machine: v.Machine}).Validate(); err != nil {
			return nil, fmt.Errorf("sweep: %w: variant %q: %v; sweep them separately", ErrSpec, v.Name, err)
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
	for _, known := range ax.values {
		if v == known {
			return v, nil
		}
	}
	return "", fmt.Errorf("sweep: %w: axis %q: value %q (want one of %s)",
		ErrSpec, ax.name, v, strings.Join(ax.values, "|"))
}

// buildVariant assembles the variant selected by counts: every non-default
// axis applied in axis order, named by those settings.
func buildVariant(defs []axis, chosen [][]string, counts []int) Variant {
	v := Variant{Cost: fabric.DefaultCostModel()}
	var parts []string
	for i, ax := range defs {
		val := chosen[i][counts[i]]
		if val == ax.def {
			continue
		}
		parts = append(parts, ax.name+"="+val)
		ax.set(&v, val)
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
