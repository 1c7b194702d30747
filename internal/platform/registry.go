package platform

import (
	"fmt"
	"strconv"
	"strings"

	"ecvslrc/internal/fabric"
)

// registered holds the model library in registration order. The shipped
// models live in internal/platform/models (one directory per platform);
// importing that package populates this registry at init time, so the order
// of Presets is deterministic.
var registered []Model

// baseName names the calibrated paper platform, fabric.DefaultCostModel: the
// one cost name that is neither an alias nor a registered model.
const baseName = "paper"

// aliases are the historical knob presets, spelled in Resolve's own grammar:
// a second name for a cost spec, not a second table of constants. "modern"
// predates the model library and is kept for compatibility — prefer the
// registered models (cluster_gbe, rdma_100g, ...), whose constants derive
// from published numbers instead of round-number guesses.
var aliases = []struct{ name, desc, spec string }{
	{"net-x2", "messaging path 2x faster", "paper+net=x2"},
	{"net-x4", "messaging path 4x faster", "paper+net=x4"},
	{"cpu-x4", "memory-management software 4x faster", "paper+cpu=x4"},
	{"hw-detect", "free write trapping (hardware dirty bits)", "paper+detect=hw"},
	{"hw-diff", "free write collection (hardware diff engine)", "paper+diff=free"},
	{"modern", "10x network and 25x CPU, a late-90s cluster (superseded by cluster_gbe)", "paper+net=x10+cpu=x25"},
}

// Preset is one entry of the cost-name table: a named, documented cost model.
type Preset struct {
	Name string
	Desc string
	Cost fabric.CostModel
}

// Presets lists the one table of cost names every consumer reads (the CLIs'
// -preset flag, the sweep "platform" axis, the root API): the calibrated paper
// platform first, then the aliases, then the registered models. Each is a
// valid head of a cost spec (Resolve).
func Presets() []Preset {
	out := []Preset{{baseName, "calibrated DECstation-5000/240 + 100 Mbps ATM platform", fabric.DefaultCostModel()}}
	for _, a := range aliases {
		cm, err := Resolve(a.spec)
		if err != nil {
			panic(fmt.Sprintf("platform: alias %q: %v", a.name, err))
		}
		out = append(out, Preset{a.name, a.desc, cm})
	}
	for _, m := range registered {
		out = append(out, Preset{m.Name, m.Desc, m.Derive()})
	}
	return out
}

// PresetNames lists the cost names in Presets order.
func PresetNames() []string {
	var out []string
	for _, p := range Presets() {
		out = append(out, p.Name)
	}
	return out
}

// Lookup resolves one cost name; unknown names are reported with the valid
// set.
func Lookup(name string) (fabric.CostModel, error) {
	if name == baseName {
		return fabric.DefaultCostModel(), nil
	}
	for _, a := range aliases {
		if a.name == name {
			return Resolve(a.spec)
		}
	}
	if m, ok := ByName(name); ok {
		return m.Derive(), nil
	}
	return fabric.CostModel{}, fmt.Errorf("platform: unknown cost preset %q (valid: %s)",
		name, strings.Join(PresetNames(), ", "))
}

// Register adds a model to the library, which makes its name a cost name
// every consumer of Presets resolves. Registration happens at init time from
// a model library package; an invalid model or a name already in the table
// is a programming error and panics.
func Register(m Model) {
	if err := m.validate(); err != nil {
		panic(err)
	}
	if _, err := Lookup(m.Name); err == nil {
		panic(fmt.Sprintf("platform: duplicate model %q", m.Name))
	}
	registered = append(registered, m)
}

// Models lists the registered models in registration order.
func Models() []Model {
	out := make([]Model, len(registered))
	copy(out, registered)
	return out
}

// ByName looks up a registered model.
func ByName(name string) (Model, bool) {
	for _, m := range registered {
		if m.Name == name {
			return m, true
		}
	}
	return Model{}, false
}

// Knob is one composable cost-model transform: a "+name=value" setting of a
// cost spec (Resolve) and, under the same name, a cost axis of a sweep
// (sweep.ParseVariantSpec). This is the one table of them; contention,
// faults and topologies are machine options (run.Machine), not cost-model
// transforms, and stay out of cost specs.
type Knob struct {
	Name string
	// Default names the identity setting ("x1", "sw"): what a sweep axis
	// elides from variant names. A cost spec simply omits the knob.
	Default string
	// Value is the one non-default setting of an enumerated knob ("hw",
	// "free"); empty for a numeric knob, which takes an xK factor.
	Value string
	Apply func(cm fabric.CostModel, k float64) fabric.CostModel
}

// Knobs lists the cost knobs in application order.
func Knobs() []Knob {
	return []Knob{
		{Name: "net", Default: "x1",
			Apply: func(cm fabric.CostModel, k float64) fabric.CostModel { return cm.ScaleNetwork(k) }},
		{Name: "cpu", Default: "x1",
			Apply: func(cm fabric.CostModel, k float64) fabric.CostModel { return cm.ScaleCPU(k) }},
		{Name: "detect", Default: "sw", Value: "hw",
			Apply: func(cm fabric.CostModel, _ float64) fabric.CostModel { return cm.HardwareWriteDetection() }},
		{Name: "diff", Default: "sw", Value: "free",
			Apply: func(cm fabric.CostModel, _ float64) fabric.CostModel { return cm.ZeroCostDiff() }},
	}
}

// ParseFactor parses the setting of a numeric knob: "x2", "x2.5" or bare "4",
// which must be positive.
func ParseFactor(val string) (float64, error) {
	k, err := strconv.ParseFloat(strings.TrimPrefix(val, "x"), 64)
	if err != nil {
		return 0, err
	}
	if k <= 0 {
		return 0, fmt.Errorf("scale %q must be > 0", val)
	}
	return k, nil
}

// knobSyntax names the accepted knob spellings for error messages.
const knobSyntax = "net=xK, cpu=xK, detect=hw, diff=free"

// Resolve turns a cost spec into a cost model. A spec is a cost name — any
// Presets entry — optionally followed by "+"-separated knob settings applied
// left to right:
//
//	paper
//	rdma_100g
//	cluster_gbe+net=x2
//	decstation_atm+detect=hw+diff=free
//
// This is the single entry point every CLI resolves its -preset flag
// through, so "dsmrun -preset X", "dsmsweep -preset X" and "dsmbench
// -preset X" accept identical specs. Unknown names and malformed knobs are
// reported with the valid set.
func Resolve(spec string) (fabric.CostModel, error) {
	parts := strings.Split(spec, "+")
	cm, err := Lookup(parts[0])
	if err != nil {
		return fabric.CostModel{}, err
	}
	for _, part := range parts[1:] {
		cm, err = applyKnob(cm, part, spec)
		if err != nil {
			return fabric.CostModel{}, err
		}
	}
	return cm, nil
}

func applyKnob(cm fabric.CostModel, part, spec string) (fabric.CostModel, error) {
	name, val, ok := strings.Cut(part, "=")
	if !ok {
		return cm, fmt.Errorf("platform: cost spec %q: %q is not a knob setting (knobs: %s)",
			spec, part, knobSyntax)
	}
	for _, k := range Knobs() {
		if k.Name != name {
			continue
		}
		if k.Value != "" {
			if val != k.Value {
				return cm, fmt.Errorf("platform: cost spec %q: knob %q takes %q, got %q",
					spec, name, k.Value, val)
			}
			return k.Apply(cm, 0), nil
		}
		factor, err := ParseFactor(val)
		if err != nil {
			return cm, fmt.Errorf("platform: cost spec %q: knob %q needs a positive xK factor, got %q",
				spec, name, val)
		}
		return k.Apply(cm, factor), nil
	}
	return cm, fmt.Errorf("platform: cost spec %q: unknown knob %q (knobs: %s)",
		spec, name, knobSyntax)
}
