package sweep

import (
	"errors"
	"strings"
	"testing"

	"ecvslrc/internal/fabric"
	"ecvslrc/internal/platform"
	"ecvslrc/internal/run"
)

func variantNames(vs []Variant) []string {
	var out []string
	for _, v := range vs {
		out = append(out, v.Name)
	}
	return out
}

func TestParseVariantSpecCrossProduct(t *testing.T) {
	vs, err := ParseVariantSpec("net=x2,x4 detect=sw,hw")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"paper", "net=x2", "net=x2+detect=hw", "net=x4", "net=x4+detect=hw"}
	got := variantNames(vs)
	if len(got) != len(want) {
		t.Fatalf("variants = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("variants = %v, want %v", got, want)
		}
	}
	base := fabric.DefaultCostModel()
	if vs[0].Cost != base {
		t.Errorf("baseline cost drifted")
	}
	if vs[1].Cost != base.ScaleNetwork(2) {
		t.Errorf("net=x2 cost = %+v", vs[1].Cost)
	}
	if vs[2].Cost != base.ScaleNetwork(2).HardwareWriteDetection() {
		t.Errorf("net=x2+detect=hw cost = %+v", vs[2].Cost)
	}
}

func TestParseVariantSpecDefaultsAndContention(t *testing.T) {
	vs, err := ParseVariantSpec("")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].Name != BaselineName || vs[0].Contention {
		t.Errorf("empty spec = %+v", vs)
	}
	vs, err = ParseVariantSpec("contention=off,on")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 || vs[0].Name != "paper" || vs[1].Name != "contention=on" || !vs[1].Contention {
		t.Errorf("contention spec = %v", variantNames(vs))
	}
	// Bare numbers canonicalize to the x form; duplicates collapse.
	vs, err = ParseVariantSpec("cpu=2,x2,4")
	if err != nil {
		t.Fatal(err)
	}
	if got := variantNames(vs); len(got) != 3 || got[1] != "cpu=x2" || got[2] != "cpu=x4" {
		t.Errorf("cpu spec = %v", got)
	}
}

func TestParseVariantSpecBaselineAlwaysFirst(t *testing.T) {
	// The default value listed after a non-default one places the baseline
	// late in the cross product; it must still lead the variant list.
	vs, err := ParseVariantSpec("net=x4,x1")
	if err != nil {
		t.Fatal(err)
	}
	if got := variantNames(vs); len(got) != 2 || got[0] != BaselineName || got[1] != "net=x4" {
		t.Errorf("variants = %v, want [paper net=x4]", got)
	}
	if vs[0].Cost != fabric.DefaultCostModel() {
		t.Error("leading variant is not the calibrated baseline")
	}
}

// TestParseVariantSpecPlatformAxis drives the platform axis: registered
// model names select their derived cost models as the starting point, the
// knob axes compose on top, and the explicit default collapses into the
// baseline.
func TestParseVariantSpecPlatformAxis(t *testing.T) {
	vs, err := ParseVariantSpec("platform=rdma_100g,grace")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"paper", "platform=rdma_100g", "platform=grace"}
	if got := variantNames(vs); len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("variants = %v, want %v", got, want)
	}
	for _, v := range vs[1:] {
		name := v.Name[len("platform="):]
		cm, err := platform.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if v.Cost != cm {
			t.Errorf("%s: cost is not the %s preset", v.Name, name)
		}
	}

	// Knobs compose on top of the selected platform, in axis order.
	vs, err = ParseVariantSpec("platform=cluster_gbe net=x2")
	if err != nil {
		t.Fatal(err)
	}
	base, _ := platform.Lookup("cluster_gbe")
	if got := variantNames(vs); len(got) != 2 || got[1] != "platform=cluster_gbe+net=x2" {
		t.Fatalf("variants = %v", got)
	}
	if vs[1].Cost != base.ScaleNetwork(2) {
		t.Errorf("platform+knob cost = %+v, want cluster_gbe.ScaleNetwork(2)", vs[1].Cost)
	}

	// The explicit default is the baseline, not a duplicate variant.
	vs, err = ParseVariantSpec("platform=paper")
	if err != nil {
		t.Fatal(err)
	}
	if got := variantNames(vs); len(got) != 1 || got[0] != BaselineName {
		t.Errorf("platform=paper variants = %v, want just the baseline", got)
	}
}

func TestParseVariantSpecErrors(t *testing.T) {
	// Every rejection wraps ErrSpec and names the valid set or the rule broken.
	for spec, want := range map[string]string{
		"bogus=1":                       `unknown axis "bogus" (known: platform, net, cpu, detect, diff, contention, fault, topo)`,
		"net":                           "is not axis=v1,v2,...",
		"net=x0":                        "must be > 0", // non-positive scale
		"net=-2":                        "must be > 0", // negative scale
		"net=abc":                       "invalid syntax",
		"detect=maybe":                  "want one of sw|hw",
		"diff=hw":                       "want one of sw|free",
		"contention=maybe":              "want one of off|on",
		"net=x2 net=x4":                 "specified twice",
		"diff=, ,":                      "lists no values",
		"platform=nope":                 "valid: paper",
		"fault=lossy":                   "want one of off|drop1e-3|drop1e-2|chaos",
		"topo=ring":                     `neither "flat" nor`,
		"topo=clos:radix=1":             "radix 1 < 2",
		"topo=clos:radix=4 fault=chaos": "mutually exclusive",
	} {
		_, err := ParseVariantSpec(spec)
		if err == nil {
			t.Errorf("spec %q accepted", spec)
			continue
		}
		if !errors.Is(err, ErrSpec) {
			t.Errorf("spec %q: error does not wrap ErrSpec: %v", spec, err)
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("spec %q: error %q does not contain %q", spec, err, want)
		}
	}
}

func TestGridValidation(t *testing.T) {
	// Every processor count goes through the config validator, not only the
	// first.
	for _, np := range [][]int{{0}, {8, 0}, {8, 40000}} {
		if _, err := Run(Grid{NProcs: np}); !errors.Is(err, ErrGrid) || !strings.Contains(err.Error(), "outside 1..32767") {
			t.Errorf("nprocs %v: err = %v, want ErrGrid naming 1..32767", np, err)
		}
	}
	if _, err := Run(Grid{Variants: []Variant{{Name: ""}}}); !errors.Is(err, ErrGrid) {
		t.Errorf("empty variant name: %v", err)
	}
	if _, err := Run(Grid{Variants: []Variant{Baseline(), Baseline()}}); !errors.Is(err, ErrGrid) {
		t.Errorf("duplicate variants: %v", err)
	}
	// The machine options of every variant and the grid's watchdog go through
	// the one validator (run.Options.Validate), whatever built the variant.
	bad := func(m run.Machine) []Variant {
		return []Variant{{Name: "bad", Cost: fabric.DefaultCostModel(), Machine: m}}
	}
	for want, g := range map[string]Grid{
		"negative timeout":           {Timeout: -1},
		"negative barrier fan-in -3": {Variants: bad(run.Machine{BarrierFanIn: -3})},
		"radix 1 < 2":                {Variants: bad(run.Machine{Topology: &fabric.Topology{Radix: 1, Taper: 1}})},
		"drop rate 1 loses":          {Variants: bad(run.Machine{Faults: &fabric.FaultPlan{Drop: 1}})},
		"mutually exclusive": {Variants: bad(run.Machine{
			Topology: &fabric.Topology{Radix: 4, Taper: 1}, Faults: &fabric.FaultPlan{Seed: 1}})},
		"unknown scale 9": {Scale: 9},
	} {
		if _, err := Run(g); !errors.Is(err, ErrGrid) || !strings.Contains(err.Error(), want) {
			t.Errorf("grid %+v: err = %v, want ErrGrid containing %q", g, err, want)
		}
	}
}
