package sweep

import (
	"errors"
	"strings"
	"testing"
)

// TestTopoVariantAxis pins the topo= axis end to end: canonical naming
// (spelling variations collapse to fabric.Topology.String form), baseline
// elision, resolution into Variant.Topology, and the fault exclusion.
func TestTopoVariantAxis(t *testing.T) {
	vs, err := ParseVariantSpec("topo=flat,clos:taper=1:radix=8,clos:radix=8")
	if err != nil {
		t.Fatal(err)
	}
	// flat is the default -> baseline; the two clos spellings dedup to one.
	if len(vs) != 2 {
		t.Fatalf("got %d variants, want 2 (baseline + one clos): %+v", len(vs), vs)
	}
	if vs[0].Name != BaselineName || vs[0].Topology != nil {
		t.Errorf("baseline variant carries a topology: %+v", vs[0])
	}
	v := vs[1]
	if v.Name != "topo=clos:radix=8" {
		t.Errorf("variant name = %q, want %q", v.Name, "topo=clos:radix=8")
	}
	if v.Topology == nil || v.Topology.String() != "clos:radix=8" || v.Topology.Taper != 1 {
		t.Errorf("variant topology not resolved: %+v", v.Topology)
	}

	if _, err := ParseVariantSpec("topo=clos:radix=4 fault=drop1e-3"); err == nil {
		t.Fatal("fault+topo cross product accepted, want ErrSpec")
	} else if !errors.Is(err, ErrSpec) {
		t.Fatalf("fault+topo rejection does not wrap ErrSpec: %v", err)
	}
	// A malformed or degenerate topo= value is a spec error naming the cause.
	for spec, want := range map[string]string{
		"topo=mesh:radix=4":      "neither",
		"topo=clos:radix=1":      "radix 1 < 2",
		"topo=clos:radix=8:w=2":  "unknown key",
		"topo=clos:radix=8,clos": "radix is required",
	} {
		if _, err := ParseVariantSpec(spec); !errors.Is(err, ErrSpec) || !strings.Contains(err.Error(), want) {
			t.Errorf("spec %q: err = %v, want ErrSpec containing %q", spec, err, want)
		}
	}
	// The cross product is only rejected where both are non-default: a spec
	// listing "off"/"flat" alongside real values keeps its legal combinations.
	if _, err := ParseVariantSpec("topo=flat fault=drop1e-3"); err != nil {
		t.Fatalf("flat+fault rejected: %v", err)
	}
}
