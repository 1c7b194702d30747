package sweep

import (
	"errors"
	"testing"
)

// FuzzParseVariantSpec asserts the spec parser's contract on arbitrary
// input: it never panics, every rejection wraps ErrSpec, and every accepted
// spec yields a well-formed variant list — baseline first, unique names,
// validated fault plans.
func FuzzParseVariantSpec(f *testing.F) {
	f.Add("")
	f.Add("net=x2,x4 detect=sw,hw")
	f.Add("cpu=3 diff=free contention=on")
	f.Add("fault=off,drop1e-3,drop1e-2,chaos")
	f.Add("net=x0")
	f.Add("fault=nosuch")
	f.Add("net=x2 net=x4")
	f.Add("topo=flat,clos:radix=4 net=x2")
	f.Add("topo=clos:radix=16:taper=4:stages=2")
	f.Add("topo=clos:radix=4 fault=drop1e-3")
	f.Fuzz(func(t *testing.T, spec string) {
		vs, err := ParseVariantSpec(spec)
		if err != nil {
			if !errors.Is(err, ErrSpec) {
				t.Fatalf("rejection does not wrap ErrSpec: %v", err)
			}
			return
		}
		if len(vs) == 0 || vs[0].Name != BaselineName {
			t.Fatalf("accepted spec %q does not lead with the baseline: %+v", spec, vs)
		}
		seen := make(map[string]bool)
		for _, v := range vs {
			if v.Name == "" {
				t.Fatalf("accepted spec %q yields an unnamed variant", spec)
			}
			if seen[v.Name] {
				t.Fatalf("accepted spec %q yields duplicate variant %q", spec, v.Name)
			}
			seen[v.Name] = true
			if v.Faults != nil {
				if verr := v.Faults.Validate(); verr != nil {
					t.Fatalf("accepted spec %q yields invalid fault plan: %v", spec, verr)
				}
			}
			if v.Topology != nil {
				if verr := v.Topology.Validate(); verr != nil {
					t.Fatalf("accepted spec %q yields invalid topology: %v", spec, verr)
				}
				if v.Faults != nil {
					t.Fatalf("accepted spec %q combines a topology with a fault plan", spec)
				}
			}
		}
	})
}
