package ecvslrc

import (
	"reflect"
	"testing"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/run"
)

// adapterOnly hides an application's StaticApp methods, so the runner's
// dispatch rule enters it through Program(core.DSM).
type adapterOnly struct{ run.App }

// TestStaticDispatchEquivalence pins the devirtualized access path: for
// every generic-kernel application and all six implementations, the
// statically-dispatched entry (run.StaticApp, kernels instantiated at
// *lrc.Node / *ec.Node) must produce core.Stats deeply equal to the
// interface-adapter path (Program(core.DSM), reached by hiding the static
// entry points behind adapterOnly). The two paths run the same kernel source,
// so any divergence is a dispatch-layer bug, not an application change.
func TestStaticDispatchEquivalence(t *testing.T) {
	names := append(append([]string{}, apps.Names()...), apps.MicroNames()...)
	const nprocs = 4
	cm := fabric.DefaultCostModel()
	for _, name := range names {
		for _, impl := range core.Implementations() {
			t.Run(name+"/"+impl.String(), func(t *testing.T) {
				a, err := apps.New(name, apps.Test)
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := a.(run.StaticApp); !ok {
					t.Fatalf("%s does not provide statically-dispatched kernels", name)
				}
				static, err := run.RunWith(a, impl, nprocs, cm, run.Options{})
				if err != nil {
					t.Fatal(err)
				}
				b, err := apps.New(name, apps.Test)
				if err != nil {
					t.Fatal(err)
				}
				iface, err := run.RunWith(adapterOnly{b}, impl, nprocs, cm, run.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(static.Stats, iface.Stats) {
					t.Errorf("stats diverge between dispatch paths:\n  static:    %+v\n  interface: %+v",
						static.Stats, iface.Stats)
				}
			})
		}
	}
}

// TestStaticDispatchSeqEquivalence does the same for the sequential
// reference: ProgramSeq (kernel at *run.Local) against the adapter path.
func TestStaticDispatchSeqEquivalence(t *testing.T) {
	names := append(append([]string{}, apps.Names()...), apps.MicroNames()...)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			a, err := apps.New(name, apps.Test)
			if err != nil {
				t.Fatal(err)
			}
			static, err := run.RunSeqWith(a, run.Options{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := apps.New(name, apps.Test)
			if err != nil {
				t.Fatal(err)
			}
			iface, err := run.RunSeqWith(adapterOnly{b}, run.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if static != iface {
				t.Errorf("sequential time diverges: static %v, interface %v", static, iface)
			}
		})
	}
}
