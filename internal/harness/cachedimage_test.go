package harness

import (
	"testing"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/run"
)

// initPanics hides everything an application offers beyond run.App and
// forbids Init: a run handed a cached image must neither call Init nor need
// any state Init could have left on the instance.
type initPanics struct{ run.App }

func (a initPanics) Init(*mem.Image) { panic(a.Name() + ": Init called despite a cached image") }

// TestCachedImageSkipsInit runs a fresh instance of every suite and micro
// application on the harness's cached image and layout, once per model: Init
// is skipped, and Verify still finds the app's sequential reference.
func TestCachedImageSkipsInit(t *testing.T) {
	for _, name := range append(apps.Names(), apps.MicroNames()...) {
		im, err := InitImage(name, apps.Test)
		if err != nil {
			t.Fatal(err)
		}
		al, err := InitLayout(name, apps.Test)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []core.Model{core.EC, core.LRC} {
			impls := core.ModelImpls(m)
			impl := impls[len(impls)-1]
			a, err := apps.New(name, apps.Test)
			if err != nil {
				t.Fatal(err)
			}
			opts := run.Options{InitImage: im, Layout: al}
			if _, err := run.RunWith(initPanics{a}, impl, 4, fabric.DefaultCostModel(), opts); err != nil {
				t.Errorf("%s/%v: %v", name, impl, err)
			}
		}
	}
}
