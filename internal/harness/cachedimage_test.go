package harness

import (
	"reflect"
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

// TestForkedCellsParallelMatchSerial: every node maps the cached image of
// its (app, scale) copy-on-write, so parallel cells fork one
// template at once — the first fork writes its memory file — and write
// their private pages side by side. The race detector does not see mapped
// memory, so the check is by results: two workers must give every cell's
// record exactly as one worker does.
func TestForkedCellsParallelMatchSerial(t *testing.T) {
	rows := func(parallel int) map[string][]Row {
		out := map[string][]Row{}
		for _, m := range []core.Model{core.EC, core.LRC} {
			cfg := Config{Scale: apps.Test, NProcs: 16, Cost: fabric.DefaultCostModel(), Parallel: parallel}
			got, err := TableModel(cfg, m, []string{"SOR"})
			if err != nil {
				t.Fatal(err)
			}
			out[m.String()] = got["SOR"]
		}
		return out
	}
	// Two workers first, so the first fork of the template is contended.
	parallel, serial := rows(2), rows(1)
	for m, want := range serial {
		if len(want) == 0 {
			t.Fatalf("%s: no cells", m)
		}
		if !reflect.DeepEqual(parallel[m], want) {
			t.Errorf("%s: 2-worker cells differ from 1-worker cells:\n%+v\nvs\n%+v", m, parallel[m], want)
		}
	}
}
