package run_test

import (
	"reflect"
	"testing"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/run"
)

// TestDeterministicStats runs the same cell twice for every implementation
// of both models and requires bit-identical statistics. This is the safety
// net for the event-queue and protocol-metadata rewrites: any change that
// perturbs event ordering or collection results shows up here as a stats
// mismatch between two runs of one binary (and against the seed's published
// tables as a drift across binaries).
func TestDeterministicStats(t *testing.T) {
	for _, impl := range core.Implementations() {
		impl := impl
		t.Run(impl.String(), func(t *testing.T) {
			cell := func() core.Stats {
				a, err := apps.New("QS", apps.Test)
				if err != nil {
					t.Fatal(err)
				}
				res, err := run.RunWith(a, impl, 4, fabric.DefaultCostModel(), run.Options{Timeout: apps.TestHorizon})
				if err != nil {
					t.Fatal(err)
				}
				return res.Stats
			}
			first, second := cell(), cell()
			if !reflect.DeepEqual(first, second) {
				t.Errorf("stats differ between identical runs:\n  first:  %+v\n  second: %+v", first, second)
			}
		})
	}
}
