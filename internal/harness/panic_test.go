package harness

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
)

// TestForEachPanicIsolation pins the worker-pool contract: a panicking index
// neither crashes the pool nor prevents any other index from running, and
// every panic comes back attributed to its index, joined in index order.
func TestForEachPanicIsolation(t *testing.T) {
	for _, par := range []int{1, 4} {
		const n = 9
		var ran [n]atomic.Bool
		err := ForEach(par, n, func(i int) {
			ran[i].Store(true)
			if i%3 == 0 {
				panic(fmt.Sprintf("boom-%d", i))
			}
		})
		if err == nil {
			t.Fatalf("par=%d: three panicking cells, no error", par)
		}
		for i := range ran {
			if !ran[i].Load() {
				t.Errorf("par=%d: index %d never ran", par, i)
			}
		}
		for _, want := range []string{"boom-0", "boom-3", "boom-6"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("par=%d: error does not mention %s: %v", par, want, err)
			}
		}
		if !strings.Contains(err.Error(), "panic_test.go") {
			t.Errorf("par=%d: error carries no stack trace: %.200s", par, err)
		}
	}
}

// TestRunCellPanicIsolation poisons the (app, scale) cache with another
// application's layout — the kind of internal corruption that previously
// crashed a whole table — and checks the cell comes back as a structured
// *CellPanic carrying the full cell identity instead of panicking the
// caller.
func TestRunCellPanicIsolation(t *testing.T) {
	restore, err := PoisonImage("SOR", "QS", apps.Test)
	if err != nil {
		t.Fatal(err)
	}
	defer restore()

	impl := core.Implementations()[0]
	cfg := Config{Scale: apps.Test, NProcs: 2, Cost: fabric.DefaultCostModel()}
	row := RunCell(cfg, "SOR", impl)
	var cp *CellPanic
	if !errors.As(row.Err, &cp) {
		t.Fatalf("poisoned cell returned %v, want *CellPanic", row.Err)
	}
	if cp.App != "SOR" || cp.Impl != impl || cp.NProcs != 2 {
		t.Errorf("CellPanic identity = %s/%v/%d, want SOR/%v/2", cp.App, cp.Impl, cp.NProcs, impl)
	}
	if len(cp.Stack) == 0 {
		t.Error("CellPanic has no stack")
	}
	if !strings.Contains(cp.Error(), "replay alloc") {
		t.Errorf("CellPanic does not carry the panic value: %.200s", cp.Error())
	}
}
