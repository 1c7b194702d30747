package apps

import (
	"testing"

	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/run"
)

func testAllImpls(t *testing.T, name string, nprocs int) map[string]run.Result {
	t.Helper()
	out := map[string]run.Result{}
	for _, impl := range core.Implementations() {
		impl := impl
		t.Run(impl.String(), func(t *testing.T) {
			app, err := New(name, Test)
			if err != nil {
				t.Fatal(err)
			}
			res, err := run.RunWith(app, impl, nprocs, fabric.DefaultCostModel(), run.Options{Timeout: TestHorizon})
			if err != nil {
				t.Fatal(err)
			}
			out[impl.String()] = res
		})
	}
	return out
}

func TestSORAllImpls(t *testing.T) {
	res := testAllImpls(t, "SOR", 4)
	if r, ok := res["LRC-diff"]; ok && r.Stats.Msgs == 0 {
		t.Error("SOR on LRC should communicate")
	}
}

func TestSORPlusAllImpls(t *testing.T) {
	testAllImpls(t, "SOR+", 4)
}

func TestSORSequential(t *testing.T) {
	app, err := New("SOR", Test)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := run.RunSeq(app)
	if err != nil {
		t.Fatal(err)
	}
	if tm <= 0 {
		t.Error("sequential time should be positive")
	}
}

func TestSORElementLayout(t *testing.T) {
	a := newSOR(Test, false)
	// Row 0 (even): red elements at even j. cols=64 -> 32 red, 32 black.
	if got := a.elemAddr(0, 0, 0); got != 0 {
		t.Errorf("(0,0) -> %d", got)
	}
	if got := a.elemAddr(0, 0, 2); got != 4 {
		t.Errorf("(0,2) -> %d", got)
	}
	if got := a.elemAddr(0, 0, 1); got != 32*4 {
		t.Errorf("(0,1) black must follow the red half: %d", got)
	}
	// Row 1 (odd): red elements at odd j.
	if got := a.elemAddr(0, 1, 1); got != 0 {
		t.Errorf("(1,1) -> %d", got)
	}
	if got := a.elemAddr(0, 1, 0); got != 32*4 {
		t.Errorf("(1,0) -> %d", got)
	}
}

// The paper's prefetch observation: under LRC-diff, fetching the red part of
// a boundary row also brings the black part on the same page, so SOR's LRC
// message count stays below EC's (6936 vs 10498 in Section 7.2).
func TestSORLRCFewerMessagesThanEC(t *testing.T) {
	lrcApp, _ := New("SOR", Test)
	lrcRes, err := run.Run(lrcApp, core.Impl{Model: core.LRC, Trap: core.Twinning, Collect: core.Diffs}, 4, fabric.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	ecApp, _ := New("SOR", Test)
	ecRes, err := run.Run(ecApp, core.Impl{Model: core.EC, Trap: core.Twinning, Collect: core.Timestamps}, 4, fabric.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if lrcRes.Stats.Msgs >= ecRes.Stats.Msgs {
		t.Errorf("LRC msgs = %d, EC msgs = %d: expected LRC < EC (prefetch effect)",
			lrcRes.Stats.Msgs, ecRes.Stats.Msgs)
	}
}
