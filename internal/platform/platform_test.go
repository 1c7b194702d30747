package platform

import (
	"math"
	"strings"
	"testing"

	"ecvslrc/internal/fabric"
	"ecvslrc/internal/sim"
)

// testModel is a DECstation-shaped model used across the tests: every derived
// constant is large against the nanosecond resolution, so quantization does
// not blur the arithmetic being checked.
func testModel() Model {
	return Model{
		Name: "test-platform",
		Desc: "synthetic platform for tests",
		P: Primitives{
			CPUMHz: 40, IPC: 1,
			SendInstrs: 10000, HandlerInstrs: 6000,
			NICPerByteNs: 10, WireGbps: 0.1, SwitchDelayUs: 100,
			FaultInstrs: 4800, MProtectInstrs: 1200,
			StoreCycles: 18, StoreOptCycles: 10.4,
			CopyCycles: 2, CompareCycles: 3, ScanCycles: 2, ApplyCycles: 2,
		},
	}
}

func TestDeriveFormulas(t *testing.T) {
	got := testModel().Derive()
	want := fabric.CostModel{
		SendFixed:     250 * sim.Microsecond,
		SendPerByte:   90 * sim.Nanosecond,
		WireLatency:   100 * sim.Microsecond,
		HandlerFixed:  150 * sim.Microsecond,
		ProtFault:     120 * sim.Microsecond,
		MProtect:      30 * sim.Microsecond,
		InstrStore:    450 * sim.Nanosecond,
		InstrStoreOpt: 260 * sim.Nanosecond,
		WordCopy:      50 * sim.Nanosecond,
		WordCompare:   75 * sim.Nanosecond,
		WordScan:      50 * sim.Nanosecond,
		WordApply:     50 * sim.Nanosecond,
		LinkPerByte:   80 * sim.Nanosecond,
	}
	if got != want {
		t.Errorf("Derive() = %+v, want %+v", got, want)
	}
}

// TestDeriveBandwidthBound pins the ECM-style max(): with a starved memory
// system the bandwidth term must override the in-core cycle counts, touching
// 2 words for copy/compare/apply and 1 for scan.
func TestDeriveBandwidthBound(t *testing.T) {
	m := testModel()
	m.P.CPUMHz, m.P.IPC = 500, 1 // 2 ns/cycle: in-core copy = 4 ns
	m.P.MemGBps = 0.4            // 8 B / 0.4 GB/s = 20 ns per copied word
	cm := m.Derive()
	if cm.WordCopy != 20 || cm.WordCompare != 20 || cm.WordApply != 20 {
		t.Errorf("bandwidth-bound word costs = %d/%d/%d, want 20/20/20",
			cm.WordCopy, cm.WordCompare, cm.WordApply)
	}
	if cm.WordScan != 10 {
		t.Errorf("scan touches one word: got %d, want 10", cm.WordScan)
	}
	// Fast memory hands the bound back to the in-core term.
	m.P.MemGBps = 100
	if cm := m.Derive(); cm.WordCopy != 4 {
		t.Errorf("in-core-bound copy = %d, want 4", cm.WordCopy)
	}
}

func TestDeriveCorrections(t *testing.T) {
	m := testModel()
	m.C = Corrections{MsgFixed: 2, PerByte: 0.5, Latency: 1.5, MemMgmt: 2, PerWord: 4}
	cm := m.Derive()
	base := testModel().Derive()
	if cm.SendFixed != 2*base.SendFixed || cm.HandlerFixed != 2*base.HandlerFixed {
		t.Errorf("MsgFixed=2: send/handler = %v/%v", cm.SendFixed, cm.HandlerFixed)
	}
	if cm.SendPerByte != 45 || cm.LinkPerByte != 40 {
		t.Errorf("PerByte=0.5: per-byte = %v/%v, want 45/40", cm.SendPerByte, cm.LinkPerByte)
	}
	if cm.WireLatency != 150*sim.Microsecond {
		t.Errorf("Latency=1.5: wire latency = %v", cm.WireLatency)
	}
	if cm.ProtFault != 2*base.ProtFault || cm.InstrStoreOpt != 520 {
		t.Errorf("MemMgmt=2: fault/storeOpt = %v/%v", cm.ProtFault, cm.InstrStoreOpt)
	}
	if cm.WordCompare != 300 {
		t.Errorf("PerWord=4: compare = %v, want 300", cm.WordCompare)
	}
}

func TestValidateAndStatus(t *testing.T) {
	m := testModel()
	m.Refs = []Reference{
		{Name: "rtt", Want: 1000, Unit: "µs", Tol: 0.02, Quantity: RTTUs},
		{Name: "bulk", Want: 11, Unit: "MB/s", Tol: 0.03, Quantity: BulkMBps},
	}
	checks := m.Validate()
	if len(checks) != 2 || Status(checks) != "validated" {
		t.Fatalf("checks = %+v", checks)
	}
	if math.Abs(checks[0].Got-1005.76) > 1e-9 {
		t.Errorf("rtt got = %v, want 1005.76", checks[0].Got)
	}
	if got := MaxErr(checks); math.Abs(got-checks[1].RelErr) > 1e-12 {
		t.Errorf("MaxErr = %v, want the bulk error %v", got, checks[1].RelErr)
	}
	// A tolerance below the actual error flips the table to failing.
	m.Refs[0].Tol = 0.001
	if got := Status(m.Validate()); got != "failing" {
		t.Errorf("status = %q, want failing", got)
	}
}

// TestFitRoundTrip plants known correction factors, generates reference
// values from the corrected model, and checks Fit recovers the factors from
// the identity start within a few percent.
func TestFitRoundTrip(t *testing.T) {
	target := Corrections{MsgFixed: 1.5, PerByte: 1.2, Latency: 0.8, MemMgmt: 1.25, PerWord: 0.6}
	corrupted := testModel()
	corrupted.C = target
	tcm := corrupted.Derive()

	// One reference per correction group, so the system is identifiable.
	refs := []Reference{
		{Name: "send fixed", Want: float64(tcm.SendFixed), Tol: 0.05,
			Quantity: func(cm fabric.CostModel) float64 { return float64(cm.SendFixed) }},
		{Name: "per byte", Want: float64(tcm.SendPerByte), Tol: 0.05,
			Quantity: func(cm fabric.CostModel) float64 { return float64(cm.SendPerByte) }},
		{Name: "latency", Want: float64(tcm.WireLatency), Tol: 0.05,
			Quantity: func(cm fabric.CostModel) float64 { return float64(cm.WireLatency) }},
		{Name: "fault", Want: float64(tcm.ProtFault), Tol: 0.05,
			Quantity: func(cm fabric.CostModel) float64 { return float64(cm.ProtFault) }},
		{Name: "compare", Want: float64(tcm.WordCompare), Tol: 0.05,
			Quantity: func(cm fabric.CostModel) float64 { return float64(cm.WordCompare) }},
	}
	fitted, rms, err := testModel().Fit(refs)
	if err != nil {
		t.Fatal(err)
	}
	if rms > 0.02 {
		t.Errorf("final RMS relative error %v > 0.02", rms)
	}
	pairs := []struct {
		name      string
		got, want float64
	}{
		{"MsgFixed", fitted.MsgFixed, target.MsgFixed},
		{"PerByte", fitted.PerByte, target.PerByte},
		{"Latency", fitted.Latency, target.Latency},
		{"MemMgmt", fitted.MemMgmt, target.MemMgmt},
		{"PerWord", fitted.PerWord, target.PerWord},
	}
	for _, p := range pairs {
		if math.Abs(p.got-p.want)/p.want > 0.05 {
			t.Errorf("%s = %v, want %v within 5%%", p.name, p.got, p.want)
		}
	}
	// The fitted model must validate against the same references.
	refitted := testModel()
	refitted.C = fitted
	refitted.Refs = refs
	if got := Status(refitted.Validate()); got != "validated" {
		t.Errorf("fitted model status = %q: %+v", got, refitted.Validate())
	}
}

func TestFitNeedsReferences(t *testing.T) {
	if _, _, err := testModel().Fit(nil); err == nil {
		t.Error("Fit with no references must fail")
	}
}

func TestResolve(t *testing.T) {
	base := fabric.DefaultCostModel()
	good := []struct {
		spec string
		want fabric.CostModel
	}{
		{"paper", base},
		{"paper+net=x2", base.ScaleNetwork(2)},
		{"paper+net=x2+cpu=x4", base.ScaleNetwork(2).ScaleCPU(4)},
		{"paper+detect=hw+diff=free", base.HardwareWriteDetection().ZeroCostDiff()},
		{"net-x2", base.ScaleNetwork(2)}, // knob presets resolve too
	}
	for _, tc := range good {
		cm, err := Resolve(tc.spec)
		if err != nil {
			t.Errorf("Resolve(%q): %v", tc.spec, err)
			continue
		}
		if cm != tc.want {
			t.Errorf("Resolve(%q) = %+v, want %+v", tc.spec, cm, tc.want)
		}
	}
	bad := []struct {
		spec, msg string
	}{
		{"nope", "valid:"},
		{"paper+net", "not a knob setting"},
		{"paper+net=x0", "positive xK factor"},
		{"paper+net=x2junk", "positive xK factor"},
		{"paper+detect=sw", `knob "detect" takes "hw"`},
		{"paper+bogus=1", "unknown knob"},
	}
	for _, tc := range bad {
		_, err := Resolve(tc.spec)
		if err == nil {
			t.Errorf("Resolve(%q) accepted", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("Resolve(%q) error %q does not mention %q", tc.spec, err, tc.msg)
		}
	}
}

// TestCostNameTable pins the head of the one cost-name table — the paper
// platform and its aliases, which need no model library — to the constants
// fabric's own registry resolved these names to before platform took the
// table over: an alias is a second name for a cost spec, so a drift here is a
// drift in the knob arithmetic or in an alias's spec. (The full name order,
// models included, is pinned in internal/platform/models.)
func TestCostNameTable(t *testing.T) {
	want := []struct {
		name string
		cm   fabric.CostModel
	}{
		{"paper", fabric.CostModel{SendFixed: 250000, SendPerByte: 90, WireLatency: 100000, HandlerFixed: 150000,
			ProtFault: 120000, MProtect: 30000, InstrStore: 450, InstrStoreOpt: 260,
			WordCopy: 50, WordCompare: 75, WordScan: 50, WordApply: 50, LinkPerByte: 80}},
		{"net-x2", fabric.CostModel{SendFixed: 125000, SendPerByte: 45, WireLatency: 50000, HandlerFixed: 75000,
			ProtFault: 120000, MProtect: 30000, InstrStore: 450, InstrStoreOpt: 260,
			WordCopy: 50, WordCompare: 75, WordScan: 50, WordApply: 50, LinkPerByte: 40}},
		{"net-x4", fabric.CostModel{SendFixed: 62500, SendPerByte: 23, WireLatency: 25000, HandlerFixed: 37500,
			ProtFault: 120000, MProtect: 30000, InstrStore: 450, InstrStoreOpt: 260,
			WordCopy: 50, WordCompare: 75, WordScan: 50, WordApply: 50, LinkPerByte: 20}},
		{"cpu-x4", fabric.CostModel{SendFixed: 250000, SendPerByte: 90, WireLatency: 100000, HandlerFixed: 150000,
			ProtFault: 30000, MProtect: 7500, InstrStore: 113, InstrStoreOpt: 65,
			WordCopy: 13, WordCompare: 19, WordScan: 13, WordApply: 13, LinkPerByte: 80}},
		{"hw-detect", fabric.CostModel{SendFixed: 250000, SendPerByte: 90, WireLatency: 100000, HandlerFixed: 150000,
			WordCopy: 50, WordCompare: 75, WordScan: 50, WordApply: 50, LinkPerByte: 80}},
		{"hw-diff", fabric.CostModel{SendFixed: 250000, SendPerByte: 90, WireLatency: 100000, HandlerFixed: 150000,
			ProtFault: 120000, MProtect: 30000, InstrStore: 450, InstrStoreOpt: 260, LinkPerByte: 80}},
		{"modern", fabric.CostModel{SendFixed: 25000, SendPerByte: 9, WireLatency: 10000, HandlerFixed: 15000,
			ProtFault: 4800, MProtect: 1200, InstrStore: 18, InstrStoreOpt: 10,
			WordCopy: 2, WordCompare: 3, WordScan: 2, WordApply: 2, LinkPerByte: 8}},
	}
	ps, names := Presets(), PresetNames()
	if len(ps) < len(want) || len(names) != len(ps) {
		t.Fatalf("table has %d presets and %d names, want at least %d of each", len(ps), len(names), len(want))
	}
	for i, w := range want {
		if ps[i].Name != w.name || names[i] != w.name || ps[i].Cost != w.cm || ps[i].Desc == "" {
			t.Errorf("Presets()[%d] = %+v (name %q), want %q = %+v", i, ps[i], names[i], w.name, w.cm)
		}
		if cm, err := Lookup(w.name); err != nil || cm != w.cm {
			t.Errorf("Lookup(%q) = %+v, %v; want %+v", w.name, cm, err, w.cm)
		}
	}
	// An unknown name is reported with the whole valid set, so the CLIs'
	// exit-2 paths tell the user what to type instead.
	for _, name := range []string{"nope", "", "Paper", "net-x8", "paper "} {
		_, err := Lookup(name)
		if err == nil {
			t.Errorf("Lookup(%q) accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), "unknown cost preset") {
			t.Errorf("Lookup(%q) error %q lacks the unknown-preset prefix", name, err)
		}
		for _, valid := range names {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("Lookup(%q) error %q does not name valid preset %q", name, err, valid)
			}
		}
	}
}

// TestRegister: a registered model resolves by name to its derived constants
// and lists last; invalid models and names already in the table — the paper
// platform, an alias, an earlier model — panic (they are programming errors
// in a model library, not user input).
func TestRegister(t *testing.T) {
	m := testModel()
	if _, again := ByName(m.Name); !again { // -count=N reruns in one process
		Register(m)
	}
	if cm, err := Lookup(m.Name); err != nil || cm != m.Derive() {
		t.Errorf("Lookup(%q) = %+v, %v; want the model's derived constants", m.Name, cm, err)
	}
	if names := PresetNames(); names[len(names)-1] != m.Name {
		t.Errorf("registered model not last: %v", names)
	}
	named := func(name string) Model { d := testModel(); d.Name = name; return d }
	for _, m := range []Model{
		named("paper"), named("hw-diff"), named(m.Name),
		{Name: ""},
		{Name: "bad-cpu", P: Primitives{CPUMHz: 0, IPC: 1, WireGbps: 1}},
		{Name: "bad-wire", P: Primitives{CPUMHz: 100, IPC: 1, WireGbps: 0}},
		{Name: "bad-corr", P: Primitives{CPUMHz: 100, IPC: 1, WireGbps: 1},
			C: Corrections{MsgFixed: 100}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%q) did not panic", m.Name)
				}
			}()
			Register(m)
		}()
	}
}
