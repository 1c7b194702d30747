package ecvslrc

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/run"
	"ecvslrc/internal/trace"
)

// faultPlans are the seeded recoverable plans the equivalence invariant is
// pinned under — the same set the CI chaos job runs.
func faultPlans(t *testing.T) map[string]*fabric.FaultPlan {
	t.Helper()
	out := make(map[string]*fabric.FaultPlan)
	for _, name := range []string{"drop1e-3", "drop1e-2", "chaos"} {
		p, err := fabric.FaultPreset(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = p
	}
	return out
}

func runFaulted(t *testing.T, appName string, impl core.Impl, nprocs int, plan *fabric.FaultPlan) run.Result {
	t.Helper()
	a, err := apps.New(appName, apps.Test)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.RunWith(a, impl, nprocs, fabric.DefaultCostModel(), run.Options{
		Machine:   run.Machine{Faults: plan},
		KeepImage: true,
		Timeout:   cellTimeout,
	})
	if err != nil {
		t.Fatalf("%s on %v under faults %+v: %v", appName, impl, plan, err)
	}
	return res
}

// scheduleDependentRegions names, per application, the shared regions whose
// final bytes are a function of cross-processor scheduling order rather than
// of the computed result: Water accumulates forces with `f += contribution`
// under per-molecule locks (float addition is not associative, so the sum's
// low bits follow the lock-grant order), and QS's work-queue bookkeeping
// records which processor popped which task. Fault-induced timing shifts
// legally reorder lock grants, so these regions are excluded from the
// bitwise cross-plan comparison; they are still checked for correctness by
// every run's own sequential-reference verification (app.Verify inside
// RunWith), and TestFaultDeterminism pins them bit-for-bit across repeated
// runs of the same plan. Every other byte of every app's image — including
// QS's sorted output array and all of Water's displacements — must match the
// fault-free run exactly.
var scheduleDependentRegions = map[string]map[string]bool{
	"Water": {"molecules": true, "forces": true},
	"QS":    {"queue": true},
}

// maskScheduleDependent zeroes the schedule-dependent regions of img (a copy)
// so the remainder can be compared bitwise.
func maskScheduleDependent(t *testing.T, appName string, al *mem.Allocator, img []byte) []byte {
	t.Helper()
	masked := append([]byte(nil), img...)
	for _, r := range al.Regions() {
		if scheduleDependentRegions[appName][r.Name] {
			for i := int(r.Base); i < int(r.Base)+r.Size; i++ {
				masked[i] = 0
			}
		}
	}
	return masked
}

// describeImageDiff reports which shared regions differ between two final
// images, for diagnosing equivalence failures.
func describeImageDiff(t *testing.T, al *mem.Allocator, a, b []byte) string {
	t.Helper()
	var diff []string
	for _, r := range al.Regions() {
		ra, rb := a[r.Base:int(r.Base)+r.Size], b[r.Base:int(r.Base)+r.Size]
		if !bytes.Equal(ra, rb) {
			n := 0
			for i := range ra {
				if ra[i] != rb[i] {
					n++
				}
			}
			diff = append(diff, fmt.Sprintf("%s (%d/%d bytes)", r.Name, n, r.Size))
		}
	}
	if len(diff) == 0 {
		return "padding only"
	}
	return fmt.Sprintf("%v", diff)
}

// TestFaultEquivalence pins the tentpole invariant: under every recoverable
// fault plan, every application x implementation completes, passes its own
// sequential-reference verification, and produces the same final memory
// image as the fault-free run, bit for bit, outside the documented
// schedule-dependent regions (see scheduleDependentRegions). The reliable
// sublayer guarantees exactly-once in-order delivery per link, so protocol
// state never corrupts; only synchronization order — and with it the low
// bits of locked float accumulations — may shift.
func TestFaultEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix of faulted runs")
	}
	const nprocs = 4
	plans := faultPlans(t)
	for _, appName := range apps.Names() {
		appName := appName
		t.Run(appName, func(t *testing.T) {
			t.Parallel()
			a, err := apps.New(appName, apps.Test)
			if err != nil {
				t.Fatal(err)
			}
			al := mem.NewAllocator()
			a.Layout(al)
			for _, impl := range core.Implementations() {
				baseline := runFaulted(t, appName, impl, nprocs, nil)
				baseMasked := maskScheduleDependent(t, appName, al, baseline.Image)
				for pname, plan := range plans {
					res := runFaulted(t, appName, impl, nprocs, plan)
					if res.Faults.Sent == 0 {
						t.Errorf("%v/%s: fault plan active but no frames counted", impl, pname)
					}
					if !bytes.Equal(maskScheduleDependent(t, appName, al, res.Image), baseMasked) {
						t.Errorf("%v/%s: final image differs from fault-free run: %s",
							impl, pname, describeImageDiff(t, al, baseline.Image, res.Image))
					}
				}
			}
		})
	}
}

// TestFaultTraceAttribution runs a traced lossy run end to end and checks
// the recovery shows up in the attribution layer: per-link drop/retransmit
// counters in the analysis and the fault section in the markdown report.
func TestFaultTraceAttribution(t *testing.T) {
	const nprocs = 4
	a, err := apps.New("SOR", apps.Test)
	if err != nil {
		t.Fatal(err)
	}
	impl, err := core.ParseImpl("LRC-diff")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fabric.FaultPreset("drop1e-2")
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(nprocs)
	res, err := run.RunWith(a, impl, nprocs, fabric.DefaultCostModel(), run.Options{
		Machine: run.Machine{Faults: plan}, Trace: tr, Timeout: cellTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Dropped == 0 {
		t.Fatal("1% loss dropped nothing at Test scale")
	}
	fresh, err := apps.New("SOR", apps.Test)
	if err != nil {
		t.Fatal(err)
	}
	an := trace.Analyze(tr, run.TraceMeta(fresh, impl, nprocs, "test"))
	if len(an.Links) == 0 {
		t.Fatal("faulted run produced no per-link fault reports")
	}
	var drops, acks int64
	for _, l := range an.Links {
		drops += l.Drops
		acks += l.Acks
	}
	if drops != res.Faults.Dropped {
		t.Errorf("trace counts %d drops, fabric counted %d", drops, res.Faults.Dropped)
	}
	if acks == 0 {
		t.Error("no acks in the trace")
	}
	var buf bytes.Buffer
	if err := trace.WriteMarkdown(&buf, an); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fault injection per link") {
		t.Error("markdown report has no fault section")
	}
}

// TestFaultDeterminism pins byte-determinism: two runs of the same
// (application, implementation, plan, seed) produce identical images,
// statistics and fault counters.
func TestFaultDeterminism(t *testing.T) {
	plans := faultPlans(t)
	const nprocs = 4
	for _, appName := range []string{"SOR", "Water", "QS"} {
		for _, pname := range []string{"drop1e-2", "chaos"} {
			impl, err := core.ParseImpl("LRC-diff")
			if err != nil {
				t.Fatal(err)
			}
			r1 := runFaulted(t, appName, impl, nprocs, plans[pname])
			r2 := runFaulted(t, appName, impl, nprocs, plans[pname])
			if !bytes.Equal(r1.Image, r2.Image) {
				t.Errorf("%s/%s: images differ across identical runs", appName, pname)
			}
			r1.Image, r2.Image = nil, nil
			if !reflect.DeepEqual(r1, r2) {
				t.Errorf("%s/%s: results differ across identical runs:\n%+v\nvs\n%+v", appName, pname, r1, r2)
			}
		}
	}
}
