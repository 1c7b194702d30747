package apps

import (
	"math"
	"testing"

	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/run"
	"ecvslrc/internal/trace"
)

// readStream is one processor's shared-memory read stream, folded as it
// happens: every read's (address, value) enters an order-sensitive 64-bit
// digest.
type readStream struct {
	digest uint64
	reads  int64
}

func (s *readStream) fold(a mem.Addr, bits uint64) {
	const prime = 1099511628211 // FNV-1a's 64-bit prime
	s.digest = (s.digest ^ uint64(a)) * prime
	s.digest = (s.digest ^ bits) * prime
	s.reads++
}

// recordingDSM passes every call on to the node and records each read's
// address and value; the value is what the application saw, so two runs with
// equal streams fed their programs the same data in the same order.
type recordingDSM struct {
	core.DSM
	s *readStream
}

func (d recordingDSM) ReadI32(a mem.Addr) int32 {
	v := d.DSM.ReadI32(a)
	d.s.fold(a, uint64(uint32(v)))
	return v
}

func (d recordingDSM) ReadF32(a mem.Addr) float32 {
	v := d.DSM.ReadF32(a)
	d.s.fold(a, uint64(math.Float32bits(v)))
	return v
}

func (d recordingDSM) ReadF64(a mem.Addr) float64 {
	v := d.DSM.ReadF64(a)
	d.s.fold(a, math.Float64bits(v))
	return v
}

// recordingApp is an application whose Program sees a recordingDSM.
type recordingApp struct {
	run.App
	streams []readStream
}

func (a *recordingApp) Program(d core.DSM) {
	a.App.Program(recordingDSM{DSM: d, s: &a.streams[d.Proc()]})
}

// readStreams runs app at scale on nprocs processors under cost model cm and
// options opts, and returns every processor's read stream.
func readStreams(t *testing.T, name string, scale Scale, impl core.Impl, nprocs int, cm fabric.CostModel, opts run.Options) []readStream {
	t.Helper()
	app, err := New(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingApp{App: app, streams: make([]readStream, nprocs)}
	if _, err := run.RunWith(rec, impl, nprocs, cm, opts); err != nil {
		t.Fatal(err)
	}
	return rec.streams
}

// readStreamApps says, per application, whether its per-processor read
// streams are a property of the program alone. Where the order in which
// processors win a lock depends on timing, what each one reads moves with
// the implementation, and agreement needs a check that orders lock grants
// first.
var readStreamApps = []struct {
	name    string
	skipWhy string
}{
	{"SOR", ""},
	{"SOR+", ""},
	{"Barnes-Hut", ""},
	{"3D-FFT", ""},
	{"micro-producer-consumer", ""},
	{"micro-false-sharing", ""},
	{"micro-prefetch", ""},
	{"micro-rebinding", ""},
	{"QS", "needs 15(b): lock order moves with timing"},
	{"Water", "needs 15(b): lock order moves with timing"},
	{"IS", "needs 15(b): lock order moves with timing"},
	{"micro-migratory", "needs 15(b): lock order moves with timing"},
}

// readStreamMachine is one machine the agreement is held on: a problem
// scale, a cost model and the run options beyond it. opts builds the options
// afresh for every run, because a tracer records one run.
type readStreamMachine struct {
	name  string
	scale Scale
	cm    fabric.CostModel
	opts  func() run.Options
}

// readStreamMachines are the paper's machine at test and bench scale, with
// and without notice GC, and one row per machine axis that changes the
// timing of every message: link contention, a multi-stage switch with and
// without contention, tree barriers, two fault plans, a faster network, and
// the dispatch-ordered run (a tracer recording the dispatch stream, which
// turns run-ahead off).
func readStreamMachines(t *testing.T, nprocs int) []readStreamMachine {
	t.Helper()
	clos, err := fabric.ParseTopology("clos:radix=2")
	if err != nil {
		t.Fatal(err)
	}
	plan := func(name string) *fabric.FaultPlan {
		p, err := fabric.FaultPreset(name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	drop, chaos := plan("drop1e-2"), plan("chaos")
	paper := fabric.DefaultCostModel()
	machine := func(m run.Machine) func() run.Options {
		return func() run.Options { return run.Options{Machine: m} }
	}
	return []readStreamMachine{
		{"paper", Test, paper, machine(run.Machine{})},
		{"gc", Test, paper, machine(run.Machine{NoticeGC: true})},
		{"contention", Test, paper, machine(run.Machine{Contention: true})},
		{"clos:radix=2", Test, paper, machine(run.Machine{Topology: clos})},
		{"clos:radix=2/contention", Test, paper, machine(run.Machine{Topology: clos, Contention: true})},
		{"fanin=2", Test, paper, machine(run.Machine{BarrierFanIn: 2})},
		{"drop1e-2", Test, paper, machine(run.Machine{Faults: drop})},
		{"chaos", Test, paper, machine(run.Machine{Faults: chaos})},
		{"net=x4", Test, paper.ScaleNetwork(4), machine(run.Machine{})},
		{"sched", Test, paper, func() run.Options {
			tr := trace.New(nprocs)
			tr.EnableSched()
			return run.Options{Trace: tr}
		}},
		{"bench", Bench, paper, machine(run.Machine{})},
		{"bench/gc", Bench, paper, machine(run.Machine{NoticeGC: true})},
	}
}

// TestReadStreamsAgree is the per-read agreement check: on a race-free
// program every implementation, EC and LRC alike, on every machine, must
// hand each processor the same values in the same order as the first
// implementation on the paper's machine at the same scale. Collecting a word
// late, applying two writers' modifications in the wrong order, pruning a
// record still needed, or delivering a retransmitted or reordered frame
// twice or out of order changes some read, where final images and
// statistics may not move. The machine axes move every message's timing;
// the notice-GC rows prune the records an access miss would otherwise order
// its units by.
func TestReadStreamsAgree(t *testing.T) {
	const nprocs = 4
	impls := core.Implementations()
	machines := readStreamMachines(t, nprocs)
	for _, tc := range readStreamApps {
		t.Run(tc.name, func(t *testing.T) {
			if tc.skipWhy != "" {
				t.Skip(tc.skipWhy)
			}
			refs := make(map[Scale][]readStream)
			for _, m := range machines {
				if refs[m.scale] != nil {
					continue
				}
				ref := readStreams(t, tc.name, m.scale, impls[0], nprocs, fabric.DefaultCostModel(), run.Options{})
				var reads int64
				for _, s := range ref {
					reads += s.reads
				}
				if reads == 0 {
					t.Fatalf("%v at %v: no processor read anything", impls[0], m.scale)
				}
				refs[m.scale] = ref
			}
			for _, m := range machines {
				t.Run(m.name, func(t *testing.T) {
					ref := refs[m.scale]
					for _, impl := range impls {
						got := readStreams(t, tc.name, m.scale, impl, nprocs, m.cm, m.opts())
						for p := range ref {
							if got[p] != ref[p] {
								t.Errorf("%v: processor %d read %d values (digest %#x), %v on the paper machine read %d (digest %#x)",
									impl, p, got[p].reads, got[p].digest, impls[0], ref[p].reads, ref[p].digest)
							}
						}
					}
				})
			}
		})
	}
}
