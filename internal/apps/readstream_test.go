package apps

import (
	"fmt"
	"math"
	"testing"

	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/run"
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

// readStreams runs app on nprocs processors and returns every processor's
// read stream.
func readStreams(t *testing.T, name string, impl core.Impl, nprocs int, gc bool) []readStream {
	t.Helper()
	app, err := New(name, Test)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingApp{App: app, streams: make([]readStream, nprocs)}
	opts := run.Options{Machine: run.Machine{NoticeGC: gc}}
	if _, err := run.RunWith(rec, impl, nprocs, fabric.DefaultCostModel(), opts); err != nil {
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

// TestReadStreamsAgree is the per-read agreement check: on a race-free
// program every implementation, EC and LRC alike, must hand each processor
// the same values in the same order. Collecting a word late, applying two
// writers' modifications in the wrong order or pruning a record still needed
// changes some read, where final images and statistics may not move. The LRC
// implementations are also run with notice GC, which prunes the records an
// access miss would otherwise order its units by.
func TestReadStreamsAgree(t *testing.T) {
	const nprocs = 4
	impls := core.Implementations()
	for _, tc := range readStreamApps {
		t.Run(tc.name, func(t *testing.T) {
			if tc.skipWhy != "" {
				t.Skip(tc.skipWhy)
			}
			ref := readStreams(t, tc.name, impls[0], nprocs, false)
			var reads int64
			for _, s := range ref {
				reads += s.reads
			}
			if reads == 0 {
				t.Fatalf("%v: no processor read anything", impls[0])
			}
			for _, impl := range impls {
				gcs := []bool{false}
				if impl.Model == core.LRC {
					gcs = append(gcs, true)
				}
				for _, gc := range gcs {
					label := fmt.Sprintf("%v gc=%v", impl, gc)
					got := readStreams(t, tc.name, impl, nprocs, gc)
					for p := range ref {
						if got[p] != ref[p] {
							t.Errorf("%s: processor %d read %d values (digest %#x), %v read %d (digest %#x)",
								label, p, got[p].reads, got[p].digest, impls[0], ref[p].reads, ref[p].digest)
						}
					}
				}
			}
		})
	}
}
