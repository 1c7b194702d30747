// Genericapp: how to add an application. The program is written ONCE, as
// the Program method over core.DSM, for both models and for the sequential
// reference; the runner hands it the protocol node (or run.Local) directly.
// See DESIGN.md, "Access path" and "Adding an application".
package main

import (
	"fmt"
	"log"

	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/run"
	"ecvslrc/internal/sim"
)

// histogram is a minimal DSM application: every processor increments a
// shared bucket array under one lock, then everyone reads the totals.
type histogram struct {
	buckets int
	rounds  int
	base    mem.Addr
	nprocs  int
}

const histLock = core.LockID(1)

// Name implements run.App.
func (h *histogram) Name() string { return "histogram" }

// Layout implements run.App.
func (h *histogram) Layout(al *mem.Allocator) {
	h.base = al.Alloc("buckets", h.buckets*4, 4)
}

// Init implements run.App.
func (h *histogram) Init(im *mem.Image) {}

// Program implements run.App: the per-processor program, one source for
// both models (Section 3.3's dual programming style).
func (h *histogram) Program(d core.DSM) {
	ec := d.Model() == core.EC
	h.nprocs = d.NProcs()
	d.Bind(histLock, mem.Range{Base: h.base, Len: h.buckets * 4})
	for r := 0; r < h.rounds; r++ {
		d.Acquire(histLock)
		for b := 0; b < h.buckets; b++ {
			a := h.base + mem.Addr(4*b)
			d.WriteI32(a, d.ReadI32(a)+int32(d.Proc()+1))
		}
		d.Compute(20 * sim.Microsecond)
		d.Release(histLock)
		d.Barrier(0)
		if ec {
			d.AcquireRead(histLock)
		}
		var sum int64
		for b := 0; b < h.buckets; b++ {
			sum += int64(d.ReadI32(h.base + mem.Addr(4*b)))
		}
		_ = sum
		if ec {
			d.Release(histLock)
		}
		d.Barrier(1)
	}
	d.StatsEnd()
	if d.Proc() == 0 {
		if ec {
			d.AcquireRead(histLock)
		}
		for b := 0; b < h.buckets; b++ {
			_ = d.ReadI32(h.base + mem.Addr(4*b))
		}
		if ec {
			d.Release(histLock)
		}
	}
}

// Verify implements run.App: each bucket accumulated rounds * sum(1..P).
func (h *histogram) Verify(im *mem.Image) error {
	want := int32(h.rounds * h.nprocs * (h.nprocs + 1) / 2)
	for b := 0; b < h.buckets; b++ {
		if got := im.ReadI32(h.base + mem.Addr(4*b)); got != want {
			return fmt.Errorf("histogram: bucket[%d] = %d, want %d", b, got, want)
		}
	}
	return nil
}

func main() {
	fmt.Println("custom app on all six implementations, 4 processors")
	for _, impl := range core.Implementations() {
		app := &histogram{buckets: 256, rounds: 8}
		res, err := run.Run(app, impl, 4, fabric.DefaultCostModel())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %s\n", impl, res.Stats)
	}
}
