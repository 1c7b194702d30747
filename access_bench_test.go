package ecvslrc

import (
	"testing"

	"ecvslrc/internal/core"
	"ecvslrc/internal/ec"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/lrc"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/sim"
)

// BenchmarkDSMAccess is the per-word hot-path guard: a tight read/write loop
// over every implementation's access frontend, called through core.DSM as the
// application programs call it. CI runs it with -benchmem and requires
// 0 allocs/op on every line — the in-window access path must never allocate.
func BenchmarkDSMAccess(b *testing.B) {
	for _, impl := range core.Implementations() {
		b.Run(impl.String(), func(b *testing.B) { benchAccess(b, impl) })
	}
}

// accessLoop is the measured kernel: integer and float traffic over one page
// (a word-strided sweep, the suite's common access pattern).
func accessLoop(d core.DSM, base mem.Addr, n int) {
	for i := 0; i < n; i++ {
		a := base + mem.Addr((i&511)*4)
		d.WriteI32(a, int32(i))
		_ = d.ReadI32(a)
		f := base + mem.Addr(2048+(i&255)*8)
		d.WriteF64(f, float64(i))
		_ = d.ReadF64(f)
	}
}

func benchAccess(b *testing.B, impl core.Impl) {
	s := sim.New()
	net := fabric.New(s, fabric.DefaultCostModel(), 1)
	al := mem.NewAllocator()
	base := al.Alloc("bench", mem.PageSize, 4)
	var d core.DSM
	p := s.Spawn("bench", func(p *sim.Proc) { accessLoop(d, base, b.N) })
	switch impl.Model {
	case core.EC:
		d = ec.New(p, net, al, 1, impl)
	case core.LRC:
		d = lrc.New(p, net, al, 1, impl)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
