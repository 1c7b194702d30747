package ec

import (
	"slices"
	"testing"

	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/sim"
	"ecvslrc/internal/trace"
)

// TestTwinFaultTraceRecords writes to a page of a large binding under
// twinning with a tracer on the network: the node records one write fault,
// the fault's work and one page twin, in that order.
func TestTwinFaultTraceRecords(t *testing.T) {
	s := sim.New()
	net := fabric.New(s, fabric.DefaultCostModel(), 1)
	tr := trace.New(1)
	net.SetTracer(tr)
	al := mem.NewAllocator()
	base := al.Alloc("data", 4*mem.PageSize, 4)
	const pg = 1
	var n *Node
	p := s.Spawn("p0", func(*sim.Proc) {
		n.Bind(1, mem.Range{Base: base, Len: 2 * mem.PageSize})
		n.Acquire(1)
		n.WriteI32(mem.PageBase(pg)+8, 7)
		n.Release(1)
	})
	n = New(p, net, al, 1, core.Impl{Model: core.EC, Trap: core.Twinning, Collect: core.Diffs})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var kinds []trace.Kind
	for _, r := range tr.Merged() {
		switch {
		case r.Kind == trace.EvFault && r.A == pg:
			if !r.Write() {
				t.Error("the fault is not recorded as a write")
			}
		case r.Kind == trace.EvWork && r.B == trace.ObjPage && r.A == pg:
		case r.Kind == trace.EvTwin && r.Domain() == trace.DomainPage && r.A == pg:
		default:
			continue
		}
		kinds = append(kinds, r.Kind)
	}
	want := []trace.Kind{trace.EvFault, trace.EvWork, trace.EvTwin}
	if !slices.Equal(kinds, want) {
		t.Errorf("page %d records %v, want %v", pg, kinds, want)
	}
}
