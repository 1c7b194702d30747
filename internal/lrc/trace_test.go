package lrc

import (
	"slices"
	"testing"

	"ecvslrc/internal/fabric"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/sim"
	"ecvslrc/internal/trace"
)

// TestFaultTraceRecords runs a writer and a reader of one page with a tracer
// on the network. The writer's first store records one write fault, the
// fault's work and one page twin, in that order; the reader's access miss
// records one read fault.
func TestFaultTraceRecords(t *testing.T) {
	s := sim.New()
	net := fabric.New(s, fabric.DefaultCostModel(), 2)
	tr := trace.New(2)
	net.SetTracer(tr)
	al := mem.NewAllocator()
	base := al.Alloc("data", mem.PageSize, 4)
	pg := mem.PageOf(base)
	nodes := make([]*Node, 2)
	p0 := s.Spawn("writer", func(p *sim.Proc) {
		d := nodes[0]
		d.Acquire(0)
		d.WriteI32(base+8, 4242)
		d.Release(0)
		d.Barrier(1)
	})
	p1 := s.Spawn("reader", func(p *sim.Proc) {
		d := nodes[1]
		p.Sleep(sim.Millisecond) // let the writer win the first acquire
		d.Acquire(0)
		d.ReadI32(base + 8)
		d.Release(0)
		d.Barrier(1)
	})
	nodes[0] = New(p0, net, al, 2, diffImpl())
	nodes[1] = New(p1, net, al, 2, diffImpl())
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	kinds := make([][]trace.Kind, 2)
	writes := make([][]bool, 2)
	for _, r := range tr.Merged() {
		switch {
		case r.Kind == trace.EvFault && r.A == int32(pg):
			writes[r.Proc] = append(writes[r.Proc], r.Write())
		case r.Kind == trace.EvWork && r.B == trace.ObjPage && r.A == int32(pg):
		case r.Kind == trace.EvTwin && r.Domain() == trace.DomainPage && r.A == int32(pg):
		default:
			continue
		}
		kinds[r.Proc] = append(kinds[r.Proc], r.Kind)
	}
	want := []trace.Kind{trace.EvFault, trace.EvWork, trace.EvTwin}
	w := kinds[0]
	if len(w) < 3 || !slices.Equal(w[:3], want) || !slices.Equal(writes[0], []bool{true}) ||
		slices.Index(w[3:], trace.EvTwin) >= 0 {
		t.Errorf("writer: page %d records %v (fault writes %v), want %v first, one write fault and one twin", pg, w, writes[0], want)
	}
	if !slices.Equal(writes[1], []bool{false}) {
		t.Errorf("reader: page %d faults (write bits) %v, want one read fault", pg, writes[1])
	}
}
