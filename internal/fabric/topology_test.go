package fabric

import (
	"strings"
	"testing"

	"ecvslrc/internal/sim"
)

func TestTopologyValidate(t *testing.T) {
	cases := []struct {
		name string
		topo Topology
		want string // substring of the error, "" for valid
	}{
		{"valid-minimal", Topology{Radix: 2, Taper: 1}, ""},
		{"valid-full", Topology{Radix: 8, Taper: 4, ForcedStages: 3}, ""},
		{"radix-one", Topology{Radix: 1, Taper: 1}, "radix 1 < 2"},
		{"radix-zero", Topology{Radix: 0, Taper: 1}, "radix 0 < 2"},
		{"radix-negative", Topology{Radix: -4, Taper: 1}, "radix -4 < 2"},
		{"taper-below-one", Topology{Radix: 4, Taper: 0.5}, "taper 0.5 outside"},
		{"taper-above-radix", Topology{Radix: 4, Taper: 4.5}, "taper 4.5 outside"},
		{"taper-zero", Topology{Radix: 4, Taper: 0}, "taper 0 outside"},
		{"stages-negative", Topology{Radix: 4, Taper: 1, ForcedStages: -1}, "stages -1 outside"},
		{"stages-too-many", Topology{Radix: 2, Taper: 1, ForcedStages: 17}, "stages 17 outside"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.topo.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestTopologyStages(t *testing.T) {
	cases := []struct {
		topo   Topology
		nprocs int
		want   int
	}{
		{Topology{Radix: 2, Taper: 1}, 8, 3},
		{Topology{Radix: 2, Taper: 1}, 9, 4},
		{Topology{Radix: 4, Taper: 1}, 64, 3},
		{Topology{Radix: 16, Taper: 1}, 8, 1},
		{Topology{Radix: 16, Taper: 1}, 1024, 3},
		{Topology{Radix: 2, Taper: 1, ForcedStages: 5}, 8, 5},
	}
	for _, tc := range cases {
		if got := tc.topo.Stages(tc.nprocs); got != tc.want {
			t.Errorf("%+v.Stages(%d) = %d, want %d", tc.topo, tc.nprocs, got, tc.want)
		}
	}
}

func TestTopologyString(t *testing.T) {
	cases := []struct {
		topo Topology
		want string
	}{
		{Topology{Radix: 8, Taper: 1}, "clos:radix=8"},
		{Topology{Radix: 8, Taper: 2}, "clos:radix=8:taper=2"},
		{Topology{Radix: 4, Taper: 1, ForcedStages: 2}, "clos:radix=4:stages=2"},
		{Topology{Radix: 4, Taper: 4, ForcedStages: 1}, "clos:radix=4:taper=4:stages=1"},
	}
	for _, tc := range cases {
		if got := tc.topo.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

// TestTopologyLatencyClimbsLCA pins the per-level latency model: a message
// pays level x WireLatency of wire time, where level is the lowest common
// switch of the endpoints.
func TestTopologyLatencyClimbsLCA(t *testing.T) {
	for _, tc := range []struct {
		to    int
		level int
	}{
		{1, 1}, // same first-level switch
		{2, 2}, // siblings' parent
		{5, 3}, // across the root of an 8-leaf radix-2 tree
	} {
		s := sim.New()
		n := New(s, flatCost(), 8)
		if err := n.EnableTopology(Topology{Radix: 2, Taper: 1}); err != nil {
			t.Fatal(err)
		}
		var arriveAt sim.Time
		p0 := s.Spawn("p0", func(p *sim.Proc) {
			n.Send(p, tc.to, 7, 8, Payload{})
		})
		procs := []*sim.Proc{p0}
		for i := 1; i < 8; i++ {
			procs = append(procs, s.Spawn("p", func(p *sim.Proc) {}))
		}
		for i, p := range procs {
			i, p := i, p
			n.Attach(p, func(hc *HandlerCtx, m Msg) {
				if i != tc.to {
					t.Errorf("processor %d got a message addressed to %d", i, tc.to)
				}
				arriveAt = hc.Now() - n.cm.HandlerFixed
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		// 100µs programmed send, then the switch traversal.
		if want := 100*sim.Microsecond + sim.Time(tc.level)*n.cm.WireLatency; arriveAt != want {
			t.Errorf("to=%d: arrival = %v, want %v", tc.to, arriveAt, want)
		}
	}
}

// TestTopologyTaperSerializes pins tapered contention: with Taper == Radix
// every level runs at single-link speed, so two transfers crossing the same
// top-level switch serialize; with Taper == 1 (full bisection) the level's
// aggregate capacity scales and the same transfers overlap, strictly faster.
func TestTopologyTaperSerializes(t *testing.T) {
	finish := func(taper float64) sim.Time {
		s := sim.New()
		cm := flatCost()
		cm.LinkPerByte = 100 * sim.Nanosecond
		n := New(s, cm, 4)
		n.EnableContention()
		if err := n.EnableTopology(Topology{Radix: 2, Taper: taper}); err != nil {
			t.Fatal(err)
		}
		var last sim.Time
		mk := func(from, to int) *sim.Proc {
			return s.Spawn("sender", func(p *sim.Proc) {
				if from == p.ID() {
					n.Send(p, to, 7, 4096, Payload{})
				}
			})
		}
		procs := []*sim.Proc{mk(0, 2), mk(1, 3), mk(2, 0), mk(3, 0)}
		for _, p := range procs {
			n.Attach(p, func(hc *HandlerCtx, m Msg) {
				if hc.Now() > last {
					last = hc.Now()
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	serial := finish(2) // taper == radix: single-link speed at every level
	overlap := finish(1)
	if overlap >= serial {
		t.Errorf("full-bisection finish %v not faster than tapered %v", overlap, serial)
	}
}

// TestParseTopology pins the `-topo` / topo= grammar (moved here from
// internal/sweep with the parser).
func TestParseTopology(t *testing.T) {
	cases := []struct {
		spec string
		want *Topology
		err  string // substring of the rejection, "" for accepted
	}{
		{spec: "flat", want: nil},
		{spec: "clos:radix=8", want: &Topology{Radix: 8, Taper: 1}},
		{spec: "clos:radix=16:taper=4", want: &Topology{Radix: 16, Taper: 4}},
		{spec: "clos:radix=4:taper=1.5:stages=3", want: &Topology{Radix: 4, Taper: 1.5, ForcedStages: 3}},
		// Key order is free; the canonical form fixes it.
		{spec: "clos:stages=2:radix=2", want: &Topology{Radix: 2, Taper: 1, ForcedStages: 2}},

		// Degenerate geometries: rejected by Topology.Validate.
		{spec: "clos:radix=1", err: "radix 1 < 2"},
		{spec: "clos:radix=0", err: "radix 0 < 2"},
		{spec: "clos:radix=-8", err: "radix -8 < 2"},
		{spec: "clos:radix=8:taper=0", err: "taper 0 outside"},
		{spec: "clos:radix=8:taper=9", err: "taper 9 outside"},
		{spec: "clos:radix=2:stages=-1", err: "stages -1 outside"},
		{spec: "clos:radix=2:stages=17", err: "stages 17 outside"},

		// Malformed specs.
		{spec: "", err: "neither"},
		{spec: "mesh:radix=4", err: "neither"},
		{spec: "clos", err: "radix is required"},
		{spec: "clos:taper=2", err: "radix is required"},
		{spec: "clos:radix=two", err: "not an integer"},
		{spec: "clos:radix=8:taper=fast", err: "not a number"},
		{spec: "clos:radix=8:stages=1.5", err: "not an integer"},
		{spec: "clos:radix=8:radix=8", err: "given twice"},
		{spec: "clos:radix=8:width=2", err: "unknown key"},
		{spec: "clos:radix=", err: "not key=value"},
		{spec: "clos:", err: "not key=value"},
	}
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			topo, err := ParseTopology(tc.spec)
			if tc.err != "" {
				if err == nil {
					t.Fatalf("ParseTopology(%q) accepted, want error containing %q", tc.spec, tc.err)
				}
				if !strings.Contains(err.Error(), tc.err) {
					t.Errorf("error %v does not contain %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseTopology(%q) = %v, want accept", tc.spec, err)
			}
			if tc.want == nil {
				if topo != nil {
					t.Fatalf("ParseTopology(%q) = %+v, want nil (flat)", tc.spec, topo)
				}
				return
			}
			if topo == nil || *topo != *tc.want {
				t.Fatalf("ParseTopology(%q) = %+v, want %+v", tc.spec, topo, tc.want)
			}
		})
	}
}

// FuzzParseTopology asserts the topology parser's contract on arbitrary
// input: it never panics, a rejection returns no topology, and every accepted
// spec yields either nil (the flat link) or a validated geometry whose
// canonical String form reparses to the identical topology (round-trip
// stability — the property variant naming depends on).
func FuzzParseTopology(f *testing.F) {
	f.Add("flat")
	f.Add("clos:radix=8")
	f.Add("clos:radix=16:taper=4")
	f.Add("clos:radix=4:taper=1.5:stages=3")
	f.Add("clos:stages=2:radix=2")
	f.Add("clos:radix=1")
	f.Add("clos:radix=0:taper=0")
	f.Add("clos:radix=8:taper=9")
	f.Add("clos:radix=2:stages=17")
	f.Add("clos:radix=8:radix=8")
	f.Add("clos")
	f.Add("mesh:radix=4")
	f.Add("clos:radix=9223372036854775808")
	f.Fuzz(func(t *testing.T, spec string) {
		topo, err := ParseTopology(spec)
		if err != nil {
			if topo != nil {
				t.Fatalf("rejected spec %q returned a non-nil topology", spec)
			}
			return
		}
		if topo == nil {
			if spec != "flat" {
				t.Fatalf("accepted spec %q yields nil topology but is not \"flat\"", spec)
			}
			return
		}
		if verr := topo.Validate(); verr != nil {
			t.Fatalf("accepted spec %q yields invalid topology: %v", spec, verr)
		}
		again, err := ParseTopology(topo.String())
		if err != nil {
			t.Fatalf("canonical form %q of accepted spec %q does not reparse: %v", topo.String(), spec, err)
		}
		if again == nil || *again != *topo {
			t.Fatalf("canonical form %q does not round-trip: %+v vs %+v", topo.String(), topo, again)
		}
	})
}
