package lrc

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/sim"
	"ecvslrc/internal/wcollect"
)

// closedVecs maps each record a test builds to the vector its writer held
// when it closed it. A record keeps only Σ vec; the happens-before oracle
// needs the whole vector.
type closedVecs map[*interval][]int32

// close makes writer proc's record idx from vec, as closeInterval does, and
// notes a copy of vec.
func (cv closedVecs) close(proc int, idx int32, vec []int32, pages []int) *interval {
	rec := newInterval(proc, idx, vec, pages)
	cv[rec] = slices.Clone(vec)
	return rec
}

// intervalBefore reports whether (p,i) happened before (q,j): q had seen p's
// interval i closed by the time it closed its own interval j. It is the
// pairwise definition orderUnits is checked against, and reads (q,j)'s
// vector from cv.
func (n *Node) intervalBefore(cv closedVecs, p int, i int32, q int, j int32) bool {
	if p == q {
		return i < j
	}
	rec := n.record(q, j)
	return rec != nil && cv[rec][p] >= i
}

// kahnOrder is a retired accessMiss ordering, kept as the test oracle:
// Kahn's algorithm over all-pairs in-degrees, always extracting the
// (proc, ival)-minimum source. O(k^2) happens-before tests per miss.
func (n *Node) kahnOrder(cv closedVecs, units []applyUnit) []applyUnit {
	before := func(a, b int) bool {
		return n.intervalBefore(cv, units[a].proc, units[a].ival, units[b].proc, units[b].ival)
	}
	indeg := make([]int, len(units))
	for b := range units {
		for a := range units {
			if a != b && before(a, b) {
				indeg[b]++
			}
		}
	}
	ordered := make([]applyUnit, 0, len(units))
	done := make([]bool, len(units))
	for len(ordered) < len(units) {
		pick := -1
		for i := range units {
			if done[i] || indeg[i] != 0 {
				continue
			}
			if pick < 0 || units[i].proc < units[pick].proc ||
				(units[i].proc == units[pick].proc && units[i].ival < units[pick].ival) {
				pick = i
			}
		}
		if pick < 0 {
			panic("lrc: cycle in interval happens-before order")
		}
		done[pick] = true
		ordered = append(ordered, units[pick])
		for b := range units {
			if !done[b] && before(pick, b) {
				indeg[b]--
			}
		}
	}
	return ordered
}

// firstSeenUnits is the retired split of a timestamp reply, splitStamped's
// oracle: one unit per interval in first-seen (address) order, each run
// appended to its unit.
func firstSeenUnits(units []applyUnit, pk wcollect.LRCPacking, proc int, sd wcollect.StampedData) []applyUnit {
	seg := len(units)
	for k, sr := range sd.Runs {
		_, iv := pk.Unpack(sr.Stamp)
		u := (*applyUnit)(nil)
		for j := seg; j < len(units); j++ {
			if units[j].ival == int32(iv) {
				u = &units[j]
				break
			}
		}
		if u == nil {
			units = append(units, applyUnit{proc: proc, ival: int32(iv)})
			u = &units[len(units)-1]
		}
		u.sr = append(u.sr, sr)
		u.dr = append(u.dr, sd.Data[k])
	}
	return units
}

// randomHistory plays a random execution of nprocs processors: each step one
// processor optionally learns another's vector (an acquire) and closes an
// interval, exactly as closeInterval and absorb maintain vectors. Real vector
// clocks keep the happens-before relation acyclic. It returns each writer's
// records and the vectors they closed with.
func randomHistory(rng *rand.Rand, nprocs, steps int) ([][]*interval, closedVecs) {
	records := make([][]*interval, nprocs)
	cv := closedVecs{}
	vecs := make([][]int32, nprocs)
	for p := range vecs {
		vecs[p] = make([]int32, nprocs)
	}
	for s := 0; s < steps; s++ {
		p := rng.Intn(nprocs)
		if q := rng.Intn(nprocs); q != p && rng.Intn(3) > 0 {
			for i, v := range vecs[q] {
				vecs[p][i] = max(vecs[p][i], v)
			}
		}
		idx := vecs[p][p] + 1
		records[p] = append(records[p], cv.close(p, idx, vecs[p], nil))
		vecs[p][p] = idx
	}
	return records, cv
}

// TestMissOrderExtendsHappensBefore is the seeded property test of the
// ordering: over random histories, writer sets, fetch windows, unknown
// records (the requester holds a random window (floor, held] of each
// writer's records, so it has no record of the units outside it) and — for the
// timestamp collection — address-ordered replies, orderUnits must return a
// permutation of the units that keeps each writer's interval order and
// respects every happens-before edge the Kahn oracle respects.
func TestMissOrderExtendsHappensBefore(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nprocs := 2 + rng.Intn(9)
		full, cv := randomHistory(rng, nprocs, 5+rng.Intn(60))
		n := &Node{}
		n.holdAll(full)
		for p, recs := range full {
			n.held[p] = int32(rng.Intn(len(recs) + 1))
		}
		stamped := seed%2 == 0
		pk := wcollect.NewLRCPacking(nprocs)

		var units, oracleUnits []applyUnit
		for p, recs := range full {
			if len(recs) == 0 || rng.Intn(3) == 0 {
				continue
			}
			var ivals []int32 // ascending: the intervals of p that touched the page
			for _, r := range recs {
				if rng.Intn(2) == 0 {
					ivals = append(ivals, r.idx)
				}
			}
			if len(ivals) == 0 {
				continue
			}
			if stamped {
				var sd wcollect.StampedData
				perm := rng.Perm(len(ivals)) // every interval at least once, scrambled over the page
				for k := 0; k < len(ivals) || rng.Intn(3) > 0; k++ {
					iv := ivals[rng.Intn(len(ivals))]
					if k < len(ivals) {
						iv = ivals[perm[k]]
					}
					base := mem.Addr(8 * k)
					sd.Runs = append(sd.Runs, wcollect.StampRun{Base: base, Len: 4, Stamp: pk.Stamp(p, int(iv))})
					sd.Data = append(sd.Data, wcollect.DataRun{Base: base, Data: []byte{byte(k)}})
				}
				oracleUnits = firstSeenUnits(oracleUnits, pk, p, sd)
				units = splitStamped(units, pk, p, &wcollect.StampedData{Runs: slices.Clone(sd.Runs), Data: slices.Clone(sd.Data)})
			} else {
				for _, iv := range ivals {
					units = append(units, applyUnit{proc: p, ival: iv})
				}
			}
		}
		if !stamped {
			oracleUnits = slices.Clone(units)
		}
		// Half the seeds of each collection also prune a prefix of what the
		// node holds, as the notice collector does: the node has no record
		// of those units either.
		if seed%4 < 2 {
			for p := range full {
				n.floor[p] = int32(rng.Intn(int(n.held[p]) + 1))
			}
		}

		var got []applyUnit
		for _, k := range n.orderUnits(nil, units) {
			got = append(got, units[k.i])
		}
		want := n.kahnOrder(cv, oracleUnits)
		desc := fmt.Sprintf("seed %d (%d procs, %d units, stamped=%v)\n got  %s\n kahn %s",
			seed, nprocs, len(units), stamped, unitNames(got), unitNames(want))

		// A permutation: the same units, each with its runs intact.
		byID := func(us []applyUnit) []applyUnit {
			us = slices.Clone(us)
			slices.SortFunc(us, func(a, b applyUnit) int {
				return cmp.Or(cmp.Compare(a.proc, b.proc), cmp.Compare(a.ival, b.ival))
			})
			return us
		}
		if !reflect.DeepEqual(byID(got), byID(oracleUnits)) {
			t.Fatalf("%s: not a permutation of the fetched units", desc)
		}
		pos := make(map[[2]int]int, len(got))
		for i, u := range got {
			pos[[2]int{u.proc, int(u.ival)}] = i
		}
		kahnPos := make(map[[2]int]int, len(want))
		for i, u := range want {
			kahnPos[[2]int{u.proc, int(u.ival)}] = i
		}
		// Every happens-before edge the oracle can see, which includes each
		// writer's own interval order.
		for _, a := range units {
			for _, b := range units {
				if !n.intervalBefore(cv, a.proc, a.ival, b.proc, b.ival) {
					continue
				}
				ka, kb := [2]int{a.proc, int(a.ival)}, [2]int{b.proc, int(b.ival)}
				if kahnPos[ka] > kahnPos[kb] {
					t.Fatalf("%s: the oracle puts (%d,%d) after (%d,%d)", desc, a.proc, a.ival, b.proc, b.ival)
				}
				if pos[ka] > pos[kb] {
					t.Fatalf("%s: (%d,%d) happened before (%d,%d) but is applied after it", desc, a.proc, a.ival, b.proc, b.ival)
				}
			}
		}
	}
}

func unitNames(us []applyUnit) string {
	s := ""
	for _, u := range us {
		s += fmt.Sprintf(" (%d,%d)", u.proc, u.ival)
	}
	return s
}

// TestRecordLookupOnPrunedHistory: a writer's log is index-contiguous, so a
// lookup is one subtraction from the log's base — which trimming moves — and
// a node holds (floor, held] of it. Pruned and future indices must miss,
// held ones must resolve at their shifted position, and records the log has
// but the node has not received must miss too.
func TestRecordLookupOnPrunedHistory(t *testing.T) {
	var recs []*interval
	for idx := int32(1); idx <= 8; idx++ {
		recs = append(recs, newInterval(1, idx, nil, nil))
	}
	n := &Node{}
	n.holdAll([][]*interval{nil, recs})
	n.floor[1] = 3 // the collector pruned 1..3 and trimmed the log there
	n.hist.trim(1, 3)
	for idx := int32(0); idx <= 10; idx++ {
		got := n.record(1, idx)
		if retained := idx >= 4 && idx <= 8; retained != (got != nil) || (got != nil && got.idx != idx) {
			t.Errorf("pruned history: record(1,%d) = %v", idx, got)
		}
	}
	for bound, want := range map[int32]int{0: 5, 3: 5, 4: 4, 7: 1, 8: 0, 12: 0} {
		after := n.recordsAfter(1, bound)
		if len(after) != want || (want > 0 && after[0].idx != max(bound, 3)+1) {
			t.Errorf("pruned history: recordsAfter(1,%d) has %d records, want %d", bound, len(after), want)
		}
	}
	if n.record(0, 1) != nil || len(n.recordsAfter(0, 0)) != 0 {
		t.Error("empty history must miss")
	}

	n.held[1] = 6 // a shared log runs ahead of what this node received
	if n.record(1, 6) != recs[5] || n.record(1, 7) != nil {
		t.Error("a record the node has not received must miss")
	}
	if after := n.recordsAfter(1, 4); len(after) != 2 || after[1] != recs[5] {
		t.Errorf("shared log: recordsAfter(1,4) has %d records, want 2", len(after))
	}
}

// TestAbsorbFanInUnion: a tree fan-in union arrives in (proc, idx) order,
// several writers at once; absorb must take each writer's records into its
// held range, merge the sender's vector and note the named pages' windows.
func TestAbsorbFanInUnion(t *testing.T) {
	newTestNode(t, diffImpl(), func(n *Node) {
		n.vec = make([]int32, 4)
		n.holdAll(make([][]*interval, 4))
		rec := func(proc int, idx int32) *interval { return newInterval(proc, idx, make([]int32, 4), []int{proc % 4}) }
		n.absorb([]*interval{rec(1, 1), rec(1, 2), rec(1, 3), rec(2, 1), rec(2, 2), rec(3, 1)}, []int32{0, 3, 2, 1})
		for proc, want := range [][]int32{nil, {1, 2, 3}, {1, 2}, {1}} {
			var got []int32
			for _, r := range n.recordsAfter(proc, 0) {
				got = append(got, r.idx)
			}
			if !slices.Equal(got, want) {
				t.Errorf("records[%d] = %v, want %v", proc, got, want)
			}
		}
		if !slices.Equal(n.vec, []int32{0, 3, 2, 1}) {
			t.Errorf("vec = %v", n.vec)
		}
		if w := n.meta[1].find(1); w == nil || w.noticed != 3 {
			t.Errorf("page 1 window for writer 1 = %+v, want noticed 3", w)
		}
	})
}

// TestMergeSubtreeArrivalSortsUnion: a tree fan-in node folds its children's
// subtree arrivals around its own records, which interleaves the writers; the
// union it sends up must be in the (proc, idx) order absorb takes, without
// reordering the children's record slices.
func TestMergeSubtreeArrivalSortsUnion(t *testing.T) {
	s := sim.New()
	net := fabric.New(s, fabric.DefaultCostModel(), 4)
	al := mem.NewAllocator()
	al.Alloc("data", 4*mem.PageSize, 4)
	var n *Node
	p := s.Spawn("p0", func(p *sim.Proc) {
		rec := func(proc int, idx int32) *interval { return newInterval(proc, idx, make([]int32, 4), []int{proc}) }
		own := []*interval{rec(0, 1), rec(0, 2)}
		sub1 := []*interval{rec(1, 1), rec(3, 1), rec(3, 2)} // child 1's subtree holds proc 3
		sub2 := []*interval{rec(2, 1)}
		sent1, sent2 := slices.Clone(sub1), slices.Clone(sub2)
		n.arrivalRecs[1], n.arrivalVecs[1] = sub1, []int32{0, 1, 0, 2}
		n.arrivalRecs[2], n.arrivalVecs[2] = sub2, []int32{0, 0, 1, 0}
		up, _, _ := (*barrierHooks)(n).MergeSubtreeArrival(0, fabric.Payload{Vec: []int32{2, 0, 0, 0}, Body: n.newNotices(own)})
		var got [][2]int32
		for _, r := range up.Body.(*noticeBody).records {
			got = append(got, [2]int32{int32(r.proc), r.idx})
		}
		want := [][2]int32{{0, 1}, {0, 2}, {1, 1}, {2, 1}, {3, 1}, {3, 2}}
		if !slices.Equal(got, want) {
			t.Errorf("merged union = %v, want %v", got, want)
		}
		if !slices.Equal(sub1, sent1) || !slices.Equal(sub2, sent2) {
			t.Error("the merge reordered a child's record slice")
		}
		if !slices.Equal(up.Vec, []int32{2, 1, 1, 2}) {
			t.Errorf("merged vec = %v", up.Vec)
		}
	})
	n = New(p, net, al, 4, diffImpl())
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestAccessMissSteadyStateAllocs is the strict allocation guard of the miss
// path, in the style of fabric's TestDeliverSteadyStateAllocs: once the
// per-node scratch, the fetch waiters and the servers' reply free lists are
// warm, an access miss on a page with four concurrent writers performs zero
// heap allocations end to end — requests, handlers, replies, ordering and
// application — whether it is served from already-harvested diffs or by a
// timestamp scan extracted into the servers' recycled reply bodies.
func TestAccessMissSteadyStateAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// The Mallocs delta is process-wide: on one P, no other goroutine of the
	// test binary (the tail of an earlier test, say) runs beside the measured
	// miss, as testing.AllocsPerRun arranges.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	timeImpl := core.Impl{Model: core.LRC, Trap: core.Twinning, Collect: core.Timestamps}
	for _, impl := range []core.Impl{diffImpl(), timeImpl} {
		t.Run(impl.String(), func(t *testing.T) { accessMissSteadyStateAllocs(t, impl) })
	}
}

func accessMissSteadyStateAllocs(t *testing.T, impl core.Impl) {
	const writers, warm, rounds = 4, 3, 8
	const nprocs = writers + 2
	harvester, measured := writers, writers+1
	s := sim.New()
	net := fabric.New(s, fabric.DefaultCostModel(), nprocs)
	al := mem.NewAllocator()
	base := al.Alloc("page", mem.PageSize, 4)
	nodes := make([]*Node, nprocs)
	var delta uint64
	var misses int64
	for i := range nodes {
		i := i
		p := s.Spawn("p", func(p *sim.Proc) {
			nd := nodes[i]
			for k := 0; k < warm+rounds; k++ {
				if i < writers {
					nd.WriteI32(base+mem.Addr(i*mem.WordSize), int32(k+1))
				}
				nd.Barrier(0)
				switch i {
				case harvester:
					// The first reader makes every writer create its diff.
					nd.ReadI32(base)
				case measured:
					// By now the writers and the harvester wait at the next
					// barrier: nothing else runs during the measured miss.
					p.Sleep(100 * sim.Millisecond)
					var m0, m1 runtime.MemStats
					runtime.ReadMemStats(&m0)
					before := nd.Tally.AccessMisses
					got := nd.ReadI32(base + mem.Addr((writers-1)*mem.WordSize))
					runtime.ReadMemStats(&m1)
					if got != int32(k+1) {
						t.Errorf("round %d: read %d, want %d", k, got, k+1)
					}
					if k >= warm {
						delta += m1.Mallocs - m0.Mallocs
						misses += nd.Tally.AccessMisses - before
					}
				}
				nd.Barrier(1)
			}
		})
		nodes[i] = New(p, net, al, nprocs, impl)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if misses != rounds {
		t.Fatalf("measured %d access misses, want %d", misses, rounds)
	}
	if delta != 0 {
		t.Errorf("%d warm %d-writer access misses allocated %d objects, want 0", rounds, writers, delta)
	}
}
