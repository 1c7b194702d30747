// Notice-history garbage collection: the real TreadMarks scaling problem.
// Without it every node's interval records and every writer's diff store grow
// without bound — O(intervals x procs) memory per node, which is what stops a
// 1996 protocol at 8 processors from becoming a 1024-processor machine.
//
// The collector is simulator-omniscient: it runs at the barrier quiescent
// point (the end of PrepareDepartures at the managing node), when every
// processor is provably blocked at the same barrier. At that instant no
// record-carrying message is in flight — lock grants and fetch replies go to
// blocked-waiting processors whose requests were already consumed, and the
// barrier departures have not been made yet — so global state is stable and
// an exact kill floor can be computed instead of TreadMarks' heuristics.
// Collection does zero protocol work: no messages, no simulated time, no
// cost-model charges. Equivalence (identical core.Stats and final memory
// images with GC on vs off) is pinned by TestNoticeGCEquivalence.
//
// Keying rule. Retained state is consulted by exactly three futures, and
// each gets its own floor:
//
//   - Interval records live once per run, in the History log of their
//     writer; node y holds writer q's records (floor_y[q], held_y[q]] of
//     it. They serve y two purposes: forwarding to peers (collectNotices
//     sends only records past the requester's vector, and every vector is
//     at least minVec[q] = min over nodes of vec[q]), and happens-before
//     ordering of y's OWN access misses (the merge in accessMiss consults
//     record (q,j) only for j inside one of y's pending fetch windows
//     (applied, noticed]). So records of writer q at node y are dead up to
//     min(minVec[q], min applied over y's own pending windows for q); for
//     y == q additionally capped by lastBarrierSent, since q's next barrier
//     arrival re-sends its own records past that mark. A pass raises
//     floor_y[q] to that line (a floor never falls), then trims each
//     writer's log below the lowest floor of any node. Re-absorption of a
//     pruned record is impossible — a node's vector covers every record it
//     ever absorbed, so peers never resend them (the violation counter
//     enforces this).
//
//   - Diffs live at their writer and are served only to fetch windows on
//     one page. A node with a window (applied, noticed] never asks below
//     applied; a node with NO window for (pg, q) may later gain one whose
//     applied is 0 (a cold reader must reconstruct the page from the
//     initial image), so it pins the page's diffs entirely. Hence
//     diffFloor_q[pg] = min over all other nodes of their applied on
//     (pg, q), with absent windows counting as 0, capped one below a
//     pending (closed-but-unharvested) interval on the page so a lazy
//     harvest cannot append below the pruned line.
//
// Cold windows — notices held for pages a node never reads — therefore pin
// exactly the history a future read would need, and nothing else. That is
// the honest shape of the problem: real TreadMarks GC VALIDATES pages (real
// traffic) to drain those windows, which an equivalence-preserving collector
// must not do. Workloads whose windows drain (migratory, producer-consumer,
// all-read epochs: Water, QS, the micros) get bounded history; broadcast-
// invalidate workloads with unread pages (SOR's distant interior rows) keep
// theirs, measured in EXPERIMENTS.md. That is the modeled footprint
// (NoticeBytes), not the host's: a pinned diff that a later diff of its
// writer covers, at or below the writer's barrier watermark, keeps its wire
// size and word count but drops its bytes (supersede, in lrc.go), so SOR's
// pinned history holds only the diffs nothing has superseded.
package lrc

// GC is a shared notice-history collector across the nodes of one run.
// Attach with NewGC before the simulation starts; it fires once per barrier.
type GC struct {
	nodes  []*Node
	minVec []int32 // scratch: min over nodes of vec[q], then of floor[q]
	dead   []int32 // scratch: one node's record kill line per writer
	report GCReport
}

// GCReport summarizes a run's collections. It is host-side observability
// only and never feeds back into simulated cost or core.Stats.
type GCReport struct {
	Collections   int        // barrier-quiescence collection passes
	RecordsPruned int64      // interval records dropped across all nodes
	DiffsPruned   int64      // stored diffs dropped at their writers
	Violations    int64      // floor-soundness violations (must stay 0)
	Samples       []GCSample // notice-history footprint around each pass
}

// GCSample is the machine-wide notice-history footprint in bytes immediately
// before and after one collection pass.
type GCSample struct {
	Before int64
	After  int64
}

// NewGC wires a collector into every node of a run. All nodes must belong to
// the same simulation; the collector fires at each barrier's managing node.
func NewGC(nodes []*Node) *GC {
	if len(nodes) == 0 {
		return nil
	}
	nprocs := nodes[0].NProcs()
	g := &GC{nodes: nodes, minVec: make([]int32, nprocs), dead: make([]int32, nprocs)}
	for _, n := range nodes {
		n.gc = g
		n.diffFloor = make(map[int]int32)
	}
	return g
}

// Report returns the accumulated collection report.
func (g *GC) Report() GCReport { return g.report }

// NoticeBytes returns the machine-wide notice-history footprint: the wire
// size of every retained interval record on every node plus every stored
// diff at its writer. This is the quantity GC bounds.
func (g *GC) NoticeBytes() int64 {
	var b int64
	for _, n := range g.nodes {
		b += n.NoticeHistoryBytes()
	}
	return b
}

// NoticeHistoryBytes is one node's share of the notice-history footprint:
// the interval records it holds plus its own stored diffs, in wire bytes, as
// if each node kept its own copies (the log shares them, but the footprint
// is the protocol's). The runner reports the machine-wide sum so GC-off and
// GC-on footprints compare directly. The node keeps it as a running count.
func (n *Node) NoticeHistoryBytes() int64 { return n.noticeBytes }

const gcMaxIdx = int32(1<<31 - 1)

// collect runs one collection pass at the barrier quiescent point.
func (g *GC) collect() {
	before := g.NoticeBytes()

	// minVec[q]: the lowest interval of q any node's vector still misses.
	// No future grant or departure ships records at or below it.
	for q := range g.minVec {
		g.minVec[q] = gcMaxIdx
	}
	for _, n := range g.nodes {
		for q, v := range n.vec {
			if v < g.minVec[q] {
				g.minVec[q] = v
			}
		}
	}

	// Per-node record floors: the held records at or below the kill line
	// are pruned.
	dead := g.dead
	for _, n := range g.nodes {
		self := n.P.ID()
		copy(dead, g.minVec)
		if n.lastBarrierSent < dead[self] {
			dead[self] = n.lastBarrierSent
		}
		for _, pm := range n.meta {
			if pm == nil {
				continue
			}
			for _, w := range pm.writers {
				if w.noticed > w.applied && w.applied < dead[w.proc] {
					dead[w.proc] = w.applied
				}
			}
		}
		for q, line := range dead {
			line = min(line, n.held[q])
			if line <= n.floor[q] {
				continue
			}
			for _, r := range n.hist.span(q, n.floor[q], line) {
				n.noticeBytes -= int64(r.wire)
			}
			g.report.RecordsPruned += int64(line - n.floor[q])
			n.floor[q] = line
		}
	}

	// No node holds a writer's records below the lowest floor: trim the
	// logs there. A shared log is trimmed at its first node, a no-op after.
	low := g.minVec
	for q := range low {
		low[q] = gcMaxIdx
	}
	for _, n := range g.nodes {
		for q, f := range n.floor {
			low[q] = min(low[q], f)
		}
	}
	for _, n := range g.nodes {
		for q, f := range low {
			n.hist.trim(q, f)
		}
	}

	// Per-(writer, page) diff floors and pruning.
	for _, n := range g.nodes {
		self := int32(n.P.ID())
		for pg, pm := range n.meta {
			if pm == nil || len(pm.diffs) == 0 {
				continue
			}
			ds := pm.diffs
			floor := gcMaxIdx
			for _, x := range g.nodes {
				if x == n {
					continue
				}
				var w *writerWindow
				if xm := x.meta[pg]; xm != nil {
					w = xm.find(self)
				}
				if w == nil {
					// A cold reader reconstructs the page from the initial
					// image: a future window here starts at applied 0 and
					// pins the page's whole diff history.
					floor = 0
					break
				}
				if w.applied < floor {
					floor = w.applied
				}
			}
			if pm.closedIval >= 0 && pm.closedIval-1 < floor {
				floor = pm.closedIval - 1
			}
			if floor <= 0 {
				continue
			}
			if floor > n.diffFloor[pg] {
				n.diffFloor[pg] = floor
			}
			kept := ds[:0]
			for _, idf := range ds {
				if idf.Ival > floor {
					kept = append(kept, idf)
				} else {
					g.report.DiffsPruned++
					n.noticeBytes -= int64(idf.Diff.WireSize())
				}
			}
			for j := len(kept); j < len(ds); j++ {
				ds[j] = ivalDiff{}
			}
			pm.diffs = kept
		}
	}

	g.report.Collections++
	g.report.Samples = append(g.report.Samples, GCSample{Before: before, After: g.NoticeBytes()})
}
