package trace

import (
	"sort"

	"ecvslrc/internal/sim"
)

// Critical-path extraction. The path is walked backward from the last event
// of the longest-running processor, following the dependency edges the trace
// records:
//
//   - lock wait     -> the EvLockGrant that granted this requester (jump to
//     the granter at the grant instant);
//   - barrier wait  -> the last EvBarArrive of the episode (jump to the
//     straggler at its arrival);
//   - page fetch    -> the latest EvFetchServe answering this requester
//     (jump to the serving processor at the serve instant).
//
// Each backward step covers a half-open span of virtual time exactly once:
// either a jump span [te, t) on the waiting processor (attributed to the wait
// class, naming the object waited on), or a same-processor segment walk
// (attributed by the segment's own decomposition). The spans therefore tile
// [0, End) and the path total equals the end time — the same conservation
// discipline as the profile, applied to the path.
//
// What-if projections re-cost the path with one class zeroed: "if diffs were
// free, the end time's lower bound is End - path(trap-diff)". They are lower
// bounds only — removing a class does not re-schedule the run, and a second
// path may be revealed right behind the first.

// PathSpan is one span of the critical path (walked backward; Spans are
// reported in forward time order).
type PathSpan struct {
	Proc    int
	T0, T1  sim.Time
	Class   StallClass
	ObjKind int32
	ObjID   int32
}

// CritPath is the extracted critical path and its decomposition.
type CritPath struct {
	Meta Meta
	// EndProc is the processor whose end event anchors the path; Total its
	// end time (the sum of all span durations).
	EndProc int
	Total   sim.Time
	// Spans is the path in forward time order.
	Spans []PathSpan
	// Class decomposes the path total per stall class.
	Class [NumStallClasses]sim.Time
	// Objects aggregates path time per (class, object), sorted by descending
	// time (ties by class then object) — "what is the path made of".
	Objects []StackEntry
	// Truncated reports that the walk hit its step bound and the decomposition
	// covers only the spans extracted before the bound (never in practice;
	// the bound guards report generation against malformed traces).
	Truncated bool
}

// WhatIf returns the projected lower bound on the anchor processor's end
// time when class c is free (its path share removed).
func (cp *CritPath) WhatIf(c StallClass) sim.Time {
	return cp.Total - cp.Class[c]
}

// maxPathSteps bounds the backward walk. Each jump strictly decreases the
// cursor time and each segment walk consumes one segment, so a genuine trace
// terminates far below any realistic bound; this guards hostile input.
const maxPathSteps = 1 << 26

// grantEdge indexes one EvLockGrant by requester for the backward walk.
type grantEdge struct {
	at      sim.Time
	granter int
}

// serveEdge indexes one EvFetchServe by requester.
type serveEdge struct {
	at     sim.Time
	server int
}

// arriveEdge indexes one EvBarArrive.
type arriveEdge struct {
	at   sim.Time
	proc int
}

// ExtractCriticalPath walks the dependency graph backward from the profile's
// longest processor. The result is a pure function of the trace and profile.
func ExtractCriticalPath(t *Tracer, prof *Profile) *CritPath {
	prof.requireFull("ExtractCriticalPath")
	cp := &CritPath{Meta: prof.Meta, EndProc: -1}
	if t == nil || len(prof.Procs) == 0 {
		return cp
	}

	// Dependency indexes, each sorted by time (append order per key is
	// already time-ordered within one emitting processor, but grants for one
	// requester can come from different granters, so sort explicitly).
	grants := make(map[[2]int32][]grantEdge) // (lock, requester) -> grants
	serves := make(map[[2]int32][]serveEdge) // (page, requester) -> serves
	arrivals := make(map[int32][]arriveEdge) // barrier -> arrivals
	for _, r := range t.Merged() {
		switch r.Kind {
		case EvLockGrant:
			k := [2]int32{r.A, r.B}
			grants[k] = append(grants[k], grantEdge{at: r.At, granter: int(r.Proc)})
		case EvFetchServe:
			k := [2]int32{r.A, r.B}
			serves[k] = append(serves[k], serveEdge{at: r.At, server: int(r.Proc)})
		case EvBarArrive:
			arrivals[r.A] = append(arrivals[r.A], arriveEdge{at: r.At, proc: int(r.Proc)})
		}
	}

	// Anchor: the processor with the largest end time (lowest id on ties).
	for i := range prof.Procs {
		if cp.EndProc < 0 || prof.Procs[i].End > prof.Procs[cp.EndProc].End {
			cp.EndProc = i
		}
	}
	cp.Total = prof.Procs[cp.EndProc].End

	proc, tcur := cp.EndProc, cp.Total
	steps := 0
	for tcur > 0 {
		steps++
		if steps > maxPathSteps {
			cp.Truncated = true
			break
		}
		seg := segmentAt(prof.Procs[proc].Segments, tcur)
		if seg == nil {
			// Time before the processor's first block: compute.
			cp.addSpan(PathSpan{Proc: proc, T0: 0, T1: tcur, Class: ClassCompute, ObjKind: ObjNone, ObjID: -1})
			break
		}
		if q, te, ok := dependency(seg, proc, tcur, grants, serves, arrivals); ok && te < tcur && te > seg.T0 {
			// The wake was enabled by an event on another processor: the
			// span [te, tcur) is genuine waiting for that chain.
			cp.addSpan(PathSpan{Proc: proc, T0: te, T1: tcur, Class: seg.Class, ObjKind: seg.ObjKind, ObjID: seg.ObjID})
			proc, tcur = q, te
			continue
		}
		// Walk the segment (or its remaining prefix) on this processor.
		cp.addSegment(proc, seg, tcur)
		tcur = seg.T0
	}

	// Spans were appended walking backward; reverse into forward order.
	for i, j := 0, len(cp.Spans)-1; i < j; i, j = i+1, j-1 {
		cp.Spans[i], cp.Spans[j] = cp.Spans[j], cp.Spans[i]
	}

	// Aggregate per (class, object).
	agg := make(map[[3]int32]*StackEntry)
	for _, s := range cp.Spans {
		key := [3]int32{int32(s.Class), s.ObjKind, s.ObjID}
		e := agg[key]
		if e == nil {
			e = &StackEntry{Proc: -1, Class: s.Class, ObjKind: s.ObjKind, ObjID: s.ObjID}
			agg[key] = e
		}
		e.Time += s.T1 - s.T0
	}
	for _, e := range agg {
		cp.Objects = append(cp.Objects, *e)
	}
	sort.Slice(cp.Objects, func(i, j int) bool {
		a, b := cp.Objects[i], cp.Objects[j]
		if a.Time != b.Time {
			return a.Time > b.Time
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.ObjKind != b.ObjKind {
			return a.ObjKind < b.ObjKind
		}
		return a.ObjID < b.ObjID
	})
	return cp
}

// addSpan accumulates one backward-walk span.
func (cp *CritPath) addSpan(s PathSpan) {
	if s.T1 <= s.T0 {
		return
	}
	cp.Spans = append(cp.Spans, s)
	cp.Class[s.Class] += s.T1 - s.T0
}

// addSegment walks the prefix [seg.T0, upTo) of a segment onto the path,
// splitting by the segment's part decomposition. Parts carry durations, not
// positions; the prefix takes parts in order until the length is covered, so
// a mid-segment landing attributes the same classes a full walk would, only
// clipped.
func (cp *CritPath) addSegment(proc int, seg *Segment, upTo sim.Time) {
	want := upTo - seg.T0
	at := seg.T0
	var spans []PathSpan
	for _, part := range seg.parts() {
		if want <= 0 {
			break
		}
		d := part.D
		if d > want {
			d = want
		}
		spans = append(spans, PathSpan{Proc: proc, T0: at, T1: at + d, Class: part.Class, ObjKind: part.ObjKind, ObjID: part.ObjID})
		at += d
		want -= d
	}
	if want > 0 {
		// Part durations fell short of the interval (cannot happen: parts
		// sum to the interval length); cover the rest as the base class.
		spans = append(spans, PathSpan{Proc: proc, T0: at, T1: upTo, Class: seg.Class, ObjKind: seg.ObjKind, ObjID: seg.ObjID})
	}
	// The walk appends backward (the caller's spans run from latest to
	// earliest, reversed once at the end), so the segment's parts must be
	// appended latest-first too.
	for i := len(spans) - 1; i >= 0; i-- {
		cp.addSpan(spans[i])
	}
}

// segmentAt finds the segment containing (t-1, t], i.e. with T0 < t <= T1.
func segmentAt(segs []Segment, t sim.Time) *Segment {
	i := sort.Search(len(segs), func(i int) bool { return segs[i].T1 >= t })
	if i == len(segs) {
		return nil
	}
	if s := &segs[i]; s.T0 < t {
		return s
	}
	return nil
}

// dependency resolves the event that enabled the wake ending seg at tcur: the
// latest matching edge at or before tcur. Returns ok=false for compute and
// other non-dependency segments.
func dependency(seg *Segment, proc int, tcur sim.Time,
	grants map[[2]int32][]grantEdge, serves map[[2]int32][]serveEdge,
	arrivals map[int32][]arriveEdge) (int, sim.Time, bool) {
	switch seg.Class {
	case ClassLockWait:
		es := grants[[2]int32{seg.ObjID, int32(proc)}]
		i := sort.Search(len(es), func(i int) bool { return es[i].at > tcur })
		for i--; i >= 0; i-- {
			if es[i].granter != proc {
				return es[i].granter, es[i].at, true
			}
		}
	case ClassBarrierWait:
		es := arrivals[seg.ObjID]
		i := sort.Search(len(es), func(i int) bool { return es[i].at > tcur })
		for i--; i >= 0; i-- {
			if es[i].proc != proc {
				return es[i].proc, es[i].at, true
			}
		}
	case ClassPageFetch:
		if seg.ObjID < 0 {
			return 0, 0, false
		}
		es := serves[[2]int32{seg.ObjID, int32(proc)}]
		i := sort.Search(len(es), func(i int) bool { return es[i].at > tcur })
		for i--; i >= 0; i-- {
			if es[i].server != proc {
				return es[i].server, es[i].at, true
			}
		}
	}
	return 0, 0, false
}
