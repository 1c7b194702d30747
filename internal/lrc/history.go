package lrc

import (
	"fmt"

	"ecvslrc/internal/nodebase"
)

// History is the interval-record log of one simulation: per writer, the
// records it closed (keys and costs, no vectors), ascending by index.
// closeInterval bumps a processor's interval index only when it makes a
// record, so a writer's indices are contiguous, and a record is immutable
// once made. Every node of a run can therefore read the same records: a node
// holds writer q's records (floor[q], held[q]] of q's log, where held
// advances as write notices arrive and floor as the collector prunes.
//
// A History built by NewHistory and passed to every NewWithImage of a run is
// shared; New gives its node a private one, which absorb fills with the
// records it receives, so both run the same code path.
type History struct {
	logs []writerLog

	// The run's allocation chunks, which its nodes share: their pageMetas
	// and first writer-window slices, which live as long as the run, and the
	// vectors their messages carry (Node.sentVec).
	metas   nodebase.Chunk[pageMeta]
	windows nodebase.Chunk[writerWindow]
	vecs    nodebase.Chunk[int32]
}

// Chunk sizes. Each run has one chunk of each kind, not one per node, so
// an unused tail is not multiplied by the processor count.
const (
	metaChunk   = 256  // pageMetas per chunk: 14 KiB
	windowChunk = 1024 // writer windows per chunk: 12 KiB
	vecChunk    = 4096 // vector elements per chunk: 16 KiB
)

// writerLog is one writer's records: recs[i] has index base+1+i. The
// collector trims it at the lowest floor of any node sharing it.
type writerLog struct {
	base int32
	recs []*interval
}

// NewHistory returns an empty log for nprocs writers.
func NewHistory(nprocs int) *History {
	return &History{
		logs:    make([]writerLog, nprocs),
		metas:   nodebase.Chunk[pageMeta]{Size: metaChunk},
		windows: nodebase.Chunk[writerWindow]{Size: windowChunk},
		vecs:    nodebase.Chunk[int32]{Size: vecChunk},
	}
}

// top returns the highest record index in q's log (its base if empty).
func (h *History) top(q int) int32 {
	l := &h.logs[q]
	return l.base + int32(len(l.recs))
}

// at returns q's record idx; the caller keeps idx inside (base, top].
func (h *History) at(q int, idx int32) *interval {
	l := &h.logs[q]
	return l.recs[idx-l.base-1]
}

// span returns q's records in (lo, hi], with base <= lo <= hi <= top. The
// result is capped so an append to it never writes into the log.
func (h *History) span(q int, lo, hi int32) []*interval {
	l := &h.logs[q]
	return l.recs[lo-l.base : hi-l.base : hi-l.base]
}

// add appends rec to its writer's log, which must end just below it.
func (h *History) add(rec *interval) {
	if top := h.top(rec.proc); rec.idx != top+1 {
		panic(fmt.Sprintf("lrc: writer %d's log ends at %d, cannot append record %d", rec.proc, top, rec.idx))
	}
	l := &h.logs[rec.proc]
	l.recs = append(l.recs, rec)
}

// trim drops q's records at or below floor. The survivors shift down in
// place and the tail is cleared so the dropped records are unreachable; the
// backing array stays at its high-water mark, which collection bounds.
func (h *History) trim(q int, floor int32) {
	l := &h.logs[q]
	cut := int(min(floor, h.top(q)) - l.base)
	if cut <= 0 {
		return
	}
	k := copy(l.recs, l.recs[cut:])
	clear(l.recs[k:])
	l.recs = l.recs[:k]
	l.base += int32(cut)
}
