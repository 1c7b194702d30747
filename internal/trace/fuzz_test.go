package trace

import (
	"bytes"
	"errors"
	"testing"

	"ecvslrc/internal/sim"
)

// fuzzSeedTrace builds a small valid trace for the corpus, so mutations
// explore the record-parsing paths and not just header rejection.
func fuzzSeedTrace() []byte {
	tr := New(2)
	tr.Send(sim.Millisecond, 0, 1, 7, 64)
	tr.Deliver(2*sim.Millisecond, 1, 0, 7, 64)
	tr.Drop(3*sim.Millisecond, 0, 1, 7, 1)
	tr.Retransmit(4*sim.Millisecond, 0, 1, 7, 2)
	tr.Ack(5*sim.Millisecond, 1, 0, 3)
	tr.DupDrop(6*sim.Millisecond, 0, 1, 7)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzReadBinary asserts ReadBinary's hostile-input contract: it never
// panics, classifies every malformed input as ErrCorrupt (a bytes.Reader
// produces no other I/O errors), and every accepted input reaches a
// serialization fixpoint — write, re-read, write again yields identical
// bytes. (The input itself may differ from the first write: ReadBinary
// ignores bytes past the declared record count, and WriteBinary canonicalizes
// record order.)
func FuzzReadBinary(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("DSMTRC"))
	f.Add(fuzzSeedTrace())
	corrupted := fuzzSeedTrace()
	corrupted[24] = 0xff // first record's kind byte
	f.Add(corrupted)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-I/O failure does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		var out1, out2 bytes.Buffer
		if err := tr.WriteBinary(&out1); err != nil {
			t.Fatalf("serializing accepted trace: %v", err)
		}
		tr2, err := ReadBinary(bytes.NewReader(out1.Bytes()))
		if err != nil {
			t.Fatalf("re-reading own output: %v", err)
		}
		if err := tr2.WriteBinary(&out2); err != nil {
			t.Fatalf("re-serializing: %v", err)
		}
		if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
			t.Fatalf("serialization is not a fixpoint: %d vs %d bytes", out1.Len(), out2.Len())
		}
	})
}

// fuzzKinds are the kinds the profiler reads, plus some it only takes the
// time of.
var fuzzKinds = []Kind{EvBlock, EvWake, EvWork, EvRecovery, EvLinkWait, EvLockReq,
	EvLockAcq, EvBarArrive, EvBarDepart, EvMiss, EvSend, EvDeliver}

// fuzzHistory decodes arbitrary bytes into a three-processor record stream in
// global emission order, four bytes a record: kind, processor, time step and
// one value for whichever slot the kind reads. A block's value is what it
// waits for: every sim.WaitKind, unlabelled and the retired code included,
// on one of eight objects. The scheduler's clock never runs backward, so
// block and wake records advance it; the others are stamped that far ahead
// of it instead, as handler-context records can be.
func fuzzHistory(data []byte) []Rec {
	var recs []Rec
	var now sim.Time
	for ; len(data) >= 4; data = data[4:] {
		kind := fuzzKinds[int(data[0])%len(fuzzKinds)]
		at := now + sim.Time(data[2])
		if kind == EvBlock || kind == EvWake {
			now = at
		}
		v := int32(data[3])
		r := Rec{At: at, Kind: kind, Proc: data[1] % 3, Aux: uint16(v % 5), A: v % 8, B: v % 4, C: int64(v) * 3}
		if kind == EvBlock {
			r.Aux, r.A = uint16(v%int32(sim.WaitLock+1)), v/int32(sim.WaitLock+1)%8
		}
		recs = append(recs, r)
	}
	return recs
}

// sameTotals compares what both sinks produce: every processor's end and
// class totals, the grand totals and the span.
func sameTotals(t *testing.T, what string, got, want *Profile) {
	t.Helper()
	if got.Total != want.Total || got.Span != want.Span || len(got.Procs) != len(want.Procs) {
		t.Fatalf("%s: total %v span %v over %d procs, want %v %v over %d",
			what, got.Total, got.Span, len(got.Procs), want.Total, want.Span, len(want.Procs))
	}
	for i := range want.Procs {
		g, w := got.Procs[i], want.Procs[i]
		if g.Proc != w.Proc || g.End != w.End || g.Class != w.Class {
			t.Fatalf("%s: proc %d = end %v classes %v, want end %v classes %v", what, i, g.End, g.Class, w.End, w.Class)
		}
	}
}

// FuzzProfileFold pins the two drivers of the profiler's state machine to
// each other on arbitrary histories, unbalanced blocks and trailing open
// intervals included: after every record, a profiling tracer fed one record
// at a time reports exactly the totals of a buffered BuildProfile over the
// same prefix, conservation holds in both, asking twice changes nothing, and
// the totals sink of the slice driver agrees with its full sink.
func FuzzProfileFold(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 0, 40, 9, 0, 0, 20, 3, 10, 0, 90, 0}) // block, work, block again, trailing send
	f.Add([]byte{1, 1, 99, 0, 4, 1, 0, 200, 0, 1, 30, 2})             // wake first, link wait longer than any interval
	// A lock wait with recovery and work inside it, then a barrier episode
	// left open at the end, interleaved over all three processors.
	f.Add([]byte{5, 0, 0, 5, 0, 0, 10, 35, 3, 0, 5, 7, 2, 0, 0, 4, 1, 0, 60, 0, 6, 0, 0, 5,
		0, 1, 0, 1, 1, 1, 30, 0, 9, 1, 0, 3, 0, 1, 0, 21, 4, 1, 5, 2, 1, 1, 50, 0,
		7, 2, 0, 1, 0, 2, 0, 10, 11, 2, 80, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*512 {
			data = data[:4*512]
		}
		meta := profileMeta()
		buffered, live := New(3), NewProfiling(3)
		for i, r := range fuzzHistory(data) {
			buffered.emit(int(r.Proc), r)
			live.emit(int(r.Proc), r)
			if i%3 == 0 {
				live.fold(int(r.Proc)) // some records wait in the queue, some do not
			}
			want := BuildProfile(buffered, meta)
			got := BuildProfile(live, meta)
			sameTotals(t, "live vs buffered", got, want)
			sameTotals(t, "second build", BuildProfile(live, meta), got)
			for _, p := range []*Profile{got, want} {
				if err := p.CheckConservation(); err != nil {
					t.Fatal(err)
				}
			}
			if got.Stacks != nil || got.Procs[0].Segments != nil {
				t.Fatal("profiling tracer's profile carries segments or stacks")
			}
		}
		for proc, recs := range buffered.bufs {
			full := scanProc(proc, recs, make(map[[3]int32]*StackEntry))
			totals := scanProc(proc, recs, nil)
			if full.end != totals.end || full.class != totals.class || totals.segs != nil {
				t.Fatalf("proc %d: totals sink = end %v %v, full sink = end %v %v",
					proc, totals.end, totals.class, full.end, full.class)
			}
		}
	})
}
